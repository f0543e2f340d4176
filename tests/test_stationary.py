"""Tests for stationary barrier/threshold solutions and flux."""

import cmath
import decimal
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evlab.numcore import NATURAL_UNITS, UnitSystem
from evlab.stationary import (
    BarrierSpec,
    _slab_field,
    barrier_solution,
    match_evanescent_slab,
    probability_flux,
    relativistic_wavenumber,
    threshold_solution,
)


def closed_form_t(E, U0, d, m=1.0, hbar=1.0):
    """Textbook transmission amplitude, referenced to the exit face."""
    k = math.sqrt(2.0 * m * E) / hbar
    kap = math.sqrt(2.0 * m * (U0 - E)) / hbar
    return 2j * k * kap / (
        2j * k * kap * math.cosh(kap * d) + (k * k - kap * kap) * math.sinh(kap * d)
    )


def psi(sol, x):
    """The stationary wavefunction of a scalar-energy solution at position(s) x, pieced
    together from its fields: exp(ikx) + r exp(-ikx) before the barrier, the library's
    interior field inside it, and t exp(ik (x - d)) past it (F1 exp(-kappa x) past a
    threshold)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    left = x < 0
    out[left] = np.exp(1j * sol.k * x[left]) + sol.r * np.exp(-1j * sol.k * x[left])
    if sol.width_d == math.inf:
        inside = ~left
        out[inside] = sol.F1 * np.exp(-sol.kappa * x[inside])
    else:
        inside = (~left) & (x <= sol.width_d)
        out[inside] = _slab_field(sol.F1, sol.t, sol.kappa, sol.width_d, x[inside])
        beyond = x > sol.width_d
        out[beyond] = sol.t * np.exp(1j * sol.k * (x[beyond] - sol.width_d))
    return out if out.shape else complex(out)


def decimal_transmission(E, U0, d, m=1.0):
    """T = 1 / (1 + (1 + kh^2)^2 sinh^2(kappa d) / (4 kh^2)) at 50 digits (hbar = 1), with
    kh^2 = E / (U0 - E) and kappa d = sqrt(2 m (U0 - E)) d from the doubles given; 0 past
    kappa d = 1000, where T < e^-2000."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        E, U0, d, m = (decimal.Decimal(v) for v in (E, U0, d, m))
        kh2 = E / (U0 - E)
        x = (2 * m * (U0 - E)).sqrt() * d
        if x > 1000:
            return 0.0
        small = x < decimal.Decimal("1e-12")
        sinh = x * (1 + x * x / 6) if small else (x.exp() - (-x).exp()) / 2
        return float(1 / (1 + (1 + kh2) ** 2 * sinh**2 / (4 * kh2)))


class TestBarrierSolution:
    def test_matches_closed_form_amplitude(self):
        for E, U0, d in [(1.0, 2.0, 0.8), (0.3, 2.0, 1.3), (1.7, 2.0, 0.4)]:
            sol = barrier_solution(E, BarrierSpec(U0, d))
            assert sol.t == pytest.approx(closed_form_t(E, U0, d), abs=1e-14)

    def test_symmetric_point_transmission(self):
        # At E = U0/2 the exterior and interior wavenumbers coincide and
        # T = 1 / cosh(kappa d)^2.
        spec = BarrierSpec(2.0, 1.0 / math.sqrt(2.0))
        sol = barrier_solution(1.0, spec)
        assert sol.k == pytest.approx(sol.kappa)
        kd = sol.kappa * spec.width_d
        assert sol.transmission == pytest.approx(1.0 / math.cosh(kd) ** 2, rel=1e-13)

    def test_unitarity(self):
        sol = barrier_solution(0.77, BarrierSpec(1.9, 2.1, 1.3))
        assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.2, 8.0),
        st.floats(0.05, 4.0),
        st.floats(0.2, 5.0),
    )
    def test_unitarity_random(self, frac, U0, d, m):
        sol = barrier_solution(frac * U0, BarrierSpec(U0, d, m))
        assert abs(sol.transmission + sol.reflection - 1.0) < 1e-12

    def test_psi_continuous_at_interfaces(self):
        sol = barrier_solution(0.6, BarrierSpec(1.5, 1.2))
        eps = 1e-9
        for x0 in (0.0, 1.2):
            left = psi(sol, x0 - eps)
            right = psi(sol, x0 + eps)
            assert left == pytest.approx(right, abs=1e-7)

    def test_psi_at_exit_face_is_t(self):
        # kappa d = 1.4, 693 and 1131: the growing wave is written relative to
        # the exit face, so psi(d) = t even where F2 ~ e^{-2 kappa d} underflows.
        for E, U0, d in [(0.6, 1.5, 1.2), (0.5, 2.0, 400.0), (1.0, 2.0, 800.0)]:
            sol = barrier_solution(E, BarrierSpec(U0, d))
            assert psi(sol, d) == pytest.approx(sol.t, rel=1e-12, abs=0.0)
        opaque = barrier_solution(1.0, BarrierSpec(2.0, 800.0))
        assert psi(opaque, 800.0) == opaque.t

    def test_opaque_barrier_stays_finite_and_unitary(self):
        # kappa d = 1131: exp(kappa d) would overflow.
        spec = BarrierSpec(2.0, 800.0)
        sol = barrier_solution(1.0, spec)
        values = [sol.F1, sol.F2, sol.r, sol.t, *psi(sol, np.linspace(-1.0, 801.0, 9))]
        assert all(cmath.isfinite(v) for v in values)
        assert abs(sol.transmission + sol.reflection - 1.0) < 1e-12

    def test_rejects_above_barrier_energy(self):
        with pytest.raises(ValueError):
            barrier_solution(2.5, BarrierSpec(2.0, 1.0))
        with pytest.raises(ValueError):
            barrier_solution(-0.1, BarrierSpec(2.0, 1.0))

    def test_rejects_nan_energy(self):
        # NaN fails every comparison, so a range check written as E <= 0 or
        # E >= U0 would let it through to NaN amplitudes.
        spec = BarrierSpec(2.0, 1.0)
        for E in (math.nan, np.array([0.5, math.nan, 1.5])):
            with pytest.raises(ValueError, match="E=nan is not inside"):
                barrier_solution(E, spec)
        with pytest.raises(ValueError):
            threshold_solution(math.nan, 2.0)

    @pytest.mark.parametrize("U0, m, E", [
        (1e300, 1e300, 5e299),  # 2 m E overflows
        (1.0, 1e-160, np.array([0.5, 1e-170, 1e-180])),  # 2 m E underflows at 1e-180
        (1e-300, 1e-300, 5e-301),  # 2 m E underflows
        (1.0, 1e-310, np.array([0.5, 1.0 - 2.0**-53])),  # 2 m (U0 - E) underflows
        (1e154, 1e154, 5e153),  # 4 k kappa = 4e308 overflows
        (2.0, 2.0**1021, 1.0),  # 4 k kappa = 2^1024
        (2.0, 5e-324, 1.0),  # 4 k kappa is subnormal
        (2.0, 2.0**-1025, 1.0),  # 4 k kappa = 2^-1022 is normal, k^2 + kappa^2 is not
        (1e-200, 1e-120, np.array([2e-201, 5e-201])),  # 4 k kappa ~ 1e-320 at the first E
    ])
    def test_wavenumber_products_outside_doubles_solve(self, U0, m, E):
        # k and kappa are doubles, but k^2, 4 k kappa or k^2 + kappa^2 is not. No product
        # of wavenumbers is formed: the amplitudes depend on k/kappa and kappa d alone, so
        # T meets its 50-digit closed form (0 where kappa d = 1e300, 1 where it is 1e-300).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = barrier_solution(E, BarrierSpec(U0, 1.0, m))
        expected = [decimal_transmission(e, U0, 1.0, m) for e in np.ravel(E)]
        assert np.ravel(sol.transmission) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert np.all(abs(sol.transmission + sol.reflection - 1.0) <= 1e-15)
        values = (sol.k, sol.kappa, sol.F1, sol.F2, sol.r, sol.t, probability_flux(sol, 0.5))
        assert all(np.isfinite(v).all() for v in values)

    @pytest.mark.parametrize("U0, m, E, hbar, named", [
        (1e300, 1e300, 5e299, 1e-34, "E=5e+299"),  # k = 1e334
        (1e-300, 1e-300, 5e-301, 1e30, "E=5e-301"),  # k = 1e-330
    ])
    def test_wavenumber_outside_doubles_names_E_U0_and_m(self, U0, m, E, hbar, named):
        message = re.escape(f"k and kappa must be positive and finite, got {named}, U0={U0}, m={m}")
        units = UnitSystem(hbar=hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                barrier_solution(E, BarrierSpec(U0, 1.0, m), units)
            with pytest.raises(ValueError, match=f"^{message}$"):
                threshold_solution(E, U0, m, units)

    @pytest.mark.parametrize("U0, m, E", [
        (2.0, 2.0**1020, 1.0),  # 4 k kappa = 2^1023, the largest power of two
        (2.0, 2.0**-1024, 1.0),  # k^2 + kappa^2 = 2^-1022, the least normal double
        (1e150, 1e150, 5e149),
        (1e-300, 1.0, 5e-301),
        (2.0, 1.0, 1e-310),  # k^2 is subnormal, k^2 + kappa^2 is not
    ])
    def test_slab_products_inside_doubles_solve(self, U0, m, E):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = barrier_solution(E, BarrierSpec(U0, 1.0, m))
        assert all(math.isfinite(abs(v)) for v in (sol.F1, sol.F2, sol.r, sol.t))
        assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [0.05, 1.0, 800.0])
    def test_array_energies_equal_scalar_calls(self, d):
        spec = BarrierSpec(2.0, d, 1.3)
        E = np.linspace(0.01, 1.99, 23)
        sol = barrier_solution(E, spec)
        for name in ("energy_E", "k", "kappa", "F1", "F2", "r", "t"):
            assert getattr(sol, name).shape == E.shape
        for i, e in enumerate(E):
            one = barrier_solution(float(e), spec)
            for name in ("k", "kappa", "F1", "F2", "r", "t"):
                assert getattr(sol, name)[i] == pytest.approx(
                    getattr(one, name), rel=1e-15, abs=0.0
                )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BarrierSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            BarrierSpec(1.0, -1.0)


class TestThresholdSolution:
    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_barrier_of_infinite_width(self, seed):
        # Field by field and bit for bit, at U0 and m from 1e-300 to 1e300, hbar from
        # 1e-200 to 1e200, and scalar and array energies. Where k or kappa leaves the
        # doubles (8 of the 200 draws), both refuse with the same message.
        rng = np.random.default_rng(seed)
        for _ in range(50):
            U0, m = 10.0 ** rng.uniform(-300, 300, 2)
            units = UnitSystem(hbar=10.0 ** rng.uniform(-200, 200))
            E = U0 * rng.uniform(0.0, 1.0, rng.choice([1, 5]))
            E = float(E[0]) if E.size == 1 else E
            try:
                step = threshold_solution(E, U0, m, units)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    barrier_solution(E, BarrierSpec(U0, math.inf, m), units)
                continue
            slab = barrier_solution(E, BarrierSpec(U0, math.inf, m), units)
            for name in ("energy_E", "k", "kappa", "F1", "F2", "r", "t", "width_d", "mass_m"):
                a, b = np.asarray(getattr(step, name)), np.asarray(getattr(slab, name))
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert step.width_d == math.inf

    def test_flux_vanishes_everywhere(self):
        # Zero from the interior formula at every x >= 0 (F2 = 0), and 1 - |r|^2 = 0 on
        # the left at (0.5, 2.0); within 2 ulps of hbar k / m on the left of any step.
        for x in (-3.0, -1.0, -0.1, 0.0, 0.4, 0.5, 5.0, 1e300):
            assert probability_flux(threshold_solution(0.5, 2.0), x) == 0.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            U0, m = 10.0 ** rng.uniform(-5, 5, 2)
            step = threshold_solution(U0 * rng.uniform(0.001, 0.999), U0, m)
            assert [probability_flux(step, x) for x in (0.0, 0.5, 1e300)] == [0.0] * 3
            assert abs(probability_flux(step, -1.0)) <= 2.0**-51 * step.k / m

    def test_total_reflection(self):
        sol = threshold_solution(0.5, 2.0)
        assert abs(sol.r) == pytest.approx(1.0, abs=1e-15)
        assert sol.t == 0.0 and sol.F2 == 0.0

    def test_matching_at_step(self):
        sol = threshold_solution(0.9, 1.7)
        # psi and psi' continuous at x = 0 by construction.
        assert 1.0 + sol.r == pytest.approx(sol.F1)
        assert 1j * sol.k * (1.0 - sol.r) == pytest.approx(-sol.kappa * sol.F1)


class TestFlux:
    def test_interior_flux_equals_transmitted(self):
        sol = barrier_solution(1.0, BarrierSpec(2.0, 1.0))
        j_in = probability_flux(sol, 0.5)
        j_out = probability_flux(sol, 2.0)
        assert j_in == pytest.approx(j_out, abs=1e-12)
        j_left = probability_flux(sol, -1.0)
        assert j_left == pytest.approx(j_out, abs=1e-12)

    def test_against_direct_field_derivative(self):
        sol = barrier_solution(0.8, BarrierSpec(1.6, 0.9, 1.2))
        h = 1e-6
        for x in (-2.0, 0.45, 3.0):
            dpsi = (psi(sol, x + h) - psi(sol, x - h)) / (2.0 * h)
            # Direct flux (hbar/m) Im(conj(psi) dpsi/dx) at m = 1.2.
            direct = (1.0 / 1.2) * (complex(psi(sol, x)).conjugate() * dpsi).imag
            assert probability_flux(sol, x) == pytest.approx(direct, rel=1e-6)

    def test_scales_with_units(self):
        units = UnitSystem(hbar=2.0, c=1.0)
        sol = barrier_solution(1.0, BarrierSpec(2.0, 1.0), units)
        j = probability_flux(sol, 2.0, units)
        assert j == pytest.approx(2.0 * sol.k * sol.transmission)


class TestMatchEvanescentSlab:
    def test_validation(self):
        for kh, kd in ((-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                       (1.0, -1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                match_evanescent_slab(kh, kd)

    def test_transparent_and_threshold_limits(self):
        # kappa d = 0: nothing to cross. kappa d = inf: the threshold's total reflection.
        for kh in (1e-8, 0.3, 1.0, 7.0):
            F1, F2, r, t = match_evanescent_slab(kh, 0.0)
            assert (r, t) == (0.0, 1.0)
            F1, F2, r, t = match_evanescent_slab(kh, math.inf)
            assert F2 == 0.0 and t == 0.0
            assert r == pytest.approx((1.0 + 1j * kh) / (1j * kh - 1.0), rel=1e-15)

    def test_opaque_limit_kills_growing_wave(self):
        for d in (20.0, 800.0):
            F1, F2, r, t = match_evanescent_slab(1.0, d)
            assert abs(F2) < abs(F1) * 1e-15
            assert abs(r) == pytest.approx(1.0, abs=1e-12)

    def test_broadcast_equals_scalar_calls(self):
        k = np.array([0.3, 1.0, 2.5, 1.4142135623730951])
        kappa = np.array([[1.7], [0.2]])
        d = np.array([0.3, 1.7, 10.0, 200.0])
        kh, kd = k / kappa, kappa * d
        batched = match_evanescent_slab(kh, kd)
        for i, j in np.ndindex(2, 4):
            scalar = match_evanescent_slab(float(kh[i, j]), float(kd[i, j]))
            for b, s in zip(batched, scalar):
                assert b[i, j] == pytest.approx(s, rel=1e-15, abs=0.0)

    def test_ftir_band_weights_equal_gap_transfer(self):
        # The FFT-domain weights come from one batched kernel call; bin by bin
        # they are the scalar gap transfer, conjugated for omega < 0 and 1 at 0.
        from evlab.ftir import GapSpec, _band_slab, gap_transfer

        spec = GapSpec(1.5, math.pi / 4.0, 0.7)
        omegas = 2.0 * math.pi * np.fft.fftfreq(16, 0.25)
        _, _, t = _band_slab(omegas, spec, NATURAL_UNITS)
        for w, tw in zip(omegas, t):
            if w > 0:
                expected = gap_transfer(w, spec).t
            elif w < 0:
                expected = gap_transfer(-w, spec).t.conjugate()
            else:
                expected = 1.0
            assert tw == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestRelativisticWavenumber:
    def test_evanescent_iff_inside_mass_gap(self):
        # |E - U0| < m0 c^2 gives a purely imaginary (decaying) wavenumber.
        k = relativistic_wavenumber(1.0, 1.5, 1.0)
        assert k.real == 0.0 and k.imag > 0.0
        k = relativistic_wavenumber(3.0, 1.5, 1.0)
        assert k.imag == 0.0 and k.real > 0.0

    def test_massless_limit(self):
        k = relativistic_wavenumber(2.0, 0.5, 0.0)
        assert k == pytest.approx(1.5)

    def test_branch_is_principal(self):
        E, U0, m0 = 0.2, 1.0, 1.0
        expected = cmath.sqrt((E - U0) ** 2 - m0**2)
        assert relativistic_wavenumber(E, U0, m0) == pytest.approx(expected)

    def test_negative_rest_mass_rejected(self):
        with pytest.raises(ValueError):
            relativistic_wavenumber(1.0, 0.5, -1.0)

    # sqrt|(E - U0)^2 - m0^2| at the doubles given, recorded offline with mpmath at 50 digits.
    @pytest.mark.parametrize("E, U0, m0, evanescent, closed_form", [
        (1.0, 2.0, 1e200, True, 9.999999999999999697331222e+199),
        (1.0, 2.0, 1.7e308, True, 1.699999999999999938830796e+308),
        (1.5e308, 1e-300, 1e308, False, 1.118033988749894860479553e+308),
        (2.0, 1.0, 1.0 - 2.0**-30, False, 4.315837286510689681311025e-05),
        (3.0, 1.0, 2.0 - 2.0**-51, False, 4.214684851089402944734889e-08),
        (1e-310, 0.0, 5e-311, False, 8.660254037844217385511935e-311),
    ])
    def test_extreme_points_meet_recorded_values(self, E, U0, m0, evanescent, closed_form):
        # Squares out of the double range, a near-cancelling gap, subnormal energies.
        k = relativistic_wavenumber(E, U0, m0)
        assert (k.real == 0.0) == evanescent
        # One subnormal ulp of slack for the last row.
        assert abs(k) == pytest.approx(closed_form, rel=1e-15, abs=5e-324)

    @pytest.mark.parametrize("units", [UnitSystem(hbar=1e-10), UnitSystem(c=1e10)])
    def test_overflowing_wavenumber_names_m0(self, units):
        # k = 1e310, or m0 c^2 = 1e320: neither is a double.
        with pytest.raises(ValueError, match=r"m0=1e\+300"):
            relativistic_wavenumber(1.0, 2.0, 1e300, units)
