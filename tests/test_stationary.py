"""Tests for stationary barrier/threshold solutions and flux."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evlab.numcore import NATURAL_UNITS, UnitSystem
from evlab.stationary import (
    BarrierSpec,
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
            left = sol.psi(x0 - eps)
            right = sol.psi(x0 + eps)
            assert left == pytest.approx(right, abs=1e-7)

    def test_psi_at_exit_face_is_t(self):
        # kappa d = 1.4, 693 and 1131: the growing wave is written relative to
        # the exit face, so psi(d) = t even where F2 ~ e^{-2 kappa d} underflows.
        for E, U0, d in [(0.6, 1.5, 1.2), (0.5, 2.0, 400.0), (1.0, 2.0, 800.0)]:
            sol = barrier_solution(E, BarrierSpec(U0, d))
            assert sol.psi(d) == pytest.approx(sol.t, rel=1e-12, abs=0.0)
        opaque = barrier_solution(1.0, BarrierSpec(2.0, 800.0))
        assert opaque.psi(800.0) == opaque.t

    def test_opaque_barrier_stays_finite_and_unitary(self):
        # kappa d = 1131: exp(kappa d) would overflow.
        spec = BarrierSpec(2.0, 800.0)
        sol = barrier_solution(1.0, spec)
        values = [sol.F1, sol.F2, sol.r, sol.t, *sol.psi(np.linspace(-1.0, 801.0, 9))]
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
    def test_total_reflection(self):
        sol = threshold_solution(0.5, 2.0)
        assert abs(sol.r) == pytest.approx(1.0, abs=1e-15)
        assert sol.t == 0.0 and sol.F2 == 0.0

    def test_flux_vanishes_everywhere(self):
        sol = threshold_solution(0.5, 2.0)
        for x in (-3.0, -0.1, 0.0, 0.4, 5.0):
            assert abs(probability_flux(sol, x)) < 1e-14

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
            dpsi = (sol.psi(x + h) - sol.psi(x - h)) / (2.0 * h)
            # Direct flux (hbar/m) Im(conj(psi) dpsi/dx) at m = 1.2.
            direct = (1.0 / 1.2) * (complex(sol.psi(x)).conjugate() * dpsi).imag
            assert probability_flux(sol, x) == pytest.approx(direct, rel=1e-6)

    def test_scales_with_units(self):
        units = UnitSystem(hbar=2.0, c=1.0)
        sol = barrier_solution(1.0, BarrierSpec(2.0, 1.0), units)
        j = probability_flux(sol, 2.0, units)
        assert j == pytest.approx(2.0 * sol.k * sol.transmission)


class TestMatchEvanescentSlab:
    def test_validation(self):
        with pytest.raises(ValueError):
            match_evanescent_slab(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            match_evanescent_slab(1.0, 1.0, 0.0)

    def test_opaque_limit_kills_growing_wave(self):
        for d in (20.0, 800.0):
            F1, F2, r, t = match_evanescent_slab(1.0, 1.0, d)
            assert abs(F2) < abs(F1) * 1e-15
            assert abs(r) == pytest.approx(1.0, abs=1e-12)

    def test_broadcast_equals_scalar_calls(self):
        k = np.array([0.3, 1.0, 2.5, 1.4142135623730951])
        kappa = np.array([[1.7], [0.2]])
        d = np.array([0.3, 1.7, 10.0, 200.0])
        batched = match_evanescent_slab(k, kappa, d)
        for i, j in np.ndindex(2, 4):
            scalar = match_evanescent_slab(float(k[j]), float(kappa[i, 0]), float(d[j]))
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
