"""Tests for the competing tunneling-time definitions."""

import cmath
import math
import warnings

import numpy as np
import pytest

from evlab import stationary, ttime
from evlab.numcore import integrate
from evlab.stationary import BarrierSpec, barrier_solution
from evlab.ttime import (
    PathologicalRegimeError,
    dwell_time,
    dwell_time_quadrature,
    esposito_factor,
    esposito_special_energy,
    esposito_time,
    esposito_time_factor_form,
    phase_time,
    report,
    wave_period,
)
from test_stationary import closed_form_t, psi


def buttiker_phase_time(E, U0, d):
    """Closed-form phase time of a rectangular barrier (hbar = m = 1;
    M. Buttiker, Phys. Rev. B 27, 6178 (1983)):
    [2 kappa d k^2 (kappa^2 - k^2) + k0^4 sinh 2 kappa d]
    / (k kappa [4 k^2 kappa^2 + k0^4 sinh^2 kappa d]), k0^2 = k^2 + kappa^2."""
    k, kappa = math.sqrt(2.0 * E), math.sqrt(2.0 * (U0 - E))
    k04 = (k * k + kappa * kappa) ** 2
    num = 2.0 * kappa * d * k * k * (kappa * kappa - k * k) + k04 * math.sinh(2.0 * kappa * d)
    return num / (k * kappa * (4.0 * k * k * kappa * kappa + k04 * math.sinh(kappa * d) ** 2))


def buttiker_dwell_time(E, U0, d, m=1.0):
    """Closed-form dwell time of a rectangular barrier (hbar = 1; Buttiker,
    Phys. Rev. B 27, 6178 (1983)), with k0^2 = k^2 + kappa^2."""
    k, kap = math.sqrt(2.0 * m * E), math.sqrt(2.0 * m * (U0 - E))
    k02 = k * k + kap * kap
    kd = kap * d
    return (m * k / kap) * (
        2.0 * kd * (kap * kap - k * k) + k02 * math.sinh(2.0 * kd)
    ) / (4.0 * k * k * kap * kap + k02 * k02 * math.sinh(kd) ** 2)


def buttiker_times_over_transit(kh2, kd):
    """Buttiker's phase and dwell times (the two forms above) in units of the transit time
    d/v, v = hbar k / m: functions of kh2 = (k/kappa)^2 and kd = kappa d alone. Numerators
    and denominators are taken times 4 e^{-2 kappa d}, so the forms hold from kappa d -> 0
    to kappa d = inf."""
    q2, s2, s4 = math.exp(-2.0 * kd), -math.expm1(-2.0 * kd), -math.expm1(-4.0 * kd)
    k02 = 1.0 + kh2
    denom = kd * (16.0 * q2 * kh2 + k02 * k02 * s2 * s2)
    phase = (8.0 * q2 * kd * kh2 * (1.0 - kh2) + 2.0 * k02 * k02 * s4) / denom
    dwell = kh2 * (8.0 * q2 * kd * (1.0 - kh2) + 2.0 * k02 * s4) / denom
    return phase, dwell


def transit_time(E, spec):
    """d / v with v = hbar k / m = sqrt(2) sqrt(E) / sqrt(m) (hbar = 1)."""
    return spec.width_d / (math.sqrt(2.0) * math.sqrt(E) / math.sqrt(spec.mass_m))


def log_over_transit(tau, E, spec):
    """log(tau / (d/v)) for tau > 0, taken in logarithms so that no product leaves the
    doubles at any scale."""
    return math.log(tau) + 0.5 * (math.log(2.0) + math.log(E) - math.log(spec.mass_m)) \
        - math.log(spec.width_d)


class TestClosedForms:
    def test_sqrt_form_value(self):
        # tau = hbar / sqrt(E (U0 - E)) in natural units.
        assert esposito_time(1.0, 2.0) == pytest.approx(1.0)
        assert esposito_time(0.5, 2.5) == pytest.approx(1.0)

    def test_factor_value(self):
        assert esposito_factor(1.0, 2.0) == pytest.approx(1.0 / (4.0 * math.pi**2))

    def test_special_energy_identities(self):
        U0 = 3.7
        Es = esposito_special_energy(U0)
        # At E_s the dimensionless factor is exactly 1 and tau equals the
        # wave period, so tau * nu = 1; both renderings of the formula agree.
        assert esposito_factor(Es, U0) == pytest.approx(1.0, abs=1e-12)
        assert esposito_time(Es, U0) == pytest.approx(wave_period(Es), rel=1e-12)
        assert esposito_time_factor_form(Es, U0) == pytest.approx(
            esposito_time(Es, U0), rel=1e-12
        )

    def test_forms_disagree_away_from_special_energy(self):
        # The two printed renderings of the same formula are inconsistent:
        # they cross only at the special energy.
        U0 = 2.0
        a = esposito_time(0.5, U0)
        b = esposito_time_factor_form(0.5, U0)
        assert abs(a - b) / a > 0.5

    def test_special_energy_identity_over_random_heights(self):
        import random
        rng = random.Random(5)
        for _ in range(100):
            U0 = rng.uniform(0.01, 100.0)
            Es = esposito_special_energy(U0)
            assert esposito_time(Es, U0) == pytest.approx(
                wave_period(Es), abs=1e-9 * wave_period(Es)
            )

    def test_incompatible_with_phase_time(self):
        # The closed form and the phase time are not proportional: their
        # ratio varies across the tunneling window.
        spec = BarrierSpec(2.0, 1.0)
        ratios = [
            esposito_time(f * 2.0, 2.0) / phase_time(f * 2.0, spec)
            for f in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert max(ratios) / min(ratios) > 1.1

    def test_divergence_near_barrier_top(self):
        U0 = 1.0
        assert esposito_time_factor_form(
            0.999999 * U0, U0
        ) > 1e3 * esposito_time_factor_form(esposito_special_energy(U0), U0)

    @pytest.mark.parametrize("U0", [1e300, 1e-300])
    def test_esposito_time_at_extreme_scales(self, U0):
        # E (U0 - E) over- or underflows a double at these scales; tau = 2/U0 does not.
        with np.errstate(all="raise"):
            tau = esposito_time(0.5 * U0, U0)
        assert tau == pytest.approx(2.0 / U0, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_esposito_time_at_subnormal_energy(self):
        # E (U0 - E) is below the normal doubles, and E / 4 is 0: tau = 2^536 sqrt(2),
        # not inf after a RuntimeWarning. Every other entry keeps its bits.
        assert esposito_time(5e-324, 2.0) == pytest.approx(math.ldexp(math.sqrt(2.0), 536),
                                                         rel=1e-15, abs=0.0)
        E = np.array([5e-324, 1e-310, 1e-300, 1.0, 1.999])
        tau = esposito_time(E, 2.0)
        np.testing.assert_allclose(tau[:2], 1.0 / np.sqrt(E[:2] * 2.0), rtol=1e-15)
        assert [esposito_time(float(e), 2.0) for e in E] == tau.tolist()
        assert tau[3] == 1.0 and tau[2:].tolist() == [
            math.ldexp(1.0 / math.sqrt(math.ldexp(e, -2) * (0.5 - math.ldexp(e, -2))), -2)
            for e in E[2:].tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [esposito_time, esposito_time_factor_form])
    def test_tau_past_the_doubles_names_E_and_U0(self, fn):
        # tau is about 2e323 and 3e322: not doubles, so refused by name, with no warning.
        with pytest.raises(ValueError, match=r"overflows at E=5e-324, U0=1e-323"):
            fn(5e-324, 1e-323)
        with pytest.raises(ValueError, match=r"overflows at E=5e-324, U0=1e-323"):
            fn(np.array([5e-324]), 1e-323)
        assert fn(np.array([0.5, 1.0]), 2.0).tolist() == [fn(0.5, 2.0), fn(1.0, 2.0)]

    @pytest.mark.parametrize("fn", [esposito_time, esposito_factor,
                                    esposito_time_factor_form])
    def test_pathological_regime_raises(self, fn):
        with pytest.raises(PathologicalRegimeError):
            fn(2.0, 2.0)
        with pytest.raises(PathologicalRegimeError):
            fn(2.5, 2.0)
        with pytest.raises(ValueError):
            fn(-1.0, 2.0)
        with pytest.raises(ValueError):
            fn(math.nan, 2.0)


class TestPhaseTime:
    def test_against_closed_form_derivative(self):
        E, U0, d = 1.0, 2.0, 1.0 / math.sqrt(2.0)
        spec = BarrierSpec(U0, d)
        h = 1e-7
        phi = lambda e: cmath.phase(closed_form_t(e, U0, d))
        oracle = (phi(E + h) - phi(E - h)) / (2.0 * h)
        assert phase_time(E, spec) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("U0", [1.0, 2.0, 3.7])
    @pytest.mark.parametrize("d", [0.05, 0.7, 3.0, 10.0])
    def test_matches_buttiker_closed_form(self, U0, d):
        for f in (0.01, 0.2, 0.5, 0.9, 0.999):
            E = f * U0
            assert phase_time(E, BarrierSpec(U0, d)) == pytest.approx(
                buttiker_phase_time(E, U0, d), rel=1e-9
            )

    def test_finite_up_to_threshold(self):
        # Both the derivative and the closed form lose about eps / (kappa d)^2
        # as E -> U0, so the check stops at 1 - 1e-8.
        spec = BarrierSpec(2.0, 1.0)
        for f in (1.0 - 1e-6, 1.0 - 1e-7, 1.0 - 1e-8):
            E = 2.0 * f
            assert phase_time(E, spec) == pytest.approx(
                buttiker_phase_time(E, 2.0, 1.0), rel=1e-8
            )

    def test_hartman_saturation_to_opaque_limit(self):
        # For an opaque barrier the phase time saturates at 2 m / (hbar k kappa)
        # independently of the width; here k = kappa = sqrt(2), so the limit is 1.
        spec10 = BarrierSpec(2.0, 10.0)
        spec14 = BarrierSpec(2.0, 14.0)
        t10 = phase_time(1.0, spec10)
        t14 = phase_time(1.0, spec14)
        assert t10 == pytest.approx(1.0, rel=1e-6)
        assert abs(t10 - t14) / t10 < 1e-6
        # kappa d = 849 and 1131: t underflows, its phase does not.
        for d in (600.0, 800.0):
            assert phase_time(1.0, BarrierSpec(2.0, d)) == pytest.approx(1.0, rel=1e-6)

    def test_requires_tunneling_regime(self):
        spec = BarrierSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            phase_time(2.5, spec)

    @pytest.mark.filterwarnings("error")
    def test_sign_and_value_at_every_scale(self):
        # From U0 = 1e-250 down, p^2 s of the determinant in physical units underflows
        # beside -4ik kappa and would flip the phase time's sign. In kappa units
        # kappa d = 1.4e-126 is a normal double, and phase time / (d/v) is the thin-barrier
        # value (3 + kappa^2/k^2)/2 = 1.50505 from U0 = 1e-50 down to 1e-290.
        readings = []
        for U0 in (float(f"1e-{p}") for p in range(50, 291, 20)):
            spec = BarrierSpec(U0, 1.0)
            E = 0.99 * U0
            tau = phase_time(E, spec)
            assert tau > 0
            readings.append(tau / transit_time(E, spec))
            kd = math.sqrt(2.0) * math.sqrt(U0 - E)
            expected = buttiker_times_over_transit(E / (U0 - E), kd)[0]
            assert readings[-1] == pytest.approx(expected, rel=1e-12)
        assert readings == pytest.approx([readings[0]] * len(readings), rel=1e-12)
        assert readings[0] == pytest.approx(1.505051, abs=1e-6)

    def test_phase_time_past_the_doubles_is_named(self):
        # hbar/U0 overflows at U0 = 1e-323: the phase time is refused, E, U0 and m named.
        for E in (5e-324, np.array([5e-324])):
            with pytest.raises(ValueError, match=r"^the phase time is not a double at "
                               r"E=5e-324, U0=1e-323, m=1\.0$"):
                phase_time(E, BarrierSpec(1e-323, 1.0))


class TestDwellTime:
    def test_closed_form_matches_quadrature(self):
        spec = BarrierSpec(2.0, 1.3, 1.1)
        for E in (0.4, 1.0, 1.8):
            assert dwell_time(E, spec) == pytest.approx(
                dwell_time_quadrature(E, spec), rel=1e-9
            )

    def test_buttiker_closed_form(self):
        # Buttiker, Phys. Rev. B 27, 6178 (1983), with k0^2 = k^2 + kappa^2.
        E, U0, m = 0.5, 2.0, 1.0
        kap = math.sqrt(2.0 * m * (U0 - E))
        for kd in (0.5, 3.0, 14.0):
            d = kd / kap
            assert dwell_time(E, BarrierSpec(U0, d, m)) == pytest.approx(
                buttiker_dwell_time(E, U0, d, m), rel=1e-12
            )

    def test_opaque_widths_match_quadrature_and_limit(self):
        # kappa d = 693 and 1131, where exp(2 kappa d) would overflow; the
        # opaque limit is 2 k / (kappa (k^2 + kappa^2)) with k = 1, kappa = sqrt 3.
        limit = 2.0 / (math.sqrt(3.0) * 4.0)
        for d in (400.0, 653.0):
            spec = BarrierSpec(2.0, d)
            td = dwell_time(0.5, spec)
            assert td == pytest.approx(dwell_time_quadrature(0.5, spec), rel=1e-9)
            assert td == pytest.approx(limit, rel=1e-9)

    def test_infinite_width_is_the_opaque_limit(self):
        # kappa d = inf: the cross term 2 Re(F1 conj G2) q kappa d is 0, not 0 * inf.
        limit = 2.0 / (math.sqrt(3.0) * 4.0)
        assert dwell_time(0.5, BarrierSpec(2.0, math.inf)) == pytest.approx(limit, rel=1e-15)

    def test_matches_buttiker_over_200_decades(self):
        # U0, m and d log-uniform over [1e-100, 1e100], E/U0 over [1e-12, 0.999]: dwell
        # time / (d/v) is Buttiker's function of (k/kappa)^2 and kappa d.
        rng = np.random.default_rng(34)
        for _ in range(300):
            U0, m, d = 10.0 ** rng.uniform(-100.0, 100.0, 3)
            E = U0 * 10.0 ** rng.uniform(-12.0, math.log10(0.999))
            spec = BarrierSpec(U0, d, m)
            kd = math.sqrt(2.0) * math.sqrt(m) * math.sqrt(U0 - E) * d
            _, dwell = buttiker_times_over_transit(E / (U0 - E), kd)
            assert dwell_time(E, spec) / transit_time(E, spec) == pytest.approx(dwell, rel=1e-12)

    def test_quadrature_integrand_is_psi_bitwise(self):
        # The quadrature integrates the interior field of the stationary wavefunction.
        rng = np.random.default_rng(31)
        for _ in range(60):
            U0, d = rng.uniform(0.1, 10.0), rng.uniform(0.01, 20.0)
            E = U0 * rng.uniform(0.01, 0.99)
            spec = BarrierSpec(U0, d, rng.uniform(0.5, 2.0))
            sol = barrier_solution(E, spec)
            stored = integrate(lambda x: abs(psi(sol, x)) ** 2, 0.0, d, 1e-12)
            assert dwell_time_quadrature(E, spec) == stored / (sol.k / spec.mass_m)

    def test_positive_and_below_phase_time_when_opaque(self):
        spec = BarrierSpec(2.0, 8.0)
        td = dwell_time(1.0, spec)
        assert 0.0 < td < phase_time(1.0, spec)


class TestScaleFree:
    def test_unitarity_and_phase_time_over_300_decades(self):
        # U0, m and d log-uniform over [1e-150, 1e150], E/U0 over [1e-140, 0.999]. Under
        # (U0, m) -> (lambda U0, m / lambda) at fixed E/U0, k and kappa are unchanged, v
        # scales by lambda and the phase time by 1/lambda: phase time / (d/v) is unchanged.
        rng = np.random.default_rng(32)
        for _ in range(300):
            U0, m, d = 10.0 ** rng.uniform(-150.0, 150.0, 3)
            e = 10.0 ** rng.uniform(-140.0, math.log10(0.999))
            lam = 10.0 ** rng.uniform(-8.0, 8.0)
            logs = []
            for spec in (BarrierSpec(U0, d, m), BarrierSpec(lam * U0, d, m / lam)):
                E = spec.height_U0 * e
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sol = barrier_solution(E, spec)
                    tau = phase_time(E, spec)
                assert abs(sol.transmission + sol.reflection - 1.0) <= 1e-12
                assert tau > 0
                logs.append(log_over_transit(tau, E, spec))
            assert abs(logs[1] - logs[0]) <= 1e-12  # rel 1e-12 in the ratio itself


class TestReport:
    def test_all_definitions_present(self):
        rep = report(1.0, BarrierSpec(2.0, 1.0))
        assert rep.esposito_tau == pytest.approx(1.0)
        assert rep.factor_A is not None
        assert rep.phase_time > 0 and rep.dwell_time > 0
        assert rep.period_T == pytest.approx(2.0 * math.pi)

    def test_sweep_crosses_barrier_top_without_raising(self):
        rep = report(2.5, BarrierSpec(2.0, 1.0))
        assert math.isnan(rep.esposito_tau) and math.isnan(rep.factor_A)
        assert math.isnan(rep.phase_time) and math.isnan(rep.dwell_time)
        assert rep.period_T > 0

    @pytest.mark.parametrize("d", [0.05, 1.0, 800.0])
    def test_array_equals_scalar_calls(self, d):
        spec = BarrierSpec(2.0, d, 1.3)
        E = np.linspace(0.01, 3.0, 23)
        rep = report(E, spec)
        names = ("period_T", "esposito_tau", "factor_A", "phase_time", "dwell_time")
        for i, e in enumerate(E):
            one = report(float(e), spec)
            for name in names:
                got, want = getattr(rep, name)[i], getattr(one, name)
                assert math.isnan(got) == math.isnan(want) == (e >= 2.0 and name != "period_T")
                if not math.isnan(want):
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_one_slab_solve_for_phase_and_dwell(self, monkeypatch):
        calls = {"_wavenumbers": 0, "_slab_system": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapped = counted(name, getattr(stationary, name))
            for module in (stationary, ttime):
                monkeypatch.setattr(module, name, wrapped)
        report(np.linspace(0.1, 2.5, 9), BarrierSpec(2.0, 1.3, 0.7))
        assert calls == {"_wavenumbers": 1, "_slab_system": 1}

    def test_times_bitwise_equal_to_phase_and_dwell_time_alone(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            U0, m, d = 10.0 ** rng.uniform(-50.0, 50.0, 3)
            spec = BarrierSpec(U0, d, m)
            E = U0 * rng.uniform(0.001, 0.999, 4)
            rep = report(E, spec)
            assert np.array_equal(rep.phase_time, phase_time(E, spec))
            assert np.array_equal(rep.dwell_time, dwell_time(E, spec))

    def test_nan_and_nonpositive_energies_raise(self):
        spec = BarrierSpec(2.0, 1.0)
        for E, bad in ((math.nan, "E=nan"), (np.array([1.0, math.nan]), "E=nan"),
                       (np.array([1.0, 0.0]), "E=0.0")):
            for fn in (wave_period, lambda e: phase_time(e, spec),
                       lambda e: dwell_time(e, spec), lambda e: report(e, spec)):
                with pytest.raises(ValueError, match=bad):
                    fn(E)

    def test_overflowing_period_named_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wave_period(1e-300) == 2.0 * math.pi / 1e-300
            for E, named in ((2e-310, "E=2e-310"), (np.array([1.0, 5e-324, 1e-310]), "E=5e-324")):
                with pytest.raises(ValueError, match=f"^the period .* overflows at {named}$"):
                    wave_period(E)
