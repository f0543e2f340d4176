"""Tests for the competing tunneling-time definitions."""

import cmath
import math
import warnings

import numpy as np
import pytest

from evlab.stationary import BarrierSpec
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
from test_stationary import closed_form_t


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

    def test_positive_and_below_phase_time_when_opaque(self):
        spec = BarrierSpec(2.0, 8.0)
        td = dwell_time(1.0, spec)
        assert 0.0 < td < phase_time(1.0, spec)


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
