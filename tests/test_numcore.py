"""Tests for the shared numerical core."""

import math

import numpy as np
import pytest

from evlab import spectral
from evlab.ftir import goos_hanchen_estimate
from evlab.numcore import (
    Grid1D,
    IntegrationError,
    UnitSystem,
    WavePacket,
    integrate,
)
from evlab.ttime import esposito_special_energy


class TestUnitSystem:
    def test_natural_defaults(self):
        u = UnitSystem()
        assert u.hbar == 1.0 and u.c == 1.0 and u.default_mass == 1.0

    @pytest.mark.parametrize("bad", [
        dict(hbar=0.0), dict(c=-1.0), dict(default_mass=0.0),
    ])
    def test_rejects_nonpositive_constants(self, bad):
        with pytest.raises(ValueError):
            UnitSystem(**bad)


# Positivity guards written as `not x > 0`, which NaN fails: each raises ValueError on NaN
# rather than constructing, returning NaN or running to a later error.
@pytest.mark.parametrize("call", [
    lambda: UnitSystem(hbar=math.nan),
    lambda: integrate(lambda x: x, 0.0, 1.0, math.nan),
    lambda: esposito_special_energy(math.nan),
    lambda: goos_hanchen_estimate(math.nan),
], ids=["UnitSystem", "integrate_tol", "esposito_special_energy", "goos_hanchen_estimate"])
def test_positivity_guard_rejects_nan(call):
    with pytest.raises(ValueError, match="positive"):
        call()


class TestGrid1D:
    def test_points_and_x_max(self):
        g = Grid1D(x_min=-1.0, dx=0.5, count=5)
        assert np.allclose(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.x_max == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 0.1, 1)


class TestWavePacket:
    def test_energy_is_discrete_l2_mass(self):
        g = Grid1D(0.0, 0.1, 11)
        wp = WavePacket(g, np.full(11, 2.0 + 0.0j))
        assert wp.energy() == pytest.approx(4.0 * 11 * 0.1)

    def test_length_mismatch_rejected(self):
        g = Grid1D(0.0, 0.1, 11)
        with pytest.raises(ValueError):
            WavePacket(g, np.zeros(10))

    def test_values_are_frozen(self):
        g = Grid1D(0.0, 0.1, 4)
        wp = WavePacket(g, np.arange(4.0))
        with pytest.raises(ValueError):
            wp.values[0] = 5.0


class TestIntegrate:
    def test_cubic_is_exact(self):
        # The Kronrod and Gauss rules both integrate cubics exactly.
        val = integrate(lambda x: x**3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-12)
        assert val == pytest.approx(15.0 / 4.0 - 3.0 + 3.0, abs=1e-13)

    def test_gaussian(self):
        val = integrate(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-12)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_broad_lorentzian_matches_arctan(self):
        f = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        val = integrate(f, -1e4, 1e4, 1e-10)
        exact = (2.0 / math.pi) * math.atan(1e4)
        assert val == pytest.approx(exact, abs=1e-9)

    def test_additive_over_subintervals(self):
        f = lambda x: np.sin(3.0 * x) ** 2 + x
        whole = integrate(f, 0.0, 2.0, 1e-12)
        parts = integrate(f, 0.0, 0.7, 1e-12) + integrate(f, 0.7, 2.0, 1e-12)
        assert whole == pytest.approx(parts, abs=1e-11)

    def test_sharp_lorentzian_peak_matches_arctan(self):
        # Width 1e-6 on an interval 2e9 times wider: after the first bisection
        # no node lies within 4 of the peak, and only the error estimate leads
        # bisection back to it.
        g = 1e-6
        f = lambda x: g / (math.pi * (x * x + g * g))
        val = integrate(f, -1e3, 1e3, 1e-10)
        assert val == pytest.approx((2.0 / math.pi) * math.atan(1e3 / g), abs=1e-10)

    def test_integrand_receives_only_arrays(self):
        seen = []

        def f(x):
            seen.append(type(x))
            return np.cos(40.0 * x)

        integrate(f, 0.0, 1.0, 1e-12)
        assert seen and set(seen) == {np.ndarray}

    def test_oscillatory(self):
        val = integrate(lambda x: np.cos(40.0 * x), 0.0, 1.0, 1e-12)
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_nonfinite_endpoint_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_jump_resolved_to_float_resolution(self):
        # Bisection collapses any finite interval to float spacing well
        # before the depth cap, so even a discontinuity integrates exactly.
        c = 1e6 / math.sqrt(2.0)  # irrational: never a bisection point
        f = lambda x: np.where(x < c, 0.0, 1.0)
        assert integrate(f, 0.0, 1e6, 1e-12) == pytest.approx(1e6 - c, rel=1e-12)

    @pytest.mark.parametrize("f, a, b, tol, most", [
        (lambda x: 1.0 / (math.pi * (1.0 + x * x)), -1e4, 1e4, 1e-10, 6),
        (lambda x: 1e-6 / (math.pi * (x * x + 1e-6 * 1e-6)), -1e3, 1e3, 1e-10, 10),
        (lambda x: np.where(x < 1e6 / math.sqrt(2.0), 0.0, 1.0), 0.0, 1e6, 1e-12, 12),
        (spectral._unit_lorentzian, -1e4, 1e4, 1e-10, 6),
    ], ids=["broad-lorentzian", "sharp-lorentzian", "jump", "unit-lorentzian"])
    def test_few_integrand_calls(self, f, a, b, tol, most):
        # One call for the endpoints, one for [a, b] and one per refinement round:
        # each round splits a panel over budget into 16, so few rounds are needed.
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        integrate(counted, a, b, tol)
        assert len(calls) <= most

    def test_depth_cap_raises_with_best_estimate(self, monkeypatch):
        import evlab.numcore as numcore
        monkeypatch.setattr(numcore, "MAX_QUAD_DEPTH", 10)
        c = 1.0 / math.sqrt(2.0)
        f = lambda x: np.where(x < c, 0.0, 1.0)
        with pytest.raises(IntegrationError) as info:
            integrate(f, 0.0, 1.0, 1e-12)
        assert info.value.best_estimate == pytest.approx(1.0 - c, abs=1e-3)

    def test_panel_cap_raises_with_best_estimate(self, monkeypatch):
        import evlab.numcore as numcore
        monkeypatch.setattr(numcore, "MAX_QUAD_PANELS", 256)
        # Oscillation far below double-precision spacing looks like noise: no
        # panel ever converges, so every round multiplies the panel count by 16.
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.sin(1e15 * x)

        with pytest.raises(IntegrationError) as info:
            integrate(f, 0.0, 1.0, 1e-12)
        assert max(sizes) <= 2 * 15 * 256
        assert abs(info.value.best_estimate) <= 1.0

