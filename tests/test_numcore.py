"""Tests for the shared numerical core."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evlab import spectral
from evlab.ftir import goos_hanchen_estimate
from evlab.numcore import (
    FORMAT_BLOCK_CELLS,
    FORMAT_VECTOR_MIN_CELLS,
    Grid1D,
    IntegrationError,
    UnitSystem,
    WavePacket,
    format_17g,
    format_17g_cells,
    integrate,
    join_cells,
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
        (lambda x: 1.0 / (math.pi * (1.0 + x * x)), -1e4, 1e4, 1e-10, 4),
        (lambda x: 1e-6 / (math.pi * (x * x + 1e-6 * 1e-6)), -1e3, 1e3, 1e-10, 8),
        (lambda x: np.where(x < 1e6 / math.sqrt(2.0), 0.0, 1.0), 0.0, 1e6, 1e-12, 10),
        (spectral._unit_lorentzian, -1e4, 1e4, 1e-10, 4),
    ], ids=["broad-lorentzian", "sharp-lorentzian", "jump", "unit-lorentzian"])
    def test_few_integrand_calls(self, f, a, b, tol, most):
        # One call for the endpoints and the 16 sub-panels of [a, b], then one per
        # refinement round: each splits a panel over budget into 16, so few are needed.
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        integrate(counted, a, b, tol)
        assert len(calls) <= most

    def test_first_call_carries_endpoints_and_sixteen_sub_panels(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.ones_like(x)

        assert integrate(f, 2.0, 5.0, 1e-12) == 3.0
        (x,) = calls
        assert x.shape == (2 + 16 * 15,) and list(x[:2]) == [2.0, 5.0]
        middles = x[2:].reshape(16, 15)[:, 7]
        assert np.array_equal(middles, 2.0 + 3.0 * (np.arange(16) + 0.5) / 16)

    def test_sub_panels_tile_the_interval(self):
        # A constant integrand sums the sub-panels' widths: a gap or an overlap between
        # centre/half-width sub-panels shows as a total other than b - a, at any scale.
        rng = np.random.default_rng(30)
        ones = lambda x: np.ones_like(x)
        for width in np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 200)):
            centre = width * rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0])
            a, b = centre - 0.5 * width, centre + 0.5 * width
            assert integrate(ones, a, b, 1e-12) == pytest.approx(b - a, rel=4e-16, abs=0.0)

    def test_refined_sub_panels_tile_the_interval(self):
        # A step refines the panels around it for many rounds; the panels refined and
        # kept still cover [a, b] once: the result is (b - c) / (b - a) to the tolerance.
        for a, b in ((-3.0, 7.0), (1e-200, 3e-200), (5e150, 9e150)):
            c = a + (b - a) / math.sqrt(2.0)
            step = lambda x: np.where(x < c, 0.0, 1.0 / (b - a))
            assert integrate(step, a, b, 1e-12) == pytest.approx(
                (b - c) / (b - a), rel=0.0, abs=1e-12)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_integrand_named_after_one_call(self, bad):
        # A NaN panel fails every comparison, so it is never split: unnamed, each later
        # round made an empty call until the depth cap.
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(abs(x - 0.3) < 0.01, bad, 1.0)

        with pytest.raises(IntegrationError, match=r"not finite at x=\S+ in \[0.0, 1.0\]") as info:
            integrate(f, 0.0, 1.0)
        assert calls == [2 + 16 * 15]
        named = float(re.search(r"x=(\S+) in", str(info.value)).group(1))
        assert abs(named - 0.3) < 0.01 and math.isnan(info.value.best_estimate)

    def test_nonfinite_integrand_named_in_the_round_it_appears(self):
        # NaN on 2e-9 around a step: only refinement reaches it, and the first call that
        # does is the last call made.
        c = 1.0 / math.sqrt(2.0)
        seen = []

        def f(x):
            fx = np.where(abs(x - c) < 1e-9, math.nan, np.where(x < c, 0.0, 1.0))
            seen.append(bool(np.isfinite(fx).all()))
            return fx

        with pytest.raises(IntegrationError, match=r"in \[0.0, 1.0\]") as info:
            integrate(f, 0.0, 1.0, 1e-12)
        assert len(seen) > 1 and seen == [True] * (len(seen) - 1) + [False]
        named = float(re.search(r"x=(\S+) in", str(info.value)).group(1))
        assert abs(named - c) < 1e-9


def reference_17g(values, sep) -> bytes:
    """One "%.17g" % v per value, each followed by its separator from sep, tiled."""
    return "".join("%.17g" % v + sep[i % len(sep)]
                   for i, v in enumerate(np.ravel(values).tolist())).encode()


def powers_of_ten_and_neighbours():
    """Every double nearest a power of ten, and the doubles up to 2 ulp either side."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, math.inf)
    return np.concatenate([np.nextafter(below, 0.0), below, powers, above,
                           np.nextafter(above, math.inf)])


class TestFormat17g:
    """format_17g writes the bytes of CPython's %.17g on both of its paths."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_hypothesis_floats(self, xs):
        for size in (len(xs), FORMAT_VECTOR_MIN_CELLS + len(xs)):
            values = np.resize(np.array(xs), size)
            assert format_17g(values, [","]) == reference_17g(values, [","])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_cell_rows_are_the_text_with_its_padding(self, xs):
        # format_17g's bytes are its cell rows with the NULs dropped, at any size: one
        # separator, one per column, and one per value as tolman rows use.
        for size in (len(xs), FORMAT_BLOCK_CELLS, FORMAT_BLOCK_CELLS + len(xs)):
            values = np.resize(np.array(xs), size)
            flags = [",true\n" if v > 0 else ",false\n" for v in values.tolist()]
            for sep in ([","], [",", ",", "\n"], [s for f in flags for s in (",", ",", f)][:size]):
                cells = format_17g_cells(values, sep)
                assert cells.shape == (size, 24 + max(map(len, sep)))
                assert format_17g(values, sep) == cells[cells != 0].tobytes() == join_cells(cells)

    def test_columns_join_row_by_row(self):
        rng = np.random.default_rng(39)
        table = rng.standard_normal((FORMAT_BLOCK_CELLS + 3, 3)) * 10.0 ** rng.uniform(-300, 300)
        sep = [",", ";", "\n"]
        columns = [format_17g_cells(table[:, j], sep[j]) for j in range(3)]
        assert join_cells(*columns) == format_17g(table, sep) == reference_17g(table, sep)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(28)
        values = rng.integers(-2**63, 2**63 - 1, 100_000, dtype=np.int64).view(np.float64)
        assert format_17g(values, ["\n"]) == reference_17g(values, ["\n"])

    def test_powers_of_ten_within_two_ulp(self):
        values = powers_of_ten_and_neighbours()
        sep = [",", ",", "\n"]
        assert format_17g(values, sep) == reference_17g(values, sep)
        assert format_17g(-values, sep) == reference_17g(-values, sep)

    def test_ties_round_half_to_even(self):
        # 17 digits end on an exact 5 here: ...56.25 rounds down, ...56.75 up.
        ties = [1234567890123456.25, 1234567890123456.75, -1234567890123456.25]
        values = np.resize(ties, FORMAT_VECTOR_MIN_CELLS)
        assert format_17g(values, ["\n"]).split(b"\n")[:3] == [
            b"1234567890123456.2", b"1234567890123456.8", b"-1234567890123456.2"]
        assert format_17g(values, ["\n"]) == reference_17g(values, ["\n"])

    def test_zeros_infinities_and_nan(self):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324]
        expected = b"0,-0,inf,-inf,nan,nan,4.9406564584124654e-324,-4.9406564584124654e-324\n"
        for size in (8, FORMAT_VECTOR_MIN_CELLS):
            values = np.resize(special, size)
            text = format_17g(values, [","] * 7 + ["\n"])
            assert text == reference_17g(values, [","] * 7 + ["\n"])
            assert text.startswith(expected)

    @pytest.mark.parametrize("cells", [
        FORMAT_VECTOR_MIN_CELLS - 1, FORMAT_VECTOR_MIN_CELLS,
        FORMAT_BLOCK_CELLS - 1, FORMAT_BLOCK_CELLS, FORMAT_BLOCK_CELLS + 1])
    @pytest.mark.parametrize("columns", [3, 4, 6, 14])
    def test_tables_either_side_of_each_size_switch(self, cells, columns):
        rng = np.random.default_rng(cells * columns)
        values = rng.standard_normal(cells) * 10.0 ** rng.uniform(-320, 300, cells)
        sep = [","] * (columns - 1) + ["\n"]
        assert format_17g(values, sep) == reference_17g(values, sep)

    @pytest.mark.parametrize("cells", [5, FORMAT_VECTOR_MIN_CELLS, FORMAT_BLOCK_CELLS + 5])
    def test_separators_are_copied_as_given(self, cells):
        # A % in a separator, one empty, all empty, and one per value as tolman rows use.
        values = np.linspace(-3.0, 3.0, cells)
        for sep in ([",%s,0,%s\n"], ["", ";"], [""], [f",{i}\n" for i in range(cells)]):
            assert format_17g(values, sep) == reference_17g(values, sep)
