"""Tests for event ordering, the two-frame relay, and the attenuation tradeoff."""

import math
import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from evlab.numcore import UnitSystem
from evlab.tolman import (
    Boost,
    Event,
    SignalLeg,
    classify_interval,
    inverse_lorentz,
    lorentz,
    ordering_in_frame,
    round_trip,
    tradeoff_sweep,
)


class TestLorentz:
    def test_interval_invariance(self):
        rng = random.Random(7)
        for _ in range(100):
            e = Event(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = Boost(rng.uniform(-0.99, 0.99))
            ep = lorentz(e, b)
            assert ep.t**2 - ep.x**2 == pytest.approx(e.t**2 - e.x**2, abs=1e-9)

    def test_inverse_round_trip(self):
        e = Event(1.3, -0.4)
        b = Boost(0.77)
        back = inverse_lorentz(lorentz(e, b), b)
        assert back.t == pytest.approx(e.t) and back.x == pytest.approx(e.x)

    def test_superluminal_frame_rejected(self):
        with pytest.raises(ValueError):
            lorentz(Event(0.0, 0.0), Boost(1.0))

    @pytest.mark.parametrize("beta", [0.999999, 1.0 - 1e-9, -(1.0 - 1e-9)])
    def test_gamma_near_c_keeps_its_digits(self, beta):
        # 1 - beta^2 loses about eps/(1 - |beta|) relative; (1 - beta)(1 + beta) does not.
        with localcontext() as ctx:
            ctx.prec = 60
            b = Decimal(beta)
            exact = 1 / ((1 - b) * (1 + b)).sqrt()
        assert Boost(beta).gamma() == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_c_dependence_through_units(self):
        units = UnitSystem(c=2.0)
        e = lorentz(Event(1.0, 1.0), Boost(1.5), units)  # legal: 1.5 < c = 2
        g = 1.0 / math.sqrt(1.0 - (1.5 / 2.0) ** 2)
        assert e.t == pytest.approx(g * (1.0 - 1.5 / 4.0))


class TestIntervalAndOrdering:
    def test_classification(self):
        o = Event(0.0, 0.0)
        assert classify_interval(o, Event(2.0, 1.0)) == "timelike"
        assert classify_interval(o, Event(1.0, 2.0)) == "spacelike"
        assert classify_interval(o, Event(1.0, 1.0)) == "lightlike"

    def test_classification_far_beyond_squared_range(self):
        # (1e200)^2 overflows; the comparison of |c dt| with |dx| does not.
        o = Event(0.0, 0.0)
        assert classify_interval(o, Event(1.0, 1e200)) == "spacelike"
        assert classify_interval(o, Event(1.0, -1e200)) == "spacelike"
        assert classify_interval(o, Event(1e200, 1.0)) == "timelike"
        assert classify_interval(o, Event(1e200, 1e200 * (1 + 1e-13))) == "lightlike"
        assert classify_interval(o, Event(1e200, 1e200 * (1 + 1e-11))) == "spacelike"

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_separation_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            classify_interval(Event(0.0, 0.0), Event(1.0, x))
        with pytest.raises(ValueError, match="finite"):
            classify_interval(Event(0.0, 0.0), Event(x, 1.0))

    def test_timelike_order_is_frame_independent(self):
        a, b = Event(0.0, 0.0), Event(2.0, 1.0)
        for V in (-0.9, -0.3, 0.0, 0.3, 0.9):
            assert ordering_in_frame(a, b, Boost(V)) == "a_first"

    def test_reversal_iff_Vv_exceeds_c2(self):
        rng = random.Random(11)
        for _ in range(300):
            v_sig = rng.uniform(1.01, 10.0)
            V = rng.uniform(-0.99, 0.99)
            a = Event(0.0, 0.0)
            b = Event(1.0, v_sig)  # signal from a to b at speed v_sig > c
            order = ordering_in_frame(a, b, Boost(V))
            if V * v_sig > 1.0 + 1e-9:
                assert order == "b_first"
            elif V * v_sig < 1.0 - 1e-9:
                assert order == "a_first"

    def test_exact_reversal_boundary(self):
        # V v = c^2 exactly: the boosted frame sees the two events as
        # simultaneous to within the classification band.
        a, b = Event(0.0, 0.0), Event(1.0, 2.0)
        assert ordering_in_frame(a, b, Boost(0.5)) == "simultaneous"


class TestRoundTrip:
    def test_hand_computed_case(self):
        # Leg 1: v = 2 over d = 1 in the lab, so exit at (0.5, 1).
        # Frame S at V = 0.8: gamma = 5/3, handover t' = (5/3)(0.5 - 0.8).
        # Reply at v = 2 over d = 1 in S, then back to the lab.
        leg = SignalLeg(speed=2.0, emit=Event(0.0, 0.0), barrier_width=1.0)
        result = round_trip(leg, 0.0, leg, frame_V=0.8)
        g = 5.0 / 3.0
        handover = Event(g * (0.5 - 0.8), g * (1.0 - 0.8 * 0.5))
        arrival_S = Event(handover.t + 0.5, handover.x - 1.0)
        arrival = Event(
            g * (arrival_S.t + 0.8 * arrival_S.x),
            g * (arrival_S.x + 0.8 * arrival_S.t),
        )
        assert result["arrival"].t == pytest.approx(arrival.t, abs=1e-12)
        assert result["advance"] == pytest.approx(-arrival.t, abs=1e-12)

    def test_causal_loop_needs_fast_signal_and_fast_frame(self):
        fast = SignalLeg(speed=5.0, emit=Event(0.0, 0.0), barrier_width=1.0)
        result = round_trip(fast, 0.0, fast, frame_V=0.9)
        assert result["causal_loop"] and result["advance"] > 0

        slow_frame = round_trip(fast, 0.0, fast, frame_V=0.1)
        assert not slow_frame["causal_loop"]

    def test_light_speed_legs_never_loop(self):
        rng = random.Random(3)
        leg = SignalLeg(speed=1.0, emit=Event(0.0, 0.0), barrier_width=1.0)
        for _ in range(200):
            V = rng.uniform(-0.999, 0.999)
            result = round_trip(leg, rng.uniform(0.0, 1.0), leg, frame_V=V)
            assert not result["causal_loop"]
            assert result["advance"] <= 1e-12

    def test_amplitude_combines_both_barriers(self):
        leg1 = SignalLeg(2.0, Event(0.0, 0.0), barrier_kappa=1.0, barrier_width=2.0)
        leg2 = SignalLeg(2.0, Event(0.0, 0.0), barrier_kappa=3.0, barrier_width=1.0)
        result = round_trip(leg1, 0.0, leg2, frame_V=0.5)
        assert result["amplitude"] == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_validation(self):
        leg = SignalLeg(2.0, Event(0.0, 0.0), barrier_width=1.0)
        with pytest.raises(ValueError):
            round_trip(leg, -1.0, leg, 0.5)
        with pytest.raises(ValueError):
            round_trip(leg, 0.0, leg, 1.5)
        bad = SignalLeg(2.0, Event(0.0, 0.0))  # no travel distance
        with pytest.raises(ValueError):
            round_trip(bad, 0.0, leg, 0.5)

    def test_nan_inputs_rejected(self):
        leg = SignalLeg(2.0, Event(0.0, 0.0), barrier_width=1.0)
        with pytest.raises(ValueError, match="reply_delay=nan"):
            round_trip(leg, math.nan, leg, 0.5)
        with pytest.raises(ValueError, match="speed=nan"):
            SignalLeg(math.nan, Event(0.0, 0.0), barrier_width=1.0)
        with pytest.raises(ValueError, match="kappa=nan"):
            SignalLeg(2.0, Event(0.0, 0.0), barrier_kappa=math.nan, barrier_width=1.0)
        with pytest.raises(ValueError, match="width=nan"):
            SignalLeg(2.0, Event(0.0, 0.0), barrier_width=math.nan)


class TestTradeoffSweep:
    def test_amplitude_falls_as_advance_grows(self):
        cols = tradeoff_sweep(1.0, 5.0, 0.9, np.linspace(0.5, 5.0, 10), 0.01)
        amps = cols["amplitude"].tolist()
        advances = cols["advance"].tolist()
        assert all(a > b for a, b in zip(amps, amps[1:]))
        assert all(b > a for a, b in zip(advances, advances[1:]))
        assert cols["amplitude"][0] == pytest.approx(math.exp(-1.0))

    def test_perfect_detector_has_empty_window(self):
        cols = tradeoff_sweep(5.0, 5.0, 0.9, np.linspace(0.5, 5.0, 10), 1.0)
        assert not np.any(cols["detectable"] & (cols["advance"] > 0))

    def test_columns_scale_one_unit_width_round_trip(self):
        # The advance is d times the unit-width trip's, bit for bit, so it has one sign at
        # every width; the amplitude is the scalar round trip's, bit for bit.
        rng = np.random.default_rng(13)
        for _ in range(20):
            kappa, v, V = rng.uniform(0.01, 5.0), rng.uniform(1.01, 20.0), rng.uniform(-0.99, 0.99)
            threshold = 10.0 ** rng.uniform(-6.0, 0.0)
            d = 10.0 ** rng.uniform(-3.0, 3.0, size=50)
            cols = tradeoff_sweep(kappa, v, V, d, threshold)
            unit = SignalLeg(v, Event(0.0, 0.0), barrier_width=1.0)
            per_width = round_trip(unit, 0.0, unit, V)["advance"]
            assert cols["advance"].tobytes() == (d * per_width).tobytes()
            amplitude = []
            for w in d.tolist():
                leg = SignalLeg(v, Event(0.0, 0.0), barrier_kappa=kappa, barrier_width=w)
                amplitude.append(round_trip(leg, 0.0, leg, V)["amplitude"])
            assert cols["amplitude"].tobytes() == np.array(amplitude).tobytes()
            assert cols["d"].tobytes() == d.tobytes()
            assert cols["detectable"].tolist() == [a >= threshold for a in amplitude]

    def test_advance_against_decimal(self):
        # advance = -d [1/v + gamma (1/v - V/c^2)] at 50 digits. Each error is divided by
        # d [1/v + gamma (1/v + |V|/c^2)], the size of its terms. The bound is this run's
        # worst over 12 000 rows, 1.4985e-15, at V = -0.98, where the two boosts' gamma^2
        # terms cancel to gamma; a trip redone per width with 1/sqrt(1 - beta^2) read 1.69e-15.
        rng = np.random.default_rng(5)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(240):
                v, V = rng.uniform(1.01, 20.0), rng.uniform(-0.99, 0.99)
                d = 10.0 ** rng.uniform(-3.0, 3.0, size=50)
                cols = tradeoff_sweep(1.0, v, V, d, 0.01)
                Dv, DV = Decimal(v), Decimal(V)
                gamma = 1 / (1 - DV * DV).sqrt()
                for w, advance in zip(d.tolist(), cols["advance"].tolist()):
                    exact = -Decimal(w) * (1 / Dv + gamma * (1 / Dv - DV))
                    scale = Decimal(w) * (1 / Dv + gamma * (1 / Dv + abs(DV)))
                    worst = max(worst, float(abs(Decimal(advance) - exact) / scale))
        assert worst <= 1.5e-15, worst

    def test_closure_decided_exactly(self):
        # gamma (V v - 1) > 1 at 50 digits, at random points and at the doubles either side
        # of the boundary v* = (1 + 1/gamma) / V, where the float advance is a residue.
        rng = np.random.default_rng(39)
        points = [(3.0, 0.6)]  # gamma = 1.25 and 1/3 + 1.25 (1/3 - 0.6) = 0: no loop
        for V in rng.uniform(0.05, 0.99, 100).tolist():
            v_star = (1.0 + math.sqrt(1.0 - V * V)) / V
            points += [(v, V) for v in (v_star, math.nextafter(v_star, 0.0),
                                        math.nextafter(v_star, math.inf))]
        points += list(zip(rng.uniform(1.01, 20.0, 200).tolist(),
                           rng.uniform(-0.99, 0.99, 200).tolist()))
        with localcontext() as ctx:
            ctx.prec = 50
            for v, V in points:
                Dv, DV = Decimal(v), Decimal(V)
                loop = (DV * Dv - 1) / (1 - DV * DV).sqrt() > 1
                cols = tradeoff_sweep(1.0, v, V, [0.5, 1.0], 0.01)
                assert cols["closes"] is loop, (v, V)
                assert (cols["max_advance"] is None) is not loop
        cols = tradeoff_sweep(1.0, 3.0, 0.6, np.linspace(0.1, 5.0, 7), 1e-3)
        assert not cols["closes"] and cols["advance"].tolist() == [0.0] * 7

    @pytest.mark.parametrize("c", [1.0, 2.5, 1e-120, 3e150])
    def test_closure_matches_fraction_decision(self, c):
        # The integer decision against the same inequalities in Fraction: V v > c^2 and
        # (V v / c^2 - 1)^2 > 1 - V^2 / c^2, at random points and at the doubles either
        # side of v* = c^2 (1 + sqrt(1 - V^2 / c^2)) / V: 10^4 random points over the four c.
        def closes(v, V):
            V, c2 = Fraction(V), Fraction(c) ** 2
            excess = V * Fraction(v) / c2 - 1
            return excess > 0 and excess**2 > 1 - V**2 / c2

        rng = np.random.default_rng(41)
        points = list(zip((c * rng.uniform(1.0, 20.0, 2500)).tolist(),
                          (c * rng.uniform(-0.999, 0.999, 2500)).tolist()))
        for V in (c * rng.uniform(0.01, 0.999, 300)).tolist():
            v_star = c * (1.0 + math.sqrt(1.0 - (V / c) ** 2)) / (V / c)
            points += [(v, V) for v in (v_star, math.nextafter(v_star, 0.0),
                                        math.nextafter(v_star, math.inf))]
        units = UnitSystem(c=c)
        decided = [tradeoff_sweep(1.0, v, V, [1.0], 0.01, units)["closes"] for v, V in points
                   if v > c]
        assert decided == [closes(v, V) for v, V in points if v > c]
        assert 0 < sum(decided) < len(decided)

    def test_coefficient_and_cap_against_decimal(self):
        # advance_per_width = -[1/v + gamma (1/v - V)] at 50 digits, rel 1e-14 where the two
        # terms cancel to no less than a quarter of their size; d_max = ln(1/threshold)/2 kappa.
        rng = np.random.default_rng(40)
        checked = 0
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(2000):
                v, V = rng.uniform(1.01, 20.0), rng.uniform(-0.99, 0.99)
                kappa, threshold = rng.uniform(0.01, 5.0), 10.0 ** rng.uniform(-300.0, 0.0)
                cols = tradeoff_sweep(kappa, v, V, [1.0], threshold)
                Dv, DV = Decimal(v), Decimal(V)
                gamma = 1 / (1 - DV * DV).sqrt()
                exact = -(1 / Dv + gamma * (1 / Dv - DV))
                d_max = -Decimal(threshold).ln() / (2 * Decimal(kappa))
                assert float(d_max) == pytest.approx(cols["d_max_detectable"], rel=1e-15)
                if cols["closes"]:
                    cap = cols["advance_per_width"] * cols["d_max_detectable"]
                    assert cols["max_advance"] == cap
                if abs(exact) * 4 >= 1 / Dv + gamma * (1 / Dv + abs(DV)):
                    checked += 1
                    assert cols["advance_per_width"] == pytest.approx(float(exact), rel=1e-14)
        assert checked > 1000

    def test_perfect_detector_caps_the_gain_at_zero(self):
        cols = tradeoff_sweep(1.0, 5.0, 0.9, [0.5, 1.0], 1.0)
        assert cols["closes"] and math.copysign(1.0, cols["d_max_detectable"]) == 1.0
        assert cols["max_advance"] == 0.0 and not cols["detectable"].any()

    def test_cap_beyond_the_double_range_is_named(self):
        with pytest.raises(ValueError, match="kappa=5e-324"):
            tradeoff_sweep(5e-324, 5.0, 0.9, [1.0], 0.01)
        with pytest.raises(ValueError, match="v_signal=inf"):
            tradeoff_sweep(1.0, math.inf, 0.9, [1.0], 0.01)

    def test_overflowing_width_is_named(self):
        # At V = 0.9 the advance per unit width is 1.7, so the sweep answers at 1e308; at
        # V = -0.9 it is -2.4, and the advance at 1e308 leaves the double range.
        cols = tradeoff_sweep(1.0, 10.0, 0.9, np.linspace(1.0, 1e308, 3), 0.01)
        assert np.all(np.isfinite(cols["advance"])) and cols["advance"][-1] > 1.7e308
        with pytest.raises(ValueError, match="width=1e[+]308"):
            tradeoff_sweep(1.0, 10.0, -0.9, np.linspace(1.0, 1e308, 3), 0.01)
        # The scalar round trip's event x' = gamma (x - V t) leaves the double range.
        for width in (1e308, np.float64(1e308)):
            leg = SignalLeg(10.0, Event(0.0, 0.0), barrier_width=width)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="1e[+]308"):
                    round_trip(leg, 0.0, leg, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 0.5, 0.9, [1.0], 0.5)  # subluminal signal
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 2.0, 0.9, [1.0], 1.5)  # threshold > 1
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 2.0, 0.9, [], 0.5)
