"""Tests for event ordering, the two-frame relay, and the attenuation tradeoff."""

import math
import random

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

    def test_array_width_broadcasts(self):
        d = np.array([0.5, 1.0, 2.0])
        leg = SignalLeg(5.0, Event(0.0, 0.0), barrier_kappa=1.0, barrier_width=d)
        result = round_trip(leg, 0.0, leg, frame_V=0.9)
        assert result["arrival"].t.shape == result["advance"].shape == (3,)
        for i, w in enumerate(d.tolist()):
            one = SignalLeg(5.0, Event(0.0, 0.0), barrier_kappa=1.0, barrier_width=w)
            expected = round_trip(one, 0.0, one, frame_V=0.9)
            assert result["arrival"].x[i] == expected["arrival"].x
            assert result["advance"][i] == expected["advance"]
            assert result["amplitude"][i] == expected["amplitude"]
            assert result["causal_loop"][i] == expected["causal_loop"]
        with pytest.raises(ValueError, match="positive travel distance, got d1=0.0"):
            round_trip(SignalLeg(5.0, Event(0.0, 0.0), barrier_width=np.array([1.0, 0.0])),
                       0.0, leg, 0.9)

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
        # An array of widths is named by its first bad entry.
        with pytest.raises(ValueError, match=r"width=nan$"):
            SignalLeg(2.0, Event(0.0, 0.0), barrier_width=np.array([1.0, math.nan, -1.0]))


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

    def test_columns_equal_scalar_round_trips_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kappa, v, V = rng.uniform(0.01, 5.0), rng.uniform(1.01, 20.0), rng.uniform(-0.99, 0.99)
            threshold = 10.0 ** rng.uniform(-6.0, 0.0)
            d = 10.0 ** rng.uniform(-3.0, 3.0, size=50)
            cols = tradeoff_sweep(kappa, v, V, d, threshold)
            scalar = []
            for w in d.tolist():
                leg = SignalLeg(v, Event(0.0, 0.0), barrier_kappa=kappa, barrier_width=w)
                scalar.append(round_trip(leg, 0.0, leg, V))
            for key in ("advance", "amplitude"):
                expected = np.array([r[key] for r in scalar], dtype=float)
                assert cols[key].tobytes() == expected.tobytes(), key
            assert cols["d"].tobytes() == d.tobytes()
            assert cols["detectable"].tolist() == [r["amplitude"] >= threshold for r in scalar]

    def test_overflowing_width_is_named(self):
        # x' = gamma (x - V t) leaves the double range for d = 1e308.
        with pytest.raises(ValueError, match="1e[+]308"):
            tradeoff_sweep(1.0, 10.0, 0.9, np.linspace(1.0, 1e308, 3), 0.01)
        leg = SignalLeg(10.0, Event(0.0, 0.0), barrier_width=1e308)
        with pytest.raises(ValueError, match="1e[+]308"):
            round_trip(leg, 0.0, leg, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 0.5, 0.9, [1.0], 0.5)  # subluminal signal
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 2.0, 0.9, [1.0], 1.5)  # threshold > 1
        with pytest.raises(ValueError):
            tradeoff_sweep(1.0, 2.0, 0.9, [], 0.5)
