"""Special-relativity bookkeeping for the superluminal-signal thought
experiment: event ordering under boosts, the two-frame round trip that
turns a faster-than-light channel into a reply arriving before the original
emission, and the attenuation tradeoff that a real evanescent barrier
imposes on that loop.

1+1 dimensional throughout; the protocol is collinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import NATURAL_UNITS, UnitSystem, _require_all


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x); t and x may be arrays of one shape."""

    t: float
    x: float


@dataclass(frozen=True)
class Boost:
    """A frame velocity V along +x. Construction checks nothing: gamma(units),
    which lorentz() calls, raises unless |V| < c of the units in use."""

    V: float

    def gamma(self, units: UnitSystem = NATURAL_UNITS) -> float:
        beta = self.V / units.c
        if not abs(beta) < 1.0:
            raise ValueError(f"|V| = {abs(self.V)} must be below c = {units.c}")
        return 1.0 / math.sqrt(1.0 - beta * beta)


@dataclass(frozen=True)
class SignalLeg:
    """One hop of the relay: emission event, propagation speed (may exceed
    c), and the evanescent barrier it crosses (kappa, width) for the
    attenuation bookkeeping. The barrier width doubles as the travel
    distance of the hop, and may be an array of widths."""

    speed: float
    emit: Event
    barrier_kappa: float = 0.0
    barrier_width: float = 0.0

    def __post_init__(self):
        # Written so that NaN fails them.
        if not self.speed > 0:
            raise ValueError(f"signal speed must be positive, got speed={self.speed}")
        _require_all(self.barrier_kappa >= 0, self.barrier_kappa,
                     "barrier kappa must be non-negative, got kappa={}")
        _require_all(self.barrier_width >= 0, self.barrier_width,
                     "barrier width must be non-negative, got width={}")

    @property
    def amplitude_factor(self):
        return np.exp(-self.barrier_kappa * self.barrier_width)


def lorentz(e: Event, b: Boost, units: UnitSystem = NATURAL_UNITS) -> Event:
    """Standard boost: t' = gamma (t - V x / c^2), x' = gamma (x - V t)."""
    g = b.gamma(units)
    c2 = units.c**2
    return Event(t=g * (e.t - b.V * e.x / c2), x=g * (e.x - b.V * e.t))


def inverse_lorentz(e: Event, b: Boost, units: UnitSystem = NATURAL_UNITS) -> Event:
    return lorentz(e, Boost(-b.V), units)


def classify_interval(a: Event, b: Event, units: UnitSystem = NATURAL_UNITS) -> str:
    """Sign classification of c^2 dt^2 - dx^2 (timelike/spacelike/lightlike),
    comparing |c dt| with |dx|: their squares overflow beyond ~1e154."""
    ct = abs(units.c * (b.t - a.t))
    dx = abs(b.x - a.x)
    if not (math.isfinite(ct) and math.isfinite(dx)):
        raise ValueError(f"event separation must be finite, got c*dt={ct}, dx={dx}")
    if abs(ct - dx) <= 1e-12 * max(ct, dx, 1.0):
        return "lightlike"
    return "timelike" if ct > dx else "spacelike"


def ordering_in_frame(
    a: Event, b: Event, boost: Boost, units: UnitSystem = NATURAL_UNITS
) -> str:
    """Time order of two events in the boosted frame.

    For a signal at speed v from a to b, the order reverses exactly when
    V v > c^2.
    """
    ta = lorentz(a, boost, units).t
    tb = lorentz(b, boost, units).t
    scale = max(abs(ta), abs(tb), 1.0)
    if abs(tb - ta) <= 1e-12 * scale:
        return "simultaneous"
    return "a_first" if ta < tb else "b_first"


def round_trip(
    leg1: SignalLeg,
    reply_delay: float,
    leg2: SignalLeg,
    frame_V: float,
    units: UnitSystem = NATURAL_UNITS,
) -> dict:
    """Two-frame relay: leg1 runs forward (+x) at its speed in the lab;
    the reply leg2 runs backward (-x) at its speed *in the frame S moving
    at frame_V* (its barrier is stationary in S), after reply_delay in S.

    Returns the lab arrival event, the time advance
    (t_emit(lab) - t_arrival(lab); positive means the reply precedes the
    original emission), the combined attenuation amplitude, and the
    causal-loop flag. Array barrier widths broadcast: each entry is
    computed exactly as a scalar call with that width.
    """
    if not reply_delay >= 0:
        raise ValueError(f"reply_delay must be non-negative, got reply_delay={reply_delay}")
    boost = Boost(frame_V)
    boost.gamma(units)  # validates |frame_V| < c
    d1, d2 = leg1.barrier_width, leg2.barrier_width
    _require_all(d1 > 0, d1, "both legs need a positive travel distance, got d1={}")
    _require_all(d2 > 0, d2, "both legs need a positive travel distance, got d2={}")
    # Overflow surfaces as a non-finite arrival, named below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Leg 1 in the lab: emit -> exit at the far side of the first barrier.
        exit1 = Event(t=leg1.emit.t + d1 / leg1.speed, x=leg1.emit.x + d1)
        # Hand over to S, wait there, send the reply backward at leg2.speed in S.
        handover = lorentz(exit1, boost, units)
        arrival_S = Event(t=handover.t + reply_delay + d2 / leg2.speed, x=handover.x - d2)
        arrival = inverse_lorentz(arrival_S, boost, units)
        advance = leg1.emit.t - arrival.t
        amplitude = leg1.amplitude_factor * leg2.amplitude_factor
    finite = np.isfinite(arrival.t) & np.isfinite(arrival.x) & np.isfinite(advance)
    if not np.all(finite):
        i = np.argmin(finite)
        w1, w2 = (np.broadcast_to(w, np.shape(finite)).flat[i] for w in (d1, d2))
        raise ValueError(f"round trip leaves the double range at barrier widths d1={w1}, d2={w2}")
    return {
        "arrival": arrival,
        "advance": advance,
        "amplitude": amplitude,
        "causal_loop": advance > 0,
    }


def tradeoff_sweep(
    kappa: float,
    v_signal: float,
    frame_V: float,
    d_range,
    detector_threshold: float,
    units: UnitSystem = NATURAL_UNITS,
) -> dict:
    """Attenuation-vs-advance tradeoff over barrier sizes.

    For each d both legs cross a barrier of decay kappa and width d at
    v_signal, so the amplitude is exp(-2 kappa d). A width is feasible when
    the loop closes (advance > 0) *and* the attenuated signal still clears
    the detector threshold. Returns columns "d", "advance", "amplitude" and
    "detectable", one entry per width, from one round_trip call.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if not v_signal > units.c:
        raise ValueError("v_signal must exceed c")
    if not 0 < detector_threshold <= 1:
        raise ValueError("detector_threshold must lie in (0, 1]")
    d = np.asarray(d_range, dtype=float)
    if not d.size:
        raise ValueError("empty d_range")
    leg = SignalLeg(speed=v_signal, emit=Event(0.0, 0.0), barrier_kappa=kappa, barrier_width=d)
    result = round_trip(leg, 0.0, leg, frame_V, units)
    return {
        "d": d,
        "advance": result["advance"],
        "amplitude": result["amplitude"],
        "detectable": result["amplitude"] >= detector_threshold,
    }
