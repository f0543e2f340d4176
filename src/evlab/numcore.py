"""Shared numerical core: unit conventions, 1D grids and adaptive quadrature.

Everything here is pure and immutable; natural units (hbar = c = m = 1)
are the default throughout the library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUAD_DEPTH = 60  # halvings of [a, b]; a refinement round makes _SPLIT_HALVINGS of them
# Most panels a round may leave, checked before its f call: refinement is breadth-first,
# so this caps an unresolvable integrand's memory.
MAX_QUAD_PANELS = 1 << 16
_SPLIT_HALVINGS = 4
_SPLIT = 1 << _SPLIT_HALVINGS  # sub-panels of each panel a round refines


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants used by every formula in the library.

    Defaults to natural units. SI-flavored presets are applied only at the
    CLI layer; the library formulas never hard-code constants.
    """

    hbar: float = 1.0
    c: float = 1.0
    default_mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0 and self.default_mass > 0):
            raise ValueError("hbar, c, and default_mass must all be positive")


NATURAL_UNITS = UnitSystem()


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: points x_min + i*dx for i in [0, count)."""

    x_min: float
    dx: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got x_min={self.x_min}")
        if not 0 < self.dx < math.inf:
            raise ValueError(f"dx must be positive and finite, got dx={self.dx}")
        if self.count < 2:
            raise ValueError("count must be at least 2")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.count - 1) * self.dx

    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.count)


@dataclass(frozen=True)
class WavePacket:
    """Complex samples on a uniform 1D grid.

    The grid coordinate may be position (a spatial slice) or time (an
    envelope at a fixed position); the operations consuming it say which.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def energy(self) -> float:
        """Discrete L2 mass: sum |psi|^2 dx."""
        return float(self.abs2().sum() * self.grid.dx)


def _require_all(ok, values, message: str, error=ValueError):
    """Raise error(message) unless ok holds everywhere, its {} filled with the first entry
    of values where ok fails; write ok as a test NaN fails (x > 0, never not x <= 0)."""
    ok = np.asarray(ok)
    if not ok.all():
        raise error(message.format(np.broadcast_to(values, ok.shape)[~ok][0]))


# QUADPACK qk15 (Piessens et al., 1983) to double precision, outermost node first: Kronrod
# nodes on [-1, 1], their weights, and the 7-point Gauss weights of every second node.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
    0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0])
_WGK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD_W = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS_W = np.concatenate([_WG, _WG[-2::-1]])


def _panels(f, lo, hi):
    """Rows (lo, hi, K15, |K15 - G7|) of panels [lo, hi], from one f call."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * _NODES)
    kronrod = half * (fx @ _KRONROD_W)
    return np.stack([lo, hi, kronrod, np.abs(kronrod - half * (fx[:, 1::2] @ _GAUSS_W))])


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of f over [a, b].

    f maps an array of abscissae to an array of the same shape, one call for the endpoints,
    one for [a, b] and one per refinement round, on the 16 equal sub-panels of every panel
    over budget. The result I satisfies |I - integral| <= tol * max(1, |I|) within
    MAX_QUAD_DEPTH halvings of [a, b] (four per round) and MAX_QUAD_PANELS panels, or an
    IntegrationError carries the best estimate. The rule is absolute below |I| = 1: callers
    scale f so that I is O(1).
    """
    if not a < b:
        raise ValueError(f"require a < b, got a={a}, b={b}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.all(np.isfinite(f(np.array([a, b], dtype=float)))):
        raise ValueError("integrand not finite at interval endpoints")
    panels = _panels(f, np.array([a], dtype=float), np.array([b], dtype=float))
    for rounds in itertools.count():
        lo, hi, value, error = panels
        total = float(value.sum())
        budget = tol * max(1.0, abs(total))
        if error.sum() <= budget:
            return total
        # Refine every panel whose error exceeds an equal share of the budget;
        # the others keep their values and may be refined in a later round.
        split = error > budget / error.size
        count = error.size + (_SPLIT - 1) * int(split.sum())
        if (rounds + 1) * _SPLIT_HALVINGS > MAX_QUAD_DEPTH or count > MAX_QUAD_PANELS:
            raise IntegrationError(f"quadrature did not converge in {rounds} rounds", total)
        # Four bisections in one go: the sub-panels have the edges bisection would reach.
        lo, hi = lo[split], hi[split]
        for _ in range(_SPLIT_HALVINGS):
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        panels = np.concatenate([_panels(f, lo, hi), panels[:, ~split]], axis=1)
