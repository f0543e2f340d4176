"""Stationary (monochromatic) solutions for a potential threshold and a
rectangular barrier, probability flux, and the relativistic dispersion
relation with a complex wavenumber.

Conventions: unit incident amplitude from the left, regions

    x < 0:       exp(ikx) + r exp(-ikx)
    0 <= x <= d: F1 exp(-kappa x) + F2 exp(kappa x)
    x > d:       t exp(ik (x - d))

so |t| is the amplitude just past the exit face. Interfaces are matched by
continuity of the field and its derivative in the interior basis
exp(-kappa x), exp(kappa (x - d)); closed forms serve only as test oracles.

The matching runs in kappa units: F1, F2, r and t depend only on k/kappa and
kappa d, and the physical scales (hbar, m, U0, d) enter once, when those two
numbers are formed from square roots. So every barrier whose k and kappa are
doubles has an answer: T underflows to 0 through an opaque slab, and is 1
where kappa d rounds to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import NATURAL_UNITS, UnitSystem, _require_all


@dataclass(frozen=True)
class BarrierSpec:
    """Rectangular barrier of height U0 and width d for a particle of mass m."""

    height_U0: float
    width_d: float
    mass_m: float = 1.0

    def __post_init__(self):
        for name, value in (("U0", self.height_U0), ("d", self.width_d), ("m", self.mass_m)):
            if not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {name}={value}")


@dataclass(frozen=True)
class StationarySolution:
    """Piecewise coefficients of monochromatic solutions.

    kappa is the evanescent decay constant inside the classically forbidden
    region; k the exterior wavenumber. F1/F2 multiply the decaying/growing
    interior exponentials; r and t are the exterior reflection and
    transmission amplitudes. width_d is the barrier's width, inf for a
    threshold (a potential step, whose forbidden region is semi-infinite), in
    which case F2 = 0 and t = 0. The energy-dependent fields broadcast over E:
    scalars for a scalar energy, arrays of its shape for an array of energies.
    """

    energy_E: float
    k: float
    kappa: float
    F1: complex
    F2: complex
    r: complex
    t: complex
    width_d: float
    mass_m: float

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2


def _wavenumbers(E, U0: float, m: float, d: float, units: UnitSystem):
    """k, kappa, k/kappa and kappa d at energies 0 < E < U0 (scalar or array), each a
    product or quotient of square roots, k = sqrt(2) sqrt(m) sqrt(E) / hbar,
    kappa = sqrt(2) sqrt(m) sqrt(U0 - E) / hbar and k/kappa = sqrt(E) / sqrt(U0 - E), so
    no square leaves the doubles on the way. Raises ValueError if any E lies outside, NaN
    included, or where k or kappa is 0 or inf, naming E, U0 and m. kappa d may round to
    inf or 0, which the slab reads as opaque or transparent; d = inf is a threshold."""
    _require_all((E > 0) & (E < U0), E, f"E={{}} is not inside 0 < E < U0={U0}; "
                 "this solver covers only the evanescent (tunneling) regime")
    root_E, root_gap = np.sqrt(E), np.sqrt(U0 - E)
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned about
        scale = np.sqrt(2.0) * np.sqrt(m)
        k, kappa = scale * root_E / units.hbar, scale * root_gap / units.hbar
        kd = kappa * d
    _require_all((k > 0) & (k < math.inf) & (kappa > 0) & (kappa < math.inf), E,
                 f"k and kappa must be positive and finite, got E={{}}, U0={U0}, m={m}")
    return k, kappa, root_E / root_gap, kd


def _slab_system(kh, kd):
    """Check the inputs, kh = k/kappa positive and finite and kd = kappa d non-negative;
    return q = e^{-kd}, s = 1 - q^2, p = 1 + i kh, m = 1 - i kh and
    det = m^2 - (p q)^2 = -4i kh + p^2 s (no cancellation), all in kappa units."""
    if not (np.all((kh > 0) & (kh < math.inf)) and np.all(kd >= 0)):
        raise ValueError("k/kappa must be positive and finite, and kappa d non-negative")
    q = np.exp(-kd)
    s = -np.expm1(-2.0 * kd)
    p = 1.0 + 1j * kh
    return q, s, p, 1.0 - 1j * kh, -4j * kh + p * p * s


def match_evanescent_slab(kh, kd):
    """Match an evanescent slab between two half-spaces of real wavenumber k, unit
    incidence from the left. The amplitudes depend only on kh = k/kappa and kd = kappa d,
    which broadcast against each other (scalars or arrays): kd = 0 is the transparent
    limit (r = 0, t = 1) and kd = inf a threshold (t = 0).

    Returns (F1, F2, r, t) with t referenced to the exit face. Shared by the quantum
    barrier, the threshold and the optical-gap transfer.
    """
    return _slab_amplitudes(kh, _slab_system(kh, kd))


def _slab_amplitudes(kh, system):
    """(F1, F2, r, t) from kh = k/kappa and _slab_system's terms at kh."""
    q, s, p, m, det = system
    # Interior field G1 e^{-kappa x} + G2 e^{kappa (x - d)}: F1 = G1, F2 = G2 q.
    # Matching at x = 0 and x = d with r and t eliminated leaves a system with
    # bounded entries, so no e^{+kappa d} is formed:
    #     [[-p q, m], [-m, p q]] @ [G1, G2] = [0, 2i kh]
    # r = G1 + q G2 - 1 and t = q G1 + G2 are reduced to single products, which
    # avoids their cancellation in thin slabs and at k >> kappa.
    G1 = -2j * kh * m / det
    G2 = -2j * kh * p * q / det
    return G1, G2 * q, -p * m * s / det, -4j * kh * q / det


def _phase_rate(system, dkh, dkd):
    """d(arg t)/dlambda for the slab system = _slab_system(kh, kd) with derivatives
    dkh = dkh/dlambda and dkd = dkd/dlambda. t = -4i kh q / det with kh, q > 0, so
    arg t = -arg det + const and the rate is -Im(det'/det), with
    det' = (-4i + 2i p s) dkh + 2 p^2 q^2 dkd, finite where t underflows. Where q is 0
    the kd term is 0, whatever dkd is (inf included)."""
    q, s, p, _, det = system
    ddet = (-4j + 2j * p * s) * dkh + 2.0 * p * p * (q * q) * np.where(q > 0, dkd, 0.0)
    return -(ddet / det).imag


def _slab_field(F1, t, kappa, d, x):
    """Interior field F1 e^{-kappa x} + G2 e^{kappa (x - d)} at depth x, with
    G2 = t - F1 e^{-kappa d} from exit-face continuity: finite, and t at x = d,
    even where F2 = G2 e^{-kappa d} underflows."""
    return F1 * np.exp(-kappa * x) + (t - F1 * np.exp(-kappa * d)) * np.exp(kappa * (x - d))


def barrier_solution(
    E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> StationarySolution:
    """Tunneling through a rectangular barrier via interface matching, at a
    scalar energy or an array of energies 0 < E < U0."""
    k, kappa, kh, kd = _wavenumbers(E, spec.height_U0, spec.mass_m, spec.width_d, units)
    F1, F2, r, t = match_evanescent_slab(kh, kd)
    return StationarySolution(
        energy_E=E, k=k, kappa=kappa, F1=F1, F2=F2, r=r, t=t, width_d=spec.width_d,
        mass_m=spec.mass_m,
    )


def threshold_solution(
    E: float, U0: float, m: float = 1.0, units: UnitSystem = NATURAL_UNITS
) -> StationarySolution:
    """Total reflection from a potential step: the barrier of infinite width, with one
    decaying wave for x >= 0, and F2 = t = 0."""
    return barrier_solution(E, BarrierSpec(U0, math.inf, m), units)


def probability_flux(
    sol: StationarySolution, x: float, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Probability flux density of a stationary solution at position x.

    Uses j = (hbar/m) Im(conj(psi) dpsi/dx), positive toward +x. Inside the
    forbidden region this reduces to 2 (hbar/m) kappa Im(conj(F1) F2),
    x-independent; past the exit it is |t|^2 hbar k / m.
    """
    hbar, m = units.hbar, sol.mass_m
    if 0 <= x <= sol.width_d:
        return 2.0 * (hbar * sol.kappa / m) * (sol.F1.conjugate() * sol.F2).imag
    if x < 0:
        return (hbar * sol.k / m) * (1.0 - abs(sol.r) ** 2)
    return (hbar * sol.k / m) * abs(sol.t) ** 2


def relativistic_wavenumber(
    E: float, U0: float, m0: float, units: UnitSystem = NATURAL_UNITS
) -> complex:
    """Wavenumber from (E - U0)^2 = (hbar k c)^2 + (m0 c^2)^2.

    Principal branch: k is purely imaginary (evanescent) exactly when
    |E - U0| < m0 c^2. The difference of squares is formed as
    (|E - U0| - m0 c^2)(|E - U0| + m0 c^2) with both energies scaled by one
    power of two, exactly, so that it neither overflows nor underflows.
    """
    if not m0 >= 0:
        raise ValueError(f"rest mass must be non-negative, got m0={m0}")
    hbar, c = units.hbar, units.c
    energy, rest = abs(E - U0), m0 * c**2
    _, e = math.frexp(max(energy, rest))
    energy, rest = math.ldexp(energy, -e), math.ldexp(rest, -e)
    x = (energy - rest) * (energy + rest)
    k = math.ldexp(math.sqrt(abs(x)), e) / (hbar * c)
    if not k < math.inf:  # NaN fails too
        raise ValueError(f"the relativistic wavenumber is not finite at m0={m0} (E={E}, U0={U0})")
    return complex(k) if x >= 0 else 1j * k
