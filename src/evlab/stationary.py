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
    transmission amplitudes. width_d is None for a threshold (semi-infinite
    forbidden region), in which case F2 = 0 and t = 0. The energy-dependent
    fields broadcast over E: scalars for a scalar energy, arrays of its shape
    for an array of energies.
    """

    energy_E: float
    k: float
    kappa: float
    F1: complex
    F2: complex
    r: complex
    t: complex
    width_d: float | None
    mass_m: float

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2

    def psi(self, x, units: UnitSystem = NATURAL_UNITS):
        """Evaluate the stationary wavefunction at position(s) x; defined for
        a scalar-energy solution."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        left = x < 0
        out[left] = np.exp(1j * self.k * x[left]) + self.r * np.exp(-1j * self.k * x[left])
        if self.width_d is None:
            inside = ~left
            out[inside] = self.F1 * np.exp(-self.kappa * x[inside])
        else:
            inside = (~left) & (x <= self.width_d)
            out[inside] = _slab_field(self.F1, self.t, self.kappa, self.width_d, x[inside])
            beyond = x > self.width_d
            out[beyond] = self.t * np.exp(1j * self.k * (x[beyond] - self.width_d))
        return out if out.shape else complex(out)


def _wavenumbers(E, U0: float, m: float, units: UnitSystem):
    """Exterior k and interior kappa at energies 0 < E < U0 (scalar or array);
    raises ValueError if any E lies outside, NaN included."""
    _require_all((E > 0) & (E < U0), E, f"E={{}} is not inside 0 < E < U0={U0}; "
                 "this solver covers only the evanescent (tunneling) regime")
    return np.sqrt(2.0 * m * E) / units.hbar, np.sqrt(2.0 * m * (U0 - E)) / units.hbar


def threshold_solution(
    E: float, U0: float, m: float = 1.0, units: UnitSystem = NATURAL_UNITS
) -> StationarySolution:
    """Total reflection from a potential step: one decaying wave for x >= 0."""
    k, kappa = _wavenumbers(E, U0, m, units)
    # Continuity of psi and psi' at x = 0 with unit incidence.
    r = (1j * k + kappa) / (1j * k - kappa)
    F1 = 1.0 + r
    return StationarySolution(
        energy_E=E, k=k, kappa=kappa, F1=F1, F2=0.0, r=r, t=0.0, width_d=None, mass_m=m
    )


def _slab_system(k_out, kappa, d):
    """Check the inputs; return q = e^{-kappa d}, s = 1 - q^2, p = kappa + ik,
    m = kappa - ik and det = m^2 - (p q)^2 = -4ik kappa + p^2 s (no cancellation)."""
    if not (np.all(k_out > 0) and np.all(kappa > 0) and np.all(d > 0)):
        raise ValueError("k_out, kappa, and d must be positive")
    q = np.exp(-kappa * d)
    s = -np.expm1(-2.0 * kappa * d)
    p = kappa + 1j * k_out
    return q, s, p, kappa - 1j * k_out, -4j * k_out * kappa + p * p * s


def match_evanescent_slab(k_out, kappa, d):
    """Match an evanescent slab of decay kappa and width d between two
    half-spaces of real wavenumber k_out, unit incidence from the left.

    k_out, kappa and d broadcast against each other (scalars or arrays).
    Returns (F1, F2, r, t) with t referenced to the exit face. Shared by the
    quantum barrier and the optical-gap transfer.
    """
    q, s, p, m, det = _slab_system(k_out, kappa, d)
    # Interior field G1 e^{-kappa x} + G2 e^{kappa (x - d)}: F1 = G1, F2 = G2 q.
    # Matching at x = 0 and x = d with r and t eliminated leaves a system with
    # bounded entries, so no e^{+kappa d} is formed:
    #     [[-p q, m], [-m, p q]] @ [G1, G2] = [0, 2ik]
    # r = G1 + q G2 - 1 and t = q G1 + G2 are reduced to single products, which
    # avoids their cancellation in thin slabs and at k >> kappa.
    G1 = -2j * k_out * m / det
    G2 = -2j * k_out * p * q / det
    return G1, G2 * q, -p * m * s / det, -4j * k_out * kappa * q / det


def _phase_rate(k_out, kappa, d, dk, dkappa):
    """d(arg t)/dlambda for wavenumbers with derivatives dk = dk_out/dlambda,
    dkappa = dkappa/dlambda. t e^{kappa d} = -4ik kappa / det with k kappa > 0,
    so arg t = -arg det + const and the rate is -Im(det'/det), with
    det' = -4i(k' kappa + k kappa') + 2p p' s + 2d kappa' (p q)^2, finite where
    t underflows."""
    q, s, p, _, det = _slab_system(k_out, kappa, d)
    ddet = (-4j * (dk * kappa + k_out * dkappa) + 2.0 * p * (dkappa + 1j * dk) * s
            + 2.0 * d * dkappa * (p * q) ** 2)
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
    k, kappa = _wavenumbers(E, spec.height_U0, spec.mass_m, units)
    d = spec.width_d
    F1, F2, r, t = match_evanescent_slab(k, kappa, d)
    return StationarySolution(
        energy_E=E, k=k, kappa=kappa, F1=F1, F2=F2, r=r, t=t, width_d=d,
        mass_m=spec.mass_m,
    )


def probability_flux(
    sol: StationarySolution, x: float, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Probability flux density of a stationary solution at position x.

    Uses j = (hbar/m) Im(conj(psi) dpsi/dx), positive toward +x. Inside the
    forbidden region this reduces to 2 (hbar/m) kappa Im(conj(F1) F2),
    x-independent; past the exit it is |t|^2 hbar k / m.
    """
    hbar, m = units.hbar, sol.mass_m
    in_interior = (x >= 0) if sol.width_d is None else (0 <= x <= sol.width_d)
    if in_interior:
        return 2.0 * (hbar / m) * sol.kappa * (sol.F1.conjugate() * sol.F2).imag
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
