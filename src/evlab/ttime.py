"""Competing tunneling-time definitions.

The closed-form tunneling time tau = hbar / sqrt(E (U0 - E)) and its
dimensionless factor A = E / (4 pi^2 (U0 - E)) are implemented faithfully,
including their pathologies: outside 0 < E < U0 they raise instead of
silently returning negative or imaginary times. Phase (group-delay) time
and dwell time are provided as the standard comparison definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numcore import NATURAL_UNITS, UnitSystem, integrate
from .stationary import BarrierSpec, _k_kappa, _phase_rate, barrier_solution


class PathologicalRegimeError(ValueError):
    """Raised where the closed-form tunneling time turns negative or imaginary."""


@dataclass(frozen=True)
class TunnelingTimeReport:
    """All tunneling-time definitions evaluated at one energy."""

    energy_E: float
    period_T: float
    esposito_tau: float | None
    factor_A: float | None
    phase_time: float
    dwell_time: float


def wave_period(E: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """Period T = 1/nu = 2 pi hbar / E of the wave with energy E."""
    if E <= 0:
        raise ValueError("energy must be positive")
    return 2.0 * math.pi * units.hbar / E


def _check_tunneling_range(E: float, U0: float):
    if E <= 0:
        raise ValueError(f"energy must be positive, got E={E}")
    if E >= U0:
        raise PathologicalRegimeError(
            f"E={E} >= U0={U0}: pathological regime, the closed form yields "
            "negative or imaginary time above the barrier"
        )


def esposito_time(E: float, U0: float, units: UnitSystem = NATURAL_UNITS) -> float:
    """tau = hbar / sqrt(E (U0 - E)), defined only for 0 < E < U0."""
    _check_tunneling_range(E, U0)
    return units.hbar / math.sqrt(E * (U0 - E))


def esposito_factor(E: float, U0: float) -> float:
    """Dimensionless factor A = E / (4 pi^2 (U0 - E)); tau = A / nu."""
    _check_tunneling_range(E, U0)
    return E / (4.0 * math.pi**2 * (U0 - E))


def esposito_time_factor_form(
    E: float, U0: float, units: UnitSystem = NATURAL_UNITS
) -> float:
    """tau = A / nu = hbar / (2 pi (U0 - E)).

    The closed form and the factor form are two renderings of the same
    published expression, but they agree only at the special energy where
    A = 1; elsewhere they differ, which is one of the internal
    inconsistencies this module is built to exhibit. Near E -> U0 this form
    diverges like 1/(U0 - E), much faster than the sqrt form.
    """
    _check_tunneling_range(E, U0)
    return units.hbar / (2.0 * math.pi * (U0 - E))


def esposito_special_energy(U0: float) -> float:
    """The energy at which A = 1 and tau equals one wave period."""
    if U0 <= 0:
        raise ValueError("U0 must be positive")
    four_pi2 = 4.0 * math.pi**2
    return four_pi2 / (1.0 + four_pi2) * U0


def phase_time(
    E: float, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Group-delay (phase) time hbar d(arg t)/dE, differentiated analytically
    through the slab determinant with dk/dE = m/(hbar^2 k) and
    dkappa/dE = -m/(hbar^2 kappa)."""
    U0 = spec.height_U0
    if not 0 < E < U0:
        raise ValueError("phase_time requires the tunneling regime 0 < E < U0")
    k, kappa = _k_kappa(E, U0, spec.mass_m, units)
    rate = spec.mass_m / units.hbar**2
    return units.hbar * float(_phase_rate(k, kappa, spec.width_d, rate / k, -rate / kappa))


def dwell_time(
    E: float, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Dwell time: probability stored in the barrier over the incident flux."""
    sol = barrier_solution(E, spec, units)
    j_in = units.hbar * sol.k / spec.mass_m
    kappa, d = sol.kappa, spec.width_d
    F1, F2 = sol.F1, sol.F2
    # Closed-form integral of |F1 e^{-kx} + F2 e^{kx}|^2 over [0, d], with the
    # growing term as |G2|^2 (1 - e^{-2kd}) / 2k, G2 = F2 e^{kd} = t - F1 e^{-kd}.
    G2 = sol.t - F1 * math.exp(-kappa * d)
    decay_integral = -math.expm1(-2.0 * kappa * d) / (2.0 * kappa)
    stored = (
        (abs(F1) ** 2 + abs(G2) ** 2) * decay_integral
        + 2.0 * (F1 * F2.conjugate()).real * d
    )
    return stored / j_in


def dwell_time_quadrature(
    E: float, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Independent dwell-time route: direct quadrature of |psi|^2 in the barrier."""
    sol = barrier_solution(E, spec, units)
    j_in = units.hbar * sol.k / spec.mass_m
    stored = integrate(lambda x: abs(sol.psi(x)) ** 2, 0.0, spec.width_d, 1e-12)
    return stored / j_in


def report(
    E: float, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> TunnelingTimeReport:
    """Evaluate every definition at one energy; closed-form entries are None
    outside their domain instead of raising, so sweeps can cross U0."""
    try:
        tau = esposito_time(E, spec.height_U0, units)
        factor = esposito_factor(E, spec.height_U0)
    except PathologicalRegimeError:
        tau, factor = None, None
    if 0 < E < spec.height_U0:
        phase = phase_time(E, spec, units)
        dwell = dwell_time(E, spec, units)
    else:
        # Above the barrier the evanescent solver does not apply; the sweep
        # rows carry NaN there rather than aborting.
        phase, dwell = math.nan, math.nan
    return TunnelingTimeReport(
        energy_E=E,
        period_T=wave_period(E, units),
        esposito_tau=tau,
        factor_A=factor,
        phase_time=phase,
        dwell_time=dwell,
    )
