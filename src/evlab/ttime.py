"""Competing tunneling-time definitions.

The closed-form tunneling time tau = hbar / sqrt(E (U0 - E)) and its
dimensionless factor A = E / (4 pi^2 (U0 - E)) are implemented faithfully,
including their pathologies: outside 0 < E < U0 they raise instead of
silently returning negative or imaginary times. Phase (group-delay) time
and dwell time are provided as the standard comparison definitions. Every
definition broadcasts over E (a scalar or an array of energies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import NATURAL_UNITS, UnitSystem, _require_all, integrate
from .stationary import BarrierSpec, _phase_rate, _wavenumbers, barrier_solution


class PathologicalRegimeError(ValueError):
    """Raised where the closed-form tunneling time turns negative or imaginary."""


@dataclass(frozen=True)
class TunnelingTimeReport:
    """All tunneling-time definitions evaluated at a scalar energy or an
    array of energies. esposito_tau, factor_A, phase_time and dwell_time are
    NaN wherever E >= U0, outside the tunneling regime they are defined in."""

    energy_E: float
    period_T: float
    esposito_tau: float
    factor_A: float
    phase_time: float
    dwell_time: float


def wave_period(E, units: UnitSystem = NATURAL_UNITS):
    """Period T = 1/nu = 2 pi hbar / E of the wave with energy E; an E whose
    period is not a double raises, naming it."""
    _require_all(E > 0, E, "energy must be positive, got E={}")
    with np.errstate(over="ignore"):  # named below, not warned about
        period = 2.0 * math.pi * units.hbar / E
    _require_all(period < math.inf, E, "the period 2 pi hbar / E overflows at E={}")
    return period


def _check_tunneling_range(E, U0: float):
    _require_all(E > 0, E, "energy must be positive, got E={}")
    _require_all(E < U0, E, f"E={{}} >= U0={U0}: pathological regime, the closed form "
                 "yields negative or imaginary time above the barrier", PathologicalRegimeError)


def esposito_time(E, U0: float, units: UnitSystem = NATURAL_UNITS):
    """tau = hbar / sqrt(E (U0 - E)), defined only for 0 < E < U0; taken on E and U0
    scaled exactly by a power of two, so the scale of U0 cannot over- or underflow E (U0 - E)."""
    _check_tunneling_range(E, U0)
    scale = math.frexp(U0)[1]
    E, U0 = np.ldexp(E, -scale), math.ldexp(U0, -scale)
    return np.ldexp(units.hbar / np.sqrt(E * (U0 - E)), -scale)


def esposito_factor(E, U0: float):
    """Dimensionless factor A = E / (4 pi^2 (U0 - E)); tau = A / nu."""
    _check_tunneling_range(E, U0)
    return E / (4.0 * math.pi**2 * (U0 - E))


def esposito_time_factor_form(E, U0: float, units: UnitSystem = NATURAL_UNITS):
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
    if not U0 > 0:
        raise ValueError("U0 must be positive")
    four_pi2 = 4.0 * math.pi**2
    return four_pi2 / (1.0 + four_pi2) * U0


def phase_time(E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS):
    """Group-delay (phase) time hbar d(arg t)/dE, differentiated analytically
    through the slab determinant with dk/dE = m/(hbar^2 k) and
    dkappa/dE = -m/(hbar^2 kappa); requires 0 < E < U0."""
    k, kappa = _wavenumbers(E, spec.height_U0, spec.mass_m, units)
    rate = spec.mass_m / units.hbar**2
    return units.hbar * _phase_rate(k, kappa, spec.width_d, rate / k, -rate / kappa)


def dwell_time(E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS):
    """Dwell time: probability stored in the barrier over the incident flux."""
    sol = barrier_solution(E, spec, units)
    j_in = units.hbar * sol.k / spec.mass_m
    kappa, d = sol.kappa, spec.width_d
    F1, F2 = sol.F1, sol.F2
    # Closed-form integral of |F1 e^{-kx} + F2 e^{kx}|^2 over [0, d], with the
    # growing term as |G2|^2 (1 - e^{-2kd}) / 2k, G2 = F2 e^{kd} = t - F1 e^{-kd}.
    G2 = sol.t - F1 * np.exp(-kappa * d)
    decay_integral = -np.expm1(-2.0 * kappa * d) / (2.0 * kappa)
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


def report(E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS) -> TunnelingTimeReport:
    """Evaluate every definition at a scalar energy or an array of energies,
    all of which must be positive. Each tunneling-regime definition is
    evaluated once, on the energies below U0, and is NaN at the others, so
    sweeps can cross the barrier top; period_T holds at every energy."""
    period = wave_period(E, units)
    energies = np.asarray(E, dtype=float)
    below = energies < spec.height_U0
    tunneling = energies[below]

    def scatter(values):
        out = np.full(energies.shape, math.nan)
        out[below] = values
        return out[()]

    return TunnelingTimeReport(
        energy_E=E,
        period_T=period,
        esposito_tau=scatter(esposito_time(tunneling, spec.height_U0, units)),
        factor_A=scatter(esposito_factor(tunneling, spec.height_U0)),
        phase_time=scatter(phase_time(tunneling, spec, units)),
        dwell_time=scatter(dwell_time(tunneling, spec, units)),
    )
