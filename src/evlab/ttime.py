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
import sys
from dataclasses import dataclass

import numpy as np

from .numcore import NATURAL_UNITS, UnitSystem, _require_all, integrate
from .stationary import (BarrierSpec, _phase_rate, _slab_amplitudes, _slab_field, _slab_system,
                         _wavenumbers, barrier_solution)


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
    scaled exactly by a power of two, so the scale of U0 cannot over- or underflow E (U0 - E).
    Where that scaled product is below the normal doubles it has lost bits (all of them if
    E scaled to 0), and tau is hbar / (sqrt(E) sqrt(U0 - E)) on the unscaled values. A tau
    that is not a double raises, naming E and U0."""
    _check_tunneling_range(E, U0)
    scale = math.frexp(U0)[1]
    e, u = np.ldexp(E, -scale), math.ldexp(U0, -scale)
    product = e * (u - e)
    low = product < sys.float_info.min
    with np.errstate(over="ignore"):  # named below, not warned about
        tau = np.ldexp(units.hbar / np.sqrt(np.where(low, 1.0, product)), -scale)
        if low.any():
            tau = np.divide(units.hbar, np.sqrt(E) * np.sqrt(U0 - E), out=np.asarray(tau),
                            where=low)[()]
    _require_all(tau < math.inf, E, f"tau = hbar / sqrt(E (U0 - E)) overflows at E={{}}, U0={U0}")
    return tau


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
    with np.errstate(over="ignore"):  # named below, not warned about
        tau = np.divide(units.hbar, 2.0 * math.pi * (U0 - E))
    _require_all(tau < math.inf, E, f"tau = hbar / (2 pi (U0 - E)) overflows at E={{}}, U0={U0}")
    return tau


def esposito_special_energy(U0: float) -> float:
    """The energy at which A = 1 and tau equals one wave period."""
    if not U0 > 0:
        raise ValueError("U0 must be positive")
    four_pi2 = 4.0 * math.pi**2
    return four_pi2 / (1.0 + four_pi2) * U0


def _solve(E, spec: BarrierSpec, units: UnitSystem):
    """The one slab solve the phase and dwell times read at energies 0 < E < U0:
    k, kappa, k/kappa, kappa d and _slab_system's terms."""
    k, kappa, kh, kd = _wavenumbers(E, spec.height_U0, spec.mass_m, spec.width_d, units)
    return k, kappa, kh, kd, _slab_system(kh, kd)


def _phase_time(E, spec: BarrierSpec, units: UnitSystem, slab):
    _, _, kh, kd, system = slab
    U0, m = spec.height_U0, spec.mass_m
    gap = (U0 - E) / U0
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned about
        tau = units.hbar / U0 * _phase_rate(system, 0.5 / (kh * gap * gap), -0.5 * kd / gap)
    _require_all(abs(tau) < math.inf, E,
                 f"the phase time is not a double at E={{}}, U0={U0}, m={m}")
    return tau


def _dwell_time(spec: BarrierSpec, units: UnitSystem, slab):
    k, kappa, kh, kd, system = slab
    q, s = system[:2]
    F1, _, _, t = _slab_amplitudes(kh, system)
    # Closed-form integral of |F1 e^{-kx} + G2 e^{k(x - d)}|^2 over [0, d] in kappa units,
    # G2 = t - F1 e^{-kd}: [(|F1|^2 + |G2|^2) s/2 + 2 Re(F1 conj G2) q kd] / kappa, whose
    # cross term is 0 where q is (kd = inf included).
    G2 = t - F1 * q
    stored = ((abs(F1) ** 2 + abs(G2) ** 2) * s / 2.0
              + 2.0 * (F1 * G2.conjugate()).real * (q * np.where(q > 0, kd, 0.0))) / kappa
    return stored / (units.hbar * k / spec.mass_m)


def phase_time(E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS):
    """Group-delay (phase) time hbar d(arg t)/dE = (hbar/U0) d(arg t)/de, e = E/U0,
    differentiated analytically through the slab determinant in kappa units, with
    d(k/kappa)/de = 1/(2 (k/kappa) (1 - e)^2), d(kappa d)/de = -kappa d / (2 (1 - e)) and
    1 - e = (U0 - E)/U0; hbar/U0 enters once, at the end. Requires 0 < E < U0; a phase
    time that is not a double raises, naming E, U0 and m."""
    return _phase_time(E, spec, units, _solve(E, spec, units))


def dwell_time(E, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS):
    """Dwell time: probability stored in the barrier over the incident flux, the stored
    probability taken in kappa units and divided by kappa once, so an opaque barrier
    (kappa d = inf) gives its limit 2 m k / (hbar kappa (k^2 + kappa^2))."""
    return _dwell_time(spec, units, _solve(E, spec, units))


def dwell_time_quadrature(
    E: float, spec: BarrierSpec, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Independent dwell-time route: direct quadrature of |psi|^2 over the barrier's
    interior field."""
    sol = barrier_solution(E, spec, units)
    j_in = units.hbar * sol.k / spec.mass_m
    d = spec.width_d
    stored = integrate(lambda x: abs(_slab_field(sol.F1, sol.t, sol.kappa, d, x)) ** 2,
                       0.0, d, 1e-12)
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

    tau = scatter(esposito_time(tunneling, spec.height_U0, units))
    factor = scatter(esposito_factor(tunneling, spec.height_U0))
    slab = _solve(tunneling, spec, units)  # one solve for both slab times
    return TunnelingTimeReport(
        energy_E=E,
        period_T=period,
        esposito_tau=tau,
        factor_A=factor,
        phase_time=scatter(_phase_time(tunneling, spec, units, slab)),
        dwell_time=scatter(_dwell_time(spec, units, slab)),
    )
