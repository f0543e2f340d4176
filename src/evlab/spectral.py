"""Wave-packet spectral analysis: the box (ground-mode) state, its Fourier spectrum,
moments and tail probability (quadrature below SERIES_CUT, an exact series above), the
Lorentzian line shape, and the spread of the energy released from a resonator.

The central distinction surfaced here is frequency *band* (total support of
a spectrum, often infinite) versus frequency *indeterminacy* (standard
deviation, finite whenever high frequencies decay fast enough).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .numcore import NATURAL_UNITS, UnitSystem, integrate

# Printed asymptotic tail coefficient carried alongside the exact value, whose
# leading term is 2 * (2 pi / 3) = 4 pi / 3 instead.
PRINTED_TAIL_COEFFICIENT = 8.0 * math.pi / 3.0
ORACLE_TAIL_COEFFICIENT = 4.0 * math.pi / 3.0
TAIL_COEFFICIENT_WARNING = (
    "tail-probability asymptotic: the printed coefficient (8/3)*pi disagrees "
    "with the quadrature-converged constant (4/3)*pi; both are reported"
)
# pi - math.pi, the part of pi a double drops.
PI_LO = 1.2246467991473532e-16
# Moments switch from quadrature to the exact tail series, at roundoff from u ~ 50 up.
SERIES_CUT = 20.0 * math.pi


@dataclass(frozen=True)
class BoxState:
    """Ground mode of a hard-wall box of width a, centered at the origin:
    psi(x) = sqrt(2/a) cos(pi x / a) on |x| <= a/2, zero outside. Its <k^2> =
    (pi/a)^2 must be a normal double, so a lies in about [2.4e-154, 2.1e154]."""

    width_a: float

    def __post_init__(self):
        if not self.width_a > 0:
            raise ValueError(f"box width must be positive, got a={self.width_a}")
        if not sys.float_info.min <= self.k_a * self.k_a < math.inf:
            raise ValueError(f"(pi/a)^2 is out of double range at a={self.width_a}")

    @property
    def k_a(self) -> float:
        return math.pi / self.width_a

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        a = self.width_a
        out = np.where(
            np.abs(x) <= a / 2.0, np.sqrt(2.0 / a) * np.cos(self.k_a * x), 0.0
        )
        return out if out.shape else float(out)


@dataclass(frozen=True)
class LineShape:
    """Lorentzian line: resonance frequency omega0, half-width gamma0."""

    omega0: float
    gamma0: float

    def __post_init__(self):
        # A normal gamma0 keeps the peak density 2 / (pi gamma0) finite.
        if not (0 < self.omega0 < math.inf and sys.float_info.min <= self.gamma0 < math.inf):
            raise ValueError(f"omega0 and gamma0 must be positive and finite, got {self}")


def box_spectrum(k, a: float):
    """Fourier amplitude of the box ground mode:
    F(k) = 2 sqrt(pi a) cos(a k / 2) / (pi^2 - a^2 k^2).

    With u = |a k|, pi^2 - u^2 = ((math.pi - u) + PI_LO)(math.pi + u): math.pi - u
    is exact near pi (Sterbenz), so the factor vanishing at the removable
    singularity u = pi carries the true pi, as cos(u/2) does; the quotient
    stays at roundoff through it, and the denominator is never 0.
    """
    if not a > 0:
        raise ValueError(f"a must be positive, got a={a}")
    u = np.abs(a * np.asarray(k, dtype=float))  # F is even in k
    denom = ((math.pi - u) + PI_LO) * (math.pi + u)
    out = 2.0 * math.sqrt(math.pi * a) * np.cos(u / 2.0) / denom
    return out if out.shape else float(out)


def _tail_moment(K: float, m: int) -> float:
    """int_K^inf u^(2m) |F(u; 1)|^2 du, m in {0, 1}, exact to roundoff for K >= SERIES_CUT:
    |F|^2 = 2 pi (1 + cos u) / (u^2 - pi^2)^2, u^(2m) / (u^2 - pi^2)^2 = sum_n (n+1) pi^(2n)
    u^-p with p = 4 + 2n - 2m; each u^-p integrates exactly, each cos(u) u^-p by parts to
    Re[e^(iK) sum_j i (-i)^j (p)_j K^(-p-j)] (Bender & Orszag 1978, sec. 6.3)."""
    n, j = np.arange(8)[:, None], np.arange(32)
    p = 4.0 + 2.0 * n - 2.0 * m
    weight = (n + 1.0) * (math.pi / K) ** (2.0 * n)  # term n of the sum over K^(2m-4)
    rising = np.cumprod(np.where(j == 0, 1.0, (p + j - 1.0) / K), axis=1)  # (p)_j / K^j
    by_parts = (1j * cmath.exp(1j * K) * (weight * rising * (-1j) ** j).sum()).real / K
    return float(2.0 * math.pi * K ** (2 * m - 3) * ((weight / (p - 1.0)).sum() + by_parts))


def _moment(m: int, lo: float) -> float:
    """2 int_lo^inf u^(2m) |F(u; 1)|^2 du: quadrature below SERIES_CUT, the series above.
    Every result exceeds about 1/SERIES_CUT^3: that integrand scale makes tol relative."""
    if lo >= SERIES_CUT:
        return 2.0 * _tail_moment(lo, m)
    scale = SERIES_CUT**3
    body = integrate(lambda u: scale * (u**m * box_spectrum(u, 1.0)) ** 2, lo, SERIES_CUT, 1e-12)
    return 2.0 * (body / scale + _tail_moment(SERIES_CUT, m))


@functools.cache
def _line_moment(m: int) -> float:
    """2 int_0^inf u^(2m) |F(u; 1)|^2 du, m in {0, 1}: a number free of every input, so its
    quadrature runs once per process."""
    return _moment(m, 0.0)


def box_parseval(a: float) -> float:
    """int |F|^2 dk = int |F(u; 1)|^2 du = 1, with u = a k."""
    BoxState(a)
    return _line_moment(0)


def box_k2_spectral(a: float) -> float:
    """int k^2 |F|^2 dk = int u^2 |F(u; 1)|^2 du / a^2 = (pi/a)^2."""
    BoxState(a)
    return _line_moment(1) / a / a


def tail_probability(k_prime: float, a: float) -> dict:
    """Probability of finding |k| above k_prime, two ways: {'exact': 2 int_{a k'}^inf
    |F(u; 1)|^2 du, leading term (4/3) pi / (a k')^3; 'asymptotic': the printed (8/3) pi /
    (a k')^3}. The exact route is authoritative; the factor-two discrepancy is surfaced,
    not hidden. Both depend on the cut a k' alone, which must exceed pi with a finite cube."""
    k_a = BoxState(a).k_a
    cut = a * k_prime
    if not cut > math.pi:
        raise ValueError(f"k_prime={k_prime} must exceed k_a={k_a}: the asymptotic "
                         "regime requires k' >> pi/a")
    scale = cut * cut * cut
    if scale == math.inf:
        raise ValueError(f"(a*k_prime)^3 overflows at a={a}, k_prime={k_prime}")
    return {"exact": _moment(0, cut), "asymptotic": PRINTED_TAIL_COEFFICIENT / scale}


def box_moments(a: float) -> dict:
    """Position and momentum moments of the box ground mode, from their closed
    forms in s = x/a: delta_s = sqrt(1/12 - 1/(2 pi^2)) and a^2 <k^2> = pi^2."""
    k_a = BoxState(a).k_a
    delta_s = math.sqrt((1.0 / 12.0) * (1.0 - 6.0 / math.pi**2))
    return {
        "delta_x": a * delta_s,
        "mean_k": 0.0,
        "k2_mean": k_a * k_a,
        "delta_k": k_a,
    }


def _unit_lorentzian(u):
    """Density per unit u = (omega - omega0)/gamma0 of every Lorentzian line."""
    return 1.0 / (2.0 * math.pi * (u * u + 0.25))


def lorentzian_density(omega: float, line: LineShape) -> float:
    """Probability per unit frequency of the Lorentzian line."""
    return _unit_lorentzian((omega - line.omega0) / line.gamma0) / line.gamma0


@functools.cache
def _lorentzian_body() -> float:
    """int_-1e4^1e4 of the unit line in u, the same for every line: measured once per process."""
    return integrate(_unit_lorentzian, -1e4, 1e4, 1e-10)


def lorentzian_norm(line: LineShape) -> float:
    """Normalization of any line: quadrature in u plus analytic arctan tails."""
    # int_U^inf = 1/2 - (1/pi) arctan(2 U), the same on the left.
    tail = 1.0 - (2.0 / math.pi) * math.atan(2e4)
    return _lorentzian_body() + tail


def released_energy_spread(a: float, units: UnitSystem = NATURAL_UNITS) -> dict:
    """Mean energy and energy indeterminacy of a photon released from a
    resonator of length a: both equal hbar omega_a = pi hbar c / a."""
    BoxState(a)
    omega_a = units.c * math.pi / a
    return {
        "omega_a": omega_a,
        "mean_E": units.hbar * omega_a,
        "delta_E": units.hbar * units.c * (math.pi / a),
    }


@functools.cache
def _gaussian_moments() -> tuple[float, float]:
    """(mean, variance) of the unit band exp(-u^2 / 2) in u = (omega - omega0) / sigma, the
    same for every band: measured once per process."""
    # In u the integrals are O(1), so the tol max(1, |I|) contract stays
    # relative at any sigma and omega0.
    density = lambda u: np.exp(-0.5 * u * u)
    norm = integrate(density, -12.0, 12.0, 1e-12)
    mean_u = integrate(lambda u: u * density(u), -12.0, 12.0, 1e-12) / norm
    var_u = integrate(lambda u: (u - mean_u) ** 2 * density(u), -12.0, 12.0, 1e-12) / norm
    return mean_u, var_u


def gaussian_band_report(
    omega0: float, sigma: float, units: UnitSystem = NATURAL_UNITS
) -> dict:
    """Band vs. deviation for a Gaussian photon state: the support is
    unbounded ('infinite' band) while the standard deviation is sigma and
    the mean energy hbar omega0 stays finite.

    delta_omega and the mean come from the unit band's moments, measured by
    quadrature once per process rather than echoed from the parameters, so the
    report is a measurement, not a restatement.
    """
    if not (0 < omega0 < math.inf and 0 < sigma < math.inf):
        raise ValueError("omega0 and sigma must be positive and finite, "
                         f"got omega0={omega0}, sigma={sigma}")
    mean_u, var_u = _gaussian_moments()
    return {
        "band": "infinite",
        "delta_omega": sigma * math.sqrt(var_u),
        "mean_E": units.hbar * (omega0 + sigma * mean_u),
    }
