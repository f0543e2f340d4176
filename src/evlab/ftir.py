"""Frustrated-total-internal-reflection gap model.

The air gap between two prisms beyond the critical angle acts as an
evanescent barrier for light. With a dispersionless prism index n and
incidence angle theta, the gap carries two counter-decaying evanescent
waves; transmission, reflection, group delay, and pulse reshaping all
follow from per-frequency interface matching of the scalar field.

Effective 1D normal-incidence reduction: the exterior normal wavenumber is
k1 = (omega/c) n cos(theta) and the interior one is i kappa_x with
kappa_x = alpha omega / c, alpha = sqrt(n^2 sin^2 theta - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .numcore import NATURAL_UNITS, Grid1D, UnitSystem, WavePacket
from .stationary import _phase_rate, _slab_field, match_evanescent_slab


BAND_LEAK_TOL = 1e-6  # largest energy fraction transmit_pulse accepts at omega <= 0


class NotEvanescentError(ValueError):
    """The gap is propagating, not evanescent (n sin theta <= 1)."""


@dataclass(frozen=True)
class GapSpec:
    """FTIR geometry: prism index n, incidence angle theta (radians), gap d.

    d = 0 is the degenerate no-gap case (identity transfer). The index is a
    constant over the pulse band; an n(omega) table hook would slot in here
    but the model is deliberately dispersionless.
    """

    refr_index_n: float
    incidence_theta: float
    gap_d: float

    def __post_init__(self):
        if self.refr_index_n <= 1:
            raise ValueError("refractive index must exceed 1")
        if not 0 < self.incidence_theta < math.pi / 2:
            raise ValueError("incidence angle must lie in (0, pi/2)")
        if self.gap_d < 0:
            raise ValueError("gap width must be non-negative")
        if self.refr_index_n * math.sin(self.incidence_theta) <= 1.0:
            raise NotEvanescentError(
                "n sin(theta) <= 1: the gap is propagating, not evanescent"
            )


@dataclass(frozen=True)
class GapTransfer:
    """Per-frequency transfer through the gap: interior evanescent pair
    (F1 decaying, F2 growing) and exterior r, t amplitudes."""

    omega: float
    k_parallel: float
    k_normal: float
    kappa_x: float
    F1: complex
    F2: complex
    r: complex
    t: complex

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2


def gap_decay(
    n: float, theta: float, omega: float, units: UnitSystem = NATURAL_UNITS
) -> dict:
    """Evanescent decay data for the gap: alpha, kappa_x, k_parallel."""
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    s = n * math.sin(theta)
    if s <= 1.0:
        raise NotEvanescentError(
            f"n sin(theta) = {s} <= 1: propagating gap, not evanescent"
        )
    alpha = math.sqrt(s * s - 1.0)
    return {
        "alpha": alpha,
        "kappa_x": alpha * omega / units.c,
        "k_parallel": (omega / units.c) * s,
    }


def _gap_wavenumbers(omega, spec: GapSpec, units: UnitSystem):
    """Decay data and exterior normal wavenumber k1 at omega > 0 (scalar or array)."""
    decay = gap_decay(spec.refr_index_n, spec.incidence_theta, omega, units)
    k1 = (omega / units.c) * spec.refr_index_n * math.cos(spec.incidence_theta)
    return decay, k1


def _gap_slab(omega, spec: GapSpec, units: UnitSystem):
    """Decay data, k1 and the matched (F1, F2, r, t) at omega > 0 (scalar or
    array); a zero-width gap is the identity transfer."""
    decay, k1 = _gap_wavenumbers(omega, spec, units)
    if spec.gap_d == 0.0:
        return decay, k1, (1.0, 0.0, 0.0, 1.0)
    return decay, k1, match_evanescent_slab(k1, decay["kappa_x"], spec.gap_d)


def gap_transfer(
    omega: float, spec: GapSpec, units: UnitSystem = NATURAL_UNITS
) -> GapTransfer:
    """Interface-matched transfer of a monochromatic wave through the gap."""
    decay, k1, (F1, F2, r, t) = _gap_slab(omega, spec, units)
    return GapTransfer(
        omega=omega, k_parallel=decay["k_parallel"], k_normal=k1, kappa_x=decay["kappa_x"],
        F1=complex(F1), F2=complex(F2), r=complex(r), t=complex(t),
    )


def gap_group_delay(
    spec: GapSpec, omega0: float, units: UnitSystem = NATURAL_UNITS
) -> float:
    """Group delay tau_g = d(arg t)/d(omega), differentiated analytically: both
    wavenumbers are proportional to omega, so dk1/domega = k1/omega and
    dkappa/domega = kappa/omega."""
    decay, k1 = _gap_wavenumbers(omega0, spec, units)
    if spec.gap_d == 0.0:
        return 0.0  # identity transfer: t = 1 at every frequency
    kappa = decay["kappa_x"]
    return float(_phase_rate(k1, kappa, spec.gap_d, k1 / omega0, kappa / omega0))


def goos_hanchen_estimate(kappa_x: float) -> float:
    """Order-of-magnitude lateral-shift estimate D = 1/kappa_x.

    This is a scale estimate, not a polarization-resolved beam-shift formula.
    """
    if kappa_x <= 0:
        raise ValueError("kappa_x must be positive")
    return 1.0 / kappa_x


def _spectrum(signal: WavePacket):
    """Decompose psi(t_n) = sum_m S_m exp(-i omega_m t_n) on the FFT grid."""
    spec = np.fft.ifft(signal.values)
    omegas = 2.0 * math.pi * np.fft.fftfreq(signal.grid.count, signal.grid.dx)
    return omegas, spec


def _band_slab(omegas: np.ndarray, spec: GapSpec, units: UnitSystem):
    """kappa_x, F1 and t on an FFT frequency grid, all bins in one kernel
    call. Negative frequencies mirror the positive ones by conjugation (real
    linear medium); omega = 0 passes unchanged (kappa_x = 0, F1 = t = 1:
    transmission -> 1 in the long-wavelength limit)."""
    kappa = np.zeros(omegas.shape)
    F1 = np.ones(omegas.shape, dtype=complex)
    t = np.ones(omegas.shape, dtype=complex)
    nonzero = omegas != 0
    decay, _, (F1_nz, _, _, t_nz) = _gap_slab(np.abs(omegas[nonzero]), spec, units)
    kappa[nonzero], F1[nonzero], t[nonzero] = decay["kappa_x"], F1_nz, t_nz
    negative = omegas < 0
    return kappa, np.where(negative, F1.conj(), F1), np.where(negative, t.conj(), t)


def transmit_pulse(
    signal: WavePacket, spec: GapSpec, units: UnitSystem = NATURAL_UNITS
) -> WavePacket:
    """Pass a time-domain field through the gap frequency by frequency.

    The signal is the complex field at the gap entrance sampled in time
    (grid coordinate = t). Its spectrum must lie in the evanescent band
    (positive frequencies): energy at omega <= 0 beyond BAND_LEAK_TOL of the
    total raises.
    """
    if spec.gap_d == 0.0:
        return WavePacket(signal.grid, signal.values.copy())
    omegas, S = _spectrum(signal)
    power = np.abs(S) ** 2
    total = power.sum()
    if total == 0:
        raise ValueError("zero-energy input signal")
    leak = power[omegas <= 0].sum() / total
    if leak > BAND_LEAK_TOL:
        raise ValueError(
            f"spectrum leaks outside the evanescent band: fraction {leak:.3e} "
            f"of the energy sits at omega <= 0 (tolerance {BAND_LEAK_TOL:.1e})"
        )
    _, _, t_of_w = _band_slab(omegas, spec, units)
    return WavePacket(signal.grid, np.fft.fft(S * t_of_w))


def interior_field(
    signal: WavePacket, x: float, spec: GapSpec, units: UnitSystem = NATURAL_UNITS
) -> WavePacket:
    """Two-evanescent-wave field inside the gap at depth x, as a time signal."""
    if not 0.0 <= x <= spec.gap_d:
        raise ValueError("x must lie inside the gap [0, d]")
    omegas, S = _spectrum(signal)
    kappa, F1, t = _band_slab(omegas, spec, units)
    weights = _slab_field(F1, t, kappa, spec.gap_d, x)
    return WavePacket(signal.grid, np.fft.fft(S * weights))


def _fractional_shift(values: np.ndarray, lag: float) -> np.ndarray:
    """Shift a sampled signal by a (fractional) number of samples via the
    FFT phase ramp; exact for band-limited content."""
    n = len(values)
    freqs = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(values) * np.exp(-2j * math.pi * freqs * lag))


def reshaping_distance(input_env: WavePacket, output_env: WavePacket) -> float:
    """Shape change between two envelopes: L2 distance of the unit-normalized
    magnitudes, minimized over relative time shift.

    Zero means the output is a pure delay plus scaling of the input; any
    positive value is genuine reshaping.
    """
    if input_env.grid.dx != output_env.grid.dx:
        raise ValueError("envelopes must share the sample spacing")
    if input_env.grid.count != output_env.grid.count:
        raise ValueError("envelopes must share the sample count")
    a = np.abs(input_env.values)
    b = np.abs(output_env.values)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("zero-energy envelope")
    a = a / na
    b = b / nb
    n = len(a)
    # Coarse alignment: circular cross-correlation peak.
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    lag0 = int(np.argmax(corr))
    if lag0 > n // 2:
        lag0 -= n

    def dist(lag: float) -> float:
        shifted = np.abs(_fractional_shift(b, lag))
        return float(np.linalg.norm(a - shifted))

    res = minimize_scalar(dist, bounds=(lag0 - 2.0, lag0 + 2.0),
                          method="bounded", options={"xatol": 1e-12})
    return float(min(res.fun, dist(lag0)))
