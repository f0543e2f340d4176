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

from .numcore import NATURAL_UNITS, Grid1D, UnitSystem, WavePacket, _require_all
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
        if not self.refr_index_n > 1:
            raise ValueError(f"refractive index must exceed 1, got n={self.refr_index_n}")
        _evanescent_sine(self.refr_index_n, self.incidence_theta)
        if not self.gap_d >= 0:
            raise ValueError(f"gap width must be non-negative, got d={self.gap_d}")


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


def _evanescent_sine(n: float, theta: float) -> float:
    """n sin(theta), once theta lies in (0, pi/2) and n sin(theta) exceeds 1."""
    if not 0 < theta < math.pi / 2:
        raise ValueError(f"incidence angle must lie in (0, pi/2), got theta={theta}")
    s = n * math.sin(theta)
    if not s > 1.0:
        raise NotEvanescentError(
            f"n sin(theta) = {s} is not above 1 (n={n}, theta={theta}): "
            "the gap is not evanescent"
        )
    return s


def gap_decay(
    n: float, theta: float, omega: float, units: UnitSystem = NATURAL_UNITS
) -> dict:
    """Evanescent decay data for the gap: alpha, kappa_x, k_parallel."""
    if not np.all(omega > 0):
        raise ValueError("omega must be positive")
    s = _evanescent_sine(n, theta)
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
    if not kappa_x > 0:
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


_NEWTON_STEPS = 60  # lags evaluated at most; bisection alone narrows lag0 +- 2 to 3.5e-18
_EPS = float(np.finfo(float).eps)


def _unit_magnitude(env: WavePacket, name: str) -> np.ndarray:
    """|env| at unit L2 norm, first scaled by the power of two of its maximum:
    exact, and the norm cannot overflow or underflow at any finite scale."""
    _require_all(np.isfinite(env.values), env.values, f"{name} must be finite, got sample {{}}")
    m = np.abs(env.values)
    m = np.ldexp(m, -np.frexp(m.max())[1])
    norm = np.linalg.norm(m)
    if norm == 0:
        raise ValueError(f"zero-energy envelope: {name}")
    return m / norm


def reshaping_distance(input_env: WavePacket, output_env: WavePacket) -> float:
    """Shape change between two envelopes: L2 distance of the unit-normalized
    magnitudes, minimized over relative time shift.

    Zero means the output is a pure delay plus scaling of the input, at any
    lag, fractional included; any positive value is genuine reshaping. The
    shift is found in lag0 +- 2 samples of the cross-correlation peak lag0 by
    Newton's method on the exact FFT derivatives of the distance.
    """
    if input_env.grid.dx != output_env.grid.dx:
        raise ValueError("envelopes must share the sample spacing")
    if input_env.grid.count != output_env.grid.count:
        raise ValueError("envelopes must share the sample count")
    a = _unit_magnitude(input_env, "input_env")
    b = _unit_magnitude(output_env, "output_env")
    n = len(a)
    B = np.fft.fft(b)
    ramp = -2j * math.pi * np.fft.fftfreq(n)
    # Coarse alignment: circular cross-correlation peak.
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(B)).real
    lag0 = int(np.argmax(corr))
    if lag0 > n // 2:
        lag0 -= n
    # s(lag) = ifft(B exp(ramp lag)) is b shifted by lag, and one transform gives s, s'
    # and s''. The shift is unitary, so ||a - |s||| is least where G = sum a |s| is
    # greatest. With u = conj(s)/|s|: G' = sum a Re(u s'), G'' = sum a (Im(u s')^2/|s|
    # + Re(u s'')), both over |s| > 0. The sign of G' shrinks the bracket; a Newton step
    # is taken where G'' < 0 and it stays inside, and the bracket is bisected otherwise.
    # The search stops once the Newton step -G'/G'' is below the lag's resolution: the
    # float spacing of the lag, or eps / sqrt(-G''), below which the distance cannot
    # change by eps. A flat G (G' = G'' = 0) stops it too.
    derivs = np.stack([np.ones(n), ramp, ramp * ramp])
    lo, hi, lag, best = lag0 - 2.0, lag0 + 2.0, float(lag0), math.inf
    for _ in range(_NEWTON_STEPS):
        s, s1, s2 = np.fft.ifft(B * np.exp(ramp * lag) * derivs)
        m = np.abs(s)
        best = min(best, float(np.linalg.norm(a - m)))
        on = m > 0
        u = s[on].conj() / m[on]
        us1, us2 = u * s1[on], u * s2[on]
        g1 = float(a[on] @ us1.real)
        g2 = float(a[on] @ (us1.imag**2 / m[on] + us2.real))
        if g2 <= 0 and abs(g1) <= max(-g2 * np.spacing(abs(lag)), _EPS * math.sqrt(-g2)):
            break
        lo, hi = (lag, hi) if g1 > 0 else (lo, lag)
        step = -g1 / g2 if g2 < 0 else math.inf
        lag = lag + step if lo < lag + step < hi else 0.5 * (lo + hi)
    return best
