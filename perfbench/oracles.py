"""Independent checks for every benchmark operation.

Each check recomputes the expected value by a route that does not go
through the function under test (closed forms, scipy's QUADPACK, a
direct NumPy transform) and compares at the tolerance the repository's
tier-1 tests pin for the same quantity. A mismatch raises OracleError.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np


class OracleError(AssertionError):
    """An operation's output disagrees with its oracle."""


def require(condition: bool, message: str):
    if not condition:
        raise OracleError(message)


def close(value: float, expected: float, rel: float, what: str, abs_tol: float = 0.0):
    require(
        abs(value - expected) <= max(rel * abs(expected), abs_tol),
        f"{what}: got {value!r}, expected {expected!r} (rel {rel:g})",
    )


def read_rows(path: Path) -> list:
    """Data rows of a CLI CSV file, numbers as floats and flags as bools."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[v == "true" if v in ("true", "false") else float(v) for v in row] for row in rows]


def read_summary(directory: Path, command: str, schema: dict) -> dict:
    """Load <command>_summary.json and validate it against the package schema."""
    import jsonschema

    path = directory / f"{command}_summary.json"
    require(path.is_file(), f"missing {path.name}")
    summary = json.loads(path.read_text())
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        raise OracleError(f"summary fails the schema: {exc.message}") from None
    require(summary["command"] == command, "summary names the wrong command")
    return summary


# --- stationary barrier ----------------------------------------------------

def barrier_transmission(E: float, U0: float, d: float, m: float = 1.0) -> float:
    """Closed-form |t|^2 of a rectangular barrier (hbar = 1), written with a
    scaled denominator so opaque barriers underflow instead of overflowing."""
    k = math.sqrt(2.0 * m * E)
    kap = math.sqrt(2.0 * m * (U0 - E))
    x = kap * d
    if x < 20.0:
        t = 2j * k * kap / (2j * k * kap * math.cosh(x) + (k * k - kap * kap) * math.sinh(x))
        return abs(t) ** 2
    # cosh x ~ sinh x ~ e^x / 2, relative error e^{-2x} < 1e-17.
    return 16.0 * k * k * kap * kap / (k * k + kap * kap) ** 2 * math.exp(-2.0 * x)


def check_stationary_rows(rows: list, u0: float, d: float, energies) -> None:
    """Criterion 07: |T + R - 1| < 1e-12 and T equal to the closed form at
    rel 1e-12, row by row, for exactly the requested energies."""
    require(len(rows) == len(energies), f"{len(rows)} rows for {len(energies)} energies")
    for row, E in zip(rows, energies):
        close(row[0], E, 1e-15, "energy column")
        T, R = row[11], row[12]
        require(abs(T + R - 1.0) < 1e-12, f"unitarity |T+R-1| = {abs(T + R - 1.0):.3e} at E={E}")
        close(T, barrier_transmission(E, u0, d), 1e-12, f"T at E={E}", abs_tol=1e-300)


def check_ttime_rows(rows: list, u0: float, fractions) -> None:
    """Closed-form tau = hbar / sqrt(E (U0 - E)) below the barrier; every
    definition NaN exactly at and above it."""
    require(len(rows) == len(fractions), f"{len(rows)} rows for {len(fractions)} fractions")
    for row, f in zip(rows, fractions):
        close(row[0], f, 1e-15, "fraction column")
        E = row[0] * u0
        tau, factor, phase, dwell, period = row[1:6]
        close(period, 2.0 * math.pi / E, 1e-12, f"period at f={f}")
        if E < u0:
            close(tau, 1.0 / math.sqrt(E * (u0 - E)), 1e-12, f"tau at f={f}")
            close(factor, E / (4.0 * math.pi**2 * (u0 - E)), 1e-12, f"factor A at f={f}")
            require(math.isfinite(phase) and math.isfinite(dwell) and dwell > 0,
                    f"phase/dwell not finite below U0 at f={f}")
        else:
            require(all(math.isnan(v) for v in (tau, factor, phase, dwell)),
                    f"row at f={f} >= 1 is not NaN")


def dwell_time_closed(E: float, U0: float, d: float, m: float = 1.0) -> float:
    """Dwell time of a rectangular barrier from the textbook closed form
    (Buttiker 1983), hbar = 1."""
    k = math.sqrt(2.0 * m * E)
    kap = math.sqrt(2.0 * m * (U0 - E))
    x = kap * d
    denom = 4.0 * k * k * kap * kap + (k * k + kap * kap) ** 2 * math.sinh(x) ** 2
    stored_over_flux = (
        (k * m) / kap
        * (2.0 * kap * d * (kap * kap - k * k) + (k * k + kap * kap) * math.sinh(2.0 * x))
        / denom
    )
    return stored_over_flux


# --- optical gap -------------------------------------------------------------

def gap_amplitudes(omegas: np.ndarray, n: float, theta: float, d: float,
                   depth: float | None = None) -> np.ndarray:
    """Closed-form gap response on an FFT frequency grid (c = 1).

    With depth None this is t(omega), the exit-face transmission amplitude;
    otherwise the interior field t [cosh k(x-d) + (ik/kappa) sinh k(x-d)]
    at x = depth. Negative frequencies are the conjugates of positive ones,
    omega = 0 passes unchanged.
    """
    w = np.abs(omegas)
    pos = w > 0
    k = w[pos] * n * math.cos(theta)
    kap = w[pos] * math.sqrt((n * math.sin(theta)) ** 2 - 1.0)
    x = kap * d
    t = 2j * k * kap / (2j * k * kap * np.cosh(x) + (k * k - kap * kap) * np.sinh(x))
    if depth is not None:
        s = kap * (depth - d)
        t = t * (np.cosh(s) + (1j * k / kap) * np.sinh(s))
    out = np.ones(omegas.shape, dtype=complex)
    out[pos] = t
    neg = omegas < 0
    out[neg] = np.conj(out[neg])
    return out


def check_band_filter(signal: np.ndarray, dt: float, output: np.ndarray, response) -> None:
    """Output must equal resynthesis of the input spectrum times the
    closed-form response. Criterion 09 pins t per bin at rel 1e-12; the bound
    here is that per-bin error carried through the synthesis sum."""
    spec = np.fft.ifft(signal)
    omegas = 2.0 * math.pi * np.fft.fftfreq(len(signal), dt)
    weighted = spec * response(omegas)
    expected = np.fft.fft(weighted)
    bound = 2e-12 * float(np.abs(weighted).sum())
    err = float(np.abs(output - expected).max())
    require(err <= bound, f"band filter mismatch {err:.3e} > {bound:.3e}")


# --- spectra -----------------------------------------------------------------

def box_tail_probability(k_prime: float, a: float) -> float:
    """P(|k| > k') of the box ground mode by QUADPACK's Fourier-integral
    routine: |F|^2 = 2 pi a (1 + cos a k) / (pi^2 - a^2 k^2)^2."""
    from scipy.integrate import quad

    def g(k):
        return 2.0 * math.pi * a / (math.pi**2 - (a * k) ** 2) ** 2

    smooth, _ = quad(g, k_prime, math.inf, epsabs=0.0, epsrel=1e-12)
    wave, _ = quad(g, k_prime, math.inf, weight="cos", wvar=a, epsabs=1e-10 * smooth)
    return 2.0 * (smooth + wave)
