"""Time-domain solvers for the front-vs-peak velocity dichotomy.

Two solvers live here on purpose:

* a leapfrog integrator for the hyperbolic cutoff wave equation
      psi_tt = c^2 psi_xx - c^2 k_c(x)^2 psi
  whose signal fronts are strictly luminal (this is the causality testbed:
  a below-cutoff region reproduces the evanescent dispersion
  k_x^2 = omega^2/c^2 - k_c^2, and the transmitted *peak* can outrun the
  vacuum peak while the *front* never does);

* a split-step spectral integrator for the non-relativistic Schrodinger
  equation, which has no finite front at all (one step spreads compact data
  everywhere) and therefore cannot test the front theorem - it is here for
  the dispersive-spreading claims about massive particles.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numcore import NATURAL_UNITS, Grid1D, UnitSystem, WavePacket


class BoundaryContactError(RuntimeError):
    """The wave support reached the grid boundary; the run is truncated."""


class NormDriftError(RuntimeError):
    """Norm drift exceeded tolerance (step size too large)."""


@dataclass(frozen=True)
class MediumProfile:
    """Cutoff profile k_c(x) >= 0 on a grid; zero outside the barrier."""

    grid: Grid1D
    cutoff_kc: np.ndarray = field(repr=False)

    def __post_init__(self):
        kc = np.asarray(self.cutoff_kc, dtype=float)
        if kc.shape != (self.grid.count,):
            raise ValueError("cutoff_kc length must match grid count")
        if np.any(kc < 0):
            raise ValueError("cutoff_kc must be non-negative")
        kc.setflags(write=False)
        object.__setattr__(self, "cutoff_kc", kc)


@dataclass(frozen=True)
class PropagationRecord:
    """Recorded evolution: aligned times, snapshots, and the front/peak
    trajectories measured on each snapshot."""

    times: np.ndarray
    snapshots: list
    front_positions: np.ndarray
    peak_positions: np.ndarray


def front_position(packet: WavePacket, epsilon: float) -> float:
    """Rightmost x where |psi| >= epsilon, linearly interpolated."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    amp = np.abs(packet.values)
    above = np.nonzero(amp >= epsilon)[0]
    if len(above) == 0:
        raise ValueError("no sample reaches the threshold")
    i = above[-1]
    x = packet.grid.points()
    if i == packet.grid.count - 1:
        return float(x[i])
    # Interpolate the downward crossing of the threshold to the right of i.
    a0, a1 = amp[i], amp[i + 1]
    frac = (a0 - epsilon) / (a0 - a1) if a0 > a1 else 0.0
    return float(x[i] + frac * packet.grid.dx)


def peak_position(packet: WavePacket) -> float:
    """Position of the global |psi|^2 maximum with quadratic refinement."""
    dens = packet.abs2()
    if not np.any(dens > 0):
        raise ValueError("zero packet has no peak")
    i = int(np.argmax(dens))
    x = packet.grid.points()
    if i == 0 or i == packet.grid.count - 1:
        return float(x[i])
    y0, y1, y2 = dens[i - 1], dens[i], dens[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[i])
    return float(x[i] + 0.5 * (y0 - y2) / denom * packet.grid.dx)


def _measure(grid: Grid1D, values: np.ndarray, epsilon: float):
    wp = WavePacket(grid, values)
    try:
        fp = front_position(wp, epsilon)
    except ValueError:
        fp = math.nan
    return wp, fp, peak_position(wp)


def discrete_energy(
    prev: np.ndarray, curr: np.ndarray, dt: float, profile: MediumProfile,
    units: UnitSystem = NATURAL_UNITS,
) -> float:
    """Staggered discrete energy of the leapfrog scheme; conserved to
    roundoff for the lossless cutoff wave equation."""
    dx, c = profile.grid.dx, units.c
    vel = (curr - prev) / dt
    grad_c = np.diff(curr) / dx
    grad_p = np.diff(prev) / dx
    kc2 = profile.cutoff_kc**2
    # The (dt^2/2) kc^2 weight on the velocity term is the mass-matrix
    # correction of the time-averaged cutoff coupling; with it the sum is
    # conserved to roundoff.
    weight = 1.0 + 0.5 * (c * dt) ** 2 * kc2
    e = 0.5 * np.sum(weight * np.abs(vel) ** 2) * dx
    e += 0.5 * c**2 * np.sum((grad_c * np.conj(grad_p)).real) * dx
    e += 0.5 * c**2 * np.sum(kc2 * (curr * np.conj(prev)).real) * dx
    return float(e)


def evolve_wave(
    initial: WavePacket,
    profile: MediumProfile,
    courant: float,
    steps: int,
    initial_velocity: np.ndarray | None = None,
    initial_prev: np.ndarray | None = None,
    units: UnitSystem = NATURAL_UNITS,
    record_every: int = 1,
) -> PropagationRecord:
    """Leapfrog evolution of the cutoff wave equation.

    Initial data must be compactly supported strictly inside the grid.
    Either initial_velocity (dpsi/dt at t=0, Taylor first step) or
    initial_prev (the field one step in the past, exact two-level start;
    this is what makes unit-Courant vacuum translation exact) must be given.
    Support touching the boundary raises rather than wrapping around.

    The cutoff coupling is time-averaged over the n+1 and n-1 levels, which
    keeps the scheme stable at courant = 1 even inside the barrier; the
    update stencil then spreads support exactly one cell per step, so at
    unit Courant the numerical light cone coincides with the physical one.
    """
    if not 0 < courant <= 1:
        raise ValueError("courant must lie in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be positive")
    if (initial_velocity is None) == (initial_prev is None):
        raise ValueError("give exactly one of initial_velocity / initial_prev")
    grid = profile.grid
    dx, c = grid.dx, units.c
    dt = courant * dx / c
    kc2dt2 = (c * dt) ** 2 * profile.cutoff_kc**2
    mass_weight = 1.0 + 0.5 * kc2dt2
    c2 = courant**2
    psi0 = np.asarray(initial.values, dtype=complex)
    amp0 = np.abs(psi0).max()
    if amp0 == 0:
        raise ValueError("zero initial data")
    front_epsilon = 1e-10 * amp0
    edge_limit = 1e-12 * amp0

    def lap(f):
        out = np.zeros_like(f)
        out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        return out

    if initial_prev is not None:
        prev = np.asarray(initial_prev, dtype=complex).copy()
    else:
        v = np.asarray(initial_velocity, dtype=complex)
        # Second-order Taylor start run backwards to get the t = -dt level.
        prev = psi0 - dt * v + 0.5 * (c2 * lap(psi0) - kc2dt2 * psi0)

    curr = psi0.copy()
    times = [0.0]
    wp, fp, pp = _measure(grid, curr.copy(), front_epsilon)
    snapshots, fronts, peaks = [wp], [fp], [pp]
    for n in range(1, steps + 1):
        nxt = (2.0 * curr + c2 * lap(curr)) / mass_weight - prev
        prev, curr = curr, nxt
        # The stencil leaves the outermost cells untouched; the cells next to
        # them are the first to feel an arriving front.
        if abs(curr[1]) > edge_limit or abs(curr[-2]) > edge_limit:
            raise BoundaryContactError(
                f"support reached the grid boundary at step {n}; enlarge the grid"
            )
        if n % record_every == 0 or n == steps:
            times.append(n * dt)
            wp, fp, pp = _measure(grid, curr.copy(), front_epsilon)
            snapshots.append(wp)
            fronts.append(fp)
            peaks.append(pp)
    return PropagationRecord(
        times=np.asarray(times), snapshots=snapshots,
        front_positions=np.asarray(fronts), peak_positions=np.asarray(peaks),
    )


def evolve_schrodinger(
    initial: WavePacket,
    potential_U: np.ndarray,
    mass: float,
    dt: float,
    steps: int,
    units: UnitSystem = NATURAL_UNITS,
    record_every: int = 1,
    norm_tol: float = 1e-8,
) -> PropagationRecord:
    """Split-step (Strang) spectral evolution of the Schrodinger equation."""
    if mass <= 0 or dt <= 0 or steps < 1:
        raise ValueError("mass, dt, and steps must be positive")
    grid = initial.grid
    U = np.asarray(potential_U, dtype=float)
    if U.shape != (grid.count,):
        raise ValueError("potential length must match grid count")
    hbar = units.hbar
    k = 2.0 * math.pi * np.fft.fftfreq(grid.count, grid.dx)
    exp_V_half = np.exp(-0.5j * U * dt / hbar)
    exp_K = np.exp(-0.5j * hbar * k**2 * dt / mass)
    psi = np.asarray(initial.values, dtype=complex).copy()
    norm0 = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    if norm0 == 0:
        raise ValueError("zero initial state")
    eps = 1e-10 * np.abs(psi).max()

    times = [0.0]
    wp, fp, pp = _measure(grid, psi.copy(), eps)
    snapshots, fronts, peaks = [wp], [fp], [pp]
    for n in range(1, steps + 1):
        psi = exp_V_half * psi
        psi = np.fft.ifft(exp_K * np.fft.fft(psi))
        psi = exp_V_half * psi
        if n % record_every == 0 or n == steps:
            norm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
            if abs(norm - norm0) / norm0 > norm_tol:
                raise NormDriftError(
                    f"norm drifted by {abs(norm - norm0) / norm0:.3e} at step {n}"
                )
            times.append(n * dt)
            wp, fp, pp = _measure(grid, psi.copy(), eps)
            snapshots.append(wp)
            fronts.append(fp)
            peaks.append(pp)
    return PropagationRecord(
        times=np.asarray(times), snapshots=snapshots,
        front_positions=np.asarray(fronts), peak_positions=np.asarray(peaks),
    )


def peak_speed(record: PropagationRecord) -> float:
    """Least-squares slope of the peak trajectory over the last 10 recorded
    snapshots (all of them if fewer); single-step differences are too noisy
    at grid resolution."""
    if len(record.times) < 2:
        raise ValueError("record too short")
    t = record.times[-10:]
    x = record.peak_positions[-10:]
    return float(np.polyfit(t, x, 1)[0])


def dump_snapshots_csv(
    record: PropagationRecord, directory, stride: int = 1
) -> list:
    """Write each stride-th snapshot as CSV (columns x, re, im, abs2)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx in range(0, len(record.snapshots), stride):
        wp = record.snapshots[idx]
        path = directory / f"snapshot_{idx:05d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "re", "im", "abs2"])
            for x, v in zip(wp.grid.points(), wp.values):
                writer.writerow(
                    [f"{x:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}",
                     f"{abs(v) ** 2:.17g}"]
                )
        paths.append(path)
    return paths
