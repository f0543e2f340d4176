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
  the dispersive-spreading claims about massive particles. With no potential
  the half-step factor exp(-i U dt / 2 hbar) is exactly 1, so a free run
  stays in k-space and transforms back only the steps it records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numcore import NATURAL_UNITS, Grid1D, UnitSystem, WavePacket, _require_all


class BoundaryContactError(RuntimeError):
    """The wave support reached the grid boundary; the run is truncated."""


class NormDriftError(RuntimeError):
    """Norm drift exceeded tolerance. The Strang step is unitary at any dt
    (unit-modulus phases), so drift means roundoff or non-finite values."""


@dataclass(frozen=True)
class MediumProfile:
    """Cutoff profile k_c(x) >= 0 on a grid; zero outside the barrier."""

    grid: Grid1D
    cutoff_kc: np.ndarray = field(repr=False)

    def __post_init__(self):
        kc = np.asarray(self.cutoff_kc, dtype=float)
        if kc.shape != (self.grid.count,):
            raise ValueError("cutoff_kc length must match grid count")
        _require_all(kc >= 0, kc, "cutoff_kc must be non-negative, got {}")
        kc.setflags(write=False)
        object.__setattr__(self, "cutoff_kc", kc)


@dataclass(frozen=True)
class PropagationRecord:
    """Recorded evolution: the times of the recorded steps with the front and
    peak measured on each, and the kept fields as `snapshots`, the i-th taken
    at record index `snapshot_indices[i]` (at times[snapshot_indices[i]])."""

    times: np.ndarray
    snapshots: list
    front_positions: np.ndarray
    peak_positions: np.ndarray
    snapshot_indices: np.ndarray


def _front(grid: Grid1D, amp: np.ndarray, epsilon: float) -> float:
    """Rightmost x where amp >= epsilon, linearly interpolated."""
    above = amp >= epsilon  # NaN cells fail it
    i = grid.count - 1 - int(above[::-1].argmax())  # the last True, if any
    if not above[i]:
        raise ValueError("no sample reaches the threshold")
    x = grid.x_min + grid.dx * i  # bitwise grid.points()[i]
    if i == grid.count - 1:
        return x
    # Interpolate the threshold's downward crossing right of i, on Python floats.
    a0, a1 = amp.item(i), amp.item(i + 1)
    frac = (a0 - epsilon) / (a0 - a1) if a0 > a1 else 0.0
    return x + frac * grid.dx


def _peak(grid: Grid1D, dens: np.ndarray) -> float:
    """Position of the global maximum of dens with quadratic refinement."""
    i = int(dens.argmax())  # the first NaN, else the first maximum
    y1 = dens.item(i)
    # np.any(dens > 0) in one pass: dens[i] > 0 decides it unless dens[i] is NaN.
    if not (y1 > 0 or math.isnan(y1) and np.any(dens > 0)):
        raise ValueError("zero packet has no peak")
    x = grid.x_min + grid.dx * i
    if i == 0 or i == grid.count - 1:
        return x
    y0, y2 = dens.item(i - 1), dens.item(i + 1)
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return x
    return x + 0.5 * (y0 - y2) / denom * grid.dx


def _measure(grid: Grid1D, values: np.ndarray, epsilon: float, keep: bool, norm: bool):
    # One |psi| of the field as stepped (|x| is bitwise |x + 0j|), whose square
    # is bitwise WavePacket.abs2(); a complex copy only if kept, and the norm,
    # bitwise sqrt(WavePacket.energy()), only if asked for.
    amp = np.abs(values)
    try:
        fp = _front(grid, amp, epsilon)
    except ValueError:
        fp = math.nan
    dens = np.square(amp, out=amp)  # bitwise amp**2
    return (
        WavePacket(grid, np.array(values, dtype=complex)) if keep else None,
        fp,
        _peak(grid, dens),
        math.sqrt(float(dens.sum() * grid.dx)) if norm else None,
    )


def _recorded(grid: Grid1D, dt: float, steps: int, record_every: int, fields,
              keep_every: int = 1, norm_tol: float | None = None):
    """Record step 0, every record_every-th step and the last at times n*dt,
    each with its front (at 1e-10 of the initial peak |psi|) and peak.
    fields(schedule) yields the field at each step of the ascending list
    `schedule`, and may reuse one buffer. Only every keep_every-th record keeps
    a WavePacket copy of its field (keep_every = 0 keeps none). With norm_tol,
    a record whose norm drifts from the initial norm by more than norm_tol
    raises NormDriftError."""
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if keep_every < 0:
        raise ValueError(f"keep_every must be at least 0, got {keep_every}")
    schedule = [*range(0, steps, record_every), steps]
    stream = fields(schedule)
    psi0 = next(stream)
    amp0 = float(np.abs(psi0).max())
    if not 0 < amp0 < math.inf:
        raise ValueError(f"initial field must be finite and non-zero, got max |psi| = {amp0}")
    epsilon = 1e-10 * amp0
    check_norm = norm_tol is not None
    snapshots, kept, fronts, peaks = [], [], [], []
    for i, (n, psi) in enumerate(zip(schedule, itertools.chain([psi0], stream))):
        keep = keep_every > 0 and i % keep_every == 0
        packet, front, peak, norm = _measure(grid, psi, epsilon, keep, check_norm)
        if check_norm:
            if i == 0:
                norm0 = norm
            elif not (drift := abs(norm - norm0) / norm0) <= norm_tol:
                raise NormDriftError(f"norm drifted by {drift:.3e} at step {n}")
        if keep:
            snapshots.append(packet)
            kept.append(i)
        fronts.append(front)
        peaks.append(peak)
    return PropagationRecord(
        times=np.asarray(schedule) * dt, snapshots=snapshots,
        front_positions=np.asarray(fronts), peak_positions=np.asarray(peaks),
        snapshot_indices=np.asarray(kept, dtype=int),
    )


def evolve_wave(
    initial: WavePacket,
    profile: MediumProfile,
    courant: float,
    steps: int,
    initial_prev: np.ndarray,
    units: UnitSystem = NATURAL_UNITS,
    record_every: int = 1,
    keep_every: int = 1,
) -> PropagationRecord:
    """Leapfrog evolution of the cutoff wave equation.

    Initial data must be compactly supported strictly inside the grid.
    initial_prev is the field one step in the past (the exact two-level start
    that makes unit-Courant vacuum translation exact), on the profile's grid,
    which must also be the initial packet's. Every coefficient is real, and a
    nonzero imaginary part in either field raises. Support touching the
    boundary raises rather than wrapping around.

    The cutoff coupling is time-averaged over the n+1 and n-1 levels, which
    keeps the scheme stable at courant = 1 even inside the barrier; the
    update stencil then spreads support exactly one cell per step, so at
    unit Courant the numerical light cone coincides with the physical one.
    A step is five float64 passes at unit Courant and six below it.

    Every record_every-th step (and the last) is recorded with its front and
    peak; only every keep_every-th record keeps its field in `snapshots`, and
    keep_every = 0 keeps none, so such a run holds O(grid) memory.
    """
    if not 0 < courant <= 1:
        raise ValueError("courant must lie in (0, 1]")
    if steps < 1:
        raise ValueError("steps must be positive")
    grid = profile.grid
    if initial.grid != grid:
        raise ValueError(f"initial packet is on {initial.grid}, the profile on {grid}")
    psi0, prev = initial.values, np.asarray(initial_prev, dtype=complex)
    if prev.shape != (grid.count,):
        raise ValueError(f"initial_prev must have shape ({grid.count},), got {prev.shape}")
    if psi0.imag.any() or prev.imag.any():
        raise ValueError("initial and initial_prev must be real, got a nonzero imaginary part")
    psi0, prev = psi0.real, prev.real
    dx, c = grid.dx, units.c
    dt = courant * dx / c
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned about
        kc2dt2 = (c * dt) ** 2 * profile.cutoff_kc**2
    _require_all(kc2dt2 < math.inf, profile.cutoff_kc, "(c dt k_c)^2 overflows at k_c={}")
    inv_w = 1.0 / (1.0 + 0.5 * kc2dt2)
    c2 = courant**2
    edge_limit = 1e-12 * float(np.abs(psi0).max())
    cells = np.flatnonzero(inv_w != 1.0)  # the barrier; none in vacuum
    lo, hi = (cells[0], cells[-1] + 1) if cells.size else (0, 0)
    scale_lap = c2 != 1.0
    inv_w = inv_w[lo:hi]

    # Fresh buffers, never the caller's arrays, with their stencil views built once
    # per run; the three fields rotate with their views, and lap's edge cells stay 0.
    *rings, (lap, _, lap_mid, _, _) = [(b, b[2:], b[1:-1], b[:-2], b[lo:hi]) for b in (
        prev.copy(), psi0.copy(), np.empty_like(psi0), np.zeros_like(psi0))]

    def fields(schedule):
        prev, curr, nxt = rings
        yield curr[0]
        for last, target in itertools.pairwise(schedule):
            for n in range(last + 1, target + 1):
                cur, cur_right, _, cur_left, _ = curr
                new, _, new_mid, _, new_w = nxt
                # (2 curr + c2 lap(curr)) / w - prev, in place and in that order. A
                # float64 x * 1.0 is x, so the step skips c2 at unit Courant and 1/w
                # off lo:hi, where inv_w is 1: five passes at unit Courant, six below.
                np.multiply(2.0, cur, out=new)
                np.subtract(cur_right, new_mid, out=lap_mid)
                np.add(lap_mid, cur_left, out=lap_mid)
                if scale_lap:
                    np.multiply(c2, lap, out=lap)
                np.add(new, lap, out=new)
                np.multiply(new_w, inv_w, out=new_w)
                np.subtract(new, prev[0], out=new)
                prev, curr, nxt = curr, nxt, prev
                # The stencil leaves the outermost cells untouched; the cells next
                # to them are the first to feel an arriving front.
                if abs(new.item(1)) > edge_limit or abs(new.item(-2)) > edge_limit:
                    raise BoundaryContactError(
                        f"support reached the grid boundary at step {n}; enlarge the grid"
                    )
            yield curr[0]

    return _recorded(grid, dt, steps, record_every, fields, keep_every)


def evolve_schrodinger(
    initial: WavePacket,
    potential_U: np.ndarray,
    mass: float,
    dt: float,
    steps: int,
    units: UnitSystem = NATURAL_UNITS,
    record_every: int = 1,
    norm_tol: float = 1e-8,
    keep_every: int = 1,
) -> PropagationRecord:
    """Split-step (Strang) spectral evolution of the Schrodinger equation.

    Recorded and kept as in evolve_wave. The norm is checked on every
    recorded step, kept or not: drift beyond norm_tol raises NormDriftError
    naming the first such step. With U zero everywhere, exp_V_half is exactly
    1, so each step's ifft cancels the next step's fft: such a run transforms
    the initial field once, steps it as exp_K * phi in k-space and transforms
    back only the steps it records.
    """
    if not (0 < mass < math.inf and 0 < dt < math.inf) or steps < 1:
        raise ValueError(f"mass, dt and steps must be positive, got {mass=}, {dt=}, {steps=}")
    grid = initial.grid
    U = np.asarray(potential_U, dtype=float)
    if U.shape != (grid.count,):
        raise ValueError("potential length must match grid count")
    _require_all(np.isfinite(U), U, "potential must be finite")
    hbar = units.hbar
    k = 2.0 * math.pi * np.fft.fftfreq(grid.count, grid.dx)
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned about
        exp_V_half = np.exp(-0.5j * U * dt / hbar)
        exp_K = np.exp(-0.5j * hbar * k**2 * dt / mass)
    _require_all(np.isfinite(exp_V_half), U, f"U dt / 2 hbar overflows at U={{}}, {dt=}")
    _require_all(np.isfinite(exp_K), k,
                 f"hbar k^2 dt / 2 mass overflows at k={{}}, {dt=}, {mass=}")

    def fields(schedule):
        psi = initial.values.copy()
        yield psi
        for last, target in itertools.pairwise(schedule):
            for _ in range(target - last):
                # exp_V_half * ifft(exp_K * fft(exp_V_half * psi)), operands in that
                # order: numpy's complex multiply is not bitwise commutative.
                np.multiply(exp_V_half, psi, out=psi)
                np.fft.fft(psi, out=psi)
                np.multiply(exp_K, psi, out=psi)
                np.fft.ifft(psi, out=psi)
                np.multiply(exp_V_half, psi, out=psi)
            yield psi

    def free_fields(schedule):
        phi = np.fft.fft(initial.values)
        yield initial.values
        for last, target in itertools.pairwise(schedule):
            for _ in range(target - last):
                np.multiply(exp_K, phi, out=phi)
            yield np.fft.ifft(phi)

    # Drift is checked on the recorded steps: the steps do no extra work.
    return _recorded(grid, dt, steps, record_every, fields if U.any() else free_fields,
                     keep_every, norm_tol)


def dump_snapshots_csv(record: PropagationRecord, directory) -> list:
    """Write every kept snapshot as CSV: x, re, im and WavePacket.abs2(),
    %.17g, named by its record index (snapshot_00100.csv is record 100,
    whatever the record kept). Which fields are kept is the recorder's
    choice, through keep_every."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, wp in zip(record.snapshot_indices.tolist(), record.snapshots):
        rows = np.column_stack([wp.grid.points(), wp.values.real, wp.values.imag, wp.abs2()])
        path = directory / f"snapshot_{idx:05d}.csv"
        text = ("%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
        path.write_text("x,re,im,abs2\n" + text, newline="")
        paths.append(path)
    return paths
