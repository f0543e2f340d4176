"""The four seeded workloads and their operations.

Every workload is an endless, deterministic stream of operations: the kind
of operation ``i`` comes from a fixed cyclic pattern, so any prefix of the
stream has the same mix, and its parameters come from a generator seeded by
(workload, seed, i), so the same seed always yields the same inputs and no
two operations share them. Sizes are drawn stratified within each cycle of
the pattern, which keeps the size mix of a run nearly the same for every
seed while the values still move.

An operation is either one in-process CLI run (``evlab.cli.run(argv)`` with
the default ``--jobs``) or one library call; evlab sees only the generated
argv or arrays. Each carries the work it represents, the counters computed
from its inputs and an oracle check (see oracles.py).
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from evlab import cli, ftir, spectral, stationary, ttime
from evlab.numcore import Grid1D, WavePacket

import oracles as orc
from oracles import OracleError, close, require

DX = 0.05  # propagate grid spacing (CLI default)
FTIR_DT = 0.01  # pulse sample spacing
# Bytes one leapfrog cell-step moves in evolve_wave as written: the Laplacian
# (zero fill, three shifted reads, two temporaries, slice store) is 176 B and
# the update 2*curr + c2*lap, /mass_weight, -prev is 200 B of complex128 and
# float64 traffic. A model of the code, not a measurement.
LEAPFROG_BYTES_PER_CELL_STEP = 376


@dataclass
class Op:
    """One benchmark operation."""

    kind: str
    run: Callable[[Path], Any]
    check: Callable[[Any, Path], None]
    work: float
    is_cli: bool = False
    counts: dict = field(default_factory=dict)


def _summary_schema() -> dict:
    text = importlib.resources.files("evlab.schemas").joinpath("summary.schema.json").read_text()
    return json.loads(text)


def cli_op(kind: str, argv: list, check, work: float, counts=None) -> Op:
    def run(out: Path):
        return cli.run(argv + ["--output-dir", str(out)])

    return Op(kind, run, check, work, True, counts or {})


def digest_value(value) -> str:
    """Digest of a library call's result, byte-exact for floats and arrays."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, WavePacket):
            feed(v.values)
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            for key in sorted(v):
                h.update(str(key).encode())
                feed(v[key])
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif isinstance(v, (float, np.floating)):
            h.update(float(v).hex().encode())
        elif isinstance(v, complex):
            h.update(v.real.hex().encode() + v.imag.hex().encode())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def digest_dir(directory: Path) -> str:
    """Digest of every file a CLI run wrote, by relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    """Base class: maps an operation index to an Op."""

    name = ""
    pattern: tuple = ()
    trace_ops = 0  # operations in the fixed deck of a traced run
    # kind -> kind of the op just before it whose inputs it reuses
    share_inputs: dict = {}

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.schema = _summary_schema()
        self._slots = []
        seen = {}
        for kind in self.pattern:
            self._slots.append((kind, seen.get(kind, 0)))
            seen[kind] = seen.get(kind, 0) + 1
        self._per_cycle = seen

    def op(self, i: int) -> Op:
        kind, slot = self._slots[i % len(self.pattern)]
        key = self.share_inputs.get(kind)
        group, index = (key, i - 1) if key else (kind, i)
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        k = self._per_cycle[kind]
        fracs = []
        for dim in range(2):
            strata = random.Random(
                f"{self.name}:{self.seed}:strata:{i // len(self.pattern)}:{group}:{dim}")
            fracs.append((strata.sample(range(k), k)[slot] + rng.random()) / k)
        return getattr(self, "op_" + kind)(rng, fracs, i)

    def summary(self, out: Path, command: str) -> dict:
        return orc.read_summary(out, command, self.schema)


def _count(frac: float, lo: int, hi: int, step: int = 1) -> int:
    return lo + step * int(frac * ((hi - lo) // step + 1) * 0.999999)


# --- sweep -------------------------------------------------------------------

class Sweep(Workload):
    """Large CLI sweeps (stationary energies below U0, ttime fractions that
    cross U0) and FFT-domain gap pulses: scalar slab matching, the CLI thread
    pool and CSV emission do the work; quadrature and time stepping do none."""

    name = "sweep"
    pattern = ("stationary", "ttime", "stationary", "ttime", "stationary", "ftir", "ttime",
               "stationary", "ttime", "stationary") * 2
    trace_ops = 100

    def op_stationary(self, rng, fracs, i):
        u0, d = rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0)
        lo, hi = u0 * rng.uniform(0.005, 0.05), u0 * rng.uniform(0.95, 0.995)
        n = _count(fracs[0], 5, 12) if self.small else _count(fracs[0], 200, 600)
        argv = ["stationary", "--u0", repr(u0), "--d", repr(d), "--sweep-e", f"{lo!r}:{hi!r}:{n}"]
        energies = np.linspace(lo, hi, n)

        def check(code, out):
            self.summary(out, "stationary")
            orc.check_stationary_rows(orc.read_rows(out / "stationary.csv"), u0, d, energies)

        return cli_op("stationary", argv, check, n)

    def op_ttime(self, rng, fracs, i):
        u0, d = rng.uniform(1.0, 4.0), rng.uniform(0.5, 3.0)
        lo = rng.uniform(0.05, 0.3)
        n = _count(fracs[0], 5, 12) if self.small else _count(fracs[0], 100, 400)
        # phase_time currently raises for a fraction in [1 - 1e-6, 1), where
        # its finite-difference step reaches U0; no sweep point lands there.
        while True:
            hi = rng.uniform(1.05, 1.5)
            fractions = np.linspace(lo, hi, n)
            if not np.any((fractions >= 1.0 - 1e-5) & (fractions < 1.0)):
                break
        argv = ["ttime", "--u0", repr(u0), "--d", repr(d), "--sweep-e", f"{lo!r}:{hi!r}:{n}"]

        def check(code, out):
            self.summary(out, "ttime")
            orc.check_ttime_rows(orc.read_rows(out / "ttime.csv"), u0, fractions)

        return cli_op("ttime", argv, check, n)

    def op_ftir(self, rng, fracs, i):
        count = (_count(fracs[0], 512, 768, 128) if self.small
                 else _count(fracs[0], 2048, 4096, 256))
        pulse, (n, theta, d) = gap_pulse(rng, count)
        spec = ftir.GapSpec(n, theta, d)
        # The two ftir slots of each cycle rotate through the three calls.
        which = (i // len(self.pattern) * 2 + i % len(self.pattern) // 10) % 3
        if which == 0:
            def run(out):
                return ftir.transmit_pulse(pulse, spec)

            def check(result, out):
                orc.check_band_filter(pulse.values, FTIR_DT, result.values,
                                      lambda w: orc.gap_amplitudes(w, n, theta, d))

            return Op("ftir.transmit_pulse", run, check, count, counts={"fft_bins": count})
        if which == 1:
            depth = d * rng.uniform(0.2, 0.8)

            def run(out):
                return ftir.interior_field(pulse, depth, spec)

            def check(result, out):
                orc.check_band_filter(pulse.values, FTIR_DT, result.values,
                                      lambda w: orc.gap_amplitudes(w, n, theta, d, depth))

            return Op("ftir.interior_field", run, check, count, counts={"fft_bins": count})
        delayed = WavePacket(pulse.grid, np.roll(pulse.values, rng.randint(-200, 200))
                             * rng.uniform(0.3, 3.0))

        def run(out):
            return ftir.reshaping_distance(pulse, delayed)

        def check(result, out):
            # A pure delay plus scaling is no reshaping (tier-1 pins < 1e-12).
            require(0.0 <= result < 1e-12, f"reshaping distance of a pure delay {result:.3e}")

        return Op("ftir.reshaping_distance", run, check, count)


def gap_pulse(rng, count):
    """A complex positive-frequency pulse sampled in time and an evanescent
    gap of opacity kappa d in [0.5, 3] at the carrier."""
    sigma, omega0 = rng.uniform(0.25, 0.4), rng.uniform(15.0, 30.0)
    n, theta = rng.uniform(1.4, 1.7), rng.uniform(0.85, 1.2)
    alpha = math.sqrt((n * math.sin(theta)) ** 2 - 1.0)
    d = rng.uniform(0.5, 3.0) / (alpha * omega0)
    grid = Grid1D(0.0, FTIR_DT, count)
    tau = grid.points() - count * FTIR_DT / 2.0
    values = np.exp(-(tau**2) / (2.0 * sigma**2)) * np.exp(-1j * omega0 * tau)
    return WavePacket(grid, values), (n, theta, d)


# --- spectrum ----------------------------------------------------------------

class Spectrum(Workload):
    """Quadrature-backed results: numcore.integrate does the work here and in
    no other workload. One op in 32 is a full CLI spectrum run."""

    name = "spectrum"
    # The counts put the median latency inside the cluster of Gaussian-band
    # ops and the 90th percentile among the slow quadratures, not in a gap
    # between two clusters, where it would jump from seed to seed.
    pattern = (("lorentz", "tail", "parseval", "dwell", "gauss", "moments") * 4
               + ("lorentz", "gauss", "moments", "tail", "lorentz", "gauss", "moments", "cli"))
    trace_ops = 100

    def op_tail(self, rng, fracs, i):
        # a*k' is one of the two values tier-1 pins (criterion 05), because
        # tail_probability is currently off by 5-96% for about a third of the
        # other a*k' in [50, 1000], and a run must not include failing ops.
        a = 0.5 + 1.5 * fracs[1]
        k_prime = (100.0 if fracs[0] < 0.5 else 200.0) * math.pi / a

        def run(out):
            return spectral.tail_probability(k_prime, a)

        def check(result, out):
            # Criterion 05 pins the tail at 5%; the oracle here is exact.
            close(result["exact"], orc.box_tail_probability(k_prime, a), 0.05,
                  f"tail probability at a*k'={a * k_prime:.6g}")
            close(result["asymptotic"], 8.0 * math.pi / 3.0 / (a * k_prime) ** 3, 1e-12,
                  "printed asymptotic tail")

        return Op("tail_probability", run, check, 1)

    def op_parseval(self, rng, fracs, i):
        a = 0.5 + 1.5 * fracs[0]

        def run(out):
            return spectral.box_parseval(a)

        def check(result, out):
            require(abs(result - 1.0) < 1e-7, f"Parseval {result!r} != 1 at a={a}")

        return Op("box_parseval", run, check, 1)

    def op_dwell(self, rng, fracs, i):
        u0, d = rng.uniform(1.0, 4.0), 0.5 + 2.5 * fracs[0]
        E = u0 * (0.05 + 0.9 * fracs[1])
        spec = stationary.BarrierSpec(u0, d)

        def run(out):
            return ttime.dwell_time_quadrature(E, spec)

        def check(result, out):
            close(result, orc.dwell_time_closed(E, u0, d), 1e-9, "dwell time by quadrature")

        return Op("dwell_time_quadrature", run, check, 1)

    def op_lorentz(self, rng, fracs, i):
        line = spectral.LineShape(rng.uniform(1.0, 10.0), 0.05 + 0.95 * fracs[0])

        def run(out):
            return spectral.lorentzian_norm(line)

        def check(result, out):
            require(abs(result - 1.0) < 1e-6, f"Lorentzian norm {result!r}")

        return Op("lorentzian_norm", run, check, 1)

    def op_gauss(self, rng, fracs, i):
        omega0, sigma = rng.uniform(5.0, 20.0), 0.1 + 0.9 * fracs[0]

        def run(out):
            return spectral.gaussian_band_report(omega0, sigma)

        def check(result, out):
            require(result["band"] == "infinite", "band is not reported infinite")
            close(result["delta_omega"], sigma, 1e-8, "Gaussian delta_omega")
            close(result["mean_E"], omega0, 1e-10, "Gaussian mean energy")

        return Op("gaussian_band_report", run, check, 1)

    def op_moments(self, rng, fracs, i):
        a = 0.5 + 1.5 * fracs[0]

        def run(out):
            return spectral.box_moments(a)

        def check(result, out):
            close(result["delta_x"], a * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2)),
                  0.0, "box delta_x", abs_tol=1e-7 * a)
            close(result["k2_mean"], (math.pi / a) ** 2, 1e-12, "box <k^2>")

        return Op("box_moments", run, check, 1)

    def op_cli(self, rng, fracs, i):
        a = rng.uniform(0.5, 2.0)

        def check(code, out):
            box = self.summary(out, "spectrum")["outputs"]["box_state"]
            require(abs(box["parseval"] - 1.0) < 1e-7, f"Parseval {box['parseval']!r}")
            close(box["k2_spectral"], (math.pi / a) ** 2, 1e-6, "spectral <k^2>")

        # Three quadrature-backed results: moments, Parseval, <k^2>.
        return cli_op("cli.spectrum", ["spectrum", "--a", repr(a)], check, 3)


# --- propagate ---------------------------------------------------------------

def kept_snapshots(steps: int, every: int) -> int:
    return 1 + steps // every + (1 if steps % every else 0)


def trajectory_check(out: Path, steps: int, every: int, dt: float, barrier: float | None):
    """Front and peak trajectory of a unit-Courant wave run (criterion 11).

    In vacuum the run translates exactly. With a barrier, front and peak
    translate exactly until the barrier enters their domain of dependence;
    the light-cone bound of criterion 11(a) needs compactly supported data,
    and the CLI pulse is Gaussian, whose threshold front may run ahead of
    its start's cone by a fraction of the envelope. The late front slope
    must not exceed c (criterion 11(b)).
    """
    rows = orc.read_rows(out / "trajectory.csv")
    require(len(rows) == kept_snapshots(steps, every), f"{len(rows)} trajectory rows")
    t = np.array([r[0] for r in rows])
    close(t[-1], steps * dt, 1e-12, "final time")
    for column, label in ((1, "front"), (2, "peak")):
        x = np.array([r[column] for r in rows])
        free = t < np.inf if barrier is None else t + dt <= (barrier - x[0]) / 2.0
        drift = float(np.abs(x[free] - x[0] - t[free]).max())
        require(drift < 1e-9, f"{label} not translated at c before the barrier ({drift:.3e})")
    front = np.array([r[1] for r in rows])
    late = t > t[-1] / 2.0
    slope = np.polyfit(t[late], front[late], 1)[0]
    require(slope <= 1.0 + 1e-6, f"front slope {slope:.9f} exceeds c")


class Propagate(Workload):
    """Time-domain CLI runs: paired barrier/vacuum wave runs and free
    Schrodinger runs at --record-every 10, plus four dense-record wave runs
    of fixed size per cycle (one dumping snapshots). The dense runs are the
    slowest 20% of ops and the snapshot run the slowest 5%, so the 90th
    percentile falls in the middle of the other three, not at the edge of a
    cluster, where it would jump from seed to seed; and the largest
    recording, and with it peak memory, is the same for every seed."""

    name = "propagate"
    pattern = ("pair_barrier", "pair_vacuum", "schrod", "pair_barrier", "pair_vacuum",
               "dense_barrier", "pair_barrier", "pair_vacuum", "schrod", "dense_vacuum",
               "pair_barrier", "pair_vacuum", "schrod", "dense_snap", "pair_barrier",
               "pair_vacuum", "schrod", "pair_barrier", "pair_vacuum", "dense_barrier")
    trace_ops = 20
    # Both runs of a pair get the same inputs.
    share_inputs = {"pair_vacuum": "pair_barrier"}

    def _wave(self, kind, rng, grid_n, steps, vacuum, every=10, snapshot_stride=None):
        width = rng.uniform(0.4, 0.6) if self.small else rng.uniform(1.5, 2.5)
        margin = 1.0 if self.small else 5.0
        # Where the Gaussian envelope falls below the solver's 1e-12 boundary test.
        ext = width * math.sqrt(2.0 * math.log(1e12))
        span = grid_n * DX
        x_min = -span / 2.0
        steps = min(steps, int((span - 2.0 * margin - 2.0 * ext - DX) / DX))
        center = x_min + margin + ext
        # Far enough right that the reflection off the barrier stays on the grid.
        barrier = center + max(ext, steps * DX / 2.0) + 1.0
        argv = ["propagate", "--mode", "wave", "--grid-n", str(grid_n), "--x-min", repr(x_min),
                "--steps", str(steps), "--record-every", str(every),
                "--pulse-center", repr(center), "--pulse-width", repr(width),
                "--pulse-k0", repr(rng.uniform(1.0, 1.8)),
                "--barrier-start", repr(barrier), "--barrier-width", repr(rng.uniform(0.5, 1.5)),
                "--barrier-kc", "0" if vacuum else repr(rng.uniform(2.0, 4.0))]
        if snapshot_stride:
            argv += ["--snapshots", "--snapshot-stride", str(snapshot_stride)]
        kept = kept_snapshots(steps, every)

        def check(code, out):
            summary = self.summary(out, "propagate")
            # At unit Courant one step is one cell: dt = dx.
            trajectory_check(out, steps, every, DX, None if vacuum else barrier)
            if snapshot_stride:
                files = len(range(0, kept, snapshot_stride))
                require(len(summary["outputs"]["snapshots"]) == files, "snapshot list")
                require(len(list((out / "snapshots").glob("*.csv"))) == files, "snapshot files")

        cells = grid_n * steps
        return cli_op(kind, argv, check, cells, {
            "wave_cell_steps": cells, "snapshots_kept": kept,
            "snapshot_bytes_computed": kept * grid_n * 16,
        })

    def _grid(self, frac):
        return 512 if self.small else _count(frac, 2048, 4096, 512)

    def _steps(self, frac):
        return _count(frac, 200, 290) if self.small else _count(frac, 400, 1200)

    def op_pair_barrier(self, rng, fracs, i):
        return self._wave("wave.barrier", rng, self._grid(fracs[0]), self._steps(fracs[1]), False)

    def op_pair_vacuum(self, rng, fracs, i):
        return self._wave("wave.vacuum", rng, self._grid(fracs[0]), self._steps(fracs[1]), True)

    def op_dense_barrier(self, rng, fracs, i):
        grid_n, steps = (512, 290) if self.small else (4096, 1000)
        return self._wave("wave.dense", rng, grid_n, steps, False, every=1)

    def op_dense_snap(self, rng, fracs, i):
        grid_n, steps = (512, 250) if self.small else (3072, 1200)
        return self._wave("wave.dense_snapshots", rng, grid_n, steps, False, every=1,
                          snapshot_stride=25 if self.small else 100)

    def op_dense_vacuum(self, rng, fracs, i):
        grid_n, steps = (512, 290) if self.small else (4096, 1000)
        return self._wave("wave.dense", rng, grid_n, steps, True, every=1)

    def op_schrod(self, rng, fracs, i):
        grid_n = self._grid(fracs[0])
        steps = _count(fracs[1], 40, 120) if self.small else _count(fracs[1], 400, 1200)
        dt = 0.001
        k0 = rng.uniform(2.0, 5.0)
        center = -grid_n * DX / 4.0
        argv = ["propagate", "--mode", "schrodinger", "--grid-n", str(grid_n),
                "--x-min", repr(-grid_n * DX / 2.0), "--steps", str(steps),
                "--pulse-center", repr(center), "--pulse-width",
                repr(rng.uniform(0.4, 0.6) if self.small else rng.uniform(1.5, 2.5)),
                "--pulse-k0", repr(k0)]
        kept = kept_snapshots(steps, 10)

        def check(code, out):
            self.summary(out, "propagate")
            rows = orc.read_rows(out / "trajectory.csv")
            require(len(rows) == kept, f"{len(rows)} trajectory rows")
            # Free packet: the density peak moves at the group velocity hbar k0 / m;
            # 1e-3 is the tier-1 pin for quadratic peak refinement.
            for t, _, peak in rows:
                close(peak, center + k0 * t, 0.0, f"peak at t={t}", abs_tol=1e-3)

        cells = grid_n * steps
        return cli_op("schrodinger", argv, check, cells, {
            "schrod_cell_steps": cells, "snapshots_kept": kept,
            "snapshot_bytes_computed": kept * grid_n * 16,
        })


# --- probe -------------------------------------------------------------------

class Probe(Workload):
    """Single-point CLI runs, round-robin over six kinds, where the fixed
    per-run CLI cost dominates. Barriers are moderate (kappa d below about
    10): opaque ones currently end in a raw OverflowError."""

    name = "probe"
    pattern = ("stationary", "ttime", "ftir_gap", "ftir_alpha", "ftir_experiment", "tolman")
    trace_ops = 300

    def _barrier(self, rng):
        return rng.uniform(1.0, 4.0), rng.uniform(0.05, 0.95), rng.uniform(0.5, 3.0)

    def op_stationary(self, rng, fracs, i):
        u0, f, d = self._barrier(rng)
        E = u0 * f
        argv = ["stationary", "--u0", repr(u0), "--d", repr(d), "--e", repr(E)]

        def check(code, out):
            self.summary(out, "stationary")
            orc.check_stationary_rows(orc.read_rows(out / "stationary.csv"), u0, d, [E])

        return cli_op("stationary", argv, check, 1)

    def op_ttime(self, rng, fracs, i):
        u0, f, d = self._barrier(rng)
        argv = ["ttime", "--u0", repr(u0), "--d", repr(d), "--e", repr(f)]

        def check(code, out):
            self.summary(out, "ttime")
            orc.check_ttime_rows(orc.read_rows(out / "ttime.csv"), u0, [f])

        return cli_op("ttime", argv, check, 1)

    def _prism(self, rng):
        n, theta_deg = rng.uniform(1.4, 1.7), rng.uniform(50.0, 70.0)
        alpha = math.sqrt((n * math.sin(math.radians(theta_deg))) ** 2 - 1.0)
        return n, theta_deg, alpha

    def op_ftir_gap(self, rng, fracs, i):
        n, theta_deg, alpha = self._prism(rng)
        omega = rng.uniform(0.5, 5.0)
        d = rng.uniform(0.2, 5.0) / (alpha * omega)
        argv = ["ftir", "--n", repr(n), "--theta-deg", repr(theta_deg), "--omega", repr(omega),
                "--gap-d", repr(d)]

        def check(code, out):
            outputs = self.summary(out, "ftir")["outputs"]
            T = abs(orc.gap_amplitudes(np.array([omega]), n, math.radians(theta_deg), d)[0]) ** 2
            close(outputs["transfer"]["T"], T, 1e-12, "gap transmission")
            require(abs(outputs["transfer"]["T"] + outputs["transfer"]["R"] - 1.0) < 1e-12,
                    "gap unitarity")
            require(math.isfinite(outputs["group_delay"]), "group delay not finite")

        return cli_op("ftir.gap", argv, check, 1)

    def op_ftir_alpha(self, rng, fracs, i):
        n, theta_deg, alpha = self._prism(rng)
        omega = rng.uniform(0.5, 5.0)
        argv = ["ftir", "--n", repr(n), "--theta-deg", repr(theta_deg), "--omega", repr(omega),
                "--report-alpha"]

        def check(code, out):
            outputs = self.summary(out, "ftir")["outputs"]
            close(outputs["alpha"], alpha, 0.0, "alpha", abs_tol=1e-12)
            close(outputs["kappa_x"], alpha * omega, 1e-12, "kappa_x")
            close(outputs["goos_hanchen_D"], 1.0 / (alpha * omega), 1e-12, "Goos-Haenchen D")

        return cli_op("ftir.alpha", argv, check, 1)

    def op_ftir_experiment(self, rng, fracs, i):
        n, theta_deg, alpha = self._prism(rng)
        kappa_d = rng.uniform(1.0, 8.0)
        argv = ["ftir", "--n", repr(n), "--theta-deg", repr(theta_deg), "--experiment-report",
                "--kappa-d", repr(kappa_d)]

        def check(code, out):
            rep = self.summary(out, "ftir")["outputs"]["experiment_report"]
            # Criterion 03.
            require(rep["input_period_ps"] == 115.0 and rep["measured_tau_ps"] == 130.0,
                    "quoted benchmark values changed")
            close(rep["nu0_hz"], 1.0 / 115e-12, 1e-12, "nu0")
            close(rep["tau_g_times_nu0"], rep["tau_g_ps"] / rep["input_period_ps"], 1e-9,
                  "tau_g nu0")
            require(rep["kappa_x_d"] == kappa_d and rep["gap_d_m"] > 0, "gap opacity")

        return cli_op("ftir.experiment", argv, check, 1)

    def op_tolman(self, rng, fracs, i):
        v_signal, v_frame = rng.uniform(1.5, 10.0), rng.uniform(-0.95, 0.95)
        speed, kappa = rng.uniform(1.5, 10.0), rng.uniform(0.2, 3.0)
        threshold = 10.0 ** rng.uniform(-6.0, -1.0)
        lo, hi, count = rng.uniform(0.1, 1.0), rng.uniform(2.0, 6.0), rng.randint(5, 20)
        argv = ["tolman", "--v-signal", repr(v_signal), "--v-frame", repr(v_frame),
                "--dx-over-dt", repr(speed), "--kappa", repr(kappa), "--threshold",
                repr(threshold), "--sweep-d", f"{lo!r}:{hi!r}:{count}"]
        widths = np.linspace(lo, hi, count)

        def check(code, out):
            outputs = self.summary(out, "tolman")["outputs"]
            require(outputs["interval"] == "spacelike", "superluminal pair not spacelike")
            # Criterion 13: the order reverses exactly when V v > c^2.
            if abs(v_frame * speed - 1.0) > 1e-9:
                expected = "b_first" if v_frame * speed > 1.0 else "a_first"
                require(outputs["ordering"] == expected, f"ordering {outputs['ordering']}")
            rows = orc.read_rows(out / "tradeoff.csv")
            require(len(rows) == count, f"{len(rows)} tradeoff rows")
            for (d, _, amplitude, detectable), width in zip(rows, widths):
                close(d, width, 1e-15, "barrier width")
                close(amplitude, math.exp(-2.0 * kappa * width), 1e-12, "loop attenuation")
                require(detectable == (amplitude >= threshold), "detectable flag")

        return cli_op("tolman", argv, check, 1)


WORKLOADS = {cls.name: cls for cls in (Sweep, Spectrum, Propagate, Probe)}
