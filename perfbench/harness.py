"""Runs a workload's operations, checks each one and derives the metrics."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tr
from workloads import (LEAPFROG_BYTES_PER_CELL_STEP, WORKLOADS, OracleError, digest_dir,
                       digest_value)

DIGEST_PREFIX = 20  # ops every run of a seed completes, for byte comparisons
SHOW_FAILURES = 5
REFERENCE_MS = 1.0  # reported times are scaled to this reference-kernel time
REFERENCE_WINDOW = 2

_M = np.array([[2.0, 1.0], [1.0, 3.0]])
_B = np.array([1.0, 2.0])
_WAVE = np.exp(1j * np.linspace(0.0, 1.0, 4096))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work, small NumPy calls and
    FFTs, which the host's varying contention slows about as much as it
    slows evlab. Nothing in it comes from evlab."""
    start = time.perf_counter()
    x = 0.0
    for i in range(2000):
        x += math.sqrt(i + 1.0) * 0.5
    for _ in range(20):
        np.linalg.solve(_M, _B)
    a = _WAVE
    for _ in range(4):
        a = np.fft.ifft(np.fft.fft(a) * 1.0)
    return time.perf_counter() - start


def scales(references: list) -> list:
    """Scale factor for the op timed between references[i] and
    references[i + 1]: REFERENCE_MS over the median of the reference timings
    around it, REFERENCE_WINDOW on each side."""
    out = []
    for i in range(len(references) - 1):
        near = references[max(0, i + 1 - REFERENCE_WINDOW):i + 1 + REFERENCE_WINDOW]
        out.append(REFERENCE_MS * 1e-3 / statistics.median(near))
    return out


def remove_tree(path: Path):
    shutil.rmtree(path, ignore_errors=True)


@dataclass
class Outcome:
    index: int
    kind: str
    seconds: float
    work: float
    counts: dict
    error: str | None = None  # raised or exited nonzero
    oracle_error: str | None = None  # returned, but disagrees with its oracle
    digest: str = ""
    rows: int = 0
    bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.oracle_error is not None


def p90(sorted_values: list) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[8]


def run_digest(outcomes) -> str:
    return hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()


class Bench:
    """One client running a workload's operations back to back."""

    def __init__(self, workload: str, seed: int, small: bool, workdir: Path):
        self.workload = WORKLOADS[workload](seed, small)
        self.small = small
        self.workdir = workdir
        self.sink = io.StringIO()
        self.warm = None

    def execute(self, index: int, op, tracer=None) -> Outcome:
        out = self.workdir / "op"
        remove_tree(out)
        out.mkdir(parents=True)
        self.sink.seek(0)
        self.sink.truncate()
        result = error = None
        if tracer is not None:
            tracer.op = index
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                result = op.run(out)
            except Exception as exc:  # the operation failed; record it and go on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.op = 0
        outcome = Outcome(index, op.kind, seconds, op.work, op.counts, error)
        if error is None and op.is_cli and result != 0:
            outcome.error = f"exit {result}: {self.sink.getvalue().strip()[-300:]}"
        if outcome.error is None:
            try:
                op.check(result, out)
            except OracleError as exc:
                outcome.oracle_error = str(exc)
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                outcome.oracle_error = f"malformed output: {type(exc).__name__}: {exc}"
            outcome.digest = digest_dir(out) if op.is_cli else digest_value(result)
        for path in out.rglob("*"):
            if path.is_file():
                outcome.bytes += path.stat().st_size
                if path.suffix == ".csv":
                    outcome.rows += path.read_bytes().count(b"\n") - 1
        return outcome

    def warm_up(self):
        """Build the first inputs and run operation 0, untimed."""
        self.warm = self.execute(0, self.workload.op(0))

    def timed(self, seconds: float, setup_s: float, setup_raw_s: float) -> "Report":
        """Run ops back to back for `seconds` of wall time, timing the
        reference kernel before each op and once after the last; each op's
        time is scaled by the reference timings around it."""
        outcomes, references = [], []
        start = time.perf_counter()
        index = 1
        while True:
            op = self.workload.op(index)
            references.append(reference_kernel())
            outcomes.append(self.execute(index, op))
            index += 1
            if time.perf_counter() - start >= seconds:
                break
        references.append(reference_kernel())
        scaled = [o.seconds * k for o, k in zip(outcomes, scales(references))]
        raw = sorted(o.seconds * 1e3 for o in outcomes)
        latencies = sorted(v * 1e3 for v in scaled)
        raw_busy = sum(o.seconds for o in outcomes)
        done = sum(o.work for o in outcomes if not o.failed)
        metrics = {
            "work_per_s": (done / sum(scaled), "work/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (p90(latencies), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        beyond = sum(1 for v in latencies if v > metrics["op_p90_ms"][0])
        notes = [
            f"latency sample: {len(latencies)} ops, {beyond} beyond p90",
            f"reference kernel: median {statistics.median(references) * 1e3:.4f} ms "
            f"(times above are scaled to {REFERENCE_MS} ms)",
            f"unscaled: work_per_s {done / raw_busy!r}, "
            f"op_p50_ms {statistics.median(raw)!r}, op_p90_ms {p90(raw)!r}, "
            f"setup_s {setup_raw_s!r}",
            f"digest of ops 1..{min(DIGEST_PREFIX, len(outcomes))}: "
            f"{run_digest(outcomes[:DIGEST_PREFIX])}",
        ]
        return Report(self.workload.name, 0, [self.warm] + outcomes, outcomes, metrics, notes)

    def traced(self) -> "Report":
        """Run a fixed deck of operations, each once untraced and once traced.
        The deck is fixed, not timed, so every count repeats exactly for a
        seed."""
        size = len(self.workload.pattern) if self.small else self.workload.trace_ops
        tracer = tr.Tracer()

        def traced_run(i, op):
            tracer.install()
            try:
                return self.execute(i, op, tracer)
            finally:
                tracer.uninstall()

        # Each op runs once each way, in alternating order, so warm caches
        # favour neither side of the overhead estimate.
        plain, traced = [], []
        for i in range(1, size + 1):
            op = self.workload.op(i)
            if i % 2:
                traced.append(traced_run(i, op))
                plain.append(self.execute(i, op))
            else:
                plain.append(self.execute(i, op))
                traced.append(traced_run(i, op))
        plain_s = sum(o.seconds for o in plain)
        traced_s = sum(o.seconds for o in traced)
        metrics = layer_metrics(tr.SpanIndex(tracer.spans), traced, tracer.integrand_evals,
                                100.0 * (traced_s - plain_s) / plain_s, len(tracer.spans))
        mismatched = [a.index for a, b in zip(plain, traced)
                      if a.digest and b.digest and a.digest != b.digest]
        notes = [f"deck: {size} ops, untraced {plain_s:.4f} s, traced {traced_s:.4f} s",
                 f"digest of the deck: {run_digest(traced)}"]
        if mismatched:
            notes.append(f"outputs differ between the two passes at ops {mismatched[:10]}")
        report = Report(self.workload.name, 1, [self.warm] + plain + traced, traced, metrics,
                        notes, spans=tracer.spans)
        report.correct = report.correct and not mismatched
        return report


def layer_metrics(idx: tr.SpanIndex, outcomes, integrand_evals: int, overhead_pct: float,
                  span_count: int) -> dict:
    """Per-layer metrics of the traced pass (see README.md for each name)."""
    work = Counter()
    for o in outcomes:
        work.update(o.counts)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    boundary = ("cli.build_parser", "cli.parse_args", "cli.write_csv", "cli.finish")
    slab = "stationary.match_evanescent_slab"
    integrate_s = idx.seconds("numcore.integrate")
    transfer_s = idx.seconds("ftir.transmit_pulse", "ftir.interior_field")
    wave_self = idx.self_seconds("propagate.evolve_wave")
    schrod_self = idx.self_seconds("propagate.evolve_schrodinger")
    return {
        "cli.runs": (idx.calls("cli.run"), "count"),
        "cli.parse_s": (idx.seconds("cli.build_parser", "cli.parse_args"), "s"),
        "cli.finish_s": (idx.seconds("cli.finish"), "s"),
        "cli.write_csv_s": (idx.seconds("cli.write_csv"), "s"),
        "cli.self_s": (idx.self_seconds(*idx.layer_names("cli", exclude=boundary)), "s"),
        "cli.rows_written": (sum(o.rows for o in outcomes), "count"),
        "cli.bytes_written": (sum(o.bytes for o in outcomes), "B"),
        "stationary.slab_calls": (idx.calls(slab), "count"),
        "stationary.slab_s": (idx.seconds(slab), "s"),
        "stationary.slab_us_per_call": (ratio(idx.seconds(slab), idx.calls(slab), 1e6), "us"),
        "stationary.barrier_solution_calls": (idx.calls("stationary.barrier_solution"), "count"),
        "stationary.barrier_solution_s": (idx.seconds("stationary.barrier_solution"), "s"),
        "ttime.report_calls": (idx.calls("ttime.report"), "count"),
        "ttime.report_self_s": (idx.self_seconds("ttime.report"), "s"),
        "ttime.phase_time_s": (idx.seconds("ttime.phase_time"), "s"),
        "ttime.dwell_time_s": (idx.seconds("ttime.dwell_time"), "s"),
        "ttime.dwell_time_quadrature_s": (idx.seconds("ttime.dwell_time_quadrature"), "s"),
        "numcore.integrate_calls": (idx.calls("numcore.integrate"), "count"),
        "numcore.integrate_s": (integrate_s, "s"),
        "numcore.integrand_evals": (integrand_evals, "count"),
        "numcore.evals_per_call": (ratio(integrand_evals, idx.calls("numcore.integrate")),
                                   "count"),
        "numcore.us_per_eval": (ratio(integrate_s, integrand_evals, 1e6), "us"),
        "spectral.box_k2_spectral_s": (idx.seconds("spectral.box_k2_spectral"), "s"),
        "spectral.box_parseval_s": (idx.seconds("spectral.box_parseval"), "s"),
        "spectral.tail_probability_s": (idx.seconds("spectral.tail_probability"), "s"),
        "spectral.self_s": (idx.self_seconds(*idx.layer_names("spectral")), "s"),
        "ftir.gap_transfer_calls": (idx.calls("ftir.gap_transfer"), "count"),
        "ftir.gap_transfer_s": (idx.seconds("ftir.gap_transfer"), "s"),
        "ftir.fft_bins": (work["fft_bins"], "count"),
        "ftir.transmit_pulse_s": (idx.seconds("ftir.transmit_pulse"), "s"),
        "ftir.interior_field_s": (idx.seconds("ftir.interior_field"), "s"),
        "ftir.us_per_bin": (ratio(transfer_s, work["fft_bins"], 1e6), "us"),
        "propagate.wave_cell_steps": (work["wave_cell_steps"], "count"),
        "propagate.schrod_cell_steps": (work["schrod_cell_steps"], "count"),
        "propagate.wave_ns_per_cell_step": (ratio(wave_self, work["wave_cell_steps"], 1e9),
                                            "ns"),
        "propagate.schrod_ns_per_cell_step": (
            ratio(schrod_self, work["schrod_cell_steps"], 1e9), "ns"),
        "propagate.leapfrog_bytes_per_cell_step_computed": (
            LEAPFROG_BYTES_PER_CELL_STEP if work["wave_cell_steps"] else 0, "B"),
        "propagate.measure_calls": (idx.calls("propagate._measure"), "count"),
        "propagate.measure_s": (idx.seconds("propagate._measure"), "s"),
        "propagate.snapshots_kept": (work["snapshots_kept"], "count"),
        "propagate.snapshot_bytes_computed": (work["snapshot_bytes_computed"], "B"),
        "propagate.dump_snapshots_s": (idx.seconds("propagate.dump_snapshots_csv"), "s"),
        "tolman.tradeoff_sweep_s": (idx.seconds("tolman.tradeoff_sweep"), "s"),
        "trace.spans": (span_count, "count"),
        "trace.op_s": (sum(o.seconds for o in outcomes), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


@dataclass
class Report:
    workload: str
    trace: int
    checked: list  # every outcome whose oracle verdict counts toward `correct`
    measured: list  # the outcomes that attempted/failed describe
    metrics: dict
    notes: list
    spans: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    correct: bool = field(init=False)

    def __post_init__(self):
        self.correct = not any(o.oracle_error for o in self.checked)

    def emit(self, results_dir: Path):
        attempted = len(self.measured)
        failures = [o for o in self.measured if o.failed]
        kinds = Counter(o.kind for o in self.measured)
        failed_kinds = Counter(o.kind for o in failures)
        print(f"evlab benchmark: workload={self.workload} trace={self.trace} "
              f"seed={self.provenance.get('seed')}")
        print("provenance: " + json.dumps(self.provenance, sort_keys=True))
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:<48} {value!r} {unit}")
        print(f"  {'error_rate':<48} {len(failures) / attempted!r} fraction "
              f"({len(failures)} of {attempted} ops)")
        print("ops by kind (failed/attempted): " + ", ".join(
            f"{k} {failed_kinds[k]}/{n}" for k, n in sorted(kinds.items())))
        for note in self.notes:
            print(note)
        for o in failures[:SHOW_FAILURES]:
            print(f"failed op {o.index} ({o.kind}): {o.error or 'oracle: ' + o.oracle_error}")
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.provenance.get('seed')}-trace{self.trace}"
        result = {
            "correct": self.correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }
        record = {
            "provenance": self.provenance,
            **result,
            "notes": self.notes,
            "ops": [[o.index, o.kind, o.seconds, o.work, o.error, o.oracle_error, o.digest]
                    for o in self.checked],
        }
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if self.spans:
            with open(results_dir / f"{stem}-spans.csv", "w") as fh:
                fh.write("id,name,start_ns,end_ns,parent,op\n")
                for span in self.spans:
                    fh.write(",".join(map(str, span)) + "\n")
        print(json.dumps(result))
