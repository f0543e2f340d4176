#!/usr/bin/env python3
"""evlab benchmark: one seeded, closed-loop workload in a fresh process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client runs operations back to back, each only after the previous one
has finished, for --seconds of wall time, and checks every output against
an independent oracle. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs each operation of a fixed deck once untraced and once
traced, and reports per-layer metrics from the spans (see tracer.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give every metric by name and
unit, the error rate, provenance and the output digest. A full record is
written to .perfbench/results/ in the checkout.

Definitions (trace 0):
  work_per_s   work of the operations that succeeded / time spent in
               operations. Work is output rows plus FFT bins (sweep),
               quadrature-backed results (spectrum), grid cells x steps
               (propagate) or CLI runs (probe).
  op_p50_ms    median latency of one operation, failed ones included.
  op_p90_ms    90th percentile of the same sample.
  setup_s      time from process start until evlab is imported, the first
               inputs are built and one warm-up operation has run, in fresh
               child processes, each paired with a baseline child that only
               imports the same third-party stack (see measure_setup).
  peak_rss_mb  ru_maxrss of this process.
Operation times are wall-clock times scaled by a reference kernel timed
between the operations (harness.reference_kernel): on a shared host the
speed of the same code drifts by tens of percent over seconds, and the
reference drifts with it. The unscaled figures are printed too. setup_s is
scaled by its own baseline, because start-up time did not follow the
reference kernel.
An operation fails if it raises, exits nonzero or fails its oracle check;
error_rate = failed / attempted is printed and carried by the JSON's
attempted and failed fields. correct is false if any output that the program
returned as a success disagreed with its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# The baseline child imports what evlab and the harness import from outside
# the standard library, and nothing of evlab or the harness.
BASELINE_CODE = "import numpy, scipy.optimize, jsonschema; print('ready', flush=True)"
BASELINE_S = 1.0  # set-up times are reported at this baseline time
WORKLOAD_NAMES = ("sweep", "spectrum", "propagate", "probe")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="tiny sizes and a one-cycle deck (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Cap native thread pools at the core count before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)
    # The CLI would otherwise write wherever this points instead of --output-dir.
    os.environ.pop("EVLAB_OUTPUT_DIR", None)
    return nproc


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "evlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, nproc: int) -> dict:
    from importlib.metadata import version

    from evlab import cli

    jobs = cli.build_parser().parse_args(["stationary", "--u0", "1"]).jobs
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "nproc": nproc,
        "jobs": jobs,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "small": args.small,
    }


def child_ready_s(cmd: list) -> float:
    """Wall time from launching `cmd` until it prints its ready line; waits
    for the child to exit."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code}): {line!r}")
    return ready - start


def measure_setup(args) -> tuple:
    """Set-up time of SETUP_REPEATS fresh processes, scaled and unscaled.

    Start-up is mostly imports, and on a shared host its speed drifts by
    tens of percent over minutes, but not as the op reference kernel does
    (over half an hour on a 2-vCPU KVM guest the kernel slowed 65% and
    start-up 26%). So each set-up child is timed next to a baseline child,
    in alternating order, and the scaled figure is BASELINE_S times the
    median ratio of the two. Work that moves into evlab's import or first
    operation still raises it; the baseline holds none of that work.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        probe.append("--small")
    baseline = [sys.executable, "-c", BASELINE_CODE]
    ratios, raw = [], []
    for i in range(SETUP_REPEATS):
        if i % 2:
            base_s = child_ready_s(baseline)
            probe_s = child_ready_s(probe)
        else:
            probe_s = child_ready_s(probe)
            base_s = child_ready_s(baseline)
        ratios.append(probe_s / base_s)
        raw.append(probe_s)
    return BASELINE_S * statistics.median(ratios), statistics.median(raw)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evlab" / "__init__.py").is_file():
        print(f"error: no evlab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))

    setup = None
    if not args.trace and not args.setup_probe:
        setup = measure_setup(args)

    import harness  # imports evlab, numpy and scipy

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        bench = harness.Bench(args.workload, args.seed, args.small, workdir)
        bench.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            report = bench.traced()
        else:
            report = bench.timed(args.seconds, *setup)
    finally:
        harness.remove_tree(workdir)
    report.provenance = provenance(args, nproc)
    report.emit(OUT_DIR / "results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
