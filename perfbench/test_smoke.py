"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

For every workload it runs the benchmark untraced and twice traced, and
checks that every metric BENCHMARK.json names is printed with its unit, that
every kind of operation had its oracle run, and that the traced deck's
output digest and counts repeat exactly across processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

KINDS = {
    "sweep": {"stationary", "ttime", "ftir.transmit_pulse", "ftir.interior_field",
              "ftir.reshaping_distance"},
    "spectrum": {"tail_probability", "box_parseval", "dwell_time_quadrature",
                 "lorentzian_norm", "gaussian_band_report", "box_moments", "cli.spectrum"},
    "propagate": {"wave.barrier", "wave.vacuum", "wave.dense", "wave.dense_snapshots",
                  "schrodinger"},
    "probe": {"stationary", "ttime", "ftir.gap", "ftir.alpha", "ftir.experiment", "tolman"},
}


def run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), lines, record


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    checked = set()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, lines, record = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert units(result) == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert result["attempted"] >= 1
        for name in result["metrics"]:
            assert any(line.split()[:1] == [name] for line in lines), name
        assert any(line.split()[:1] == ["error_rate"] for line in lines)
        # An op's oracle ran when the op returned; its digest is set then.
        checked |= {kind for _, kind, _, _, error, _, digest in record["ops"]
                    if error is None and digest}
    assert KINDS[workload] <= checked

    again, again_lines, _ = run(workload, 1)
    counts = [name for name, m in result["metrics"].items() if m["unit"] in ("count", "B")]
    assert [result["metrics"][n]["value"] for n in counts] == \
        [again["metrics"][n]["value"] for n in counts]
    digest = [line for line in lines if line.startswith("digest of the deck")]
    assert digest and digest == [line for line in again_lines
                                 if line.startswith("digest of the deck")]
