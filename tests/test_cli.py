"""Tests for the command-line front end."""

import argparse
import csv
import importlib.resources
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import evlab
from evlab import cli, stationary, tolman, ttime
from evlab.cli import run
from test_ttime import buttiker_dwell_time, buttiker_phase_time


def invoke(args, tmp_path, monkeypatch, env_dir=None):
    monkeypatch.chdir(tmp_path)
    if env_dir is not None:
        monkeypatch.setenv("EVLAB_OUTPUT_DIR", str(env_dir))
    else:
        monkeypatch.delenv("EVLAB_OUTPUT_DIR", raising=False)
    return run(args)


# The packaged schema is the summary contract; the CLI writes summaries without checking it.
SUMMARY_SCHEMA = json.loads(
    importlib.resources.files("evlab.schemas").joinpath("summary.schema.json").read_text())
SUMMARY_VALIDATOR = jsonschema.Draft202012Validator(SUMMARY_SCHEMA)


def load_summary(directory, command):
    """The run's summary, validated against the packaged schema."""
    summary = json.loads((directory / f"{command}_summary.json").read_text())
    SUMMARY_VALIDATOR.validate(summary)
    return summary


def load_rows(path):
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


PULSE_BASE = ["propagate", "--steps", "20", "--grid-n", "512", "--x-min", "-12.8",
              "--pulse-center", "-5", "--pulse-width", "1"]
PULSE_CASES = [
    (["--pulse-width", "1e300"], "pulse_width=1e+300"),
    (["--mode", "schrodinger", "--pulse-width", "1e300"], "pulse_width=1e+300"),
    (["--pulse-width", "1e-300"], "pulse_width=1e-300"),
    (["--mode", "schrodinger", "--pulse-width", "1e-300"], "pulse_width=1e-300"),
    (["--pulse-center", "1e300"], "pulse_center=1e+300"),
    (["--x-min", "1e300"], "x_min=1e+300"),
    (["--pulse-center", "1e150"], "pulse_center=1e+150"),
    (["--mode", "schrodinger", "--pulse-center", "1e150"], "pulse_center=1e+150"),
    (["--mode", "schrodinger", "--x-min", "1e300"], "x_min=1e+300"),
]
# Wave pulses that already reach the cells next to the grid edges: wider than
# the grid (2 width^2 overflows at 1e154), or centred on x_min. Listed apart,
# after NYQUIST_CASES, so the parametrised ids before them keep their numbers.
EDGE_PULSE_CASES = [
    (["--pulse-width", "1e154"], "pulse_width=1e+154"),
    (["--pulse-width", "3e153"], "pulse_width=3e+153"),
    (["--pulse-center", "-12.8"], "pulse_center=-12.8"),
]
# Spacings so far below the doubles' spacing near x_min = -12.8 that every grid
# point rounds to x_min: dx, x_min and grid_n are named before any pulse or
# solver runs, in both modes.
COLLAPSED_GRID_CASES = [
    (["--dx", "1e-150"], "dx=1e-150, x_min=-12.8, grid_n=512"),
    (["--dx", "1e-300"], "dx=1e-300, x_min=-12.8, grid_n=512"),
    (["--dx", "5e-324"], "dx=5e-324, x_min=-12.8, grid_n=512"),
    (["--mode", "schrodinger", "--dx", "1e-300"], "dx=1e-300, x_min=-12.8, grid_n=512"),
    (["--mode", "schrodinger", "--dx", "5e-324"], "dx=5e-324, x_min=-12.8, grid_n=512"),
]

# Carriers above pi/dx = 62.8 at the default dx = 0.05, in both modes.
NYQUIST_CASES = [
    (["propagate", "--pulse-k0", "100"], "pulse_k0=100.0, dx=0.05"),
    (["propagate", "--mode", "schrodinger", "--pulse-k0", "100"], "pulse_k0=100.0, dx=0.05"),
    (["propagate", "--mode", "schrodinger", "--pulse-k0", "1e300"], "pulse_k0=1e+300, dx=0.05"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["stationary", "--u0", "2.0", "--sweep-e", "bad"],
        ["stationary", "--u0", "2.0", "--sweep-e", "0.2:1.8:x"],
        ["stationary", "--u0", "2.0", "--sweep-e", "a:1.8:4"],
        ["tolman", "--sweep-d", "1:2:q"],
    ])
    def test_usage_error_is_2(self, tmp_path, monkeypatch, argv):
        assert invoke(argv, tmp_path, monkeypatch) == 2

    @pytest.mark.parametrize("argv", [
        # Above-barrier energy: the evanescent solver refuses.
        ["stationary", "--u0", "2.0", "--e", "3.0"],
        ["stationary", "--u0", "2", "--e", "nan"],
        ["ttime", "--u0", "2", "--e", "nan"],
    ])
    def test_numeric_error_is_1(self, tmp_path, monkeypatch, argv):
        assert invoke(argv, tmp_path, monkeypatch) == 1

    @pytest.mark.parametrize("argv, named", [
        (["stationary", "--u0", "2", "--d", "nan", "--e", "1"], "d=nan"),
        (["ttime", "--u0", "nan", "--e", "0.5"], "U0=nan"),
        (["ftir", "--gap-d", "nan"], "d=nan"),
        (["ftir", "--n", "nan", "--report-alpha"], "n=nan"),
        (["tolman", "--v-frame", "nan", "--dx-over-dt", "2"], "|V| = nan"),
        (["propagate", "--dx", "nan"], "dx=nan"),
        (["propagate", "--pulse-width", "nan"], "initial field"),
        (["propagate", "--mode", "schrodinger", "--dt", "nan"], "dt=nan"),
        (["propagate", "--mode", "schrodinger", "--barrier-kc", "nan"], "potential"),
        (["propagate", "--barrier-kc", "nan"], "cutoff_kc"),
        (["propagate", "--barrier-kc", "-2"], "cutoff_kc"),
        (["propagate", "--record-every", "0"], "record_every"),
        (["propagate", "--steps", "10", "--snapshots", "--snapshot-stride", "0"], "stride"),
        (["ftir", "--theta-deg", "100", "--report-alpha"], "theta="),
        (["ftir", "--gap-d", "1", "--theta-deg", "95"], "theta="),
        (["ftir", "--gap-d", "1", "--theta-deg", "30"], "theta="),
        (["spectrum", "--a", "nan"], "positive, got a=nan"),
        (["spectrum", "--tail-akprime", "nan"], "k_prime=nan"),
        (["spectrum", "--lorentz", "nan", "0.1"], "omega0=nan"),
        (["spectrum", "--gauss", "nan", "0.5"], "omega0=nan"),
        (["stationary", "--u0", "2", "--e", "1", "--m0", "nan"], "m0=nan"),
        (["propagate", "--barrier-kc", "3", "--barrier-width", "nan"], "barrier_width=nan"),
        (["propagate", "--barrier-kc", "3", "--barrier-start", "nan"], "barrier_start=nan"),
        (["propagate", "--pulse-width", "0"], "pulse_width=0.0"),
        (["propagate", "--mode", "schrodinger", "--pulse-width", "-1"], "pulse_width=-1.0"),
        (["propagate", "--pulse-center", "nan"], "pulse_center=nan"),
        (["propagate", "--mode", "schrodinger", "--pulse-k0", "inf"], "pulse_k0=inf"),
        (["propagate", "--x-min", "nan"], "x_min=nan"),
        (["propagate", "--dx", "inf"], "dx=inf"),
        # Negative values in exponent notation or -inf are values, not options.
        (["ftir", "--experiment-report", "--kappa-d", "-1e-3"], "d="),
        (["propagate", "--pulse-center", "-inf"], "pulse_center=-inf"),
        # (pi/a)^2 leaves the double range.
        (["spectrum", "--a", "1e-200"], "a=1e-200"),
        (["spectrum", "--a", "1e200"], "a=1e+200"),
        # Non-finite tolman inputs are named before any arithmetic.
        (["tolman", "--dx-over-dt", "inf"], "dx_over_dt=inf"),
        (["tolman", "--dx-over-dt", "-inf"], "dx_over_dt=-inf"),
        (["tolman", "--dx-over-dt", "nan"], "dx_over_dt=nan"),
        (["tolman", "--v-signal", "nan"], "v_signal=nan"),
        (["tolman", "--v-frame", "nan"], "|V| = nan"),
        (["tolman", "--kappa", "inf", "--sweep-d", "1:2:3"], "kappa=inf"),
        (["tolman", "--threshold", "nan", "--sweep-d", "1:2:3"], "threshold=nan"),
        (["spectrum", "--gauss", "inf", "0.5"], "omega0=inf"),
        (["spectrum", "--gauss", "10", "inf"], "sigma=inf"),
        # Sweep bounds must be finite; the message quotes the spec.
        (["stationary", "--u0", "2", "--sweep-e", "0.1:inf:3"], "'0.1:inf:3'"),
        (["ttime", "--u0", "2", "--sweep-e", "nan:0.5:3"], "'nan:0.5:3'"),
        (["tolman", "--sweep-d", "1:inf:3"], "'1:inf:3'"),
        (["stationary", "--u0", "2", "--sweep-e", "-1e308:1e308:3"], "'-1e308:1e308:3'"),
        # The round trip leaves the double range: named, with no RuntimeWarning.
        (["tolman", "--sweep-d", "1:1e308:3", "--v-signal", "10", "--v-frame", "0.9"],
         "d1=1e+308"),
        # A sweep names its first bad entry, not the whole array.
        (["tolman", "--sweep-d=-1:2:5000"], "width=-1.0"),
        (["tolman", "--sweep-d=0:2:5000"], "d1=0.0"),
        (["stationary", "--u0", "2", "--sweep-e", "0:1:5000"], "E=0.0 is not inside"),
        (["ttime", "--u0", "2", "--sweep-e", "0:0.9:50"], "positive, got E=0.0"),
        # A bad stride is refused with or without --snapshots.
        (["propagate", "--steps", "10", "--snapshot-stride", "0"], "stride"),
        # A recorded input is finite even when the run never reads it.
        (["ftir", "--omega", "nan"], "omega must be finite, got omega=nan"),
        (["ftir", "--report-alpha", "--kappa-d", "inf"], "kappa_d=inf"),
        (["stationary", "--u0", "2", "--sweep-e", "0.2:1.8:3", "--e", "nan"], "e=nan"),
        # (c dt k_c)^2, or the relativistic k itself, leaves the double range.
        (["propagate", "--steps", "10", "--barrier-kc", "1e200"], "k_c=1e+200"),
        (["stationary", "--u0", "2", "--e", "1", "--m0", "1e300", "--units", "si-photon"],
         "m0=1e+300"),
        # The split step's phases leave the double range: the kinetic one names dt, the
        # potential one U.
        (["propagate", "--mode", "schrodinger", "--dt", "1e308"], "dt=1e+308"),
        (["propagate", "--mode", "schrodinger", "--barrier-kc", "1e300", "--dt", "1e10"],
         "U=1e+300"),
        # A width whose square is not a positive double, or a pulse that is zero or not
        # finite on the whole grid: the pulse inputs are named, with no RuntimeWarning.
        *[(PULSE_BASE + argv, named) for argv, named in PULSE_CASES],
        # A carrier at or above the Nyquist wavenumber pi/dx would be aliased.
        *NYQUIST_CASES,
        *[(PULSE_BASE + argv, named) for argv, named in EDGE_PULSE_CASES],
        *[(PULSE_BASE + argv, named) for argv, named in COLLAPSED_GRID_CASES],
        # A negative or NaN opacity names the option, not the gap width it sizes.
        (["ftir", "--experiment-report", "--kappa-d", "-1"], "kappa_d=-1.0"),
        (["ftir", "--experiment-report", "--kappa-d", "nan"], "kappa_d=nan"),
        # 2 pi hbar / E leaves the double range: E is named, with no RuntimeWarning.
        (["ttime", "--u0", "2", "--e", "1e-310"], "overflows at E=2e-310"),
        (["ttime", "--u0", "2", "--e", "5e-324"], "overflows at E=1e-323"),
    ])
    def test_nan_input_is_1_and_named(self, tmp_path, monkeypatch, capsys, argv, named):
        assert invoke(argv, tmp_path, monkeypatch) == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("*_summary.json"))

    @pytest.mark.parametrize("argv", [
        ["propagate", "--steps", "10", "--snapshot-stride", "0"],
        ["ftir", "--report-alpha", "--kappa-d", "inf"],
        ["propagate", "--steps", "10", "--barrier-kc", "1e200"],
        ["propagate", "--mode", "schrodinger", "--dt", "1e308"],
        ["propagate", "--mode", "schrodinger", "--barrier-kc", "1e300", "--dt", "1e10"],
        *[PULSE_BASE + argv for argv, _ in PULSE_CASES],
        *[argv for argv, _ in NYQUIST_CASES],
        *[PULSE_BASE + argv for argv, _ in EDGE_PULSE_CASES],
        *[PULSE_BASE + argv for argv, _ in COLLAPSED_GRID_CASES],
        ["ttime", "--u0", "2", "--e", "1e-310"],
        ["ttime", "--u0", "2", "--e", "5e-324"],
    ])
    def test_failed_run_leaves_no_directory_and_prints_nothing(self, tmp_path, monkeypatch,
                                                                capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(argv + ["--output-dir", "z"], tmp_path, monkeypatch) == 1
        assert not (tmp_path / "z").exists()
        assert capsys.readouterr().out == ""

    def test_nan_result_never_reaches_summary(self, tmp_path):
        out = cli.OutputWriter(argparse.Namespace(
            output_dir=str(tmp_path), format="both", force=False, command="x"))
        assert out.inputs == {}
        out.add_result("value", math.nan)
        with pytest.raises(ValueError):
            out.finish()
        assert not (tmp_path / "x_summary.json").exists()

    def test_non_finite_input_is_named_at_finish(self, tmp_path):
        out = cli.OutputWriter(argparse.Namespace(
            output_dir=str(tmp_path), format="both", force=False, command="x",
            func=None, jobs=1, label="a", count=3, band=[1.0, -math.inf]))
        assert out.inputs == {"label": "a", "count": 3, "band": [1.0, -math.inf]}
        with pytest.raises(ValueError, match=r"band must be finite, got band=\[1.0, -inf\]"):
            out.finish()
        assert not (tmp_path / "x_summary.json").exists()

    def test_success_is_0(self, tmp_path, monkeypatch):
        code = invoke(["stationary", "--u0", "2.0", "--e", "1.0"],
                      tmp_path, monkeypatch)
        assert code == 0

    def test_arithmetic_error_is_1(self, tmp_path, monkeypatch, capsys):
        # The gap's transfer divides by zero at omega = 1e-300.
        code = invoke(["ftir", "--omega", "1e-300", "--gap-d", "1"],
                      tmp_path, monkeypatch)
        assert code == 1
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, table", [
        (["stationary", "--u0", "2", "--d", "800", "--e", "1"], "stationary.csv"),
        (["ttime", "--u0", "2", "--d", "800", "--e", "0.5"], "ttime.csv"),
    ])
    def test_opaque_barrier_runs(self, tmp_path, monkeypatch, argv, table):
        # kappa d = 1131: exp(kappa d) would overflow.
        assert invoke(argv, tmp_path, monkeypatch) == 0
        row = (tmp_path / table).read_text().strip().split("\n")[1]
        assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_huge_rest_mass_is_evanescent(self, tmp_path, monkeypatch):
        # (m0 c^2)^2 = 1e400 is not a double, but k = i sqrt(m0^2 - 1) is.
        argv = ["stationary", "--u0", "2", "--e", "1", "--m0", "1e200"]
        assert invoke(argv, tmp_path, monkeypatch) == 0
        k = load_summary(tmp_path, "stationary")["outputs"]["relativistic_wavenumber"]
        assert k["re"] == 0.0 and k["im"] == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.parametrize("u0", [1e300, 1e-300])
    def test_ttime_at_extreme_scales(self, tmp_path, monkeypatch, u0):
        # E (U0 - E) over- or underflows; tau = hbar / sqrt(E (U0 - E)) = 2/U0 does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(["ttime", "--u0", repr(u0), "--e", "0.5"], tmp_path, monkeypatch) == 0
        (row,) = load_rows(tmp_path / "ttime.csv")
        assert row["esposito_tau"] == pytest.approx(2.0 / u0, rel=1e-15, abs=0.0)

    def test_opaque_gap_experiment_report(self, tmp_path, monkeypatch):
        code = invoke(["ftir", "--experiment-report", "--kappa-d", "1000"],
                      tmp_path, monkeypatch)
        assert code == 0
        rep = load_summary(tmp_path, "ftir")["outputs"]["experiment_report"]
        # The delay falls off like e^{-2 kappa d}: zero to rounding here.
        assert math.isfinite(rep["tau_g_ps"])
        assert abs(rep["tau_g_times_nu0"]) < 1e-9

    def test_ttime_next_to_threshold_runs(self, tmp_path, monkeypatch):
        # E/U0 = 1 - 5e-7, just below the barrier top.
        assert invoke(["ttime", "--u0", "2", "--e", "0.9999995"], tmp_path, monkeypatch) == 0
        header, row = (tmp_path / "ttime.csv").read_text().strip().split("\n")
        phase = float(row.split(",")[header.split(",").index("phase_time")])
        assert math.isfinite(phase) and phase > 0


class TestOutputs:
    def test_stationary_csv_and_summary(self, tmp_path, monkeypatch):
        code = invoke(
            ["stationary", "--u0", "2.0", "--d", "1.0",
             "--sweep-e", "0.5:1.5:5", "--jobs", "2"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        csv_text = (tmp_path / "stationary.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("E,k,kappa")
        assert len(lines) == 6
        summary = load_summary(tmp_path, "stationary")
        assert summary["command"] == "stationary"
        assert summary["inputs"]["u0"] == 2.0

    def test_json_format_keeps_table_in_summary(self, tmp_path, monkeypatch):
        code = invoke(
            ["stationary", "--u0", "2.0", "--e", "1.0", "--format", "json"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert not (tmp_path / "stationary.csv").exists()
        summary = load_summary(tmp_path, "stationary")
        assert summary["outputs"]["stationary"]["rows"]

    def test_refuses_silent_overwrite(self, tmp_path, monkeypatch):
        args = ["stationary", "--u0", "2.0", "--e", "1.0"]
        assert invoke(args, tmp_path, monkeypatch) == 0
        assert invoke(args, tmp_path, monkeypatch) == 2
        assert invoke(args + ["--force"], tmp_path, monkeypatch) == 0

    def test_refused_rerun_writes_nothing(self, tmp_path, monkeypatch):
        args = ["propagate", "--steps", "40", "--record-every", "20", "--snapshots",
                "--format", "json"]
        assert invoke(args, tmp_path, monkeypatch) == 0
        snaps = sorted((tmp_path / "snapshots").glob("snapshot_*.csv"))
        assert len(snaps) == 3
        for snap in snaps:
            snap.write_bytes(b"kept\n")
        # Refused at the summary, and without it at the snapshot directory.
        assert invoke(args, tmp_path, monkeypatch) == 2
        (tmp_path / "propagate_summary.json").unlink()
        assert invoke(args, tmp_path, monkeypatch) == 2
        assert [snap.read_bytes() for snap in snaps] == [b"kept\n"] * 3
        assert not (tmp_path / "propagate_summary.json").exists()

    def test_forced_rerun_replaces_stale_snapshots(self, tmp_path, monkeypatch):
        args = ["propagate", "--steps", "40", "--snapshots"]
        assert invoke(args + ["--record-every", "1"], tmp_path, monkeypatch) == 0
        assert len(list((tmp_path / "snapshots").iterdir())) == 41
        # A forced rerun that fails deletes nothing.
        assert invoke(["propagate", "--steps", "5000", "--snapshots", "--force"],
                      tmp_path, monkeypatch) == 1
        assert len(list((tmp_path / "snapshots").iterdir())) == 41
        assert invoke(args + ["--record-every", "20", "--force"], tmp_path, monkeypatch) == 0
        listed = load_summary(tmp_path, "propagate")["outputs"]["snapshots"]
        assert sorted(p.name for p in (tmp_path / "snapshots").iterdir()) == listed
        assert len(listed) == 3

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        code = invoke(["stationary", "--u0", "2.0", "--e", "1.0",
                       "--output-dir", "ignored"],
                      tmp_path, monkeypatch, env_dir=target)
        assert code == 0
        assert (target / "stationary_summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_determinism(self, tmp_path, monkeypatch):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            code = invoke(
                ["stationary", "--u0", "2.0", "--sweep-e", "0.2:1.8:40",
                 "--output-dir", str(d), "--jobs", "4"],
                tmp_path, monkeypatch,
            )
            assert code == 0
        assert (a_dir / "stationary.csv").read_bytes() == \
            (b_dir / "stationary.csv").read_bytes()
        assert (a_dir / "stationary_summary.json").read_bytes() == \
            (b_dir / "stationary_summary.json").read_bytes()


class TestSubcommands:
    def test_ttime_sweep_handles_above_barrier(self, tmp_path, monkeypatch):
        code = invoke(["ttime", "--u0", "2.0", "--d", "1.0",
                       "--sweep-e", "0.2:1.3:6"], tmp_path, monkeypatch)
        assert code == 0
        summary = load_summary(tmp_path, "ttime")
        es = summary["outputs"]["special_energy"]
        assert es["E_s_over_u0"] == pytest.approx(0.9752953, abs=1e-6)
        rows = load_rows(tmp_path / "ttime.csv")
        assert sum(row["e_over_u0"] > 1.0 for row in rows) == 2
        for row in rows:
            E = 2.0 * row["e_over_u0"]
            if E > 2.0:
                assert all(math.isnan(row[name]) for name in
                           ("esposito_tau", "factor_a", "phase_time", "dwell_time"))
            else:
                assert row["phase_time"] == pytest.approx(
                    buttiker_phase_time(E, 2.0, 1.0), rel=1e-9)
                assert row["dwell_time"] == pytest.approx(
                    buttiker_dwell_time(E, 2.0, 1.0), rel=1e-9)

    def test_stationary_sweep_rows_match_closed_forms(self, tmp_path, monkeypatch):
        # d = 800 and U0 - E from 0.05 down to 1e-4 put kappa d between 253
        # and 11: T spans 1e-220 to 1e-13, where exp(kappa d) would overflow.
        d = 800.0
        code = invoke(["stationary", "--u0", "2", "--d", "800",
                       "--sweep-e", "1.95:1.9999:12"], tmp_path, monkeypatch)
        assert code == 0
        rows = load_rows(tmp_path / "stationary.csv")
        assert len(rows) == 12
        for row in rows:
            k, kappa = row["k"], row["kappa"]
            # T = 1 / (1 + (k0^2 sinh(kappa d) / 2 k kappa)^2), written with
            # q = e^{-kappa d} so that it underflows instead of overflowing.
            a = 4.0 * k * kappa * math.exp(-kappa * d)
            b = (k * k + kappa * kappa) * -math.expm1(-2.0 * kappa * d)
            assert row["T"] == pytest.approx(a * a / (a * a + b * b), rel=1e-12, abs=0.0)
            assert abs(row["T"] + row["R"] - 1.0) < 1e-12
            t2 = row["re_t"] ** 2 + row["im_t"] ** 2
            assert row["flux_interior"] == pytest.approx(k * t2, rel=1e-12, abs=0.0)
        assert 0.0 < rows[0]["T"] < 1e-200 and rows[-1]["T"] > 1e-14

    @pytest.mark.parametrize("module, name, argv", [
        (stationary, "barrier_solution", ["stationary", "--u0", "2", "--sweep-e", "0.2:1.8:25"]),
        (stationary, "barrier_solution", ["stationary", "--u0", "2", "--e", "1"]),
        (ttime, "report", ["ttime", "--u0", "2", "--sweep-e", "0.1:1.2:25"]),
        (ttime, "report", ["ttime", "--u0", "2", "--e", "0.5"]),
        (tolman, "round_trip", ["tolman", "--sweep-d", "0.5:3:50"]),
    ])
    def test_one_library_call_per_run(self, tmp_path, monkeypatch, module, name, argv):
        calls = []
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or call(*a, **kw))
        assert invoke(argv, tmp_path, monkeypatch) == 0
        assert len(calls) == 1

    def test_negative_exponent_value_is_a_value(self, tmp_path, monkeypatch):
        code = invoke(["tolman", "--v-frame", "-1e-05", "--dx-over-dt", "2"],
                      tmp_path, monkeypatch)
        assert code == 0
        assert load_summary(tmp_path, "tolman")["inputs"]["v_frame"] == -1e-05

    def test_spectrum_narrow_lorentzian(self, tmp_path, monkeypatch):
        code = invoke(["spectrum", "--lorentz", "1", "1e-12"], tmp_path, monkeypatch)
        assert code == 0
        line = load_summary(tmp_path, "spectrum")["outputs"]["lorentzian"]
        assert line["norm"] == pytest.approx(1.0, abs=1e-12)
        assert line["peak"] == pytest.approx(2.0 / (math.pi * 1e-12), rel=1e-15)

    def test_spectrum_tail_warning_recorded(self, tmp_path, monkeypatch):
        code = invoke(["spectrum", "--a", "1.0", "--tail-akprime", "628.3"],
                      tmp_path, monkeypatch)
        assert code == 0
        summary = load_summary(tmp_path, "spectrum")
        assert summary["warnings"]
        tail = summary["outputs"]["tail_probability"]
        assert tail["printed_coefficient"] == pytest.approx(8.0 * math.pi / 3.0)
        assert tail["oracle_coefficient"] == pytest.approx(4.0 * math.pi / 3.0)

    def test_ftir_alpha_report_prints(self, tmp_path, monkeypatch, capsys):
        code = invoke(["ftir", "--report-alpha"], tmp_path, monkeypatch)
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha = 0.3535534" in out

    def test_ftir_experiment_report(self, tmp_path, monkeypatch):
        code = invoke(["ftir", "--experiment-report"], tmp_path, monkeypatch)
        assert code == 0
        rep = load_summary(tmp_path, "ftir")["outputs"]["experiment_report"]
        assert rep["input_period_ps"] == 115.0
        assert rep["measured_tau_ps"] == 130.0
        assert rep["nu0_hz"] == pytest.approx(1.0 / 115e-12)
        assert rep["tau_g_times_nu0"] == pytest.approx(
            rep["tau_g_ps"] / rep["input_period_ps"], rel=1e-12
        )

    def test_propagate_wave_trajectory(self, tmp_path, monkeypatch):
        code = invoke(
            ["propagate", "--mode", "wave", "--steps", "100",
             "--record-every", "20", "--pulse-k0", "2.0"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,front_x,peak_x"
        assert len(lines) == 7  # header + t=0 + 5 records

    def test_propagate_snapshots(self, tmp_path, monkeypatch):
        code = invoke(
            ["propagate", "--steps", "40", "--record-every", "20",
             "--snapshots"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        snaps = sorted((tmp_path / "snapshots").glob("snapshot_*.csv"))
        assert len(snaps) == 3

    @pytest.mark.parametrize("mode", ["wave", "schrodinger"])
    @pytest.mark.parametrize("stride", ["0", "-2"])
    def test_bad_snapshot_stride_refused_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                         mode, stride):
        def solver(*args, **kwargs):
            pytest.fail("the solver ran")

        monkeypatch.setattr(cli.propagate, "evolve_wave", solver)
        monkeypatch.setattr(cli.propagate, "evolve_schrodinger", solver)
        args = ["propagate", "--mode", mode, "--snapshots", "--snapshot-stride", stride]
        assert invoke(args, tmp_path, monkeypatch) == 1
        assert "stride" in capsys.readouterr().err
        assert not (tmp_path / "propagate_summary.json").exists()
        assert not (tmp_path / "snapshots").exists()

    def test_bad_snapshot_stride_refused_without_snapshots(self, tmp_path, monkeypatch):
        def solver(*args, **kwargs):
            pytest.fail("the solver ran")

        monkeypatch.setattr(cli.propagate, "evolve_wave", solver)
        assert invoke(["propagate", "--snapshot-stride", "-3"], tmp_path, monkeypatch) == 1
        assert not (tmp_path / "propagate_summary.json").exists()

    @pytest.mark.parametrize("mode", ["wave", "schrodinger"])
    @pytest.mark.parametrize("snapshots, kept", [
        ([], []), (["--snapshots", "--snapshot-stride", "7"], [0, 7, 14, 21, 28, 35]),
    ])
    def test_record_keeps_only_the_fields_written(self, tmp_path, monkeypatch, mode,
                                                  snapshots, kept):
        records = []
        for name in ("evolve_wave", "evolve_schrodinger"):
            def spy(*args, _solver=getattr(cli.propagate, name), **kwargs):
                records.append(_solver(*args, **kwargs))
                return records[-1]

            monkeypatch.setattr(cli.propagate, name, spy)
        args = ["propagate", "--mode", mode, "--steps", "40", "--record-every", "1", *snapshots]
        assert invoke(args, tmp_path, monkeypatch) == 0
        (record,) = records
        assert len(record.times) == 41
        assert record.snapshot_indices.tolist() == kept
        assert len(record.snapshots) == len(kept)

    def test_snapshot_stride_names_files_by_record_index(self, tmp_path, monkeypatch):
        args = ["propagate", "--steps", "40", "--record-every", "1", "--snapshots"]
        assert invoke(args + ["--output-dir", "all"], tmp_path, monkeypatch) == 0
        assert invoke(args + ["--snapshot-stride", "7", "--output-dir", "s7"],
                      tmp_path, monkeypatch) == 0
        names = [f"snapshot_{i:05d}.csv" for i in range(0, 36, 7)]
        assert sorted(p.name for p in (tmp_path / "s7" / "snapshots").iterdir()) == names
        assert load_summary(tmp_path / "s7", "propagate")["outputs"]["snapshots"] == names
        for name in names:
            written = (tmp_path / "s7" / "snapshots" / name).read_bytes()
            assert written == (tmp_path / "all" / "snapshots" / name).read_bytes()
        assert ((tmp_path / "s7" / "trajectory.csv").read_bytes()
                == (tmp_path / "all" / "trajectory.csv").read_bytes())

    def test_tolman_ordering_and_sweep(self, tmp_path, monkeypatch):
        code = invoke(
            ["tolman", "--v-signal", "5.0", "--v-frame", "0.9",
             "--dx-over-dt", "5.0", "--sweep-d", "0.5:3.0:6",
             "--kappa", "2.0", "--threshold", "0.0001"],
            tmp_path, monkeypatch,
        )
        assert code == 0
        summary = load_summary(tmp_path, "tolman")
        assert summary["outputs"]["interval"] == "spacelike"
        assert summary["outputs"]["ordering"] == "b_first"
        assert (tmp_path / "tradeoff.csv").exists()
        window = summary["outputs"]["feasibility_window"]
        assert window["empty"] in (True, False)

    @pytest.mark.parametrize("dx_over_dt, ordering", [("1e200", "b_first"), ("-1e200", "a_first")])
    def test_tolman_huge_separation_is_spacelike(self, tmp_path, monkeypatch, dx_over_dt, ordering):
        assert invoke(["tolman", "--dx-over-dt", dx_over_dt], tmp_path, monkeypatch) == 0
        summary = load_summary(tmp_path, "tolman")
        assert summary["outputs"]["interval"] == "spacelike"
        assert summary["outputs"]["ordering"] == ordering

    @pytest.mark.parametrize("argv, option, value, recorded", [
        pytest.param(["stationary", "--u0", "2", "--e", "1"], "units", "si-photon",
                     {"u0": 2.0, "d": 1.0, "m": 1.0, "e": 1.0, "sweep_e": None, "m0": None},
                     id="stationary"),
        pytest.param(["ttime", "--u0", "2", "--e", "0.5"], "e", "0.25",
                     {"u0": 2.0, "d": 1.0, "m": 1.0, "e": 0.5, "sweep_e": None}, id="ttime"),
        pytest.param(["spectrum", "--a", "2"], "units", "si-photon",
                     {"a": 2.0, "tail_akprime": None, "lorentz": None, "gauss": None},
                     id="spectrum"),
        pytest.param(["ftir", "--report-alpha"], "kappa_d", "7",
                     {"n": 1.5, "theta_deg": 45.0, "omega": 1.0, "gap_d": None,
                      "report_alpha": True, "experiment_report": False, "kappa_d": 5.0},
                     id="ftir"),
        pytest.param(["propagate", "--steps", "10"], "barrier_kc", "2",
                     {"mode": "wave", "grid_n": 2048, "dx": 0.05, "x_min": -51.2,
                      "courant": 1.0, "dt": 0.001, "steps": 10, "record_every": 10,
                      "pulse_center": -20.0, "pulse_width": 2.0, "pulse_k0": 5.0,
                      "barrier_start": 0.0, "barrier_width": 1.0, "barrier_kc": 0.0,
                      "snapshots": False, "snapshot_stride": 1}, id="propagate"),
        # Both runs are spacelike and b_first: only the inputs tell them apart.
        pytest.param(["tolman", "--dx-over-dt", "1e200"], "units", "si-photon",
                     {"v_signal": 2.0, "v_frame": 0.6, "dx_over_dt": 1e200, "kappa": 1.0,
                      "threshold": 0.01, "sweep_d": None}, id="tolman"),
    ])
    def test_summary_records_its_inputs(self, tmp_path, monkeypatch, argv, option, value,
                                        recorded):
        # Every option of the subcommand and --units, as parsed; output handling is not an input.
        flag = "--" + option.replace("_", "-")
        summaries = []
        for name, extra in (("base", []), ("changed", [flag, value])):
            here = tmp_path / name
            assert invoke([*argv, *extra, "--output-dir", str(here)], tmp_path, monkeypatch) == 0
            summaries.append((here / f"{argv[0]}_summary.json").read_bytes())
        assert summaries[0] != summaries[1]
        base, changed = (load_summary(tmp_path / name, argv[0])["inputs"]
                         for name in ("base", "changed"))
        assert base == {"units": "natural", **recorded}
        assert {k for k in base if base[k] != changed[k]} == {option}
        assert changed[option] == type(base[option])(value)

    def test_jobs_is_hidden_with_a_constant_default(self, capsys):
        assert cli.build_parser().parse_args(["stationary", "--u0", "1"]).jobs == 1
        assert run(["stationary", "--help"]) == 0
        assert "--jobs" not in capsys.readouterr().out


def fresh_process_outputs(deck, tmp_path):
    """Files written by each run of `deck`, each run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(evlab.__file__).parents[1]))
    env.pop("EVLAB_OUTPUT_DIR", None)
    dirs = [tmp_path / f"fresh_{i}" for i in range(len(deck))]
    children = [
        subprocess.Popen([sys.executable, "-m", "evlab.cli", *argv, "--output-dir", str(d)],
                         env=env, stdout=subprocess.DEVNULL)
        for argv, d in zip(deck, dirs)
    ]
    assert [child.wait(timeout=120) for child in children] == [0] * len(deck)
    return [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs]


class TestCachedState:
    def test_repeated_runs_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        deck = [
            ["stationary", "--u0", "2", "--d", "1", "--sweep-e", "0.2:1.8:7"],
            ["stationary", "--u0", "2", "--e", "1", "--format", "json"],
            ["ttime", "--u0", "2", "--sweep-e", "0.5:1.5:5"],
            ["tolman", "--dx-over-dt", "2", "--sweep-d", "0.5:3:6"],
        ]
        fresh = fresh_process_outputs(deck, tmp_path)
        # The first run again, after the others, catches state left behind.
        for i, argv in enumerate([*deck, deck[0]]):
            here = tmp_path / f"in_process_{i}"
            assert invoke([*argv, "--output-dir", str(here)], tmp_path, monkeypatch) == 0
            assert {p.name: p.read_bytes() for p in here.iterdir()} == fresh[i % len(deck)]

    def test_packaged_schema_is_valid_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(SUMMARY_SCHEMA)

    def test_packaged_schema_rejects_non_string_warning(self):
        summary = {"command": "x", "inputs": {}, "outputs": {}, "warnings": [1]}
        with pytest.raises(jsonschema.ValidationError):
            SUMMARY_VALIDATOR.validate(summary)


# Run in a fresh interpreter whose import system refuses scipy and jsonschema: every
# CLI path, both split-step paths and the reshaping distance run without them.
IMPORT_BUDGET = """
import sys

REFUSED = ("scipy", "jsonschema")

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in REFUSED:
            raise ImportError(f"{name} must not be imported")

sys.meta_path.insert(0, Refuse())
import numpy as np
from evlab import cli, ftir
from evlab.numcore import Grid1D, WavePacket

deck = [
    ["stationary", "--u0", "2", "--e", "1"],
    ["ttime", "--u0", "2", "--e", "1"],
    ["spectrum"],
    ["ftir", "--gap-d", "1"],
    ["tolman", "--dx-over-dt", "2"],
    ["propagate", "--steps", "40"],
    ["propagate", "--mode", "schrodinger", "--steps", "40"],
    ["propagate", "--mode", "schrodinger", "--barrier-kc", "2", "--steps", "40"],
]
for i, argv in enumerate(deck):
    assert cli.run([*argv, "--output-dir", f"run_{i}"]) == 0, argv
grid = Grid1D(-20.0, 0.05, 800)
pulse = lambda t0: np.exp(-0.5 * (grid.points() - t0) ** 2)
assert ftir.reshaping_distance(WavePacket(grid, pulse(0.0)),
                               WavePacket(grid, 0.3 * pulse(3.0))) < 1e-12
ramp = np.exp(-2j * np.pi * np.fft.fftfreq(800) * 246.9)
delayed = np.fft.ifft(np.fft.fft(pulse(0.0)) * ramp)
assert ftir.reshaping_distance(WavePacket(grid, pulse(0.0)),
                               WavePacket(grid, 0.3 * delayed)) < 1e-13
loaded = [name for name in sys.modules if name.split(".")[0] in REFUSED]
assert not loaded, loaded
print("ok")
"""


def test_cli_paths_run_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(evlab.__file__).parents[1]))
    env.pop("EVLAB_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-c", IMPORT_BUDGET], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


class TestRowFormat:
    def write(self, tmp_path, rows, fmt):
        out = cli.OutputWriter(argparse.Namespace(
            output_dir=str(tmp_path), format=fmt, force=True, command="x"))
        out.write_csv("table.csv", ["a", "b", "c", "d"], rows)
        return out.outputs["table"]

    def test_floats_match_17_digit_repr(self, tmp_path):
        rng = np.random.default_rng(7)
        random = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-320, 308, 100_000)
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 3.0, 1e16]
        values = np.concatenate([special, random]).reshape(-1, 4)
        expected = [[f"{float(x):.17g}" for x in row] for row in values]
        self.write(tmp_path, values, "csv")
        lines = (tmp_path / "table.csv").read_text().split("\n")
        assert lines[0] == "a,b,c,d" and lines[-1] == ""
        assert [line.split(",") for line in lines[1:-1]] == expected
        assert self.write(tmp_path, values, "json")["rows"] == expected

    def test_text_column_as_given(self, tmp_path):
        # tolman's tradeoff rows: three floats and the detectable flag.
        rows = [[0.5, -0.1875, math.exp(-1.0), "true"], [3.0, 0.1, 5e-324, "false"]]
        expected = [["0.5", "-0.1875", "0.36787944117144233", "true"],
                    ["3", "0.10000000000000001", "4.9406564584124654e-324", "false"]]
        self.write(tmp_path, rows, "csv")
        text = (tmp_path / "table.csv").read_text()
        assert text == "a,b,c,d\n" + "".join(",".join(r) + "\n" for r in expected)
        assert self.write(tmp_path, rows, "json")["rows"] == expected
