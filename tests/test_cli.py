"""Tests for the command-line front end."""

import argparse
import contextlib
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
from evlab import cli, spectral, stationary, tolman, ttime
from evlab.cli import run
from evlab.numcore import FORMAT_VECTOR_MIN_CELLS
from test_ttime import buttiker_dwell_time, buttiker_phase_time, transit_time


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


class TestExitCodes:
    def test_nan_result_never_reaches_summary(self, tmp_path):
        out = cli.OutputWriter(argparse.Namespace(
            output_dir=str(tmp_path), format="both", force=False, command="x"))
        assert out.inputs == {}
        out.outputs["value"] = math.nan
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

    def test_arithmetic_error_is_1(self, tmp_path, monkeypatch, capsys):
        # No CLI input is known to reach a ZeroDivisionError, so the gap's transfer is made
        # to raise one.
        def divide_by_zero(*args, **kwargs):
            return 1.0 / 0.0

        monkeypatch.setattr(evlab.ftir, "gap_transfer", divide_by_zero)
        code = invoke(["ftir", "--omega", "1", "--gap-d", "1"], tmp_path, monkeypatch)
        assert code == 1
        assert "numerical error: float division by zero" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["stationary", "--u0", "2", "--e", "1e-310"],
        ["stationary", "--u0", "1e-300", "--e", "5e-301"],
        ["stationary", "--u0", "1e150", "--m", "1e150", "--e", "5e149"],
    ])
    def test_slab_products_inside_doubles_run(self, tmp_path, monkeypatch, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert invoke(argv, tmp_path, monkeypatch) == 0
        (row,) = load_rows(tmp_path / "stationary.csv")
        assert all(math.isfinite(v) for v in row.values())
        assert row["T"] + row["R"] == pytest.approx(1.0, abs=1e-12)

    def test_ttime_opaque_si_photon_barrier_is_buttikers_limit(self, tmp_path, monkeypatch):
        # kappa d = 1.3e334 rounds to inf: phase time 2 m / (hbar k kappa) and dwell time
        # 2 m k / (hbar kappa (k^2 + kappa^2)), with hbar = 1.054571817e-34 and m = 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["ttime", "--u0", "2", "--e", "0.5", "--units", "si-photon", "--d", "1e300"]
            assert invoke(argv, tmp_path, monkeypatch) == 0
        (row,) = load_rows(tmp_path / "ttime.csv")
        hbar = cli.SI_PHOTON_UNITS.hbar
        k = kappa = math.sqrt(2.0) / hbar
        assert row["phase_time"] == pytest.approx(2.0 / (hbar * k * kappa), rel=1e-12)
        assert row["dwell_time"] == pytest.approx(
            2.0 * k / (hbar * kappa * (k * k + kappa * kappa)), rel=1e-12)

    def test_ttime_phase_time_keeps_its_sign_at_every_scale(self, tmp_path, monkeypatch):
        # At U0 = 1e-250, p^2 s of the determinant in physical units underflows beside
        # -4ik kappa and would flip the phase time's sign. Phase time / (d/v) is a function
        # of E/U0 and kappa d, the same at U0 = 1e-50 and 1e-250.
        readings = []
        for u0 in ("1e-50", "1e-250"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert invoke(["ttime", "--u0", u0, "--e", "0.99", "--output-dir", u0],
                              tmp_path, monkeypatch) == 0
            (row,) = load_rows(tmp_path / u0 / "ttime.csv")
            assert row["phase_time"] > 0
            E, spec = float(u0) * row["e_over_u0"], stationary.BarrierSpec(float(u0), 1.0)
            readings.append(row["phase_time"] / transit_time(E, spec))
        assert readings[1] == pytest.approx(readings[0], rel=1e-12)
        assert readings[0] == pytest.approx(1.505051, abs=1e-6)

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

    def test_never_writes_through_a_name_that_exists(self, tmp_path, monkeypatch, capsys):
        # A dangling link passes the check before the run (the path does not exist), but
        # the file is created exclusively at the end, so nothing is written through it.
        (tmp_path / "tolman_summary.json").symlink_to(tmp_path / "target")
        assert invoke(["tolman", "--dx-over-dt", "2"], tmp_path, monkeypatch) == 2
        assert "refusing to overwrite existing file" in capsys.readouterr().err
        assert not (tmp_path / "target").exists()

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
        # A forced rerun with another --record-every, refused at finish, deletes and
        # writes nothing.
        files = lambda: {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        kept = files()
        assert invoke(args + ["--record-every", "10", "--force", "--dt", "nan"],
                      tmp_path, monkeypatch) == 1
        assert files() == kept

    @pytest.mark.parametrize("argv, blocked, make, reason", [
        (["stationary", "--u0", "2", "--e", "1", "--output-dir", "taken"], "taken",
         Path.touch, "File exists"),
        (["propagate", "--steps", "40", "--record-every", "20", "--snapshots", "--force"],
         "snapshots", Path.touch, "File exists"),
        (["stationary", "--u0", "2", "--e", "1", "--force"], "stationary.csv", Path.mkdir,
         "Is a directory"),
    ])
    def test_unwritable_output_path_is_2_and_named(self, tmp_path, monkeypatch, capsys, argv,
                                                   blocked, make, reason):
        # A path that cannot take the output (not a permission bit: root ignores those)
        # is named in one line, and nothing is written.
        make(tmp_path / blocked)
        assert invoke(argv, tmp_path, monkeypatch) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {blocked}: {reason}\n")
        assert [p.name for p in tmp_path.rglob("*")] == [blocked]

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

    def test_spectrum_summary_same_on_cold_and_warm_quadrature_cache(self, tmp_path,
                                                                     monkeypatch):
        # The input-free quadratures run on the first run in a process and are read back
        # on the next: both runs write the same bytes.
        for helper in (spectral._line_moment, spectral._lorentzian_body,
                       spectral._gaussian_moments):
            helper.cache_clear()
        argv = ["spectrum", "--a", "0.37", "--tail-akprime", "10", "--lorentz", "1", "0.5",
                "--gauss", "10", "0.5"]
        for run_dir in ("cold", "warm"):
            assert invoke(argv + ["--output-dir", run_dir], tmp_path, monkeypatch) == 0
        assert spectral._line_moment.cache_info().currsize == 2
        assert ((tmp_path / "cold" / "spectrum_summary.json").read_bytes()
                == (tmp_path / "warm" / "spectrum_summary.json").read_bytes())

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
        # The loop closes; amplitude e^{-4d} clears 1e-4 up to d = ln(1e4)/4 = 2.30.
        outputs = summary["outputs"]
        assert outputs["d_max_detectable"] == pytest.approx(math.log(1e4) / 4.0, rel=1e-15)
        assert outputs["feasibility_window"] == {"empty": False, "d_min": 0.5, "d_max": 2.0}
        assert outputs["max_advance"] == outputs["advance_per_width"] * outputs["d_max_detectable"]

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


def output_files(directory):
    """Every file under directory, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@contextlib.contextmanager
def fresh_process_outputs(deck, tmp_path):
    """Start each run of `deck` in a new `python -W error` interpreter of the imported evlab,
    all at once. Yields files(i), which waits for run i and gives output_files of its
    directory; runs not waited for are killed on exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(evlab.__file__).parents[1]))
    env.pop("EVLAB_OUTPUT_DIR", None)
    dirs = [tmp_path / f"fresh_{i}" for i in range(len(deck))]
    children = []
    for argv, d in zip(deck, dirs):
        with open(f"{d}.err", "w") as err:
            children.append(subprocess.Popen(
                [sys.executable, "-W", "error", "-m", "evlab.cli", *argv, "--output-dir", str(d)],
                env=env, stdout=subprocess.DEVNULL, stderr=err))

    def files(i):
        assert children[i].wait(timeout=120) == 0, Path(f"{dirs[i]}.err").read_text()
        return output_files(dirs[i])

    try:
        yield files
    finally:
        for child in children:
            child.kill()
            child.wait()


class TestCachedState:
    def test_repeated_runs_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        deck = [
            ["stationary", "--u0", "2", "--d", "1", "--sweep-e", "0.2:1.8:7"],
            ["stationary", "--u0", "2", "--e", "1", "--format", "json"],
            ["ttime", "--u0", "2", "--sweep-e", "0.5:1.5:5"],
            ["tolman", "--dx-over-dt", "2", "--sweep-d", "0.5:3:6"],
        ]
        with fresh_process_outputs(deck, tmp_path) as fresh:
            # The first run again, after the others, catches state left behind.
            for i, argv in enumerate([*deck, deck[0]]):
                here = tmp_path / f"in_process_{i}"
                assert invoke([*argv, "--output-dir", str(here)], tmp_path, monkeypatch) == 0
                assert output_files(here) == fresh(i % len(deck))

    def test_packaged_schema_is_valid_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(SUMMARY_SCHEMA)

    def test_packaged_schema_rejects_non_string_warning(self):
        summary = {"command": "x", "inputs": {}, "outputs": {}, "warnings": [1]}
        with pytest.raises(jsonschema.ValidationError):
            SUMMARY_VALIDATOR.validate(summary)


# Argvs that cli.parse_args reads in one pass must give what the main parser's
# parse_args gives: no argv, help, an unknown subcommand, usage errors of a subcommand's
# own parser or left over for the main one, and valid runs with an abbreviated option, an
# "=" value and a negative number.
PARSE_CASES = [
    [], ["--help"], ["stationary", "--help"], ["bogus", "--u0", "2"],
    ["stationary", "--u0", "2", "--bogus"], ["stationary", "--u0", "two", "--e", "1"],
    ["stationary", "--u0", "2", "--e", "1", "--units", "x"], ["spectrum", "--lorentz", "1"],
    ["stationary", "--e", "1"], ["stationary", "--bogus"],
    ["stationary", "--u0", "2", "extra", "--e", "1", "--bogus=3", "--", "--u0"],
    ["tolman", "--thr", "0.1"], ["stationary", "--u0=2", "--e", "1"],
    ["tolman", "--v-frame", "-1e-05", "--dx-over-dt", "2"],
]


def main_parser_args(argv=None):
    return cli.build_parser().parse_args(argv)


class TestParseOnce:
    @pytest.mark.parametrize("argv", PARSE_CASES)
    def test_run_as_with_the_main_parser(self, tmp_path, monkeypatch, capsys, argv):
        results = []
        for name, parse in (("once", cli.parse_args), ("main", main_parser_args)):
            monkeypatch.setattr(cli, "parse_args", parse)
            (tmp_path / name).mkdir()
            code = invoke(argv, tmp_path / name, monkeypatch)
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            results.append((code, *capsys.readouterr(), files))
        assert results[0] == results[1]

    @pytest.mark.parametrize("argv", PARSE_CASES)
    def test_namespace_as_with_the_main_parser(self, capsys, argv):
        try:
            expected = vars(main_parser_args(argv))
        except SystemExit:
            with pytest.raises(SystemExit):
                cli.parse_args(argv)
            return
        assert vars(cli.parse_args(argv)) == expected

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["evlab", "tolman", "--thr", "0.2"])
        assert vars(cli.parse_args()) == vars(main_parser_args(["tolman", "--thr", "0.2"]))

    def test_unrecognized_arguments_line(self, tmp_path, monkeypatch, capsys):
        assert invoke(["stationary", "--u0", "2", "--bogus", "x"], tmp_path, monkeypatch) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("\nevlab: error: unrecognized arguments: --bogus x\n")


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
    def write(self, tmp_path, rows, fmt, sep=None):
        out = cli.OutputWriter(argparse.Namespace(
            output_dir=str(tmp_path), format=fmt, force=True, command="x"))
        out.write_csv("table.csv", ["a", "b", "c", "d"], rows, sep)
        out.finish()
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

    def test_text_in_separators_as_given(self, tmp_path):
        # tolman's tradeoff rows: three floats, the detectable flag in each row's last
        # separator.
        rows = np.array([[0.5, -0.1875, math.exp(-1.0)], [3.0, 0.1, 5e-324]])
        sep = [",", ",", ",true\n", ",", ",", ",false\n"]
        expected = [["0.5", "-0.1875", "0.36787944117144233", "true"],
                    ["3", "0.10000000000000001", "4.9406564584124654e-324", "false"]]
        self.write(tmp_path, rows, "csv", sep)
        text = (tmp_path / "table.csv").read_text()
        assert text == "a,b,c,d\n" + "".join(",".join(r) + "\n" for r in expected)
        assert self.write(tmp_path, rows, "json", sep)["rows"] == expected

    @pytest.mark.parametrize("count", [7, 1000])
    def test_tolman_table_is_percent_17g_with_flags(self, tmp_path, monkeypatch, count):
        # The oracle writes "%.17g" per cell and ends each row with its flag. The 21 cells
        # of 7 rows take format_17g's % path, the 3000 of 1000 rows its vectorised one.
        assert (3 * count < FORMAT_VECTOR_MIN_CELLS) == (count == 7)
        argv = ["tolman", "--sweep-d", f"0.5:3:{count}", "--v-signal", "5", "--v-frame", "0.9"]
        sweep = tolman.tradeoff_sweep(1.0, 5.0, 0.9, np.linspace(0.5, 3.0, count), 0.01)
        columns = zip(sweep["d"].tolist(), sweep["advance"].tolist(),
                      sweep["amplitude"].tolist(), sweep["detectable"].tolist())
        expected = ["%.17g,%.17g,%.17g,%s" % (*cells, "true" if flag else "false")
                    for *cells, flag in columns]
        assert {line[-5:] for line in expected} == {",true", "false"}
        assert invoke([*argv, "--format", "csv", "--output-dir", "csv"],
                      tmp_path, monkeypatch) == 0
        lines = (tmp_path / "csv" / "tradeoff.csv").read_text().split("\n")
        assert lines == ["d,advance,amplitude,detectable", *expected, ""]
        assert invoke([*argv, "--format", "json", "--output-dir", "json"],
                      tmp_path, monkeypatch) == 0
        table = load_summary(tmp_path / "json", "tolman")["outputs"]["tradeoff"]
        assert table == {"columns": ["d", "advance", "amplitude", "detectable"],
                         "rows": [line.split(",") for line in expected]}
