"""Tests for the command-line front end."""

import json
import math

import pytest

from evlab.cli import run


def invoke(args, tmp_path, monkeypatch, env_dir=None):
    monkeypatch.chdir(tmp_path)
    if env_dir is not None:
        monkeypatch.setenv("EVLAB_OUTPUT_DIR", str(env_dir))
    else:
        monkeypatch.delenv("EVLAB_OUTPUT_DIR", raising=False)
    return run(args)


def load_summary(directory, command):
    return json.loads((directory / f"{command}_summary.json").read_text())


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path, monkeypatch):
        code = invoke(["stationary", "--u0", "2.0", "--sweep-e", "bad"],
                      tmp_path, monkeypatch)
        assert code == 2

    def test_numeric_error_is_1(self, tmp_path, monkeypatch):
        # Above-barrier energy: the evanescent solver refuses.
        code = invoke(["stationary", "--u0", "2.0", "--e", "3.0"],
                      tmp_path, monkeypatch)
        assert code == 1

    def test_success_is_0(self, tmp_path, monkeypatch):
        code = invoke(["stationary", "--u0", "2.0", "--e", "1.0"],
                      tmp_path, monkeypatch)
        assert code == 0

    def test_arithmetic_error_is_1(self, tmp_path, monkeypatch, capsys):
        # (E - U0)^2 overflows in the relativistic wavenumber.
        code = invoke(["stationary", "--u0", "1e200", "--e", "1", "--m0", "1"],
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
                       "--sweep-e", "0.2:0.9:4"], tmp_path, monkeypatch)
        assert code == 0
        summary = load_summary(tmp_path, "ttime")
        es = summary["outputs"]["special_energy"]
        assert es["E_s_over_u0"] == pytest.approx(0.9752953, abs=1e-6)

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
