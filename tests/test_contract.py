"""The CLI contract: one table of argvs, each with its exit code, its stderr and, for a run
that succeeds, a check on the files it writes.

Every row runs in process through `cli.run`, with every warning an error. A refused run
(exit 1 or 2) prints nothing to stdout and leaves no output directory. A run that succeeds
prints nothing to stderr, writes a summary the packaged schema admits, and writes the same
bytes as a fresh `python -W error -m evlab.cli` child of the same evlab. Run from outside
the checkout, the suite checks whichever evlab is installed.
"""

import csv
import math
import re
import warnings
from typing import Callable, NamedTuple

import pytest

from evlab import cli, stationary
from test_cli import fresh_process_outputs, load_rows, load_summary, output_files
from test_ttime import buttiker_times_over_transit, transit_time


class Row(NamedTuple):
    argv: list
    code: int
    # A whole line of stderr if it ends in "\n", else a part of it.
    err: str = ""
    # For exit 0: called with the output directory and the parsed summary.
    check: Callable | None = None


def json_numbers(value):
    """Every number in a parsed JSON value, booleans aside."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from json_numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)


def answered(T):
    """Every number the run writes is finite, and T is as given where the run writes it: 0
    behind an opaque slab, 1 where kappa d is below 1e-150. ttime runs (T None) are checked
    against Buttiker's closed forms."""
    def check(out, summary):
        command, inputs = summary["command"], summary["inputs"]
        rows = [] if command == "ftir" else load_rows(out / f"{command}.csv")
        numbers = [*json_numbers(summary), *(v for row in rows for v in row.values())]
        assert len(numbers) > 10 and all(math.isfinite(v) for v in numbers)
        if command == "ftir":
            transfer = summary["outputs"]["transfer"]
            assert transfer["T"] == T and abs(transfer["T"] + transfer["R"] - 1.0) <= 1e-15
            return
        (row,) = rows
        if command == "stationary":
            assert row["T"] == T and abs(row["T"] + row["R"] - 1.0) <= 1e-15
            return
        u0, m = inputs["u0"], inputs["m"]
        E = u0 * row["e_over_u0"]
        transit = transit_time(E, stationary.BarrierSpec(u0, 1.0, m))
        kd = math.sqrt(2.0) * math.sqrt(m) * math.sqrt(u0 - E)
        phase, dwell = buttiker_times_over_transit(E / (u0 - E), kd)
        assert row["phase_time"] / transit == pytest.approx(phase, rel=1e-12, abs=0.0)
        assert row["dwell_time"] / transit == pytest.approx(dwell, rel=1e-12, abs=0.0)
    return check


def imaginary_column(path):
    with open(path, newline="") as fh:
        return [row["im"] for row in csv.DictReader(fh)]


def three_real_wave_snapshots(out, summary):
    names = [f"snapshot_{i:05d}.csv" for i in range(3)]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == names
    assert set(imaginary_column(out / "snapshots" / "snapshot_00001.csv")) == {"0"}


def split_step_snapshot_is_complex(out, summary):
    assert any(float(v) != 0 for v in imaginary_column(out / "snapshots" / "snapshot_00004.csv"))


def every_7th_field_named_by_record_index(out, summary):
    names = summary["outputs"]["snapshots"]
    assert names == [f"snapshot_{i:05d}.csv" for i in range(0, 36, 7)], names


def relativistic_wavenumber(re, im):
    def check(out, summary):
        k = summary["outputs"]["relativistic_wavenumber"]
        assert k == {"re": re, "im": im}, k
    return check


def moments_at_a_1e6(out, summary):
    # Spectral moments are exact and scale-free: Parseval is 1 and <k^2> = (pi/a)^2.
    box = summary["outputs"]["box_state"]
    assert abs(box["parseval"] - 1) < 1e-15, box
    assert abs(box["k2_spectral"] * 1e6 * 1e6 / math.pi**2 - 1) < 1e-15, box


def quadratures_within_4_ulps(out, summary):
    # Parseval 1, <k^2> = (pi/a)^2 at the double a = 0.37, the Lorentzian norm 1, the
    # Gaussian band's sigma and omega0, and the tail's quadrature branch (a k' = 10 < 20 pi)
    # against its Si/Ci closed form at 40 digits.
    outputs = summary["outputs"]
    box, band = outputs["box_state"], outputs["gaussian_band"]
    got = {"parseval": (box["parseval"], 1.0),
           "k2_spectral": (box["k2_spectral"], 72.09353105251540435173550),
           "norm": (outputs["lorentzian"]["norm"], 1.0),
           "delta_omega": (band["delta_omega"], 0.5),
           "mean_E": (band["mean_E"], 10.0),
           "tail": (outputs["tail_probability"]["exact"],
                    0.005002719074319598379207672503918622774714)}
    far = {k: v for k, v in got.items() if not abs(v[0] - v[1]) <= 4 * math.ulp(v[1])}
    assert not far, far


def cells_are_17g(out, summary):
    # 8400 cells take the vectorised formatter: each is "%.17g" of its own value.
    with open(out / "stationary.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 600 and all(len(r) == 14 for r in rows), len(rows)
    bad = [c for r in rows for c in r if c != "%.17g" % float(c)]
    assert not bad, bad[:5]


def tradeoff(advance_per_width, window):
    """Every advance in tradeoff.csv is its width times advance_per_width, so all share one
    sign, and the feasibility window is as given. The summary's cap is advance_per_width
    times d_max_detectable where the window holds a width, and null where it is empty."""
    def check(out, summary):
        with open(out / "tradeoff.csv", newline="") as fh:
            rows = [(float(r["d"]), float(r["advance"])) for r in csv.DictReader(fh)]
        assert [a for _, a in rows] == [d * advance_per_width for d, _ in rows], rows
        outputs = summary["outputs"]
        assert outputs["feasibility_window"] == window, outputs
        assert outputs["advance_per_width"] == advance_per_width
        cap = None if window["empty"] else advance_per_width * outputs["d_max_detectable"]
        assert outputs["max_advance"] == cap
    return check


PULSE_BASE = ["propagate", "--steps", "20", "--grid-n", "512", "--x-min", "-12.8",
              "--pulse-center", "-5", "--pulse-width", "1"]

CONTRACT = [
    # Usage errors.
    Row(["stationary", "--u0", "2.0", "--sweep-e", "bad"], 2, "sweep must be lo:hi:count"),
    Row(["stationary", "--u0", "2.0", "--sweep-e", "0.2:1.8:x"], 2, "got '0.2:1.8:x'"),
    Row(["stationary", "--u0", "2.0", "--sweep-e", "a:1.8:4"], 2, "got 'a:1.8:4'"),
    Row(["tolman", "--sweep-d", "1:2:q"], 2, "got '1:2:q'"),
    # An unknown option after the subcommand is reported by the main parser.
    Row(["stationary", "--u0", "2", "--bogus"], 2,
        "evlab: error: unrecognized arguments: --bogus\n"),
    # Above-barrier energy: the evanescent solver refuses.
    Row(["stationary", "--u0", "2.0", "--e", "3.0"], 1, "E=3.0 is not inside 0 < E < U0=2.0"),
    Row(["stationary", "--u0", "2", "--e", "nan"], 1, "E=nan is not inside"),
    Row(["ttime", "--u0", "2", "--e", "nan"], 1, "e must be finite, got e=nan"),
    # Refused inputs are named.
    Row(["stationary", "--u0", "2", "--d", "nan", "--e", "1"], 1, "d=nan"),
    Row(["ttime", "--u0", "nan", "--e", "0.5"], 1, "U0=nan"),
    Row(["ftir", "--gap-d", "nan"], 1, "d=nan"),
    Row(["ftir", "--n", "nan", "--report-alpha"], 1, "n=nan"),
    Row(["tolman", "--v-frame", "nan", "--dx-over-dt", "2"], 1, "|V| = nan"),
    Row(["propagate", "--dx", "nan"], 1, "dx=nan"),
    Row(["propagate", "--pulse-width", "nan"], 1, "initial field"),
    Row(["propagate", "--mode", "schrodinger", "--dt", "nan"], 1, "dt=nan"),
    Row(["propagate", "--mode", "schrodinger", "--barrier-kc", "nan"], 1, "potential"),
    Row(["propagate", "--barrier-kc", "nan"], 1, "cutoff_kc"),
    Row(["propagate", "--barrier-kc", "-2"], 1, "cutoff_kc"),
    Row(["propagate", "--record-every", "0"], 1, "record_every"),
    Row(["propagate", "--steps", "10", "--snapshots", "--snapshot-stride", "0"], 1, "stride"),
    Row(["ftir", "--theta-deg", "100", "--report-alpha"], 1, "theta="),
    Row(["ftir", "--gap-d", "1", "--theta-deg", "95"], 1, "theta="),
    Row(["ftir", "--gap-d", "1", "--theta-deg", "30"], 1, "theta="),
    Row(["spectrum", "--a", "nan"], 1, "positive, got a=nan"),
    Row(["spectrum", "--tail-akprime", "nan"], 1, "k_prime=nan"),
    Row(["spectrum", "--lorentz", "nan", "0.1"], 1, "omega0=nan"),
    Row(["spectrum", "--gauss", "nan", "0.5"], 1, "omega0=nan"),
    Row(["propagate", "--barrier-kc", "3", "--barrier-width", "nan"], 1, "barrier_width=nan"),
    Row(["propagate", "--barrier-kc", "3", "--barrier-start", "nan"], 1, "barrier_start=nan"),
    Row(["propagate", "--pulse-width", "0"], 1, "pulse_width=0.0"),
    Row(["propagate", "--mode", "schrodinger", "--pulse-width", "-1"], 1, "pulse_width=-1.0"),
    Row(["propagate", "--pulse-center", "nan"], 1, "pulse_center=nan"),
    Row(["propagate", "--mode", "schrodinger", "--pulse-k0", "inf"], 1, "pulse_k0=inf"),
    Row(["propagate", "--x-min", "nan"], 1, "x_min=nan"),
    Row(["propagate", "--dx", "inf"], 1, "dx=inf"),
    # Negative values in exponent notation or -inf are values, not options.
    Row(["ftir", "--experiment-report", "--kappa-d", "-1e-3"], 1, "d="),
    Row(["propagate", "--pulse-center", "-inf"], 1, "pulse_center=-inf"),
    # (pi/a)^2 leaves the double range.
    Row(["spectrum", "--a", "1e-200"], 1, "a=1e-200"),
    Row(["spectrum", "--a", "1e200"], 1, "a=1e+200"),
    # Non-finite tolman inputs are named before any arithmetic.
    Row(["tolman", "--dx-over-dt", "inf"], 1, "dx_over_dt=inf"),
    Row(["tolman", "--dx-over-dt", "-inf"], 1, "dx_over_dt=-inf"),
    Row(["tolman", "--dx-over-dt", "nan"], 1, "dx_over_dt=nan"),
    Row(["tolman", "--v-signal", "nan"], 1, "v_signal=nan"),
    Row(["tolman", "--v-frame", "nan"], 1, "|V| = nan"),
    Row(["tolman", "--kappa", "inf", "--sweep-d", "1:2:3"], 1, "kappa=inf"),
    Row(["tolman", "--threshold", "nan", "--sweep-d", "1:2:3"], 1, "threshold=nan"),
    Row(["spectrum", "--gauss", "inf", "0.5"], 1, "omega0=inf"),
    Row(["spectrum", "--gauss", "10", "inf"], 1, "sigma=inf"),
    # Sweep bounds must be finite; the message quotes the spec.
    Row(["stationary", "--u0", "2", "--sweep-e", "0.1:inf:3"], 1, "'0.1:inf:3'"),
    Row(["ttime", "--u0", "2", "--sweep-e", "nan:0.5:3"], 1, "'nan:0.5:3'"),
    Row(["tolman", "--sweep-d", "1:inf:3"], 1, "'1:inf:3'"),
    Row(["stationary", "--u0", "2", "--sweep-e", "-1e308:1e308:3"], 1, "'-1e308:1e308:3'"),
    # The advance leaves the double range: named, with no RuntimeWarning.
    Row(["tolman", "--sweep-d", "1:1e308:3", "--v-signal", "10", "--v-frame", "-0.9"], 1,
        "width=1e+308"),
    # A sweep names its first bad entry, not the whole array.
    Row(["tolman", "--sweep-d=-1:2:5000"], 1, "width=-1.0"),
    Row(["tolman", "--sweep-d=0:2:5000"], 1, "width=0.0"),
    Row(["stationary", "--u0", "2", "--sweep-e", "0:1:5000"], 1, "E=0.0 is not inside"),
    Row(["ttime", "--u0", "2", "--sweep-e", "0:0.9:50"], 1, "positive, got E=0.0"),
    # A bad stride is refused with or without --snapshots.
    Row(["propagate", "--steps", "10", "--snapshot-stride", "0"], 1, "stride"),
    # A recorded input is finite even when the run never reads it.
    Row(["ftir", "--omega", "nan"], 1, "omega must be finite, got omega=nan"),
    Row(["ftir", "--report-alpha", "--kappa-d", "inf"], 1, "kappa_d=inf"),
    Row(["stationary", "--u0", "2", "--sweep-e", "0.2:1.8:3", "--e", "nan"], 1, "e=nan"),
    # (c dt k_c)^2, or the relativistic k itself, leaves the double range.
    Row(["propagate", "--steps", "10", "--barrier-kc", "1e200"], 1,
        "numerical error: (c dt k_c)^2 overflows at k_c=1e+200\n"),
    Row(["stationary", "--u0", "2", "--e", "1", "--m0", "1e300", "--units", "si-photon"], 1,
        "m0=1e+300"),
    # The split step's phases leave the double range: the kinetic one names dt, the
    # potential one U.
    Row(["propagate", "--mode", "schrodinger", "--dt", "1e308"], 1,
        "numerical error: hbar k^2 dt / 2 mass overflows at k=1.902136176978195, dt=1e+308, "
        "mass=1.0\n"),
    Row(["propagate", "--mode", "schrodinger", "--barrier-kc", "1e300", "--dt", "1e10"], 1,
        "U=1e+300"),
    # A width whose square is not a positive double, or a pulse that is zero or not finite
    # on the whole grid: the pulse inputs are named, with no RuntimeWarning.
    Row([*PULSE_BASE, "--pulse-width", "1e300"], 1, "pulse_width=1e+300"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--pulse-width", "1e300"], 1, "pulse_width=1e+300"),
    Row([*PULSE_BASE, "--pulse-width", "1e-300"], 1, "pulse_width=1e-300"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--pulse-width", "1e-300"], 1, "pulse_width=1e-300"),
    Row([*PULSE_BASE, "--pulse-center", "1e300"], 1, "pulse_center=1e+300"),
    Row([*PULSE_BASE, "--x-min", "1e300"], 1, "x_min=1e+300"),
    Row([*PULSE_BASE, "--pulse-center", "1e150"], 1, "pulse_center=1e+150"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--pulse-center", "1e150"], 1,
        "pulse_center=1e+150"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--x-min", "1e300"], 1, "x_min=1e+300"),
    # A carrier at or above the Nyquist wavenumber pi/dx = 62.8 at the default dx = 0.05
    # would be aliased.
    Row(["propagate", "--pulse-k0", "100"], 1, "pulse_k0=100.0, dx=0.05"),
    Row(["propagate", "--mode", "schrodinger", "--pulse-k0", "100"], 1, "pulse_k0=100.0, dx=0.05"),
    Row(["propagate", "--mode", "schrodinger", "--pulse-k0", "1e300"], 1,
        "pulse_k0=1e+300, dx=0.05"),
    # Wave pulses that already reach the cells next to the grid edges: wider than the grid
    # (2 width^2 overflows at 1e154), or centred on x_min.
    Row([*PULSE_BASE, "--pulse-width", "1e154"], 1, "pulse_width=1e+154"),
    Row([*PULSE_BASE, "--pulse-width", "3e153"], 1, "pulse_width=3e+153"),
    Row([*PULSE_BASE, "--pulse-center", "-12.8"], 1, "pulse_center=-12.8"),
    Row(["propagate", "--pulse-width", "1e154"], 1, "pulse_width=1e+154"),
    # Spacings so far below the doubles' spacing near x_min = -12.8 that every grid point
    # rounds to x_min: dx, x_min and grid_n are named before any pulse or solver runs.
    Row([*PULSE_BASE, "--dx", "1e-150"], 1, "dx=1e-150, x_min=-12.8, grid_n=512"),
    Row([*PULSE_BASE, "--dx", "1e-300"], 1, "dx=1e-300, x_min=-12.8, grid_n=512"),
    Row([*PULSE_BASE, "--dx", "5e-324"], 1, "dx=5e-324, x_min=-12.8, grid_n=512"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--dx", "1e-300"], 1,
        "dx=1e-300, x_min=-12.8, grid_n=512"),
    Row([*PULSE_BASE, "--mode", "schrodinger", "--dx", "5e-324"], 1,
        "dx=5e-324, x_min=-12.8, grid_n=512"),
    # A negative or NaN opacity names the option, not the gap width it sizes.
    Row(["ftir", "--experiment-report", "--kappa-d", "-1"], 1, "kappa_d=-1.0"),
    Row(["ftir", "--experiment-report", "--kappa-d", "nan"], 1, "kappa_d=nan"),
    # 2 pi hbar / E leaves the double range: E is named, with no RuntimeWarning.
    Row(["ttime", "--u0", "2", "--e", "1e-310"], 1, "overflows at E=2e-310"),
    Row(["ttime", "--u0", "2", "--e", "5e-324"], 1, "overflows at E=1e-323"),
    # hbar / sqrt(E (U0 - E)) leaves the double range: E and U0 are named.
    Row(["ttime", "--u0", "1e-305", "--e", "0.9999999999999999"], 1,
        "E=9.999999999999999e-306, U0=1e-305"),
    # A frame at or above c: |V| and the option, with its sign.
    Row(["tolman", "--v-frame", "-1e150", "--dx-over-dt", "2"], 1,
        "|V| = 1e+150 must be below c = 1.0, got v_frame=-1e+150"),
    # An angle that is not evanescent once in radians: the option as given.
    Row(["ftir", "--theta-deg", "1e-300", "--gap-d", "1"], 1, "got theta_deg=1e-300"),
    Row(["ftir", "--theta-deg", "1e300", "--gap-d", "1"], 1, "got theta_deg=1e+300"),
    Row(["ftir", "--theta-deg", "1e-300", "--report-alpha"], 1, "got theta_deg=1e-300"),
    # kappa_x = alpha omega rounds to 0, 1 / kappa_x overflows, or k_parallel = omega n
    # sin(theta) overflows: omega, n and theta are named.
    Row(["ftir", "--report-alpha", "--omega", "5e-324"], 1,
        "got omega=5e-324, n=1.5, theta_deg=45.0"),
    Row(["ftir", "--report-alpha", "--omega", "1e-309"], 1,
        "got omega=1e-309, n=1.5, theta_deg=45.0"),
    Row(["ftir", "--report-alpha", "--omega", "1e308", "--n", "10"], 1,
        "got omega=1e+308, n=10.0, theta_deg=45.0"),
    # k or kappa itself is not a double, though E, U0 and m are: si-photon's hbar = 1.05e-34
    # takes k to 1e334. All three are named (ttime's --e is E / U0).
    Row(["stationary", "--u0", "1e300", "--m", "1e300", "--e", "5e299", "--units", "si-photon"],
        1, "got E=5e+299, U0=1e+300, m=1e+300"),
    Row(["ttime", "--u0", "1e300", "--m", "1e300", "--e", "0.5", "--units", "si-photon"], 1,
        "got E=5e+299, U0=1e+300, m=1e+300"),
    # ttime fractions whose energy E = U0 e overflows, or underflows to 0 from a nonzero
    # fraction: the option as given and U0.
    Row(["ttime", "--u0", "1e300", "--e", "5e299"], 1, "overflows at e=5e+299, u0=1e+300"),
    Row(["ttime", "--u0", "1e300", "--sweep-e=-5e299:0.5:3"], 1,
        "overflows at the fraction -5e+299 of sweep_e=-5e299:0.5:3, u0=1e+300"),
    Row(["ttime", "--u0", "5e-324", "--e", "0.5"], 1, "underflows to 0 at e=0.5, u0=5e-324"),
    Row(["ttime", "--u0", "0.5", "--sweep-e=5e-324:0.5:3"], 1,
        "underflows to 0 at the fraction 5e-324 of sweep_e=5e-324:0.5:3, u0=0.5"),
    # Refused after the library has run: a negative or NaN rest mass, an infinite fraction,
    # an infinite width or a wave run's unread dt (refused by finish, after the table is
    # formed and the snapshot fields kept). No table or snapshot is left behind.
    *[Row(["stationary", "--u0", "2", "--e", "1", "--m0", m0], 1, f"m0={float(m0)}")
      for m0 in ("-1e-300", "-1e-150", "-1e150", "-1e300", "nan")],
    Row(["ttime", "--u0", "2", "--e", "inf"], 1, "e must be finite, got e=inf"),
    Row(["ttime", "--u0", "2", "--e", "-inf"], 1, "e must be finite, got e=-inf"),
    Row(["stationary", "--u0", "2", "--e", "1", "--d", "inf"], 1,
        "numerical error: d must be finite, got d=inf\n"),
    Row(["ttime", "--u0", "2", "--e", "0.5", "--d", "inf"], 1, "d must be finite, got d=inf"),
    Row(["propagate", "--steps", "40", "--record-every", "20", "--snapshots", "--dt", "nan"], 1,
        "dt must be finite, got dt=nan"),

    # Barriers and gaps whose k and kappa are doubles but whose products k^2, 4 k kappa or
    # k^2 + kappa^2 are not, or whose k1 or kappa_x lies outside [2^-500, 2^500]: the slab,
    # matched in kappa units, answers each.
    Row(["stationary", "--u0", "1e300", "--m", "1e300", "--e", "5e299"], 0, check=answered(0.0)),
    Row(["ttime", "--u0", "1e300", "--m", "1e300", "--e", "0.5"], 0, check=answered(None)),
    Row(["stationary", "--u0", "1e-300", "--m", "1e-300", "--e", "5e-301"], 0,
        check=answered(1.0)),
    Row(["ttime", "--u0", "1e-300", "--m", "1e-300", "--e", "0.5"], 0, check=answered(None)),
    Row(["stationary", "--u0", "1e154", "--m", "1e154", "--e", "5e153"], 0, check=answered(0.0)),
    Row(["ttime", "--u0", "1e154", "--m", "1e154", "--e", "0.5"], 0, check=answered(None)),
    Row(["stationary", "--u0", "2", "--e", "1", "--m", "5e-324"], 0, check=answered(1.0)),
    Row(["ttime", "--u0", "2", "--e", "0.5", "--m", "5e-324"], 0, check=answered(None)),
    Row(["stationary", "--u0", "1e-200", "--m", "1e-120", "--e", "5e-201"], 0,
        check=answered(1.0)),
    Row(["ftir", "--gap-d", "1", "--omega", "1e300"], 0, check=answered(0.0)),
    Row(["ftir", "--gap-d", "1", "--omega", "1e-300"], 0, check=answered(1.0)),
    Row(["ftir", "--gap-d", "1", "--omega", "5e-324"], 0, check=answered(1.0)),
    Row(["ftir", "--gap-d", "1", "--n", "1e300"], 0, check=answered(0.0)),
    # Both branches of the relativistic wavenumber's square root, exactly.
    Row(["stationary", "--u0", "2", "--e", "1", "--m0", "3"], 0,
        check=relativistic_wavenumber(0, math.sqrt(8))),
    Row(["stationary", "--u0", "2", "--e", "1", "--m0", "0.5"], 0,
        check=relativistic_wavenumber(math.sqrt(0.75), 0)),
    Row(["stationary", "--u0", "2", "--e", "1"], 0),
    Row(["stationary", "--u0", "2", "--sweep-e", "0.01:1.99:600"], 0, check=cells_are_17g),
    # One unit-width round trip scaled over 1000 widths.
    Row(["tolman", "--dx-over-dt", "2", "--sweep-d", "0.5:3:1000"], 0),
    # gamma = 1.25 and 1/3 + 1.25 (1/3 - 0.6) = 0: the loop closes at no width.
    Row(["tolman", "--v-signal", "3", "--v-frame", "0.6", "--kappa", "1", "--threshold", "1e-3",
         "--sweep-d", "0.1:5:7"], 0,
        check=tradeoff(0.0, {"empty": True, "d_min": None, "d_max": None})),
    # The advance at 1e308 is a double, though the trip's events at that width are not.
    Row(["tolman", "--sweep-d", "1:1e308:3", "--v-signal", "10", "--v-frame", "0.9"], 0,
        check=tradeoff(1.735325870964494, {"empty": False, "d_min": 1.0, "d_max": 1.0})),
    Row(["spectrum", "--a", "1e6", "--tail-akprime", "628.3", "--lorentz", "1", "1e-12"], 0,
        check=moments_at_a_1e6),
    Row(["spectrum", "--a", "0.37", "--tail-akprime", "10", "--lorentz", "1", "0.5",
         "--gauss", "10", "0.5"], 0, check=quadratures_within_4_ulps),
    # Leapfrog runs: snapshots (a wave run's imaginary column is the literal 0), every 7th
    # field kept, dense barrier and vacuum runs with front and peak measured on every step,
    # and below-unit-Courant barrier runs, six passes a step.
    Row(["propagate", "--steps", "40", "--record-every", "20", "--snapshots"], 0,
        check=three_real_wave_snapshots),
    Row(["propagate", "--steps", "40", "--record-every", "1", "--snapshots",
         "--snapshot-stride", "7"], 0, check=every_7th_field_named_by_record_index),
    Row(["propagate", "--steps", "200", "--record-every", "1", "--barrier-kc", "3"], 0),
    Row(["propagate", "--steps", "200", "--record-every", "1"], 0),
    Row(["propagate", "--steps", "200", "--record-every", "1", "--courant", "0.8",
         "--barrier-kc", "2"], 0),
    Row(["propagate", "--steps", "300", "--courant", "0.8", "--barrier-kc", "2.5",
         "--snapshots", "--snapshot-stride", "7"], 0),
    # Split-step runs: a barrier run, its complex snapshots, and a free run that stays in
    # k-space between records.
    Row(["propagate", "--mode", "schrodinger", "--barrier-kc", "2", "--steps", "40"], 0),
    Row(["propagate", "--mode", "schrodinger", "--barrier-kc", "2", "--steps", "40",
         "--record-every", "10", "--snapshots"], 0, check=split_step_snapshot_is_complex),
    Row(["propagate", "--mode", "schrodinger", "--steps", "400"], 0),
]


# Small base argvs, every float option of each set in turn to each extreme value.
EXTREMES = ["1e-300", "-1e-300", "1e-150", "-1e-150", "1e150", "-1e150", "1e300", "-1e300",
            "5e-324", "inf", "-inf", "nan"]
BASES = [
    ["stationary", "--u0", "2", "--e", "1", "--m0", "3"],
    ["ttime", "--u0", "2", "--e", "0.5"],
    ["spectrum", "--tail-akprime", "10", "--lorentz", "1", "0.5", "--gauss", "10", "0.5"],
    ["ftir", "--gap-d", "1", "--report-alpha"],
    ["ftir", "--experiment-report"],
    PULSE_BASE,
    [*PULSE_BASE, "--mode", "schrodinger", "--barrier-kc", "2"],
    ["tolman", "--sweep-d", "0.5:3:10"],
]
FLOAT_OPTIONS = [(base, action) for base in BASES
                 for action in cli._subparsers()[base[0]]._actions if action.type is float]
# ttime's times and factor are NaN above the barrier (E/U0 > 1), as documented.
ABOVE_BARRIER_NAN = {"esposito_tau", "factor_a", "phase_time", "dwell_time"}


def run_quietly(argv, here, monkeypatch, capsys):
    """cli.run(argv) into here/out with every warning an error: the exit code and stderr.
    A refused run must print nothing to stdout and leave here empty."""
    monkeypatch.delenv("EVLAB_OUTPUT_DIR", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([*argv, "--output-dir", str(here / "out")])
    out, err = capsys.readouterr()
    if code:
        assert (out, list(here.iterdir())) == ("", []), (argv, err)
    return code, err


@pytest.fixture(scope="module", autouse=True)
def fresh_files(tmp_path_factory):
    """The files of each exit-0 row's run in a fresh `python -W error` child. The children
    start together with the module's first test, so they run alongside its in-process runs."""
    deck = [row.argv for row in CONTRACT if row.code == 0]
    with fresh_process_outputs(deck, tmp_path_factory.mktemp("fresh")) as files:
        yield lambda argv: files(deck.index(argv))


@pytest.mark.parametrize("base, action", FLOAT_OPTIONS, ids=[
    " ".join([*base, action.option_strings[0]]) for base, action in FLOAT_OPTIONS])
def test_extreme_values_run_or_are_named(base, action, tmp_path, monkeypatch, capsys):
    # Each run writes only finite numbers, or is refused naming the option or its value.
    for value in EXTREMES:
        argv = [*base, action.option_strings[0], *[value] * (action.nargs or 1)]
        (tmp_path / value).mkdir()
        code, err = run_quietly(argv, tmp_path / value, monkeypatch, capsys)
        if code:
            named = re.search(rf"(?<![a-z0-9]){action.dest}(?![a-z0-9])", err, re.IGNORECASE)
            assert code in (1, 2) and (named or repr(float(value)) in err), (argv, err)
            continue
        for table in (tmp_path / value / "out").rglob("*.csv"):
            with open(table, newline="") as fh:
                for row in csv.DictReader(fh):
                    above = float(row.get("e_over_u0", 0)) > 1
                    bad = {k: v for k, v in row.items() if v not in ("true", "false") and
                           not math.isfinite(float(v)) and not (above and k in ABOVE_BARRIER_NAN)}
                    assert not bad, (argv, table.name, bad)


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: " ".join(row.argv))
def test_contract(row, tmp_path, monkeypatch, capsys, fresh_files):
    code, err = run_quietly(row.argv, tmp_path, monkeypatch, capsys)
    assert code == row.code, err
    if code:
        whole_line = row.err.endswith("\n")
        assert ("\n" + row.err if whole_line else row.err) in "\n" + err, err
        return
    assert err == ""
    out = tmp_path / "out"
    summary = load_summary(out, row.argv[0])
    if row.check:
        row.check(out, summary)
    assert output_files(out) == fresh_files(row.argv)
