"""Command-line front end.

One subcommand per analysis module (stationary, ttime, spectrum, ftir,
propagate, tolman). Every run writes plot-ready CSV and/or a JSON summary
plus a manifest; outputs are deterministic (17 significant digits, '\\n'
line endings) and never overwrite silently.

Exit codes: 0 success, 1 numeric/invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, ftir, propagate, spectral, stationary, tolman, ttime
from .numcore import NATURAL_UNITS, Grid1D, UnitSystem, WavePacket, _require_all, format_17g

SI_PHOTON_UNITS = UnitSystem(hbar=1.054571817e-34, c=299792458.0, default_mass=1.0)
UNITS = {"natural": NATURAL_UNITS, "si-photon": SI_PHOTON_UNITS}  # --units presets

# Microwave tunneling-time benchmark quoted for comparison, never asserted:
# input period 115 ps, measured delay 130 ps.
EXPERIMENT_PERIOD_PS = 115.0
EXPERIMENT_MEASURED_TAU_PS = 130.0


class CliError(Exception):
    """Usage-level error (exit code 2)."""


def _parse_sweep(text: str):
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise CliError(f"sweep must be lo:hi:count, got {text!r}") from None
    if n < 1:
        raise CliError("sweep count must be at least 1")
    # Finite exactly when both bounds and the span linspace divides are.
    if not math.isfinite(hi - lo):
        raise ValueError(f"sweep bounds and their span must be finite, got {text!r}")
    return np.linspace(lo, hi, n)


def _require_finite(inputs: dict, *names):
    """Name the first given input (all if none is given) that is or lists a non-finite float."""
    for name in names or inputs:
        value = inputs[name]
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ValueError(f"{name} must be finite, got {name}={value}")


class OutputWriter:
    """Deterministic CSV/JSON emission; the summary, the run manifest, records every input."""

    def __init__(self, args):
        out = os.environ.get("EVLAB_OUTPUT_DIR") or args.output_dir
        # Made by finish, so a run that fails before leaves no directory.
        self.directory = Path(out)
        self.format = args.format
        self.force = args.force
        self.command = args.command
        self.inputs = {k: v for k, v in vars(args).items() if k not in NOT_INPUTS}
        self.outputs = {}
        self.warnings = []
        self.tables = {}  # path -> the table's bytes, written by finish
        self.snapshots = None  # (directory, record indices, each file's bytes), for finish
        # The summary doubles as the run manifest, so every run writes it; a
        # run that would overwrite it is refused before it writes anything.
        self.summary_path = self._target(f"{self.command}_summary.json")

    def _target(self, name: str) -> Path:
        path = self.directory / name
        if path.exists() and not self.force:
            raise CliError(f"refusing to overwrite existing file {path} (use --force)")
        return path

    def write_csv(self, name: str, header: list, rows: np.ndarray, sep=None):
        """Write the 2-D float array rows at finish, each cell at 17 significant digits
        (round-trip exact) followed by its separator: sep tiled over the cells, by default
        "," between columns and "\n" after the last. An existing file is refused now."""
        text = format_17g(rows, sep or [","] * (rows.shape[1] - 1) + ["\n"])
        if self.format == "json":
            # Tables still land in the summary so a json-only run loses nothing.
            self.outputs[name.removesuffix(".csv")] = {
                "columns": header,
                "rows": [line.split(",") for line in text.decode().split("\n")[:-1]],
            }
            return
        path = self._target(name)
        self.tables[path] = ",".join(header).encode() + b"\n" + text
        self.outputs[name.removesuffix(".csv")] = {"file": name, "columns": header}

    def finish(self) -> Path:
        # After the run, so an input the run reads is named by the library first.
        _require_finite(self.inputs)
        directory, files = self.directory, self.tables.items()
        if self.snapshots:
            directory, indices, texts = self.snapshots
            names = [f"snapshot_{i:05d}.csv" for i in indices]
            self.outputs["snapshots"] = names
            # Each file's bytes are formatted as it is written, not all at once.
            files = itertools.chain(files, zip([directory / n for n in names], texts))
        summary = {
            "command": self.command,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "warnings": self.warnings,
        }
        # NaN and inf are not JSON: a run that produced them fails (exit 1).
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        # Every check has passed: the output directory (made with the snapshot directory
        # in it, if any), the tables, the snapshots, then the summary that names them.
        # A path the OS refuses is named, as a usage error.
        path = directory
        try:
            path.mkdir(parents=True, exist_ok=True)
            # Under --force the run replaces an earlier run's snapshots, not only the
            # files it rewrites.
            for path in directory.glob("snapshot_*.csv") if self.snapshots and self.force else ():
                path.unlink()
            for path, data in itertools.chain(files, [(self.summary_path, text.encode())]):
                self._write(path, data)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror}") from None
        return self.summary_path

    def _write(self, path: Path, data: bytes):
        """Create path (replace it under --force) holding data, with open()'s mode."""
        # Kept over open(path, "xb"), which took 27 us a 1 kB file to this 20 us (tmpfs, 2 vCPUs).
        flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if self.force else os.O_EXCL)
        try:
            fd = os.open(path, flags, 0o666)
        except FileExistsError:  # made since _target checked it
            raise CliError(f"refusing to overwrite existing file {path} (use --force)") from None
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def cmd_stationary(args, out: OutputWriter):
    units = UNITS[args.units]
    spec = stationary.BarrierSpec(args.u0, args.d, args.m)
    if not args.sweep_e and args.e is None:
        raise CliError("give --e or --sweep-e")
    energies = _parse_sweep(args.sweep_e) if args.sweep_e else np.array([args.e])
    sol = stationary.barrier_solution(energies, spec, units)
    if args.m0 is not None:  # before the table, so a refused m0 leaves no file behind
        k = stationary.relativistic_wavenumber(float(energies[0]), args.u0, args.m0, units)
        out.outputs["relativistic_wavenumber"] = {"re": k.real, "im": k.imag}
    rows = np.column_stack([
        energies, sol.k, sol.kappa,
        sol.F1.real, sol.F1.imag, sol.F2.real, sol.F2.imag,
        sol.r.real, sol.r.imag, sol.t.real, sol.t.imag,
        sol.transmission, sol.reflection,
        stationary.probability_flux(sol, spec.width_d / 2.0, units),
    ])
    header = ["E", "k", "kappa", "re_F1", "im_F1", "re_F2", "im_F2",
              "re_r", "im_r", "re_t", "im_t", "T", "R", "flux_interior"]
    out.write_csv("stationary.csv", header, rows)


def cmd_ttime(args, out: OutputWriter):
    units = UNITS[args.units]
    spec = stationary.BarrierSpec(args.u0, args.d, args.m)
    if not args.sweep_e and args.e is None:
        raise CliError("give --e or --sweep-e (as fractions of U0)")
    fractions = _parse_sweep(args.sweep_e) if args.sweep_e else np.array([args.e])
    _require_finite(out.inputs, "u0", "e")
    with np.errstate(over="ignore"):  # named below, not warned about
        energies = fractions * args.u0
    given = f"the fraction {{}} of sweep_e={args.sweep_e}" if args.sweep_e else "e={}"
    _require_all(abs(energies) < math.inf, fractions,
                 f"the energy E = U0 e overflows at {given}, u0={args.u0}")
    _require_all((energies != 0) | (fractions == 0), fractions,
                 f"the energy E = U0 e underflows to 0 at {given}, u0={args.u0}")
    rep = ttime.report(energies, spec, units)
    rows = np.column_stack([fractions, rep.esposito_tau, rep.factor_A, rep.phase_time,
                            rep.dwell_time, rep.period_T])
    header = ["e_over_u0", "esposito_tau", "factor_a", "phase_time",
              "dwell_time", "period_T"]
    out.write_csv("ttime.csv", header, rows)
    es = ttime.esposito_special_energy(args.u0)
    out.outputs["special_energy"] = {"E_s": es, "E_s_over_u0": es / args.u0}


def cmd_spectrum(args, out: OutputWriter):
    units = UNITS[args.units]
    report = spectral.box_moments(args.a)
    report["parseval"] = spectral.box_parseval(args.a)
    report["k2_spectral"] = spectral.box_k2_spectral(args.a)
    report.update(spectral.released_energy_spread(args.a, units))
    out.outputs["box_state"] = report
    if args.tail_akprime is not None:
        tail = spectral.tail_probability(args.tail_akprime, 1.0)  # depends on a*k' alone
        out.outputs["tail_probability"] = {
            "a_k_prime": args.tail_akprime,
            "exact": tail["exact"],
            "asymptotic_printed": tail["asymptotic"],
            "oracle_coefficient": spectral.ORACLE_TAIL_COEFFICIENT,
            "printed_coefficient": spectral.PRINTED_TAIL_COEFFICIENT,
        }
        out.warnings.append(spectral.TAIL_COEFFICIENT_WARNING)
    if args.lorentz is not None:
        w0, g0 = args.lorentz
        line = spectral.LineShape(w0, g0)
        out.outputs["lorentzian"] = {
            "peak": spectral.lorentzian_density(w0, line),
            "fwhm": g0,
            "norm": spectral.lorentzian_norm(line),
        }
    if args.gauss is not None:
        w0, sigma = args.gauss
        out.outputs["gaussian_band"] = spectral.gaussian_band_report(w0, sigma, units)


def cmd_ftir(args, out: OutputWriter):
    units = UNITS[args.units]
    theta = math.radians(args.theta_deg)
    if args.report_alpha or args.gap_d is not None or args.experiment_report:
        try:
            ftir._evanescent_sine(args.n, theta)
        except ValueError as exc:  # names theta in radians, not the option
            raise ValueError(f"{exc}, got theta_deg={args.theta_deg}") from None
    if args.report_alpha:
        decay = ftir.gap_decay(args.n, theta, args.omega, units)
        kappa_x = decay["kappa_x"]
        # alpha omega / c can round to 0, or to a subnormal whose inverse overflows.
        if not (0 < kappa_x and 1.0 / kappa_x < math.inf and decay["k_parallel"] < math.inf):
            raise ValueError("kappa_x = alpha omega / c, its inverse D and k_parallel must be "
                             f"positive doubles, got omega={args.omega}, n={args.n}, "
                             f"theta_deg={args.theta_deg}")
        out.outputs["alpha"] = decay["alpha"]
        out.outputs["kappa_x"] = decay["kappa_x"]
        out.outputs["k_parallel"] = decay["k_parallel"]
        out.outputs["goos_hanchen_D"] = ftir.goos_hanchen_estimate(decay["kappa_x"])
    if args.gap_d is not None:
        spec = ftir.GapSpec(args.n, theta, args.gap_d)
        gt = ftir.gap_transfer(args.omega, spec, units)
        out.outputs["transfer"] = {
            "omega": args.omega, "T": gt.transmission, "R": abs(gt.r) ** 2,
            "re_t": gt.t.real, "im_t": gt.t.imag,
            "kappa_x_d": gt.kappa_x * args.gap_d,
        }
        out.outputs["group_delay"] = ftir.gap_group_delay(spec, args.omega, units)
    if args.experiment_report:
        if not args.kappa_d >= 0:
            raise ValueError(f"opacity must be non-negative, got kappa_d={args.kappa_d}")
        nu0 = 1.0 / (EXPERIMENT_PERIOD_PS * 1e-12)
        omega0 = 2.0 * math.pi * nu0
        si = SI_PHOTON_UNITS
        decay = ftir.gap_decay(args.n, theta, omega0, si)
        # Gap sized to the quoted opacity in decay lengths.
        d = args.kappa_d / decay["kappa_x"]
        spec = ftir.GapSpec(args.n, theta, d)
        tau_g = ftir.gap_group_delay(spec, omega0, si)
        out.outputs["experiment_report"] = {
            "nu0_hz": nu0,
            "input_period_ps": EXPERIMENT_PERIOD_PS,
            "measured_tau_ps": EXPERIMENT_MEASURED_TAU_PS,
            "gap_d_m": d,
            "kappa_x_d": args.kappa_d,
            "tau_g_ps": tau_g * 1e12,
            "tau_g_times_nu0": tau_g * nu0,
            "note": "measured value quoted for comparison only, not asserted",
        }
    return f"alpha = {out.outputs['alpha']:.7f}" if args.report_alpha else None


def _pulse_error(args, grid: Grid1D, problem: str) -> ValueError:
    return ValueError(f"initial pulse {problem}: pulse_center={args.pulse_center}, "
                      f"pulse_width={args.pulse_width}, x_min={grid.x_min}, x_max={grid.x_max}")


def _require_pulse(args, grid: Grid1D, psi0: np.ndarray, *more: np.ndarray):
    """Name the pulse inputs when the initial field psi0 is zero on the whole
    grid, or it or any further field is not finite: a pulse far off the grid, say."""
    if not (psi0.any() and all(np.isfinite(f).all() for f in (psi0, *more))):
        raise _pulse_error(args, grid, "is zero or not finite on the grid")


def cmd_propagate(args, out: OutputWriter):
    units = UNITS[args.units]
    # Named first: NaN fails the barrier mask silently, a non-finite courant spoils the pulse.
    _require_finite(out.inputs, "pulse_center", "pulse_k0", "barrier_start", "barrier_width",
                    "courant")
    try:
        width2 = args.pulse_width**2
    except OverflowError:
        width2 = math.inf
    if not (0 < args.pulse_width and 0 < width2 < math.inf):
        raise ValueError("initial field needs a positive pulse width with a finite, non-zero "
                         f"square, got pulse_width={args.pulse_width}")
    grid = Grid1D(args.x_min, args.dx, args.grid_n)
    if not abs(args.pulse_k0) < math.pi / grid.dx:  # above it the grid aliases the carrier
        raise ValueError("pulse carrier must be below the grid's Nyquist wavenumber pi/dx, "
                         f"got pulse_k0={args.pulse_k0}, dx={grid.dx}")
    x = grid.points()
    if not (x[1:] > x[:-1]).all():  # a dx below the doubles' spacing near x_min
        raise ValueError("grid points must be strictly increasing, got "
                         f"dx={grid.dx}, x_min={grid.x_min}, grid_n={grid.count}")
    snapshot_dir = out._target("snapshots") if args.snapshots else None  # refused before the run
    if args.snapshot_stride < 1:
        raise ValueError(f"stride must be at least 1, got {args.snapshot_stride}")
    # The record keeps only the fields the snapshot files are written from.
    keep_every = args.snapshot_stride if args.snapshots else 0
    # k_c in wave mode; U in Schrodinger mode, where a negative value is a well.
    inside = (x >= args.barrier_start) & (x <= args.barrier_start + args.barrier_width)
    barrier = np.where(inside, args.barrier_kc, 0.0)
    if args.mode == "wave":
        profile = propagate.MediumProfile(grid, barrier)
        pulse = lambda s: np.exp(-((s - args.pulse_center) ** 2) / (2.0 * args.pulse_width**2)) \
            * np.cos(args.pulse_k0 * (s - args.pulse_center))
        shift = units.c * args.courant * grid.dx / units.c  # one step back
        with np.errstate(all="ignore"):  # named below, not warned about
            psi0, prev = pulse(x), pulse(x + shift)
        _require_pulse(args, grid, psi0, prev)
        # evolve_wave's boundary limit on cells 1 and N-2, here on the initial fields.
        if max(abs(f[i]) for f in (psi0, prev) for i in (1, -2)) > 1e-12 * abs(psi0).max():
            raise _pulse_error(args, grid, "reaches the cells next to the grid edges")
        record = propagate.evolve_wave(
            WavePacket(grid, psi0), profile, args.courant, args.steps,
            initial_prev=prev, units=units, record_every=args.record_every,
            keep_every=keep_every,
        )
    else:
        with np.errstate(all="ignore"):  # named below, not warned about
            psi0 = np.exp(-((x - args.pulse_center) ** 2) / (4.0 * args.pulse_width**2)
                          + 1j * args.pulse_k0 * x)
            psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * grid.dx)
        _require_pulse(args, grid, psi0)
        record = propagate.evolve_schrodinger(
            WavePacket(grid, psi0), barrier, units.default_mass, args.dt, args.steps,
            units=units, record_every=args.record_every, keep_every=keep_every,
        )
    if args.snapshots:
        out.snapshots = snapshot_dir, record.snapshot_indices, propagate.snapshot_csvs(record)
    rows = np.column_stack([record.times, record.front_positions, record.peak_positions])
    out.write_csv("trajectory.csv", ["t", "front_x", "peak_x"], rows)


def cmd_tolman(args, out: OutputWriter):
    units = UNITS[args.units]
    # Checked before any arithmetic: NaN and inf would otherwise surface as a
    # JSON error or a classification, naming no input.
    _require_finite(out.inputs, "v_signal", "kappa", "threshold", "dx_over_dt")
    try:
        tolman.Boost(args.v_frame).gamma(units)  # every output is in this frame
    except ValueError as exc:  # gamma names |V|, not the option
        raise ValueError(f"{exc}, got v_frame={args.v_frame}") from None
    if args.dx_over_dt is not None:
        a = tolman.Event(0.0, 0.0)
        b = tolman.Event(1.0, args.dx_over_dt * 1.0)
        out.outputs["interval"] = tolman.classify_interval(a, b, units)
        out.outputs["ordering"] = tolman.ordering_in_frame(a, b, tolman.Boost(args.v_frame), units)
    if args.sweep_d:
        sweep = tolman.tradeoff_sweep(args.kappa, args.v_signal, args.v_frame,
                                      _parse_sweep(args.sweep_d), args.threshold, units)
        d, detectable = sweep["d"], sweep["detectable"]
        # Each row's detectable flag is written into the separator after its last number.
        flags = np.where(detectable, ",true\n", ",false\n").tolist()
        out.write_csv("tradeoff.csv", ["d", "advance", "amplitude", "detectable"],
                      np.column_stack([d, sweep["advance"], sweep["amplitude"]]),
                      [sep for flag in flags for sep in (",", ",", flag)])
        # The loop closes at every width or at none, as decided exactly in tradeoff_sweep.
        feasible = d[detectable] if sweep["closes"] else d[:0]
        for key in ("advance_per_width", "d_max_detectable", "max_advance"):
            out.outputs[key] = sweep[key]
        out.outputs["feasibility_window"] = {
            "empty": feasible.size == 0,
            "d_min": float(feasible.min()) if feasible.size else None,
            "d_max": float(feasible.max()) if feasible.size else None,
        }


# Parsed names that are not run inputs: the subcommand, its handler and the output
# handling, so runs written to two directories leave byte-identical summaries.
NOT_INPUTS = frozenset({"command", "func", "output_dir", "format", "force", "jobs"})


def common(p):
    p.add_argument("--units", default="natural", choices=UNITS)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--format", default="both", choices=["csv", "json", "both"])
    p.add_argument("--force", action="store_true",
                   help="allow overwriting existing output files")
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)  # no effect


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="evlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="barrier/threshold solutions and flux")
    common(p)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--sweep-e", default=None, help="absolute energies lo:hi:count")
    p.add_argument("--m0", type=float, default=None,
                   help="also report the relativistic wavenumber for rest mass m0")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("ttime", help="tunneling-time definitions")
    common(p)
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--e", type=float, default=None, help="single E/U0 fraction")
    p.add_argument("--sweep-e", default=None, help="E/U0 fractions lo:hi:count")
    p.set_defaults(func=cmd_ttime)

    p = sub.add_parser("spectrum", help="box-state spectral analysis")
    common(p)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--tail-akprime", type=float, default=None,
                   help="report tail probability at this a*k' value")
    p.add_argument("--lorentz", type=float, nargs=2, metavar=("OMEGA0", "GAMMA0"),
                   default=None)
    p.add_argument("--gauss", type=float, nargs=2, metavar=("OMEGA0", "SIGMA"),
                   default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ftir", help="frustrated-total-internal-reflection gap")
    common(p)
    p.add_argument("--n", type=float, default=1.5)
    p.add_argument("--theta-deg", type=float, default=45.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--gap-d", type=float, default=None)
    p.add_argument("--report-alpha", action="store_true")
    p.add_argument("--experiment-report", action="store_true",
                   help="microwave benchmark comparison (115 ps period)")
    p.add_argument("--kappa-d", type=float, default=5.0,
                   help="gap opacity in decay lengths for the experiment report")
    p.set_defaults(func=cmd_ftir)

    p = sub.add_parser("propagate", help="time-domain runs")
    common(p)
    p.add_argument("--mode", choices=["wave", "schrodinger"], default="wave")
    p.add_argument("--grid-n", type=int, default=2048)
    p.add_argument("--dx", type=float, default=0.05)
    p.add_argument("--x-min", type=float, default=-51.2)
    p.add_argument("--courant", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.001, help="schrodinger step")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--record-every", type=int, default=10)
    p.add_argument("--pulse-center", type=float, default=-20.0)
    p.add_argument("--pulse-width", type=float, default=2.0)
    p.add_argument("--pulse-k0", type=float, default=5.0)
    p.add_argument("--barrier-start", type=float, default=0.0)
    p.add_argument("--barrier-width", type=float, default=1.0)
    p.add_argument("--barrier-kc", type=float, default=0.0)
    p.add_argument("--snapshots", action="store_true")
    p.add_argument("--snapshot-stride", type=int, default=1)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("tolman", help="event ordering and the causal loop")
    common(p)
    p.add_argument("--v-signal", type=float, default=2.0)
    p.add_argument("--v-frame", type=float, default=0.6)
    p.add_argument("--dx-over-dt", type=float, default=None,
                   help="event-pair separation speed for ordering analysis")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--sweep-d", default=None, help="barrier widths lo:hi:count")
    p.set_defaults(func=cmd_tolman)
    # Read "-1e-05" and "-inf" as values, not options: no evlab option looks like a number.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


@functools.cache
def _subparsers() -> dict:
    """Each subcommand's name and its parser, from build_parser's one parser."""
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv), with the same namespace, output and exit, in one
    pass where argv starts with a subcommand: its own parser reads the rest, and the main
    parser reports what is left over, as parse_args does."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _subparsers().get(argv[0]) if argv else None
    if sub is None:
        return build_parser().parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = OutputWriter(args)
        # A handler may return a line for stdout, printed only once the run has succeeded.
        printed = args.func(args, out)
        path = out.finish()
        if printed:
            print(printed)
        print(f"summary: {path}")
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
