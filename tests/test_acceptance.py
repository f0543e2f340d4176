"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with its pinned tolerance.

These tests exercise the library end to end against independent oracles
(closed forms, hand-computed transforms, textbook limits); tolerances are
fixed here and are not to be loosened to make a failing criterion pass.
"""

import functools
import json
import math
import random
import sys

import numpy as np
import pytest

from evlab import ftir, propagate, spectral, stationary, tolman, ttime
from evlab.cli import run as cli_run
from evlab.numcore import Grid1D, WavePacket

from test_stationary import closed_form_t


def criterion(num, label):
    """Emit one pass/fail line per criterion on the real stdout so the gate
    summary survives pytest's capture."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL  {label}", file=sys.__stdout__)
                raise
            print(f"criterion {num:02d} PASS  {label}", file=sys.__stdout__)

        return inner

    return wrap


def smooth_bump(x, center, width, k0=0.0):
    s = (x - center) / width
    out = np.zeros_like(x)
    m = np.abs(s) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    if k0:
        out = out * np.cos(k0 * (x - center))
    return out


def paired_wave_runs():
    """One barrier and one vacuum run of the hyperbolic solver with
    identical compactly supported initial data at unit Courant."""
    dx, n = 0.05, 4096
    grid = Grid1D(-n * dx / 2.0, dx, n)
    x = grid.points()
    x0, w, k0 = -20.0, 6.0, 2.0
    psi0 = smooth_bump(x, x0, w, k0)
    prev = smooth_bump(x + dx, x0, w, k0)  # right mover, c dt = dx
    kc = np.zeros(n)
    kc[(x >= 0.0) & (x <= 1.5)] = 3.0
    kwargs = dict(courant=1.0, steps=760, initial_prev=prev, record_every=4)
    barrier = propagate.evolve_wave(
        WavePacket(grid, psi0), propagate.MediumProfile(grid, kc), **kwargs
    )
    vacuum = propagate.evolve_wave(
        WavePacket(grid, psi0), propagate.MediumProfile(grid, np.zeros(n)), **kwargs
    )
    return grid, (x0, w), barrier, vacuum


@criterion(1, "special-energy landmarks: E_s/U0, A(E_s) = 1, tau(E_s) nu(E_s) = 1")
def test_criterion_01_special_energy():
    U0 = 1.0
    Es = ttime.esposito_special_energy(U0)
    assert abs(Es / U0 - 0.9752953) < 1e-6
    assert abs(ttime.esposito_factor(Es, U0) - 1.0) < 1e-9
    tau_nu = ttime.esposito_time(Es, U0) / ttime.wave_period(Es)
    assert abs(tau_nu - 1.0) < 1e-9
    # Both renderings of the closed form coincide at E_s.
    assert abs(
        ttime.esposito_time_factor_form(Es, U0) / ttime.esposito_time(Es, U0) - 1.0
    ) < 1e-9


@criterion(2, "pathologies: divergence near the top, E >= U0 raises")
def test_criterion_02_pathologies():
    U0 = 1.0
    Es = ttime.esposito_special_energy(U0)
    assert ttime.esposito_time_factor_form(0.999999 * U0, U0) > \
        1e3 * ttime.esposito_time_factor_form(Es, U0)
    with pytest.raises(ttime.PathologicalRegimeError):
        ttime.esposito_time(U0, U0)
    with pytest.raises(ttime.PathologicalRegimeError):
        ttime.esposito_time(1.5 * U0, U0)


@criterion(3, "microwave benchmark comparison report is present and consistent")
def test_criterion_03_experiment_report(tmp_path, monkeypatch):
    monkeypatch.delenv("EVLAB_OUTPUT_DIR", raising=False)
    code = cli_run(["ftir", "--experiment-report",
                    "--output-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "ftir_summary.json").read_text())
    rep = rep["outputs"]["experiment_report"]
    assert rep["input_period_ps"] == 115.0
    assert rep["measured_tau_ps"] == 130.0
    assert rep["nu0_hz"] == pytest.approx(1.0 / 115e-12, rel=1e-12)
    # Internal consistency: the two renderings of the computed delay agree;
    # the measured value is quoted, never asserted against.
    assert rep["tau_g_times_nu0"] == pytest.approx(
        rep["tau_g_ps"] / rep["input_period_ps"], rel=1e-9
    )
    assert rep["kappa_x_d"] == 5.0 and rep["gap_d_m"] > 0


@criterion(4, "box-state moments: delta_x, delta_k with analytic tail, Parseval")
def test_criterion_04_box_moments():
    a = 1.0
    m = spectral.box_moments(a)
    assert abs(m["delta_x"] - 0.1807560 * a) < 1e-7
    delta_k_quad = math.sqrt(spectral.box_k2_spectral(a))  # mean k = 0
    assert abs(delta_k_quad - math.pi / a) < 1e-6
    assert abs(spectral.box_parseval(a) - 1.0) < 1e-7


@criterion(5, "tail coefficient: quadrature constant, printed value surfaced")
def test_criterion_05_tail_coefficient():
    a = 1.0
    k_prime = 200.0 * math.pi / a
    tail = spectral.tail_probability(k_prime, a)
    coeff = (a * k_prime) ** 3 * tail["exact"]
    oracle = spectral.ORACLE_TAIL_COEFFICIENT
    assert abs(coeff - oracle) / oracle < 0.05
    assert tail["asymptotic"] == pytest.approx(
        spectral.PRINTED_TAIL_COEFFICIENT / (a * k_prime) ** 3, rel=1e-12
    )
    assert spectral.TAIL_COEFFICIENT_WARNING  # discrepancy is surfaced


@criterion(6, "Lorentzian line: normalization and FWHM")
def test_criterion_06_lorentzian():
    line = spectral.LineShape(3.0, 0.4)
    assert abs(spectral.lorentzian_norm(line) - 1.0) < 1e-6
    peak = spectral.lorentzian_density(3.0, line)
    for sign in (-1.0, 1.0):
        half = spectral.lorentzian_density(3.0 + sign * 0.2, line)
        assert abs(half - peak / 2.0) < 1e-6 * peak


@criterion(7, "stationary barrier: unitarity, flux matching, closed-form T")
def test_criterion_07_stationary_barrier():
    rng = random.Random(12345)
    for _ in range(1000):
        U0 = rng.uniform(0.2, 8.0)
        E = rng.uniform(0.02, 0.98) * U0
        d = rng.uniform(0.05, 4.0)
        m = rng.uniform(0.2, 5.0)
        sol = stationary.barrier_solution(E, stationary.BarrierSpec(U0, d, m))
        assert abs(sol.transmission + sol.reflection - 1.0) < 1e-12
    sol = stationary.barrier_solution(1.0, stationary.BarrierSpec(2.0, 1.0))
    j_interior = stationary.probability_flux(sol, 0.5)
    j_out = stationary.probability_flux(sol, 2.0)
    assert abs(j_interior - j_out) < 1e-10
    step = stationary.threshold_solution(0.5, 2.0)
    for x in (-1.0, 0.5, 3.0):
        assert abs(stationary.probability_flux(step, x)) < 1e-14
    # kappa d = 1 at the symmetric point E = U0/2 (kappa = sqrt(2) here).
    d = 1.0 / math.sqrt(2.0)
    sol = stationary.barrier_solution(1.0, stationary.BarrierSpec(2.0, d))
    assert abs(sol.transmission - 0.419974) < 1e-6
    assert sol.transmission == pytest.approx(
        abs(closed_form_t(1.0, 2.0, d)) ** 2, rel=1e-12
    )


@criterion(8, "Hartman saturation of the phase time")
def test_criterion_08_hartman():
    t10 = ttime.phase_time(1.0, stationary.BarrierSpec(2.0, 10.0))
    t14 = ttime.phase_time(1.0, stationary.BarrierSpec(2.0, 14.0))
    assert abs(t10 - t14) / t10 < 1e-3


@criterion(9, "optical gap: alpha, unit-opacity transmission, unitarity")
def test_criterion_09_gap():
    theta = math.pi / 4.0
    decay = ftir.gap_decay(1.5, theta, 1.0)
    assert abs(decay["alpha"] - 0.3535534) < 1e-7
    d = 1.0 / decay["kappa_x"]  # kappa_x d = 1
    gt = ftir.gap_transfer(1.0, ftir.GapSpec(1.5, theta, d))
    # Oracle: slab between identical half-spaces with kappa/k1 = 1/3.
    q = (1.0 + (1.0 / 3.0) ** 2) / (2.0 / 3.0)
    oracle = 1.0 / (1.0 + q * q * math.sinh(1.0) ** 2)
    assert abs(gt.transmission - 0.206766) < 1e-4
    assert gt.transmission == pytest.approx(oracle, rel=1e-12)
    for omega in (0.3, 1.0, 4.0):
        g = ftir.gap_transfer(omega, ftir.GapSpec(1.5, theta, d))
        assert abs(abs(g.t) ** 2 + abs(g.r) ** 2 - 1.0) < 1e-12


@criterion(10, "reshaping: gap transmission reshapes, vacuum translation does not")
def test_criterion_10_reshaping():
    # Narrow-band complex pulse through a kappa d = 2 gap.
    grid = Grid1D(0.0, 0.01, 4096)
    tau = grid.points()
    t0, omega0, sigma = 20.48, 20.0, 0.25
    env = np.exp(-((tau - t0) ** 2) / (2.0 * sigma**2))
    pulse = WavePacket(grid, env * np.exp(-1j * omega0 * (tau - t0)))
    alpha = math.sqrt(0.125)
    spec = ftir.GapSpec(1.5, math.pi / 4.0, 2.0 / (alpha * omega0))
    out = ftir.transmit_pulse(pulse, spec)
    assert ftir.reshaping_distance(pulse, out) > 1e-3
    # Vacuum hyperbolic run at unit Courant: pure translation, no reshaping.
    _, _, _, vacuum = paired_wave_runs()
    dist = ftir.reshaping_distance(vacuum.snapshots[0], vacuum.snapshots[-1])
    assert dist < 1e-12


@criterion(11, "front causality with a superluminal transmitted peak, one paired run")
def test_criterion_11_front_vs_peak():
    grid, (x0, w), barrier, vacuum = paired_wave_runs()
    x = grid.points()
    # (a) Strict light cone: nothing beyond support + c t, anywhere, ever.
    worst = 0.0
    for t, wp in zip(barrier.times, barrier.snapshots):
        outside = np.abs(wp.values[x > x0 + w + t + 1e-9])
        if outside.size:
            worst = max(worst, float(outside.max()))
    assert worst < 1e-12
    # (b) Measured front speed never exceeds c.
    m = barrier.times > barrier.times[-1] / 2.0
    front_slope = np.polyfit(barrier.times[m], barrier.front_positions[m], 1)[0]
    assert front_slope <= 1.0 + 1e-6
    # (c) The transmitted peak is advanced: its detector arrival implies an
    # average peak-trajectory slope across the barrier region above c, while
    # the identical vacuum run stays below.
    detector = 9.5
    i_det = int(np.argmin(np.abs(x - detector)))

    def peak_arrival(record):
        amps = [abs(wp.values[i_det]) for wp in record.snapshots]
        return float(record.times[int(np.argmax(amps))])

    t_barrier = peak_arrival(barrier)
    t_vacuum = peak_arrival(vacuum)
    effective_barrier = (detector - x0) / t_barrier
    effective_vacuum = (detector - x0) / t_vacuum
    assert effective_barrier > 1.0
    assert effective_vacuum <= 1.0 + 1e-6
    assert t_barrier < t_vacuum


@criterion(12, "free-particle dispersion: spreading law and norm conservation")
def test_criterion_12_schrodinger():
    grid = Grid1D(-51.2, 0.1, 1024)
    x = grid.points()
    sigma0 = 1.0
    psi0 = (2.0 * math.pi * sigma0**2) ** -0.25 * np.exp(-(x**2) / (4.0 * sigma0**2))
    wp0 = WavePacket(grid, psi0.astype(complex))
    rec = propagate.evolve_schrodinger(wp0, np.zeros(1024), 1.0, dt=0.05,
                                       steps=60, record_every=60)
    t = rec.times[-1]
    expected = sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)
    dens = rec.snapshots[-1].abs2()
    width = math.sqrt(float(np.sum(dens * x**2) / np.sum(dens)))
    assert abs(width - expected) < 1e-6
    # Norm drift over 1e4 steps.
    long = propagate.evolve_schrodinger(wp0, np.zeros(1024), 1.0, dt=0.001,
                                        steps=10000, record_every=10000,
                                        norm_tol=1e-10)
    assert abs(long.snapshots[-1].energy() - 1.0) < 1e-10


@criterion(13, "event ordering, causal loop, attenuation tradeoff")
def test_criterion_13_tolman():
    rng = random.Random(99)
    for _ in range(1000):
        v_sig = rng.uniform(1.01, 10.0)
        V = rng.uniform(-0.99, 0.99)
        a = tolman.Event(0.0, 0.0)
        b = tolman.Event(1.0, v_sig)
        order = tolman.ordering_in_frame(a, b, tolman.Boost(V))
        if V * v_sig > 1.0 + 1e-12:
            assert order == "b_first"
        elif V * v_sig < 1.0 - 1e-12:
            assert order == "a_first"
    # Exact boundary V v = c^2.
    assert tolman.ordering_in_frame(
        tolman.Event(0.0, 0.0), tolman.Event(1.0, 2.0), tolman.Boost(0.5)
    ) == "simultaneous"
    # Light-speed legs can never close the loop.
    leg_c = tolman.SignalLeg(1.0, tolman.Event(0.0, 0.0), barrier_width=1.0)
    for V in np.linspace(-0.99, 0.99, 41):
        result = tolman.round_trip(leg_c, 0.0, leg_c, float(V))
        assert not result["causal_loop"]
    # Two kappa d = 5 crossings attenuate to exp(-10).
    leg = tolman.SignalLeg(5.0, tolman.Event(0.0, 0.0),
                           barrier_kappa=5.0, barrier_width=1.0)
    result = tolman.round_trip(leg, 0.0, leg, 0.9)
    assert abs(result["amplitude"] - 4.5400e-5) < 1e-9
    # A perfect detector (threshold 1) leaves no feasible barrier width.
    cols = tolman.tradeoff_sweep(1.0, 5.0, 0.9, np.linspace(0.1, 5.0, 25), 1.0)
    assert not np.any(cols["detectable"] & (cols["advance"] > 0))


@criterion(14, "deterministic command-line output")
def test_criterion_14_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("EVLAB_OUTPUT_DIR", raising=False)
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        code = cli_run([
            "ttime", "--u0", "2.0", "--d", "1.0", "--sweep-e", "0.1:0.9:25",
            "--output-dir", str(d), "--jobs", "4",
        ])
        assert code == 0
    for name in ("ttime.csv", "ttime_summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
