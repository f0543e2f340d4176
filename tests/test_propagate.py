"""Tests for the time-domain solvers and front/peak measurement."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from evlab.numcore import Grid1D, WavePacket
from evlab.propagate import (
    BoundaryContactError,
    MediumProfile,
    NormDriftError,
    dump_snapshots_csv,
    evolve_schrodinger,
    evolve_wave,
    _front,
    _measure,
    _peak,
)


def smooth_bump(x, center, width, k0=0.0):
    """Infinitely smooth pulse with exact compact support [center +- width]."""
    s = (x - center) / width
    out = np.zeros_like(x)
    m = np.abs(s) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - s[m] ** 2))
    if k0:
        out = out * np.cos(k0 * (x - center))
    return out


# A wave run takes its t = -dt level as float64 or as complex128 with a zero
# imaginary part; both must step to the same bits.
PREV_DTYPES = ["float64", "complex128"]


def make_run(grid_n=1024, dx=0.05, center=-10.0, width=4.0, k0=2.0, kc_val=0.0,
             barrier=(0.0, 1.5), courant=1.0, steps=200, record_every=4, keep_every=1):
    grid = Grid1D(-grid_n * dx / 2.0, dx, grid_n)
    x = grid.points()
    kc = np.zeros(grid_n)
    if kc_val > 0:
        kc[(x >= barrier[0]) & (x <= barrier[1])] = kc_val
    profile = MediumProfile(grid, kc)
    psi0 = smooth_bump(x, center, width, k0)
    prev = smooth_bump(x + courant * dx, center, width, k0)  # right mover
    record = evolve_wave(
        WavePacket(grid, psi0), profile, courant, steps,
        initial_prev=prev, record_every=record_every, keep_every=keep_every,
    )
    return grid, record


class TestMeasurements:
    def test_front_position_interpolates(self):
        g = Grid1D(0.0, 1.0, 5)
        amp = np.array([1.0, 1.0, 0.4, 0.0, 0.0])
        # Crossing of 0.2 between x = 2 (0.4) and x = 3 (0.0): halfway.
        assert _front(g, amp, 0.2) == pytest.approx(2.5)

    def test_front_position_requires_signal(self):
        g = Grid1D(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            _front(g, np.zeros(5), 0.5)

    def test_peak_position_quadratic_refinement(self):
        g = Grid1D(-5.0, 0.1, 101)
        x = g.points()
        vals = np.exp(-((x - 0.33) ** 2))
        assert _peak(g, vals**2) == pytest.approx(0.33, abs=1e-3)

    def test_peak_speed_recovers_linear_motion(self):
        grid, record = make_run()
        # A free right mover at unit Courant translates at exactly c: the least-squares
        # slope of the peak over the last 10 records.
        speed = np.polyfit(record.times[-10:], record.peak_positions[-10:], 1)[0]
        assert speed == pytest.approx(1.0, abs=1e-10)


class TestWaveSolver:
    def test_unit_courant_vacuum_translation_is_exact(self):
        grid, record = make_run(steps=200, record_every=200)
        x = grid.points()
        expected = smooth_bump(x - 200 * grid.dx, -10.0, 4.0, 2.0)
        final = record.snapshots[-1].values.real
        assert np.max(np.abs(final - expected)) < 1e-12

    def test_strict_light_cone_containment(self):
        grid, record = make_run(kc_val=3.0, steps=400)
        x = grid.points()
        worst = 0.0
        for t, wp in zip(record.times, record.snapshots):
            outside = np.abs(wp.values[x > -10.0 + 4.0 + t + 1e-9])
            if outside.size:
                worst = max(worst, float(outside.max()))
        assert worst == 0.0

    def test_front_speed_never_exceeds_c(self):
        grid, record = make_run(kc_val=3.0, steps=400)
        t, f = record.times, record.front_positions
        m = t > t[-1] / 2.0
        slope = np.polyfit(t[m], f[m], 1)[0]
        assert slope <= 1.0 + 1e-6

    def test_energy_conserved_with_barrier(self):
        grid = Grid1D(-25.6, 0.05, 1024)
        x = grid.points()
        kc = np.zeros(1024)
        kc[(x >= 0.0) & (x <= 1.5)] = 3.0
        profile = MediumProfile(grid, kc)
        psi0 = smooth_bump(x, -10.0, 4.0, 2.0)
        prev = smooth_bump(x + 0.05, -10.0, 4.0, 2.0)
        dt = 0.05
        record = evolve_wave(WavePacket(grid, psi0), profile, 1.0, 300,
                             initial_prev=prev, record_every=300)
        # Rebuild adjacent levels at the end by one extra step for the
        # staggered energy; easier: compare energies computed from the two
        # recorded endpoints of a fresh two-step run.
        e0 = discrete_energy(prev, psi0, dt, profile)
        # Advance manually two steps with the same stencil to re-measure.
        rec2 = evolve_wave(WavePacket(grid, psi0), profile, 1.0, 250,
                           initial_prev=prev, record_every=1)
        a = rec2.snapshots[-2].values
        b = rec2.snapshots[-1].values
        e1 = discrete_energy(a, b, dt, profile)
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_below_unit_courant_respects_numerical_cone(self):
        # At courant < 1 the numerical domain of dependence spreads at
        # dx/dt = c / courant, so roundoff-scale precursors can outrun c and
        # the strict front guarantee is a unit-Courant property. The hard
        # bound that must hold at any courant is the stencil cone itself.
        grid, record = make_run(courant=0.5, steps=400, record_every=1)
        x = grid.points()
        for step, wp in enumerate(record.snapshots):
            cone = -10.0 + 4.0 + step * grid.dx  # one cell per step
            beyond = np.abs(wp.values[x > cone + 1e-9])
            if beyond.size:
                assert float(beyond.max()) == 0.0
        # The bulk front (at a modest threshold) still travels at about c.
        amp = 1.0
        fronts = []
        for wp in record.snapshots:
            fronts.append(_front(grid, np.abs(wp.values), 1e-3 * amp))
        t = record.times
        m = t > t[-1] / 2.0
        slope = np.polyfit(t[m], np.asarray(fronts)[m], 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_boundary_contact_raises(self):
        with pytest.raises(BoundaryContactError):
            make_run(grid_n=512, steps=5000)

    @pytest.mark.parametrize("courant, cell", [(1.0, -2), (0.8, 1)])
    @pytest.mark.parametrize("prev_dtype", PREV_DTYPES)
    def test_boundary_contact_names_first_step_over_edge_limit(self, courant, cell, prev_dtype):
        # The pulse runs right, through the barrier. At unit Courant it first
        # exceeds the limit at cell N-2; at 0.8 a left-running part reaches cell 1 first.
        grid = Grid1D(-6.4, 0.05, 256)
        x, d = grid.points(), courant * grid.dx
        profile = MediumProfile(grid, slab(x, 0.0, 0.5))
        psi0, prev = smooth_bump(x, -2.0, 2.0, 2.0), smooth_bump(x + d, -2.0, 2.0, 2.0)
        limit = 1e-12 * np.abs(psi0).max()
        fields = reference_leapfrog(psi0, prev, profile, courant, 400)
        first = next(n for n, f in enumerate(fields) if max(abs(f[1]), abs(f[-2])) > limit)
        assert first > 1
        assert abs(fields[first][cell]) > limit >= abs(fields[first][-1 - cell])
        run = lambda steps: evolve_wave(WavePacket(grid, psi0), profile, courant, steps,
                                        initial_prev=prev.astype(prev_dtype),
                                        record_every=steps, keep_every=0)
        run(first - 1)
        with pytest.raises(BoundaryContactError, match=f"at step {first};"):
            run(400)

    def test_argument_validation(self):
        grid = Grid1D(-5.0, 0.1, 128)
        profile = MediumProfile(grid, np.zeros(128))
        psi0 = smooth_bump(grid.points(), 0.0, 1.0)
        wp = WavePacket(grid, psi0)
        for courant in (1.2, 0.0, math.nan):
            with pytest.raises(ValueError, match="courant"):
                evolve_wave(wp, profile, courant, 10, initial_prev=psi0)
        with pytest.raises(ValueError, match="steps"):
            evolve_wave(wp, profile, 1.0, 0, initial_prev=psi0)
        with pytest.raises(TypeError, match="initial_prev"):
            evolve_wave(wp, profile, 1.0, 10)  # the t = -dt level is required

    def test_overflowing_cutoff_named_without_warning(self):
        # k_c = 1e200 on a grid with c dt = 0.05: (c dt k_c)^2 is not a double.
        grid = Grid1D(-5.0, 0.05, 256)
        kc = np.where(grid.points() > 2.0, 1e200, np.where(grid.points() > 1.0, 3.0, 0.0))
        psi0 = smooth_bump(grid.points(), 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"k_c=1e\+200"):
                evolve_wave(WavePacket(grid, psi0), MediumProfile(grid, kc), 1.0, 10,
                            initial_prev=psi0)

    def test_profile_validation(self):
        grid = Grid1D(0.0, 0.1, 16)
        with pytest.raises(ValueError):
            MediumProfile(grid, np.full(16, -1.0))
        with pytest.raises(ValueError):
            MediumProfile(grid, np.zeros(8))


def reference_leapfrog(psi0, prev, profile, courant, steps):
    """Every field of the out-of-place complex update, the reference the
    in-place solver reproduces bit for bit (natural units)."""
    dt = courant * profile.grid.dx
    kc2dt2 = dt**2 * profile.cutoff_kc**2
    mass_weight = 1.0 + 0.5 * kc2dt2
    c2 = courant**2

    def lap(f):
        out = np.zeros_like(f)
        out[1:-1] = f[2:] - 2.0 * f[1:-1] + f[:-2]
        return out

    prev, curr = np.asarray(prev, dtype=complex), np.asarray(psi0, dtype=complex)
    fields = [curr]
    for _ in range(steps):
        prev, curr = curr, (2.0 * curr + c2 * lap(curr)) / mass_weight - prev
        fields.append(curr)
    return fields


def discrete_energy(prev, curr, dt, profile):
    """Staggered discrete energy of the leapfrog scheme, conserved to
    roundoff for the lossless cutoff wave equation (natural units)."""
    dx = profile.grid.dx
    vel = (curr - prev) / dt
    grad_c = np.diff(curr) / dx
    grad_p = np.diff(prev) / dx
    kc2 = profile.cutoff_kc**2
    # The (dt^2/2) kc^2 weight on the velocity term is the mass-matrix
    # correction of the time-averaged cutoff coupling; with it the sum is
    # conserved to roundoff.
    weight = 1.0 + 0.5 * dt**2 * kc2
    e = 0.5 * np.sum(weight * np.abs(vel) ** 2) * dx
    e += 0.5 * np.sum((grad_c * np.conj(grad_p)).real) * dx
    e += 0.5 * np.sum(kc2 * (curr * np.conj(prev)).real) * dx
    return float(e)


def slab(x, lo, hi, kc=3.0):
    return np.where((x >= lo) & (x <= hi), kc, 0.0)


# Cutoff profiles on barrier_data's grid, x in [-25.6, 25.55]. A step
# applies 1/w only to the cells from the first to the last where inv_w != 1.
PROFILES = {
    "barrier": lambda x: slab(x, 0.0, 1.5),
    "vacuum": np.zeros_like,
    "cell_0": lambda x: slab(x, -30.0, -24.0),
    "cell_n_minus_1": lambda x: slab(x, 24.0, 30.0),
    "two_barriers": lambda x: slab(x, 0.0, 1.5) + slab(x, 4.0, 5.0, 2.0),
    "underflowing_kc": lambda x: slab(x, 0.0, 1.5, 1e-200),  # inv_w rounds to 1
}


def barrier_data(courant, kc=PROFILES["barrier"]):
    grid = Grid1D(-25.6, 0.05, 1024)
    x = grid.points()
    profile = MediumProfile(grid, kc(x))
    d = courant * grid.dx
    return grid, profile, smooth_bump(x, -10.0, 4.0, 2.0), smooth_bump(x + d, -10.0, 4.0, 2.0)


class TestInPlaceLeapfrog:
    @pytest.mark.parametrize("kc", PROFILES.values(), ids=PROFILES)
    @pytest.mark.parametrize("courant", [1.0, 0.8])
    @pytest.mark.parametrize("prev_dtype", PREV_DTYPES)
    def test_every_field_matches_out_of_place_update_bitwise(self, courant, kc, prev_dtype):
        grid, profile, psi0, prev = barrier_data(courant, kc)
        record = evolve_wave(WavePacket(grid, psi0), profile, courant, 250,
                             initial_prev=prev.astype(prev_dtype), record_every=1)
        expected = reference_leapfrog(psi0, prev, profile, courant, 250)
        assert len(record.snapshots) == len(expected)
        for wp, ref in zip(record.snapshots, expected):
            assert wp.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["initial", "initial_prev"])
    @pytest.mark.parametrize("imag", [1.0, -0.0])
    def test_complex_input_refused_unless_its_imaginary_part_is_zero(self, name, imag):
        grid, profile, psi0, prev = barrier_data(1.0)
        g = smooth_bump(grid.points(), -8.0, 3.0, 1.3)  # signed: -0.0 * g has zeros of both signs
        data = {"initial": psi0, "initial_prev": prev}
        data[name] = data[name].astype(complex)
        data[name].imag = imag * g
        run = lambda f, f_prev: evolve_wave(WavePacket(grid, f), profile, 1.0, 60,
                                            initial_prev=f_prev, record_every=1)
        if imag:
            with pytest.raises(ValueError, match="^initial and initial_prev must be real"):
                run(data["initial"], data["initial_prev"])
            return
        # A complex array whose imaginary part is all zero steps as its float copy.
        got, expected = run(data["initial"], data["initial_prev"]), run(psi0, prev)
        for attr in ("times", "front_positions", "peak_positions"):
            assert getattr(got, attr).tobytes() == getattr(expected, attr).tobytes()
        for a, b in zip(got.snapshots, expected.snapshots, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("prev_dtype", PREV_DTYPES)
    def test_caller_arrays_are_not_written(self, prev_dtype):
        grid, profile, psi0, prev = barrier_data(1.0)
        prev = np.array(prev, dtype=prev_dtype)  # writable, so the run must copy it
        kept_prev = prev.copy()
        evolve_wave(WavePacket(grid, psi0), profile, 1.0, 20, initial_prev=prev)
        assert prev.tobytes() == kept_prev.tobytes()

    @pytest.mark.parametrize("prev_dtype", PREV_DTYPES)
    def test_snapshots_share_no_memory(self, prev_dtype):
        grid, profile, psi0, prev = barrier_data(1.0)
        record = evolve_wave(WavePacket(grid, psi0), profile, 1.0, 12,
                             initial_prev=prev.astype(prev_dtype))
        arrays = [wp.values for wp in record.snapshots]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestSchrodingerSolver:
    def test_free_gaussian_spreading_law(self):
        grid = Grid1D(-51.2, 0.1, 1024)
        x = grid.points()
        sigma0 = 1.0
        psi0 = (2.0 * math.pi * sigma0**2) ** -0.25 * np.exp(
            -(x**2) / (4.0 * sigma0**2)
        )
        record = evolve_schrodinger(
            WavePacket(grid, psi0.astype(complex)), np.zeros(1024), 1.0,
            dt=0.05, steps=60, record_every=60,
        )
        t = record.times[-1]
        expected = sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)
        dens = record.snapshots[-1].abs2()
        w = np.sqrt(np.sum(dens * x**2) / np.sum(dens))
        assert w == pytest.approx(expected, abs=1e-6)

    def test_norm_conserved(self):
        grid = Grid1D(-25.6, 0.1, 512)
        x = grid.points()
        psi0 = np.exp(-(x**2) / 4.0 + 2j * x)
        psi0 /= math.sqrt(np.sum(np.abs(psi0) ** 2) * grid.dx)
        record = evolve_schrodinger(WavePacket(grid, psi0), np.zeros(512), 1.0,
                                    dt=0.01, steps=500, record_every=100)
        for wp in record.snapshots:
            assert wp.energy() == pytest.approx(1.0, abs=1e-12)

    def test_every_field_matches_out_of_place_step_bitwise(self):
        record = schrodinger_run(steps=30, record_every=1)
        grid, dt = record.snapshots[0].grid, 0.01
        x = grid.points()
        U = np.where((x >= 0.0) & (x <= 1.0), 3.0, 0.0)
        k = 2.0 * math.pi * np.fft.fftfreq(grid.count, grid.dx)
        exp_V_half = np.exp(-0.5j * U * dt / 1.0)
        exp_K = np.exp(-0.5j * 1.0 * k**2 * dt / 1.0)
        psi = record.snapshots[0].values
        for wp in record.snapshots[1:]:
            psi = exp_V_half * scipy.fft.ifft(exp_K * scipy.fft.fft(exp_V_half * psi))
            assert wp.values.tobytes() == psi.tobytes()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-17,
                        reason="long double is double here, so it is no finer oracle")
    def test_free_run_is_nearer_exact_solution_than_step_loop(self):
        # With U = 0 the scheme's exact solution is ifft(exp(-i n dt k^2 / 2) fft(psi0)):
        # here its phase and both transforms are in long double. The free run stays in
        # k-space; the loop takes every step through fft and ifft, as a barrier run does.
        steps, every, dt = 300, 10, 0.01
        record = schrodinger_run(steps, every, u0=0.0)
        grid, psi0 = record.snapshots[0].grid, record.snapshots[0].values
        k = 2.0 * math.pi * np.fft.fftfreq(grid.count, grid.dx)
        exp_V_half = np.exp(-0.5j * np.zeros(grid.count) * dt / 1.0)
        exp_K = np.exp(-0.5j * 1.0 * k**2 * dt / 1.0)
        phi0, k2 = scipy.fft.fft(psi0.astype(np.clongdouble)), k.astype(np.longdouble) ** 2
        epsilon = 1e-10 * np.abs(psi0).max()

        def errors(values, exact):
            amp, ref = np.abs(values), np.abs(exact)
            return (np.abs(values - exact).max(),
                    abs(_peak(grid, amp**2) - _peak(grid, ref**2)),
                    abs(_front(grid, amp, epsilon) - _front(grid, ref, epsilon)))

        psi, free, loop = psi0, np.zeros(3), np.zeros(3)
        for n in range(steps + 1):
            if n % every == 0:
                phase = n * k2 * np.longdouble(dt) / 2
                exact = scipy.fft.ifft((np.cos(phase) - 1j * np.sin(phase)) * phi0)
                free = np.maximum(free, errors(record.snapshots[n // every].values, exact))
                loop = np.maximum(loop, errors(psi, exact))
            psi = exp_V_half * scipy.fft.ifft(exp_K * scipy.fft.fft(exp_V_half * psi))
        assert len(record.snapshots) == steps // every + 1
        # Field, peak and front errors; the field's was 2.8e-15 (x86-64, 80-bit long double).
        assert np.all(free <= loop), (free, loop)
        assert free[0] < 5e-15

    def test_free_run_transforms_once_per_record(self, monkeypatch):
        calls = {}
        for name in ("fft", "ifft"):
            def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _transform(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        # 9 records (steps 0, 7, ..., 49 and 50): a free run transforms once forward and
        # once back per record after the first; a barrier run both ways every step.
        for u0, transforms in [(0.0, {"fft": 1, "ifft": 8}), (3.0, {"fft": 50, "ifft": 50})]:
            calls.update(fft=0, ifft=0)
            record = schrodinger_run(steps=50, record_every=7, u0=u0)
            assert len(record.times) == 9
            assert calls == transforms

    def test_validation(self):
        grid = Grid1D(-5.0, 0.1, 64)
        wp = WavePacket(grid, np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            evolve_schrodinger(wp, np.zeros(64), -1.0, 0.01, 10)
        with pytest.raises(ValueError):
            evolve_schrodinger(wp, np.zeros(32), 1.0, 0.01, 10)


def schrodinger_run(steps=50, record_every=1, norm_tol=1e-8, keep_every=1, u0=3.0):
    grid = Grid1D(-25.6, 0.1, 512)
    x = grid.points()
    psi0 = np.exp(-((x + 5.0) ** 2) / 4.0 + 2j * x)
    psi0 /= math.sqrt(np.sum(np.abs(psi0) ** 2) * grid.dx)
    U = np.where((x >= 0.0) & (x <= 1.0), u0, 0.0)
    return evolve_schrodinger(WavePacket(grid, psi0), U, 1.0, dt=0.01, steps=steps,
                              record_every=record_every, norm_tol=norm_tol,
                              keep_every=keep_every)


RUNS = {
    "wave": lambda steps, every, keep=1: make_run(kc_val=3.0, steps=steps, record_every=every,
                                                  keep_every=keep)[1],
    "schrodinger": lambda steps, every, keep=1: schrodinger_run(steps, every, keep_every=keep),
    "free": lambda steps, every, keep=1: schrodinger_run(steps, every, keep_every=keep, u0=0.0),
}


# Amplitudes of 1e-160 whose squares are one subnormal, 1e-320, at cells 2 and 4.
SUBNORMAL_TIE = np.array([0.0, 0.5e-160, 1e-160, 0.7e-160, 1.000001e-160, 0.3e-160, 0.0])


def nonzero_front(grid, amp, epsilon):
    """_front through np.nonzero and numpy scalars: the reference the one
    reversed scan on Python floats reproduces bit for bit."""
    above = np.nonzero(amp >= epsilon)[0]
    if len(above) == 0:
        raise ValueError("no sample reaches the threshold")
    i = above[-1]
    x = grid.x_min + grid.dx * i
    if i == grid.count - 1:
        return float(x)
    a0, a1 = amp[i], amp[i + 1]
    frac = (a0 - epsilon) / (a0 - a1) if a0 > a1 else 0.0
    return float(x + frac * grid.dx)


def two_pass_peak(grid, dens):
    """_peak as two passes, np.any(dens > 0) then np.argmax(dens): the
    reference the one-pass _peak reproduces bit for bit."""
    if not np.any(dens > 0):
        raise ValueError("zero packet has no peak")
    i = int(np.argmax(dens))
    x = grid.x_min + grid.dx * i
    if i == 0 or i == grid.count - 1:
        return float(x)
    y0, y1, y2 = dens[i - 1], dens[i], dens[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x)
    return float(x + 0.5 * (y0 - y2) / denom * grid.dx)


class TestRecorder:
    @pytest.mark.parametrize("solver", sorted(RUNS))
    @pytest.mark.parametrize("every", [3, 7])
    def test_sparse_record_is_dense_record_subsampled(self, solver, every):
        steps = 50  # a multiple of neither 3 nor 7: the last step is recorded too
        dense, sparse = RUNS[solver](steps, 1), RUNS[solver](steps, every)
        kept = [*range(0, steps + 1, every), steps]
        np.testing.assert_array_equal(sparse.times, dense.times[kept])
        np.testing.assert_array_equal(sparse.front_positions, dense.front_positions[kept])
        np.testing.assert_array_equal(sparse.peak_positions, dense.peak_positions[kept])
        assert len(sparse.snapshots) == len(kept)
        for wp, n in zip(sparse.snapshots, kept):
            np.testing.assert_array_equal(wp.values, dense.snapshots[n].values)

    @pytest.mark.parametrize("solver", sorted(RUNS))
    def test_front_and_peak_are_measured_on_each_snapshot(self, solver):
        record = RUNS[solver](60, 5)
        epsilon = 1e-10 * np.abs(record.snapshots[0].values).max()
        for wp, front, peak in zip(record.snapshots, record.front_positions,
                                   record.peak_positions):
            try:
                expected = _front(wp.grid, np.abs(wp.values), epsilon)
            except ValueError:
                expected = math.nan
            np.testing.assert_array_equal(front, expected)
            assert peak == _peak(wp.grid, wp.abs2())

    @pytest.mark.parametrize("values", [
        np.zeros(7),
        np.array([0.0, 1e-4, 3e-4, 2e-4, 0.0, 0.0, 0.0]),  # below the threshold
        np.array([0.0, 0.5, 1.0, np.nan, 0.8, 0.2, 0.0]),
        np.array([0.0, 0.0, np.nan, 0.0, -0.0, 0.0, 0.0]),  # NaN, nothing positive
        SUBNORMAL_TIE,
        np.array([0.0, 0.2, 0.9j, 1.0 + 0.5j, 0.1, 0.0, 0.0]),
        np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e-4, 0.5]),  # the front is the last cell
        # A flat top: a0 == a1 cannot leave frac 0 here, as a0 >= epsilon > a1.
        np.array([0.0, 0.4, 0.4, 0.4, 0.4, 0.0, 0.0]),
        np.array([0.0, 0.2, 0.6, 0.4, np.nan, 0.0, 0.0]),  # a1 is NaN: frac is 0
        np.array([0.0, 0.2, 0.6, 1e-3, 0.0, 0.0, 0.0]),  # a0 is epsilon exactly
    ], ids=["zero", "below_threshold", "nan", "nan_only", "subnormal_tie", "complex",
            "front_at_last_cell", "plateau", "nan_after_front", "at_epsilon"])
    def test_measure_matches_front_and_peak_bitwise(self, values):
        grid, epsilon = Grid1D(-0.3, 0.1, 7), 1e-3
        amp = np.abs(values)
        try:
            front = nonzero_front(grid, amp, epsilon)
        except ValueError:
            with pytest.raises(ValueError, match="^no sample reaches the threshold$"):
                _front(grid, amp, epsilon)
            front = math.nan
        else:
            assert np.float64(_front(grid, amp, epsilon)).tobytes() == np.float64(front).tobytes()
        try:
            peak = two_pass_peak(grid, amp**2)
        except ValueError:
            for measure in (lambda: _peak(grid, amp**2),
                            lambda: _measure(grid, values, epsilon, False, False)):
                with pytest.raises(ValueError, match="^zero packet has no peak$"):
                    measure()
            return
        _, measured_front, measured_peak, _ = _measure(grid, values, epsilon, False, False)
        assert np.float64(measured_front).tobytes() == np.float64(front).tobytes()
        for got in (measured_peak, _peak(grid, amp**2)):
            assert np.float64(got).tobytes() == np.float64(peak).tobytes()

    def test_first_of_subnormal_maxima_is_the_peak(self):
        grid, amp = Grid1D(-0.3, 0.1, 7), SUBNORMAL_TIE
        dens = amp**2
        assert dens[2] == dens[4] and amp[2] < amp[4]
        assert _peak(grid, dens) == pytest.approx(grid.x_min + 2 * grid.dx, abs=0.5 * grid.dx)

    def test_norm_drift_names_first_recorded_step_over_tolerance(self):
        record = schrodinger_run(steps=40, record_every=4)
        norms = [math.sqrt(wp.energy()) for wp in record.snapshots]
        drifts = [abs(n - norms[0]) / norms[0] for n in norms]
        assert max(drifts) > 0.0  # roundoff
        tol = 0.5 * max(drifts)
        first = next(i for i, d in enumerate(drifts) if d > tol)
        with pytest.raises(NormDriftError, match=rf"at step {4 * first}$"):
            schrodinger_run(steps=40, record_every=4, norm_tol=tol)
        # Steps whose fields are not kept are checked all the same.
        with pytest.raises(NormDriftError, match=rf"at step {4 * first}$"):
            schrodinger_run(steps=40, record_every=4, norm_tol=tol, keep_every=0)

    @pytest.mark.parametrize("solver", sorted(RUNS))
    @pytest.mark.parametrize("keep", [0, 1, 3])
    def test_kept_fields_are_the_full_records_fields(self, solver, keep):
        full, record = RUNS[solver](50, 3), RUNS[solver](50, 3, keep)  # 18 records
        for name in ("times", "front_positions", "peak_positions"):
            assert getattr(record, name).tobytes() == getattr(full, name).tobytes()
        expected = list(range(0, 18, keep)) if keep else []
        assert record.snapshot_indices.tolist() == expected
        assert len(record.snapshots) == len(expected)
        for wp, i in zip(record.snapshots, expected):
            assert wp.values.tobytes() == full.snapshots[i].values.tobytes()

    @pytest.mark.parametrize("solver", sorted(RUNS))
    def test_keep_every_below_zero_rejected(self, solver):
        with pytest.raises(ValueError, match="keep_every must be at least 0, got -1"):
            RUNS[solver](10, 1, -1)

    def test_record_without_fields_holds_grid_sized_memory(self):
        # 401 kept complex fields of 2048 cells are 13 MB; none kept, the run
        # holds a few grid-sized buffers. tracemalloc sees numpy's allocations.
        grid = Grid1D(-51.2, 0.05, 2048)
        x = grid.points()
        initial = WavePacket(grid, smooth_bump(x, -10.0, 4.0, 2.0))
        prev = smooth_bump(x + grid.dx, -10.0, 4.0, 2.0)
        profile = MediumProfile(grid, np.where((x >= 0.0) & (x <= 1.5), 3.0, 0.0))

        def traced_peak(keep):
            tracemalloc.start()
            try:
                record = evolve_wave(initial, profile, 1.0, 400, initial_prev=prev,
                                     record_every=1, keep_every=keep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(record.times) == 401 and len(record.snapshots) == (401 if keep else 0)
            return peak

        assert traced_peak(0) < 1e6
        assert traced_peak(1) > 1e7

    @pytest.mark.parametrize("kwargs, named", [
        ({"mass": math.nan}, "mass=nan"), ({"dt": math.nan}, "dt=nan"),
        ({"U": math.nan}, "potential"), ({"psi0": math.nan}, "initial field"),
    ])
    def test_nan_inputs_rejected(self, kwargs, named):
        grid = Grid1D(-5.0, 0.1, 64)
        psi0 = np.full(64, kwargs.get("psi0", 1.0), dtype=complex)
        with pytest.raises(ValueError, match=named):
            evolve_schrodinger(WavePacket(grid, psi0), np.full(64, kwargs.get("U", 0.0)),
                               kwargs.get("mass", 1.0), kwargs.get("dt", 0.01), 10)

    @pytest.mark.parametrize("every", [0, -1])
    def test_record_every_below_one_rejected(self, every):
        with pytest.raises(ValueError, match="record_every"):
            make_run(steps=10, record_every=every)
        with pytest.raises(ValueError, match="record_every"):
            schrodinger_run(steps=10, record_every=every)

    def test_zero_initial_field_rejected(self):
        grid = Grid1D(-5.0, 0.1, 64)
        wp = WavePacket(grid, np.zeros(64))
        with pytest.raises(ValueError, match="initial field"):
            evolve_wave(wp, MediumProfile(grid, np.zeros(64)), 1.0, 10,
                        initial_prev=np.zeros(64))
        with pytest.raises(ValueError, match="initial field"):
            evolve_schrodinger(wp, np.zeros(64), 1.0, 0.01, 10)


class TestGridChecks:
    def test_packet_on_another_grid_rejected(self):
        packet_grid, profile_grid = Grid1D(-10.0, 0.05, 400), Grid1D(-10.0, 0.1, 400)
        psi0 = smooth_bump(packet_grid.points(), -5.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="initial packet"):
            evolve_wave(WavePacket(packet_grid, psi0), MediumProfile(profile_grid, np.zeros(400)),
                        1.0, 10, initial_prev=psi0)

    def test_start_of_wrong_length_named(self):
        grid = Grid1D(-10.0, 0.05, 400)
        psi0 = smooth_bump(grid.points(), -5.0, 1.0, 2.0)
        profile = MediumProfile(grid, np.zeros(400))
        with pytest.raises(ValueError, match=r"initial_prev must have shape \(400,\), got \(399"):
            evolve_wave(WavePacket(grid, psi0), profile, 1.0, 10, initial_prev=psi0[:-1])


class TestSnapshotDump:
    def test_values_parse_back_exactly(self, tmp_path):
        grid, record = make_run(kc_val=3.0, steps=30, record_every=10)
        paths = dump_snapshots_csv(record, tmp_path)
        assert [p.name for p in paths] == [f"snapshot_{i:05d}.csv" for i in range(4)]
        for path, wp in zip(paths, record.snapshots):
            lines = path.read_text().split("\n")
            assert lines[0] == "x,re,im,abs2" and lines[-1] == ""
            table = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
            np.testing.assert_array_equal(table[:, 0], grid.points())
            np.testing.assert_array_equal(table[:, 1], wp.values.real)
            np.testing.assert_array_equal(table[:, 2], wp.values.imag)
            np.testing.assert_array_equal(table[:, 3], wp.abs2())

    @pytest.mark.parametrize("keep_every", [1, 2, 3])
    def test_files_are_named_by_record_index(self, tmp_path, keep_every):
        # A record keeping every k-th field writes each kept field, under its
        # record index, with the bytes the full record writes under that name.
        _, full = make_run(kc_val=3.0, steps=30, record_every=2)
        _, sparse = make_run(kc_val=3.0, steps=30, record_every=2, keep_every=keep_every)
        full_paths = dump_snapshots_csv(full, tmp_path / "full")
        sparse_paths = dump_snapshots_csv(sparse, tmp_path / "sparse")
        expected = [f"snapshot_{i:05d}.csv" for i in range(0, 16, keep_every)]
        assert [p.name for p in sparse_paths] == expected
        assert sorted(p.name for p in (tmp_path / "sparse").iterdir()) == expected
        by_name = {p.name: p.read_bytes() for p in full_paths}
        for path in sparse_paths:
            assert path.read_bytes() == by_name[path.name]

    def test_record_keeping_none_writes_no_file(self, tmp_path):
        _, record = make_run(steps=10, record_every=5, keep_every=0)
        assert dump_snapshots_csv(record, tmp_path) == []
        assert not list(tmp_path.iterdir())

    def test_csv_roundtrip(self, tmp_path):
        grid, record = make_run(steps=20, record_every=10, keep_every=2)
        paths = dump_snapshots_csv(record, tmp_path)
        assert len(paths) == 2
        with open(paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "re", "im", "abs2"]
        assert len(rows) == grid.count + 1
        x0 = float(rows[1][0])
        assert x0 == pytest.approx(grid.x_min)
