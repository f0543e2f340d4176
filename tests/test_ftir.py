"""Tests for the frustrated-total-internal-reflection gap model."""

import math

import numpy as np
import pytest

from evlab.numcore import Grid1D, WavePacket
from evlab.ftir import (
    GapSpec,
    NotEvanescentError,
    gap_decay,
    gap_group_delay,
    gap_transfer,
    goos_hanchen_estimate,
    interior_field,
    reshaping_distance,
    transmit_pulse,
)

from test_acceptance import paired_wave_runs

N45 = GapSpec(1.5, math.pi / 4.0, 1.0)


def glass_alpha():
    return math.sqrt(1.5**2 * 0.5 - 1.0)


def analytic_transmission(kd, ratio):
    """Slab between identical half-spaces: T = 1 / (1 + q^2 sinh^2(kd))
    with q = (k1^2 + kappa^2) / (2 k1 kappa) expressed via ratio = kappa/k1."""
    q = (1.0 + ratio**2) / (2.0 * ratio)
    return 1.0 / (1.0 + q * q * math.sinh(kd) ** 2)


def gaussian_pulse(omega0, sigma_t, n=4096, dtau=0.01):
    grid = Grid1D(0.0, dtau, n)
    tau = grid.points()
    t0 = 0.5 * n * dtau
    env = np.exp(-((tau - t0) ** 2) / (2.0 * sigma_t**2))
    return WavePacket(grid, env * np.exp(-1j * omega0 * (tau - t0)))


class TestGapSpec:
    def test_subcritical_raises(self):
        with pytest.raises(NotEvanescentError):
            GapSpec(1.5, math.radians(30.0), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GapSpec(0.9, math.pi / 4.0, 1.0)
        with pytest.raises(ValueError):
            GapSpec(1.5, math.pi / 4.0, -0.1)

    def test_zero_gap_allowed(self):
        spec = GapSpec(1.5, math.pi / 4.0, 0.0)
        gt = gap_transfer(1.0, spec)
        assert gt.t == 1.0 and gt.r == 0.0


class TestGapDecay:
    def test_alpha_glass_45_degrees(self):
        decay = gap_decay(1.5, math.pi / 4.0, 1.0)
        assert decay["alpha"] == pytest.approx(math.sqrt(0.125), abs=1e-12)
        assert decay["alpha"] == pytest.approx(0.3535534, abs=1e-7)

    @pytest.mark.parametrize("theta_deg", [0.0, 90.0, 100.0, -30.0, math.nan])
    def test_angle_outside_first_quadrant_rejected(self, theta_deg):
        # At 100 degrees n sin(theta) = 1.477 would pass the evanescence test.
        with pytest.raises(ValueError, match="incidence angle"):
            gap_decay(1.5, math.radians(theta_deg), 1.0)

    def test_kappa_scales_linearly_with_omega(self):
        d1 = gap_decay(1.5, math.pi / 4.0, 1.0)
        d2 = gap_decay(1.5, math.pi / 4.0, 3.0)
        assert d2["kappa_x"] == pytest.approx(3.0 * d1["kappa_x"])

    def test_goos_hanchen_is_decay_length(self):
        decay = gap_decay(1.5, math.pi / 4.0, 2.0)
        assert goos_hanchen_estimate(decay["kappa_x"]) == pytest.approx(
            1.0 / decay["kappa_x"]
        )


class TestGapTransfer:
    def test_unitarity(self):
        for omega in (0.5, 1.0, 7.0):
            gt = gap_transfer(omega, N45)
            assert abs(gt.t) ** 2 + abs(gt.r) ** 2 == pytest.approx(1.0, abs=1e-13)

    def test_transmission_matches_analytic(self):
        # kappa_x / k1 = alpha / (n cos theta) = 1/3 for glass at 45 degrees.
        gt = gap_transfer(1.0, N45)
        ratio = gt.kappa_x / gt.k_normal
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
        kd = gt.kappa_x * N45.gap_d
        assert gt.transmission == pytest.approx(analytic_transmission(kd, ratio),
                                                rel=1e-12)

    def test_unit_opacity_transmission(self):
        # Gap sized so kappa_x * d = 1.
        alpha = glass_alpha()
        spec = GapSpec(1.5, math.pi / 4.0, 1.0 / alpha)
        gt = gap_transfer(1.0, spec)
        assert gt.kappa_x * spec.gap_d == pytest.approx(1.0)
        assert gt.transmission == pytest.approx(
            analytic_transmission(1.0, 1.0 / 3.0), abs=1e-12
        )

    def test_field_continuity_at_faces(self):
        gt = gap_transfer(2.0, N45)
        d = N45.gap_d
        entry = gt.F1 + gt.F2
        assert entry == pytest.approx(1.0 + gt.r, abs=1e-12)
        exit_ = gt.F1 * math.exp(-gt.kappa_x * d) + gt.F2 * math.exp(gt.kappa_x * d)
        assert exit_ == pytest.approx(gt.t, abs=1e-12)


class TestGroupDelay:
    @pytest.mark.parametrize("n", [1.45, 1.5, 1.7])
    @pytest.mark.parametrize("theta", [0.8, 1.0, 1.3])
    def test_matches_closed_form(self, n, theta):
        # arg t = arctan(rho tanh(kappa d)) with rho = (k^2 - kappa^2) / (2 k kappa)
        # constant in omega and kappa d proportional to it, so
        # tau_g = (kappa d / omega) rho / (rho^2 sinh^2 kappa d + cosh^2 kappa d).
        alpha = math.sqrt((n * math.sin(theta)) ** 2 - 1.0)
        k_over_omega = n * math.cos(theta)
        rho = (k_over_omega**2 - alpha**2) / (2.0 * k_over_omega * alpha)
        for kd in (0.01, 1.0, 5.0, 8.0):
            for omega in (0.5, 1.0, 4.0):
                spec = GapSpec(n, theta, kd / (alpha * omega))
                oracle = (kd / omega) * rho / (
                    rho**2 * math.sinh(kd) ** 2 + math.cosh(kd) ** 2
                )
                assert gap_group_delay(spec, omega) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kd", [15.0, 30.0, 60.0, 300.0])
    def test_opaque_gap_matches_closed_form(self, kd):
        # Past kappa d ~ 15 the delay is below eps times the omega-derivative of the
        # wavenumbers; k1/kappa_x does not depend on omega, so only the kappa d term is
        # formed, and the delay keeps its digits as it falls off like e^{-2 kappa d}.
        n, theta, omega = 1.7, 1.3, 4.0
        alpha = math.sqrt((n * math.sin(theta)) ** 2 - 1.0)
        k_over_omega = n * math.cos(theta)
        rho = (k_over_omega**2 - alpha**2) / (2.0 * k_over_omega * alpha)
        oracle = (kd / omega) * rho / (rho**2 * math.sinh(kd) ** 2 + math.cosh(kd) ** 2)
        spec = GapSpec(n, theta, kd / (alpha * omega))
        assert gap_group_delay(spec, omega) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_thin_gap_delay_at_vanishing_frequency(self):
        # kappa_x d underflows to 0 at omega = 5e-324; the delay's thin-gap limit
        # (alpha d / c) rho does not.
        alpha = glass_alpha()
        rho = (1.5**2 * 0.5 - alpha**2) / (2.0 * math.sqrt(1.5**2 * 0.5) * alpha)
        for omega in (1e-300, 5e-324):
            assert gap_group_delay(N45, omega) == pytest.approx(alpha * rho, rel=1e-12, abs=0.0)

    def test_delay_decays_with_opacity(self):
        # The model is scale invariant (both wavenumbers are proportional to
        # omega), so the transmission phase saturates and the group delay
        # falls off exponentially as the gap opens.
        alpha = glass_alpha()
        delays = [
            abs(gap_group_delay(GapSpec(1.5, math.pi / 4.0, kd / alpha), 1.0))
            for kd in (1.0, 3.0, 5.0)
        ]
        assert delays[0] > delays[1] > delays[2]
        assert delays[2] < 1e-2 * delays[0]


class TestPulseTransmission:
    def test_energy_drops_and_band_preserved(self):
        pulse = gaussian_pulse(omega0=20.0, sigma_t=0.5)
        alpha = glass_alpha()
        spec = GapSpec(1.5, math.pi / 4.0, 1.0 / (alpha * 20.0))  # kappa d = 1 at omega0
        out = transmit_pulse(pulse, spec)
        T0 = gap_transfer(20.0, spec).transmission
        ratio = out.energy() / pulse.energy()
        # A narrow-band pulse transmits roughly like its carrier.
        assert ratio == pytest.approx(T0, rel=0.05)
        assert ratio < 1.0

    def test_zero_gap_is_identity(self):
        pulse = gaussian_pulse(20.0, 0.5)
        out = transmit_pulse(pulse, GapSpec(1.5, math.pi / 4.0, 0.0))
        assert np.allclose(out.values, pulse.values)

    def test_real_signal_rejected(self):
        # A real carrier has mirror content at negative frequencies, outside
        # the modeled band.
        pulse = gaussian_pulse(20.0, 0.5)
        real_pulse = WavePacket(pulse.grid, pulse.values.real.astype(complex))
        with pytest.raises(ValueError):
            transmit_pulse(real_pulse, N45)

    def test_interior_field_interpolates_faces(self):
        pulse = gaussian_pulse(20.0, 0.5)
        alpha = glass_alpha()
        spec = GapSpec(1.5, math.pi / 4.0, 2.0 / (alpha * 20.0))
        at_exit = interior_field(pulse, spec.gap_d, spec)
        out = transmit_pulse(pulse, spec)
        assert np.allclose(at_exit.values, out.values, atol=1e-10)
        mid = interior_field(pulse, spec.gap_d / 2.0, spec)
        assert out.energy() < mid.energy() < pulse.energy() * 2.0

    def test_interior_field_at_exit_of_opaque_gap(self):
        # The top FFT bin sees kappa_x d = 1333: exp(kappa_x d) would overflow
        # and F2 exp(kappa_x x) would turn into inf * 0 = NaN.
        pulse = gaussian_pulse(20.0, 0.5, dtau=0.05)
        spec = GapSpec(1.5, math.pi / 4.0, 60.0)
        at_exit = interior_field(pulse, spec.gap_d, spec)
        out = transmit_pulse(pulse, spec)
        assert np.all(np.isfinite(at_exit.values))
        scale = np.max(np.abs(out.values))
        assert scale > 0.0
        assert np.allclose(at_exit.values, out.values, rtol=0.0, atol=1e-12 * scale)

    def test_interior_field_position_validated(self):
        pulse = gaussian_pulse(20.0, 0.5)
        with pytest.raises(ValueError):
            interior_field(pulse, 2.0, N45)


def phase_ramp_pair(delay, n=2048, sigma=40.0, scale=0.4):
    """A Gaussian of sigma samples and its copy delayed by an FFT phase ramp and scaled."""
    grid = Grid1D(0.0, 1.0, n)
    pulse = np.exp(-0.5 * ((grid.points() - n / 2) / sigma) ** 2)
    ramp = np.exp(-2j * math.pi * np.fft.fftfreq(n) * delay)
    delayed = scale * np.fft.ifft(np.fft.fft(pulse) * ramp)
    return WavePacket(grid, pulse), WavePacket(grid, delayed)


# reshaping_distance of each pair as the bounded Brent search (xatol = 1e-12) read it
# before Newton's method replaced it; the vacuum pair's, the leapfrog's roundoff residue,
# as this reshaping_distance reads it on the leapfrog's fields.
RESHAPED = {
    "gap_kd0.3": 0.002099506813030021,
    "gap_kd0.7": 0.002309369542267368,
    "gap_kd2.0": 0.0026178051559305584,
    "vacuum": 3.10239144940364e-14,
    "barrier": 0.112474536828318,
    "two_peak": 0.2023137451831719,
}


def reshaped_pair(name):
    """(input, output) envelopes: a pulse through a gap of opacity kappa d, the first and
    last snapshots of criterion 10's vacuum and barrier wave runs, or two two-peak
    envelopes whose peaks differ in height, width and spacing."""
    if name.startswith("gap_kd"):
        pulse = gaussian_pulse(20.0, 0.25)
        spec = GapSpec(1.5, math.pi / 4.0, float(name[6:]) / (glass_alpha() * 20.0))
        return pulse, transmit_pulse(pulse, spec)
    if name in ("vacuum", "barrier"):
        _, _, barrier, vacuum = paired_wave_runs()
        run = vacuum if name == "vacuum" else barrier
        return run.snapshots[0], run.snapshots[-1]
    grid = Grid1D(0.0, 1.0, 2048)
    t = grid.points()
    peak = lambda center, width: np.exp(-0.5 * ((t - center) / width) ** 2)
    return (WavePacket(grid, peak(700.0, 30.0) + 0.6 * peak(900.0, 45.0)),
            WavePacket(grid, 0.8 * peak(1010.3, 35.0) + 0.5 * peak(1190.0, 40.0)))


def scan_minimum(input_env, output_env, points=4001):
    """Least distance of the unit-normalized magnitudes over an even scan of lag0 +- 2
    samples around the cross-correlation peak lag0: no minimiser involved."""
    a = np.abs(input_env.values) / np.linalg.norm(np.abs(input_env.values))
    b = np.abs(output_env.values) / np.linalg.norm(np.abs(output_env.values))
    n = len(a)
    B = np.fft.fft(b)
    lag0 = int(np.argmax(np.fft.ifft(np.fft.fft(a) * np.conj(B)).real))
    lag0 -= n if lag0 > n // 2 else 0
    ramp = -2j * math.pi * np.fft.fftfreq(n)
    lags = lag0 + np.linspace(-2.0, 2.0, points)
    return min(np.linalg.norm(a - np.abs(np.fft.ifft(B * np.exp(np.outer(chunk, ramp)))),
                              axis=1).min()
               for chunk in np.array_split(lags, 16))


class TestReshapingDistance:
    def test_identical_envelopes(self):
        pulse = gaussian_pulse(20.0, 0.5)
        assert reshaping_distance(pulse, pulse) < 1e-14

    def test_integer_delay_and_scaling_is_not_reshaping(self):
        pulse = gaussian_pulse(20.0, 0.5)
        rolled = WavePacket(pulse.grid, 0.37 * np.roll(pulse.values, 250))
        assert reshaping_distance(pulse, rolled) < 1e-12

    # Delays up to and beyond n/4 = 512 samples; the largest reading over these cases
    # was 7.3e-16.
    @pytest.mark.parametrize("delay", [0.0, 60.0, 146.0, -94.2, 246.9, 602.46, 512.0,
                                       -511.7, 511.7])
    @pytest.mark.parametrize("swap", [False, True])
    def test_fractional_delay_is_not_reshaping(self, delay, swap):
        pair = phase_ramp_pair(delay)
        assert reshaping_distance(*(pair[::-1] if swap else pair)) < 2e-15

    @pytest.mark.parametrize("name", sorted(RESHAPED))
    def test_reshaped_pair_meets_dense_scan(self, name):
        pair = reshaped_pair(name)
        dist = reshaping_distance(*pair)
        assert dist <= scan_minimum(*pair) + 1e-15
        assert dist == pytest.approx(RESHAPED[name], rel=1e-12, abs=0.0)

    def test_widened_envelope_is_reshaped(self):
        a = gaussian_pulse(20.0, 0.5)
        b = gaussian_pulse(20.0, 0.8)
        assert reshaping_distance(a, b) > 0.1

    def test_gap_transmission_reshapes(self):
        pulse = gaussian_pulse(omega0=20.0, sigma_t=0.25)
        alpha = glass_alpha()
        spec = GapSpec(1.5, math.pi / 4.0, 2.0 / (alpha * 20.0))  # kappa d = 2
        out = transmit_pulse(pulse, spec)
        assert reshaping_distance(pulse, out) > 1e-3

    def test_mismatched_grids_rejected(self):
        a = gaussian_pulse(20.0, 0.5, n=4096)
        b = gaussian_pulse(20.0, 0.5, n=2048)
        with pytest.raises(ValueError):
            reshaping_distance(a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["input_env", "output_env"])
    def test_non_finite_sample_named(self, bad, which):
        pulse = gaussian_pulse(20.0, 0.5, n=512)
        values = pulse.values.copy()
        values[9] = bad
        envs = {"input_env": pulse, "output_env": pulse, which: WavePacket(pulse.grid, values)}
        with pytest.raises(ValueError, match=f"{which} must be finite, got sample .*{bad}"):
            reshaping_distance(envs["input_env"], envs["output_env"])

    @pytest.mark.parametrize("scale", [1e-300, 1e300, 1e308])
    def test_delay_at_extreme_scales_is_not_reshaping(self, scale):
        # The norm of these magnitudes over- or underflows unless they are rescaled.
        pulse = gaussian_pulse(20.0, 0.3, n=512)
        copy = WavePacket(pulse.grid, scale * np.roll(pulse.values, 7))
        assert reshaping_distance(pulse, copy) < 1e-15
        assert reshaping_distance(copy, pulse) < 1e-15

    def test_zero_envelope_rejected(self):
        pulse = gaussian_pulse(20.0, 0.5, n=512)
        with pytest.raises(ValueError, match="zero-energy envelope: output_env"):
            reshaping_distance(pulse, WavePacket(pulse.grid, np.zeros(512)))
