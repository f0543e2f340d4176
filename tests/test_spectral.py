"""Tests for the wave-packet spectral analysis module."""

import math

import numpy as np
import pytest

from evlab.numcore import integrate
from evlab.spectral import (
    ORACLE_TAIL_COEFFICIENT,
    PRINTED_TAIL_COEFFICIENT,
    TAIL_COEFFICIENT_WARNING,
    BoxState,
    LineShape,
    box_k2_spectral,
    box_moments,
    box_parseval,
    box_spectrum,
    gaussian_band_report,
    lorentzian_density,
    lorentzian_norm,
    released_energy_spread,
    tail_probability,
)


def fourier_quadrature(k, a, tol=1e-12):
    """Direct Fourier transform of the box mode, as an independent oracle."""
    box = BoxState(a)
    re = integrate(lambda x: box.psi(x) * np.cos(k * x), -a / 2.0, a / 2.0, tol)
    return re / math.sqrt(2.0 * math.pi)


class TestBoxState:
    def test_normalized(self):
        box = BoxState(1.7)
        norm = integrate(lambda x: box.psi(x) ** 2, -0.85, 0.85, 1e-12)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_outside(self):
        box = BoxState(1.0)
        assert box.psi(0.51) == 0.0 and box.psi(-2.0) == 0.0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            BoxState(0.0)


class TestBoxSpectrum:
    def test_matches_direct_fourier_transform(self):
        a = 1.3
        for k in (0.0, 1.0, 2.9, 10.0, -4.4):
            assert box_spectrum(k, a) == pytest.approx(
                fourier_quadrature(k, a), abs=1e-10
            )

    def test_value_at_origin(self):
        # F(0) = 2 sqrt(pi a) / pi^2.
        assert box_spectrum(0.0, 1.0) == pytest.approx(
            2.0 * math.sqrt(math.pi) / math.pi**2
        )

    def test_removable_singularity_bridged(self):
        a = 1.0
        k_a = math.pi / a
        # The limit value at k = pi/a is sqrt(pi a) / (2 pi) * ... evaluated
        # through the series; compare with the direct transform.
        assert box_spectrum(k_a, a) == pytest.approx(
            fourier_quadrature(k_a, a), abs=1e-9
        )
        # Continuity across the guard band edge.
        inside = box_spectrum(k_a * (1.0 + 1e-8), a)
        outside = box_spectrum(k_a * (1.0 + 1e-5), a)
        assert inside == pytest.approx(outside, rel=1e-3)

    def test_even_in_k(self):
        assert box_spectrum(3.3, 1.2) == box_spectrum(-3.3, 1.2)

    def test_vectorized(self):
        ks = np.array([0.0, 1.0, math.pi])
        vals = box_spectrum(ks, 1.0)
        assert vals.shape == (3,)


class TestParsevalAndMoments:
    def test_parseval(self):
        assert box_parseval(1.0) == pytest.approx(1.0, abs=1e-7)
        assert box_parseval(2.5) == pytest.approx(1.0, abs=1e-7)

    def test_k2_spectral_equals_ground_mode_k2(self):
        for a in (1.0, 1.7):
            assert box_k2_spectral(a) == pytest.approx(
                (math.pi / a) ** 2, rel=1e-6
            )

    def test_moments(self):
        a = 1.0
        m = box_moments(a)
        assert m["delta_x"] == pytest.approx(
            math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2)), abs=1e-12
        )
        assert m["mean_k"] == 0.0
        assert m["delta_k"] == pytest.approx(math.pi / a)

    def test_uncertainty_product_exceeds_half(self):
        m = box_moments(1.0)
        assert m["delta_x"] * m["delta_k"] > 0.5


class TestTailProbability:
    def test_exact_converges_to_oracle_coefficient(self):
        a = 1.0
        for ak in (100.0 * math.pi, 200.0 * math.pi):
            tail = tail_probability(ak / a, a)
            coeff = tail["exact"] * ak**3
            assert coeff == pytest.approx(ORACLE_TAIL_COEFFICIENT, rel=0.05)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ak", [60.0, 300.0, 600.0, 656.7, 700.0, 240.0 * math.pi,
                                    856.3, 900.0])
    def test_matches_fourier_integral_oracle(self, a, ak):
        # QUADPACK's Fourier-integral routine on [k', inf) of
        # |F|^2 = 2 pi a (1 + cos a k) / (pi^2 - a^2 k^2)^2; its own error is ~1e-7.
        from scipy.integrate import quad

        k_prime = ak / a
        g = lambda k: 2.0 * math.pi * a / (math.pi**2 - (a * k) ** 2) ** 2
        smooth, _ = quad(g, k_prime, math.inf, epsabs=0.0, epsrel=1e-12)
        wave, _ = quad(g, k_prime, math.inf, weight="cos", wvar=a, epsabs=1e-10 * smooth)
        oracle = 2.0 * (smooth + wave)
        assert tail_probability(k_prime, a)["exact"] == pytest.approx(oracle, rel=1e-6)

    def test_printed_asymptotic_is_double(self):
        tail = tail_probability(200.0 * math.pi, 1.0)
        assert tail["asymptotic"] == pytest.approx(2.0 * tail["exact"], rel=0.05)
        assert PRINTED_TAIL_COEFFICIENT == pytest.approx(2.0 * ORACLE_TAIL_COEFFICIENT)

    def test_warning_text_names_both_coefficients(self):
        assert "(8/3)" in TAIL_COEFFICIENT_WARNING
        assert "(4/3)" in TAIL_COEFFICIENT_WARNING

    def test_requires_asymptotic_regime(self):
        with pytest.raises(ValueError):
            tail_probability(1.0, 1.0)

    @pytest.mark.parametrize("k_prime, a", [(700.0, 0.0), (700.0, -1.0), (700.0, math.nan),
                                            (math.nan, 1.0)])
    def test_bad_inputs_named(self, k_prime, a):
        with pytest.raises(ValueError, match="positive, got a=|k_prime=nan must exceed"):
            tail_probability(k_prime, a)


class TestLorentzian:
    def test_normalization(self):
        line = LineShape(5.0, 0.7)
        assert lorentzian_norm(line) == pytest.approx(1.0, abs=1e-9)

    def test_fwhm_is_gamma0(self):
        line = LineShape(5.0, 0.7)
        peak = lorentzian_density(5.0, line)
        half_left = lorentzian_density(5.0 - 0.35, line)
        half_right = lorentzian_density(5.0 + 0.35, line)
        assert half_left == pytest.approx(peak / 2.0, rel=1e-12)
        assert half_right == pytest.approx(peak / 2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LineShape(-1.0, 0.5)
        with pytest.raises(ValueError):
            LineShape(1.0, 0.0)


class TestBandReports:
    def test_released_energy_spread(self):
        rep = released_energy_spread(2.0)
        assert rep["omega_a"] == pytest.approx(math.pi / 2.0)
        assert rep["mean_E"] == pytest.approx(rep["delta_E"])

    def test_gaussian_band_report(self):
        rep = gaussian_band_report(10.0, 0.5)
        # Infinite support, finite deviation: the central distinction.
        assert rep["band"] == "infinite"
        assert rep["delta_omega"] == pytest.approx(0.5, rel=1e-8)
        assert rep["mean_E"] == pytest.approx(10.0, rel=1e-10)

    @pytest.mark.parametrize("omega0, sigma", [
        (1.0, 1e-9), (1e6, 1e-3), (1.0, 1e-4), (3.0, 1e-6),
    ])
    def test_gaussian_band_deviation_is_sigma(self, omega0, sigma):
        # The measured deviation must not depend on how sigma compares with 1.
        rep = gaussian_band_report(omega0, sigma)
        assert rep["delta_omega"] == pytest.approx(sigma, rel=1e-10)
        assert rep["mean_E"] == pytest.approx(omega0, rel=1e-12)

    def test_gaussian_band_validation(self):
        with pytest.raises(ValueError):
            gaussian_band_report(0.0, 1.0)
