"""Tests for the wave-packet spectral analysis module."""

import math
import re

import numpy as np
import pytest

from evlab import spectral, ttime
from evlab.numcore import integrate
from evlab.spectral import (
    ORACLE_TAIL_COEFFICIENT,
    PRINTED_TAIL_COEFFICIENT,
    SERIES_CUT,
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
    _tail_moment,
    tail_probability,
)
from evlab.stationary import BarrierSpec
from evlab.ttime import dwell_time_quadrature


# Box widths over 300 decades: every box result is computed in u = a k or
# s = x/a, so each must meet its closed form to the same relative tolerance.
BOX_WIDTHS = (1e-150, 1e-100, 1e-3, 1.0, 1.7, 1e3, 1e5, 1e6, 1e100, 1e150)


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
        # The limit value at k = pi/a, compared with the direct transform.
        assert box_spectrum(k_a, a) == pytest.approx(
            fourier_quadrature(k_a, a), abs=1e-9
        )
        # Continuity next to the singularity.
        inside = box_spectrum(k_a * (1.0 + 1e-8), a)
        outside = box_spectrum(k_a * (1.0 + 1e-5), a)
        assert inside == pytest.approx(outside, rel=1e-3)

    @pytest.mark.parametrize("u, exact", [
        # F(u; 1) = 2 sqrt(pi) cos(u/2) / (pi^2 - u^2) at the double u, to 25
        # digits (50-digit arithmetic); F(pi; 1) = 1 / (2 sqrt(pi)).
        (math.pi, 0.2820947917738781489723096),
        (math.pi - 1.6e-7, 0.2820947989573629122227290),
        (math.pi + 1.6e-7, 0.2820947845903931497715490),
        (math.pi + 2e-7, 0.2820947827945218531350318),
        (math.pi + 1e-6, 0.2820947468770930030007150),
    ])
    def test_roundoff_through_the_removable_singularity(self, u, exact):
        assert box_spectrum(u, 1.0) == pytest.approx(exact, rel=1e-15, abs=0)
        assert box_spectrum(-u, 1.0) == box_spectrum(u, 1.0)

    def test_even_in_k(self):
        assert box_spectrum(3.3, 1.2) == box_spectrum(-3.3, 1.2)

    def test_vectorized(self):
        ks = np.array([0.0, 1.0, math.pi])
        vals = box_spectrum(ks, 1.0)
        assert vals.shape == (3,)


class TestParsevalAndMoments:
    def test_parseval(self):
        widths = (*BOX_WIDTHS, 2.5)
        assert [box_parseval(a) for a in widths] == pytest.approx([1.0] * len(widths), abs=1e-15)

    def test_k2_spectral_equals_ground_mode_k2(self):
        assert [box_k2_spectral(a) * a * a / math.pi**2 for a in BOX_WIDTHS] == pytest.approx(
            [1.0] * len(BOX_WIDTHS), abs=1e-15)

    def test_moments(self):
        moments = [box_moments(a) for a in BOX_WIDTHS]
        assert [m["delta_x"] for m in moments] == pytest.approx(
            [a * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2)) for a in BOX_WIDTHS],
            rel=1e-12, abs=0.0)
        assert [m["mean_k"] for m in moments] == [0.0] * len(BOX_WIDTHS)
        assert [m["delta_k"] for m in moments] == pytest.approx(
            [math.pi / a for a in BOX_WIDTHS], rel=1e-6, abs=0.0)
        assert [m["k2_mean"] for m in moments] == pytest.approx(
            [(math.pi / a) ** 2 for a in BOX_WIDTHS], rel=1e-12, abs=0.0)

    def test_unit_box_quadrature_meets_closed_moments(self):
        # The closed forms test_moments checks box_moments against, checked once by
        # quadrature over the unit box in s = x/a: delta_s^2 = int s^2 psi^2 ds (mean s = 0
        # by symmetry) and a^2 <k^2> = int (dpsi/ds)^2 ds.
        unit = BoxState(1.0)
        s2 = integrate(lambda s: s * s * unit.psi(s) ** 2, -0.5, 0.5, 1e-10)
        k2_s = integrate(lambda s: (math.sqrt(2.0) * math.pi * np.sin(math.pi * s)) ** 2, -0.5, 0.5)
        assert abs(math.sqrt(s2) - math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi**2))) <= 1e-7
        assert abs(k2_s - math.pi**2) <= 1e-7 * math.pi**2

    @pytest.mark.parametrize("fn", [box_parseval, box_k2_spectral, box_moments,
                                    released_energy_spread, BoxState])
    @pytest.mark.parametrize("a", [1e-200, 2.3e-154, 2.2e154, 1e200, math.inf])
    def test_width_out_of_double_range_is_named(self, fn, a):
        # (pi/a)^2 must be a normal double: about 2.4e-154 <= a <= 2.1e154.
        with pytest.raises(ValueError, match=re.escape(f"at a={a}")):
            fn(a)

    def test_uncertainty_product_exceeds_half(self):
        m = box_moments(1.0)
        assert m["delta_x"] * m["delta_k"] > 0.5


# int_K^inf u^(2m) |F(u; 1)|^2 du from the closed form in Si and Ci, evaluated to 60 digits.
TAIL_MOMENTS = [
    (20.0 * math.pi, 0, 8.494493684366577e-06),
    (20.0 * math.pi, 1, 0.10021805594987561),
    (400.0 * math.pi, 0, 1.0554449323414829e-09),
    (400.0 * math.pi, 1, 0.005000027166134692),
    (1e5, 0, 2.0943928561988082e-15),
    (1e5, 1, 6.283183063894698e-05),
]


class TestTailProbability:
    @pytest.mark.parametrize("K, m, closed_form", TAIL_MOMENTS)
    def test_tail_series_meets_closed_form(self, K, m, closed_form):
        assert _tail_moment(K, m) == pytest.approx(closed_form, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ak, closed_form", [(4.0, 0.18367600012716184),
                                                 (628.3, 1.689087231910453e-08)])
    def test_exact_meets_closed_form(self, ak, closed_form):
        # Below SERIES_CUT (quadrature plus the series) and above it (the series alone).
        exact = tail_probability(ak, 1.0)["exact"]
        assert exact == pytest.approx(closed_form, rel=1e-14, abs=0.0)

    def test_exact_is_continuous_across_series_cut(self):
        below = tail_probability(np.nextafter(SERIES_CUT, 0.0), 1.0)["exact"]
        above = tail_probability(SERIES_CUT, 1.0)["exact"]
        # d ln P / d ln cut = -6 here, so one ulp of cut moves P by about 1e-15.
        assert below == pytest.approx(above, rel=1e-14, abs=0.0)

    def test_exact_converges_to_oracle_coefficient(self):
        a = 1.0
        for ak in (100.0 * math.pi, 200.0 * math.pi):
            tail = tail_probability(ak / a, a)
            coeff = tail["exact"] * ak**3
            assert coeff == pytest.approx(ORACLE_TAIL_COEFFICIENT, rel=0.05)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ak", [4.0, 10.0, 50.0, 60.0, 300.0, 600.0, 656.7, 700.0,
                                    240.0 * math.pi, 856.3, 900.0])
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

    def test_exact_depends_on_a_k_prime_alone(self):
        ref = tail_probability(200.0 * math.pi, 1.0)["exact"]
        exact = [tail_probability(200.0 * math.pi / a, a)["exact"] for a in BOX_WIDTHS]
        assert exact == pytest.approx([ref] * len(BOX_WIDTHS), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ak", [1e20, 1e60, 1e100, 5.6e102])
    def test_huge_cut_meets_oracle_coefficient(self, ak):
        # The oscillating corrections fall as 1/(a k')^4: (4/3) pi / (a k')^3 is exact here.
        tail = tail_probability(ak, 1.0)
        assert tail["exact"] == pytest.approx(ORACLE_TAIL_COEFFICIENT / ak**3, rel=1e-14, abs=0.0)
        assert tail["asymptotic"] == pytest.approx(PRINTED_TAIL_COEFFICIENT / ak**3, rel=1e-15)

    def test_cube_overflow_is_named(self):
        with pytest.raises(ValueError, match=re.escape("overflows at a=1.0, k_prime=1e+103")):
            tail_probability(1e103, 1.0)

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
        lines = [LineShape(w0, g0) for w0 in (1.0, 5.0) for g0 in (1e-12, 1e-6, 0.7, 1e3)]
        assert [lorentzian_norm(line) for line in lines] == pytest.approx(
            [1.0] * len(lines), abs=1e-12)

    @pytest.mark.parametrize("g0", [2.3e-308, 1e-12, 0.7, 1e300])
    def test_density_at_any_width(self, g0):
        line = LineShape(1.0, g0)
        assert lorentzian_density(1.0, line) == pytest.approx(2.0 / (math.pi * g0), rel=1e-15)
        # Far in the wing the density gamma0 / (2 pi omega^2) underflows, never overflows.
        for omega in (1e308, -1.7e308):
            far = g0 / (2.0 * math.pi) / omega / omega
            assert lorentzian_density(omega, line) == pytest.approx(far, rel=1e-6, abs=1e-323)

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
        # The peak density 2 / (pi gamma0) overflows below the normal range.
        for w0, g0 in [(1.0, 1e-310), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="positive and finite"):
                LineShape(w0, g0)


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


# The input-free quadratures behind four public results, each cached once per process.
CACHED = [(spectral._line_moment, (0,)), (spectral._line_moment, (1,)),
          (spectral._lorentzian_body, ()), (spectral._gaussian_moments, ())]
WARM_CALLS = [
    lambda a: box_parseval(a),
    lambda a: box_k2_spectral(a),
    lambda a: lorentzian_norm(LineShape(a, a)),
    lambda a: gaussian_band_report(a, a),
]


class TestQuadratureCache:
    @pytest.mark.parametrize("helper, args", CACHED)
    def test_cached_bits_equal_uncached(self, helper, args):
        bits = lambda value: [float(v).hex() for v in np.atleast_1d(value)]
        assert bits(helper(*args)) == bits(helper.__wrapped__(*args))

    def test_warm_calls_make_no_integrand_call(self, monkeypatch):
        for call in WARM_CALLS:
            call(1.0)
        integrands = []
        monkeypatch.setattr(spectral, "integrate", lambda f, *args: integrands.append(f))
        for call in WARM_CALLS:
            for a in (1e-3, 0.37, 2.5, 1e5):
                call(a)
        assert integrands == []

    def test_tail_and_dwell_integrate_on_every_call(self, monkeypatch):
        # Both depend on their inputs: a cache keyed on a float would grow with each one.
        calls = []
        counted = lambda f, *args: calls.append(f) or integrate(f, *args)
        for module in (spectral, ttime):
            monkeypatch.setattr(module, "integrate", counted)
        for seen in (2, 4):
            tail_probability(10.0, 1.0)
            dwell_time_quadrature(1.0, BarrierSpec(2.0, 1.0))
            assert len(calls) == seen

    def test_line_moment_keys_stay_bounded(self):
        for a in np.geomspace(1e-100, 1e100, 50):
            box_parseval(float(a))
            box_k2_spectral(float(a))
        assert spectral._line_moment.cache_info().currsize <= 2

    @pytest.mark.parametrize("call, bad", [
        (box_parseval, -1.0), (box_parseval, math.nan), (box_k2_spectral, 1e200),
        (lambda g0: lorentzian_norm(LineShape(1.0, g0)), 0.0),
        (lambda g0: lorentzian_norm(LineShape(1.0, g0)), math.nan),
        (lambda sigma: gaussian_band_report(1.0, sigma), -1.0),
        (lambda sigma: gaussian_band_report(1.0, sigma), math.inf),
    ])
    def test_warm_cache_still_refuses_bad_input(self, call, bad):
        for warm in WARM_CALLS:
            warm(1.0)
        with pytest.raises(ValueError):
            call(bad)
