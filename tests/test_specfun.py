import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy.special import beta, gammainc, ive

from mirrormatch import analytic, sampler, specfun

mp.mp.dps = 35


def reg_lower_inc_gamma(s, x):
    """P(s, x) through the log-scaled evaluation the closed forms use."""
    return math.exp(specfun.log_reg_lower_inc_gamma(s, x))


def normal_quantile(u):
    """The sampler's standard normal for a given uniform: the inverse normal CDF."""
    return sampler._standard_normals(np.atleast_1d(np.array(u, dtype=np.float64)))


def ref_log_bessel_i(nu, x):
    """Oracle for ln I_nu(x) in 35-digit arithmetic."""
    return float(mp.log(mp.besseli(nu, x)))


class TestLnGamma:
    def test_known_values(self):
        assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert specfun.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert specfun.ln_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_accuracy_over_domain(self):
        for x in np.geomspace(1e-6, 1e6, 60):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            scale = max(1.0, abs(ref))
            assert abs(specfun.ln_gamma(float(x)) - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            specfun.ln_gamma(bad)


class TestBeta:
    # d_ip(k, m) = B(1/k, m+1) / k, evaluated through ln_gamma
    def test_known_values(self):
        for m in (1, 2, 5, 40):
            assert analytic.d_ip(1, m) == pytest.approx(beta(1, m + 1), rel=1e-12)
        for k, m in ((2, 1), (7, 3), (150, 2), (1000, 100)):
            assert analytic.d_ip(k, m) == pytest.approx(beta(1 / k, m + 1) / k, rel=1e-10)

    def test_best_of_two_identity_at_k5(self):
        # oracle: direct numeric integration of (1 - r^5)^2 on [0, 1]
        oracle, err = sci_integrate.quad(lambda r: (1 - r**5) ** 2, 0, 1, epsabs=1e-14)
        assert err < 1e-12
        assert oracle == pytest.approx(50.0 / 66.0, abs=1e-13)
        assert 0.2 * beta(0.2, 3) == pytest.approx(oracle, rel=1e-10)
        assert analytic.d_ip(5, 2) == pytest.approx(oracle, rel=1e-10)


class TestRegLowerIncGamma:
    def test_exponential_cdf(self):
        assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-13)

    def test_zero_argument(self):
        for s in (0.3, 1.0, 7.5):
            assert reg_lower_inc_gamma(s, 0.0) == 0.0

    def test_half_order(self):
        # oracle: adaptive quadrature of t^(-1/2) e^(-t) over [0, 2], normalized
        oracle, _ = sci_integrate.quad(lambda t: t**-0.5 * math.exp(-t), 0, 2, epsabs=1e-14)
        oracle /= math.sqrt(math.pi)
        assert oracle == pytest.approx(math.erf(math.sqrt(2)), abs=1e-12)
        assert reg_lower_inc_gamma(0.5, 2.0) == pytest.approx(oracle, abs=1e-12)

    def test_against_mpmath_grid(self):
        for s in (0.1, 0.5, 1.0, 3.7, 10.0, 50.0, 250.0):
            for x in (1e-4, 0.1, 1.0, 5.0, 30.0, 200.0, 5000.0):
                assert reg_lower_inc_gamma(s, x) == pytest.approx(
                    float(mp.gammainc(s, 0, x, regularized=True)), abs=1e-12
                )

    def test_recurrence(self):
        # P(s+1, x) = P(s, x) - x^s e^-x / Gamma(s+1)
        for s in np.arange(0.5, 50.5, 0.5):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
                lhs = reg_lower_inc_gamma(s + 1.0, x)
                drop = math.exp(s * math.log(x) - x - specfun.ln_gamma(s + 1.0))
                rhs = reg_lower_inc_gamma(s, x) - drop
                assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_monotone_and_bounded(self, s, x1, x2):
        lo, hi = sorted((x1, x2))
        p_lo = reg_lower_inc_gamma(s, lo)
        p_hi = reg_lower_inc_gamma(s, hi)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    def test_log_variant_deep_tail(self):
        # P underflows plain doubles here; the log stays accurate
        ref = float(mp.log(mp.gammainc(1000, 0, 100, regularized=True)))
        assert specfun.log_reg_lower_inc_gamma(1000.0, 100.0) == pytest.approx(ref, rel=1e-12)

    def test_log_variant_consistency(self):
        # both branches (series below x = s + 1, complement of Q above)
        for s in (0.5, 3.0, 40.0):
            for x in (0.2, 3.0, 80.0):
                ref = float(mp.log(mp.gammainc(s, 0, x, regularized=True)))
                assert specfun.log_reg_lower_inc_gamma(s, x) == pytest.approx(
                    ref, rel=1e-13, abs=1e-15
                )

    @pytest.mark.parametrize("s", [9093.0, 1e6, 5e7])
    def test_series_near_the_mean(self, s):
        # just below x = s + 1 the series needs ~9 sqrt(s) terms; P is near 1/2
        # there, where scipy's gammainc is accurate
        x = s - 0.5
        ref = math.log(float(gammainc(s, x)))
        assert specfun.log_reg_lower_inc_gamma(s, x) == pytest.approx(ref, rel=1e-12)

    def test_domain_error(self):
        for s, x in ((0.0, 1.0), (1.0, -0.1), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                specfun.log_reg_lower_inc_gamma(s, x)
        # an infinite x is in the domain: P(s, inf) = 1
        assert specfun.log_reg_lower_inc_gamma(2.5, math.inf) == 0.0


class TestLogBesselI:
    def test_at_origin(self):
        assert specfun.log_bessel_i(0.0, 0.0) == 0.0
        assert specfun.log_bessel_i(2.0, 0.0) == float("-inf")

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x; at x=1 both the closed form and
        # an independent power-series summation give -0.0643519910735318
        closed = math.log(math.sqrt(2 / math.pi) * math.sinh(1.0))
        assert closed == pytest.approx(-0.06435199107353183, abs=1e-14)
        assert specfun.log_bessel_i(0.5, 1.0) == pytest.approx(closed, abs=1e-12)

    def test_accuracy_grid(self):
        for nu in (-0.5, 0.0, 0.5, 2.0, 10.0, 74.0, 500.0):
            for x in (1e-3, 0.5, 1.0, 5.0, 29.9, 30.1, 99.9, 100.1, 1e3, 2.5e5):
                mine = specfun.log_bessel_i(nu, x)
                ref = ref_log_bessel_i(nu, x)
                assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref)), (nu, x)

    def test_split_boundary(self):
        for nu in (4.0, 5.0, 6.0, 10.0, 31.0, 74.0):
            split = max(30.0, nu * nu)
            for x in (0.98 * split, 1.02 * split, 1.5 * split, 4 * split):
                mine = specfun.log_bessel_i(nu, x)
                ref = ref_log_bessel_i(nu, x)
                assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref)), (nu, x)

    def test_array_argument(self):
        # zeros, elements where the scaled scipy value underflows, and normal ones
        nu = 74.0
        x = np.array([[0.0, 1e-3, 3e-3, 6e-3], [1e-2, 0.0, 5.0, 500.0]])
        underflow = ive(nu, x[x > 0]) < np.finfo(np.float64).tiny
        assert underflow.any() and not underflow.all()
        values = specfun.log_bessel_i(nu, x)
        assert values.shape == x.shape
        for index, xi in np.ndenumerate(x):
            assert values[index] == specfun.log_bessel_i(nu, float(xi))
            if xi == 0.0:
                assert values[index] == float("-inf")
            else:
                ref = ref_log_bessel_i(nu, xi)
                assert abs(values[index] - ref) <= 1e-10 * max(1.0, abs(ref)), xi

    def test_no_overflow_extremes(self):
        for nu in (0.0, 10.0, 740.0, 5000.0):
            for x in (1e4, 2.5e5, 1e6):
                value = specfun.log_bessel_i(nu, x)
                assert math.isfinite(value)
        assert math.isfinite(specfun.log_bessel_i(5000.0, 1.0))

    def test_log_convexity_in_log_argument(self):
        # second differences of ln I_nu(e^w) must be nonnegative for nu >= -1/2
        w = np.linspace(math.log(0.01), math.log(100.0), 400)
        for nu in (0.0, 0.5, 1.0, 5.0, 74.0):
            values = np.array([specfun.log_bessel_i(nu, x) for x in np.exp(w)])
            second = values[2:] - 2 * values[1:-1] + values[:-2]
            assert second.min() >= -1e-8, nu

    def test_domain_error(self):
        bad = [(-0.6, 1.0), (1.0, -1.0), (math.inf, 1.0), (math.nan, 1.0), (1.5, math.inf), (1.5, [1.0, math.nan])]
        for nu, x in bad:
            with pytest.raises(ValueError, match="log_bessel_i requires"):
                specfun.log_bessel_i(nu, x)


class TestStdNormalCdf:
    # the sampler draws a standard normal as the inverse of this CDF at a uniform
    def test_center(self):
        assert normal_quantile(0.5)[0] == 0.0

    def test_upper_quantile(self):
        # oracle: quadrature of the normal density up to the 97.5% point
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        tail, _ = sci_integrate.quad(density, 0, 1.959963985, epsabs=1e-14)
        assert 0.5 + tail == pytest.approx(0.975, abs=1e-9)
        assert normal_quantile(0.975)[0] == pytest.approx(1.959963985, abs=1e-8)

    def test_deep_tail_no_underflow(self):
        # a uniform of exactly zero is clamped to 2**-54 instead of giving -inf
        value = normal_quantile(0.0)[0]
        assert math.isfinite(value)
        assert value == pytest.approx(float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(2) ** -54 - 1)), rel=1e-12)

    def test_symmetry(self):
        # dyadic uniforms, so 1 - u is exact
        u = np.array([2.0**-40, 2.0**-7, 0.3125, 0.5, 0.75, 1.0 - 2.0**-11])
        assert np.allclose(normal_quantile(u), -normal_quantile(1.0 - u), rtol=1e-12, atol=0)

    def test_accuracy_grid(self):
        for u in np.linspace(0.0005, 0.9995, 81):
            ref = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(float(u)) - 1))
            assert normal_quantile(u)[0] == pytest.approx(ref, rel=1e-12, abs=1e-14)
