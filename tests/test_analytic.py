import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy.special import erf, erfc, gammainc, gammaln

from mirrormatch import analytic
from mirrormatch.analytic import GroupSpec, NumericError


def phi_one_dim(sigma):
    """Oracle: one-dimensional saturated-platform distance through the normal CDF.

    E[|Z| : |Z| <= 1] for Z ~ N(0, 2 sigma^2), written with erf/erfc so both
    the sigma -> 0 and sigma -> inf limits are evaluated without cancellation.
    """
    scale = 1.0 / (2.0 * sigma)
    edge = erfc(scale)
    numerator, _ = sci_integrate.quad(
        lambda r: erfc(r * scale) - edge, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200
    )
    return numerator / erf(scale)


def density_at_zero(k, nu):
    """Oracle: density at the origin of the clone difference x + Z, x uniform in
    the unit ball and Z isotropic Gaussian with per-coordinate variance nu."""
    log_value = (
        math.log(0.5 * k) - 0.5 * k * math.log(math.pi) + gammaln(0.5 * k)
        + float(mp.log(mp.gammainc(0.5 * k, 0, 0.5 / nu, regularized=True)))
    )
    return math.exp(log_value)


class TestDIp:
    def test_one_dim_closed_form(self):
        for m in (1, 2, 3, 10, 100):
            assert analytic.d_ip(1, m) == pytest.approx(1.0 / (m + 1), rel=1e-12)

    def test_two_draw_values(self):
        assert analytic.d_ip(5, 2) == pytest.approx(50.0 / 66.0, rel=1e-12)
        assert analytic.d_ip(50, 2) == pytest.approx(5000.0 / 5151.0, rel=1e-12)
        # reference Monte Carlo entries for the comparison table
        assert abs(analytic.d_ip(50, 2) - 0.9709) <= 0.002
        assert abs(analytic.d_ip(150, 2) - 0.9902) <= 0.002

    def test_decreasing_in_m(self):
        for k in (1, 2, 7, 80, 1000):
            values = [analytic.d_ip(k, m) for m in (1, 2, 3, 5, 8, 13, 100)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_draw_is_benchmark(self):
        for k in (1, 2, 10, 500):
            assert analytic.d_ip(k, 1) == pytest.approx(analytic.benchmark_single_draw(k), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.d_ip(0, 1)
        with pytest.raises(ValueError):
            analytic.d_ip(1, 0)


class TestDIp2Identity:
    def test_one_dim(self):
        assert analytic.d_ip2_identity(1) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_exact_rational_oracle(self):
        expected = Fraction(45000, 45451)  # 2 k^2 / ((2k+1)(k+1)) at k = 150
        assert analytic.d_ip2_identity(150) == pytest.approx(float(expected), rel=1e-14)

    def test_cross_implementation(self):
        for k in (1, 2, 3, 10, 150, 999, 1000):
            assert abs(analytic.d_ip2_identity(k) - analytic.d_ip(k, 2)) <= 1e-10

    def test_scaled_gap_limit(self):
        # k (k/(k+1) - d_ip2) -> 1/2; exact rational oracle at k = 10^4
        k = 10**4
        gap = Fraction(k, k + 1) - Fraction(2 * k * k, (2 * k + 1) * (k + 1))
        assert 0.4995 <= float(k * gap) <= 0.5005
        measured = k * (analytic.benchmark_single_draw(k) - analytic.d_ip2_identity(k))
        assert 0.4995 <= measured <= 0.5005


class TestDAiInfinity:
    def test_one_dim_reference_interval(self):
        value = analytic.d_ai_infinity(1, 0.05**2)
        assert 1.0 / 18.0 <= value < 1.0 / 17.0

    def test_vanishing_noise(self):
        for k in (1, 5, 50):
            assert analytic.d_ai_infinity(k, 1e-12) <= 1e-4

    def test_strict_upper_bound_matrix(self):
        for variance in (1e-4, 0.0025, 0.05, 1.0):
            for k in range(1, 501):
                value = analytic.d_ai_infinity(k, variance)
                assert 0.0 < value < analytic.benchmark_single_draw(k), (k, variance)

    def test_high_dim_against_rejection_oracle(self):
        # oracle: conditional mean of a Gaussian norm under ||Z|| <= 1, by
        # rejection sampling with numpy's own generator
        k, variance = 150, 0.0025
        rng = np.random.default_rng(77)
        accepted = []
        total = 0
        while total < 1_000_000:
            z = math.sqrt(2 * variance) * rng.standard_normal((200_000, k))
            norms = np.linalg.norm(z, axis=1)
            norms = norms[norms <= 1.0]
            accepted.append(norms)
            total += norms.size
        norms = np.concatenate(accepted)
        oracle = float(norms.mean())
        se = float(norms.std(ddof=1) / math.sqrt(norms.size))
        value = analytic.d_ai_infinity(k, variance)
        assert value < 150.0 / 151.0
        assert abs(value - oracle) <= 3 * se

    def test_rate_separation(self):
        # the platform gap vanishes faster than 1/k: scaled gap below 0.05 by
        # k = 2000 in the saturated regime, while the two-draw gap stays ~1/2
        k = 2000
        bench = analytic.benchmark_single_draw(k)
        assert k * (bench - analytic.d_ai_infinity(k, 0.05)) < 0.05
        assert 0.49 <= k * (bench - analytic.d_ip2_identity(k)) <= 0.51

    def test_scaled_gap_decreasing_in_k(self):
        # mechanism check at the table calibration, where saturation needs larger k
        variance = 0.0025
        gaps = [
            k * (analytic.benchmark_single_draw(k) - analytic.d_ai_infinity(k, variance))
            for k in (500, 1000, 2000, 4000, 8000)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_crossover_exists_and_persists(self):
        for variance in (0.0025, 0.05, 1.0):
            k = 1
            while analytic.d_ai_infinity(k, variance) <= analytic.d_ip2_identity(k):
                k += 1
                assert k <= 4000, f"no crossover found for variance={variance}"
            for later in (k, 2 * k, 4 * k):
                assert analytic.d_ai_infinity(later, variance) > analytic.d_ip2_identity(later)

    @pytest.mark.parametrize(
        "k, variance",
        [(14693, v) for v in (1e-4, 0.0025, 0.01, 0.09)]
        + [(20000, 0.005**2), (20000, 0.0025), (10**6, 0.0025), (10**6, 0.05)],
    )
    def test_large_k_against_mpmath(self, k, variance):
        # the ratio of lower incomplete gammas in 35-digit arithmetic; both
        # routes have to agree for d_ai_infinity to return
        x = 1 / (4 * mp.mpf(variance))
        ref = float(
            2 * mp.sqrt(mp.mpf(variance))
            * mp.gammainc(mp.mpf(k + 1) / 2, 0, x)
            / mp.gammainc(mp.mpf(k) / 2, 0, x)
        )
        assert analytic.d_ai_infinity(k, variance) == pytest.approx(ref, rel=1e-10)
        assert analytic._d_ai_infinity_quadrature(k, variance) == pytest.approx(ref, rel=1e-10)

    def test_disagreeing_routes_raise(self, monkeypatch):
        quadrature = analytic._d_ai_infinity_quadrature

        def scale_quadrature(scale):
            monkeypatch.setattr(analytic, "_d_ai_infinity_quadrature", lambda k, v: quadrature(k, v) * scale)

        scale_quadrature(1 + 1e-10)  # inside the 1e-8 agreement: the gamma route's value
        assert analytic.d_ai_infinity(3, 0.0025) == analytic._d_ai_infinity_gamma(3, 0.0025)
        scale_quadrature(1 + 1e-7)
        with pytest.raises(NumericError, match="routes disagree at k=3, variance=0.0025"):
            analytic.d_ai_infinity(3, 0.0025)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.d_ai_infinity(1, 0.0)
        with pytest.raises(ValueError):
            analytic.d_ai_infinity(0, 0.01)


class TestPhiOneDim:
    def test_reference_interval(self):
        assert 1.0 / 18.0 <= phi_one_dim(0.05) < 1.0 / 17.0

    def test_large_noise_limit(self):
        assert phi_one_dim(1e3) == pytest.approx(0.5, abs=1e-3)

    def test_against_rejection_oracle(self):
        # oracle: accepted half-normal mean at sigma = 0.2236
        sigma = 0.2236
        rng = np.random.default_rng(20250810)
        z = math.sqrt(2) * sigma * rng.standard_normal(1_000_000)
        kept = np.abs(z[np.abs(z) <= 1.0])
        se = float(kept.std(ddof=1) / math.sqrt(kept.size))
        assert phi_one_dim(sigma) == pytest.approx(float(kept.mean()), abs=3 * se)

    def test_matches_d_ai_infinity(self):
        for sigma in (0.005, 0.05, 0.1, 0.2236, 1.0, 1e3):
            phi = phi_one_dim(sigma)
            other = analytic.d_ai_infinity(1, sigma**2)
            assert abs(phi - other) <= 1e-8 * max(phi, other), sigma


class TestAiEquivalentBound:
    def test_reference_value(self):
        assert analytic.ai_equivalent_bound(1, 0.05**2) == 17

    def test_huge_noise_gives_two(self):
        # phi(sigma) -> 1/2 sits between d_ip(1,2) = 1/3 and d_ip(1,1) = 1/2
        assert analytic.ai_equivalent_bound(1, 1e6) == 2

    def test_definition_holds(self):
        for k, variance in ((1, 0.0025), (3, 0.01), (10, 0.04), (40, 0.0025)):
            m_star = analytic.ai_equivalent_bound(k, variance)
            bound = analytic.d_ai_infinity(k, variance)
            assert analytic.d_ip(k, m_star) < bound
            assert analytic.d_ip(k, m_star - 1) >= bound - 1e-12

    def test_two_in_high_dimension(self):
        variance = 0.0025
        k = 1
        while analytic.d_ai_infinity(k, variance) <= analytic.d_ip2_identity(k):
            k += 1
        for later in (k, 2 * k):
            assert analytic.ai_equivalent_bound(later, variance) == 2


class TestDensityAtZero:
    def test_two_dim_closed_form(self):
        for nu in (0.02, 0.1, 0.5, 2.0):
            expected = (1 - math.exp(-1 / (2 * nu))) / math.pi
            assert density_at_zero(2, nu) == pytest.approx(expected, rel=1e-12)

    def test_one_dim_quadrature_oracle(self):
        from scipy import integrate as sci_integrate

        nu = 0.5
        oracle, _ = sci_integrate.quad(lambda t: t**-0.5 * math.exp(-t), 0, 1 / (2 * nu),
                                       epsabs=1e-14)
        oracle *= 1 / (2 * math.pi**0.5)
        assert density_at_zero(1, nu) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_decreasing_in_nu(self):
        assert density_at_zero(5, 0.1) > density_at_zero(5, 0.2)

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.01, max_value=2.0),
           st.floats(min_value=1.05, max_value=4.0))
    @settings(deadline=None, max_examples=40)
    def test_monotonicity_property(self, k, nu, factor):
        lower = density_at_zero(k, nu * factor)
        upper = density_at_zero(k, nu)
        assert upper >= lower
        # strictness is only representable while the incomplete-gamma factor
        # has not saturated to 1 in double precision
        if gammainc(0.5 * k, 0.5 / nu) < 1.0 - 1e-9:
            assert upper > lower


class TestGroupSpec:
    def test_invariant(self):
        spec = GroupSpec(0.01, 0.04)
        assert spec.nu_r == pytest.approx(0.02)
        assert spec.nu_p == pytest.approx(0.05)
        with pytest.raises(ValueError):
            GroupSpec(0.04, 0.01)
        with pytest.raises(ValueError):
            GroupSpec(0.04, 0.04)

    def test_unchecked_escape_hatch(self):
        spec = GroupSpec.unchecked(0.02, 0.02)
        assert spec.nu_r == spec.nu_p == pytest.approx(0.04)


class TestRichWinProbability:
    def test_equal_variance_control(self):
        spec = GroupSpec.unchecked(0.03, 0.03)
        assert analytic.rich_win_probability(4, spec) == 0.5

    def test_interior_above_half(self):
        for k in (1, 2, 5, 20):
            for spec in (GroupSpec(0.01, 0.04), GroupSpec(0.05, 0.051), GroupSpec(0.2, 1.0)):
                p = analytic.rich_win_probability(k, spec)
                assert 0.5 < p < 1.0

    def test_dimension_trend(self):
        spec = GroupSpec(0.01, 0.04)
        values = [analytic.rich_win_probability(k, spec) for k in range(1, 201)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_lower_bound_never_exceeds(self):
        for k in (1, 2, 5, 20, 80, 200):
            for spec in (GroupSpec(0.01, 0.04), GroupSpec(0.01, 0.64), GroupSpec(0.3, 0.5)):
                assert analytic.rich_win_lower_bound(k, spec) <= analytic.rich_win_probability(k, spec)

    def test_density_at_zero_ratio(self):
        # the selection probability is the rich share of the two densities at zero
        for k in (1, 2, 5, 20, 40):
            for spec in (GroupSpec(0.01, 0.04), GroupSpec(0.05, 0.051), GroupSpec(0.2, 1.0)):
                f_r = density_at_zero(k, spec.nu_r)
                f_p = density_at_zero(k, spec.nu_p)
                expected = f_r / (f_r + f_p)
                assert analytic.rich_win_probability(k, spec) == pytest.approx(expected, rel=1e-12)

    def test_depends_only_on_combined_variances(self):
        # the rich share of P(k/2, 1/(2 nu)) at nu = nu_r and nu = nu_p
        spec = GroupSpec(0.01, 0.04)
        p_rich, p_poor = (
            mp.gammainc(3.5, 0, 0.5 / nu, regularized=True) for nu in (spec.nu_r, spec.nu_p)
        )
        expected = float(p_rich / (p_rich + p_poor))
        assert analytic.rich_win_probability(7, spec) == pytest.approx(expected, rel=1e-12)

