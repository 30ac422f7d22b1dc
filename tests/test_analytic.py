import itertools
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate
from scipy import stats
from scipy.special import erf, erfc, gammainc, gammaln, ndtr

from mirrormatch import analytic, density, sampler, simulate
from mirrormatch.analytic import GroupSpec, NumericError
from mirrormatch.streams import StreamKey


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


def clone_cdf_reference(k, nu, s):
    """Oracle: (F(s), 1 - F(s)) of one clone distance as mpmath Poisson mixtures.

    Given R = r, S^2/nu is a Poisson(r^2/(2 nu)) mixture of chi-square laws
    with k + 2j degrees of freedom, and u = R^k is uniform, so
    F(s) = sum_j w_j P(k/2 + j, s^2/(2 nu)) with the mixture weights
    w_j = (k/2) (2 nu)^(k/2) gamma(k/2 + j, 1/(2 nu)) / j!, which sum to 1.
    """
    with mp.workdps(40):
        a, nu = mp.mpf(k) / 2, mp.mpf(nu)
        edge, x = 1 / (2 * nu), mp.mpf(s) ** 2 / (2 * nu)
        log_front = mp.log(a) + a * mp.log(2 * nu)
        lower = upper = mp.mpf(0)
        for j in itertools.count():
            w = mp.exp(log_front - mp.loggamma(j + 1)) * mp.gammainc(a + j, 0, edge)
            lower += w * mp.gammainc(a + j, 0, x, regularized=True)
            upper += w * mp.gammainc(a + j, x, mp.inf, regularized=True)
            if j > edge and w < mp.mpf(10) ** -30:
                return float(lower), float(upper)


def clone_cdf_one_dim(nu, s):
    """Oracle: F(s) at k = 1, where S = |R + sqrt(nu) g| with R uniform on (0, 1).

    F(s) = int_0^1 [Phi((s - r)/sd) - Phi((-s - r)/sd)] dr, and with
    G(x) = x Phi(x) + phi(x), an antiderivative of Phi, and G(x) - G(-x) = x
    it is s - sd G((s - 1)/sd) + sd G(-(s + 1)/sd).
    """
    sd = np.sqrt(nu)

    def antiderivative(x):
        return x * ndtr(x) + np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    return s - sd * antiderivative((s - 1.0) / sd) + sd * antiderivative(-(s + 1.0) / sd)


def cdf_quantile(k, nu, p):
    """The s at which clone_distance_cdf reads p, by bisection."""
    lo, hi = 0.0, 1.0 + 10.0 * math.sqrt(k * nu) + 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if analytic.clone_distance_cdf(k, nu, mid) < p else (lo, mid)
    return hi


CDF_KS = (1, 2, 5, 80, 200, 10**4)
CDF_VARIANCES = (0.02, 0.05, 0.65, 1.28)
# F from 1e-12 to 1 - 1e-12: a pool of n = 10^6 reads (1 - F)^n down there
CDF_LEVELS = (1e-12, 1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)


class TestCloneDistanceCdf:
    @pytest.fixture(scope="class")
    def grid(self):
        """(k, nu, the s at each of CDF_LEVELS) over the grid."""
        return [(k, nu, [cdf_quantile(k, nu, p) for p in CDF_LEVELS]) for k in CDF_KS for nu in CDF_VARIANCES]

    def test_matches_mpmath_in_both_tails(self, grid):
        for k, nu, points in grid:
            values = analytic.clone_distance_cdf(k, nu, points)
            for s, value in zip(points, values):
                lower, upper = clone_cdf_reference(k, nu, s)
                assert abs(value - lower) <= 1e-12 + 1e-9 * lower, (k, nu, s, value, lower)
                assert abs((1.0 - value) - upper) <= 1e-12 + 1e-9 * upper, (k, nu, s, value, upper)

    def test_doubling_the_nodes_moves_nothing(self, grid, monkeypatch):
        before = [analytic.clone_distance_cdf(k, nu, points) for k, nu, points in grid]
        u, du = analytic._cdf_rule(2 * analytic._CDF_DU.size)
        monkeypatch.setattr(analytic, "_CDF_U", u)
        monkeypatch.setattr(analytic, "_CDF_DU", du)
        for (k, nu, points), values in zip(grid, before):
            assert np.abs(analytic.clone_distance_cdf(k, nu, points) - values).max() <= 1e-12, (k, nu)

    def test_one_dim_closed_form(self):
        s = np.linspace(0.0, 3.0, 301)
        for nu in CDF_VARIANCES:
            gap = np.abs(analytic.clone_distance_cdf(1, nu, s) - clone_cdf_one_dim(nu, s))
            assert gap.max() <= 1e-13, nu

    def test_vanishing_noise_limit(self):
        # the law tends to that of R, whose CDF min(s, 1)^k has a kink at
        # s = 1; noise of sd sqrt(nu) rounds it off by about 0.4 k sqrt(nu)
        s = np.linspace(0.01, 1.5, 150)
        for k in (1, 2, 5, 80):
            for nu in (1e-4, 1e-6, 1e-8):
                gap = np.abs(analytic.clone_distance_cdf(k, nu, s) - np.minimum(s, 1.0) ** k)
                assert gap.max() <= k * math.sqrt(nu), (k, nu)

    @pytest.mark.parametrize("k, nu", [(1, 0.02), (5, 0.05), (80, 0.02), (300, 0.65)])
    def test_law_of_the_sampled_clone_distances(self, k, nu):
        # the clone draw is the law's one definition
        _, (dists,), _ = sampler.draw_clone_batch(k, 20_000, nu, keys=[StreamKey(31).child("cdf-ks", k)])
        result = stats.kstest(dists, lambda s: analytic.clone_distance_cdf(k, nu, s))
        assert result.pvalue > 1e-3, result

    def test_values_and_validation(self, monkeypatch):
        assert analytic.clone_distance_cdf(5, 0.05, 0.0) == 0.0
        assert analytic.clone_distance_cdf(5, 0.05, [0.5, 1e6]).shape == (2,)
        assert analytic.clone_distance_cdf(5, 0.05, 1e6) == 1.0
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                analytic.clone_distance_cdf(5, 0.05, bad)
        with pytest.raises(ValueError):
            analytic.clone_distance_cdf(5, math.inf, 0.5)
        with pytest.raises(ValueError):
            analytic.clone_distance_cdf(0, 0.05, 0.5)
        # scipy 1.17's chndtr gives NaN once its arguments reach about 1e10
        monkeypatch.setattr(analytic, "chndtr", lambda x, df, nc: np.nan * nc)
        with pytest.raises(NumericError, match="k=5, variance=0.05"):
            analytic.clone_distance_cdf(5, 0.05, 1.0)


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

    def test_search_reaches_its_limit(self, monkeypatch):
        # d_ip(k, m) = -m takes every value exactly, so m* is the first m below
        # the bound, with no tie; the doubling passes 2**49 before m* here
        monkeypatch.setattr(analytic, "d_ip", lambda k, m: -float(m))
        for m_star in (7 * 10**14 + 1, analytic._SEARCH_LIMIT):
            monkeypatch.setattr(analytic, "d_ai_infinity", lambda k, variance: 0.5 - m_star)
            assert analytic.ai_equivalent_bound(1, 0.01) == m_star
        monkeypatch.setattr(analytic, "d_ai_infinity", lambda k, variance: -0.5 - analytic._SEARCH_LIMIT)
        with pytest.raises(NumericError, match=f"exceeds {analytic._SEARCH_LIMIT} at k=1"):
            analytic.ai_equivalent_bound(1, 0.01)

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
        for sigma_r2, sigma_p2 in ((0.01, math.inf), (1e308, 1.5e308)):  # nu_p must be finite
            with pytest.raises(ValueError, match="finite sum"):
                GroupSpec(sigma_r2, sigma_p2)

    def test_equal_variances_allowed(self):
        # the control case: both groups' combined variances coincide
        spec = GroupSpec(0.02, 0.02)
        assert spec.nu_r == spec.nu_p == pytest.approx(0.04)


class TestRichWinProbability:
    def test_equal_variance_control(self):
        spec = GroupSpec(0.03, 0.03)
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

    def test_series_failure_names_the_cell(self):
        # near x = s the incomplete-gamma series needs more than its 2^20 terms
        # once s is far above 1e10; no groups config reaches it, as the config
        # keeps group_sigma_r2 >= 1e-9
        with pytest.raises(NumericError, match="did not converge at k=100000000000000, nu_r=1.000002e-14"):
            analytic.rich_win_probability(10**14, GroupSpec(5.00001e-15, 5.00002e-15))



KEYS = [StreamKey(1).child("argument-rules")]
POSITIVE_INT = "must be a positive integer, got"
VARIANCE = "noise variance must be positive and finite, got"
# (id, call, its error message): each rule is written once, in analytic
ARGUMENT_RULES = [
    ("d_ip-m", lambda: analytic.d_ip(3, 0), f"sample size m {POSITIVE_INT} 0"),
    ("estimate_d_ip-m", lambda: simulate.estimate_d_ip(3, 0, 10, 1), f"m {POSITIVE_INT} 0"),
    ("estimate_d_ai-n", lambda: simulate.estimate_d_ai(3, 0, 0.0025, 10), f"n {POSITIVE_INT} 0"),
    # checked up front: the per-interaction sampler would see twice it, -2.0
    ("estimate_d_ai-variance", lambda: simulate.estimate_d_ai(3, 4, -1.0, 10), f"{VARIANCE} -1.0"),
    ("cap-0", lambda: simulate.SeqSearchPolicy(simulate.IN_PERSON, 0), f"cap {POSITIVE_INT} 0"),
    ("cap-1.5", lambda: simulate.SeqSearchPolicy(simulate.IN_PERSON, 1.5), f"cap {POSITIVE_INT} 1.5"),
    ("sampler-count", lambda: sampler.sample_ball_radii(3, 0, KEYS), f"count {POSITIVE_INT} 0"),
    ("sampler-k", lambda: sampler.sample_ball_radii(1.5, 2, KEYS), f"dimension k {POSITIVE_INT} 1.5"),
    ("analytic-k", lambda: analytic.d_ai_infinity(1.5, 0.0025), f"dimension k {POSITIVE_INT} 1.5"),
    ("density-k", lambda: density.JointDensityParams(1.5, 0.005), f"dimension k {POSITIVE_INT} 1.5"),
    ("sampler-variance", lambda: sampler.draw_clone_batch(3, 2, 0.0, keys=KEYS), f"{VARIANCE} 0.0"),
    ("analytic-variance", lambda: analytic.d_ai_infinity(3, 0.0), f"{VARIANCE} 0.0"),
    ("density-variance", lambda: density.JointDensityParams(3, 0.0), f"{VARIANCE} 0.0"),
    # an in-person search draws no noise, yet a variance it cannot mean is still an error
    (
        "in-person-search-variance",
        lambda: simulate.evaluate_seq_policy(3, 0.0, simulate.SeqSearchPolicy(simulate.IN_PERSON, 2), 10, 1),
        f"{VARIANCE} 0.0",
    ),
]


@pytest.mark.parametrize("call, message", [pytest.param(call, text, id=id_) for id_, call, text in ARGUMENT_RULES])
def test_argument_rule_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
