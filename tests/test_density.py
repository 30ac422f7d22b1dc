import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mirrormatch import analytic, density, sampler
from mirrormatch.density import JointDensityParams, conditional_mean_r_given_s, mlrp_grid_check
from mirrormatch.quadrature import integrate
from mirrormatch.streams import StreamKey
from oracles import clone_moments

# dimensions x combined noise variances exercised by the structural checks
TEST_MATRIX = [(k, nu) for k in (1, 2, 5, 50, 150) for nu in (0.0025, 0.005, 0.05, 0.1)]


def joint_log_density(params, r, s):
    """Log of the joint density of (R, S): the library's kernel plus the terms constant in r.

    With t = s / sqrt(nu) those are ln k + (k-1) ln t - t^2/2 - ln(nu)/2;
    r and s broadcast as arrays.
    """
    t = s / math.sqrt(params.nu)
    const = math.log(params.k) + (params.k - 1) * np.log(t) - 0.5 * t * t - 0.5 * math.log(params.nu)
    return density._log_kernel(params, r, s) + const


def cond_density_vec(params, r, s_values):
    """Density of S given R = r: the joint density over the ball-norm density k r^(k-1)."""
    marginal = params.k * r ** (params.k - 1)
    return np.exp(joint_log_density(params, r, np.asarray(s_values, dtype=float))) / marginal


def ncx2_cond_log_density(params, r, s):
    """Independent oracle: S^2/nu ~ ncx2(k, r^2/nu), so f(s) = ncx2.pdf(s^2/nu) 2s/nu."""
    law = stats.ncx2(params.k, r * r / params.nu)
    return law.logpdf(s * s / params.nu) + math.log(2.0 * s / params.nu)


def s_domain_cut(params, r):
    # noncentral-chi mass is exhausted well before mean + 20 noise widths
    return math.sqrt(r * r + params.k * params.nu) + 20.0 * math.sqrt(params.nu)


def r_marginal(params, r):
    """The joint density at R = r integrated over s."""
    return integrate(lambda s: np.exp(joint_log_density(params, r, s)), 0.0, s_domain_cut(params, r))


class TestMarginal:
    # the joint law's R-marginal is the ball-norm density k r^(k-1)
    def test_one_dim_uniform(self):
        params = JointDensityParams(1, 0.01)
        for r in (0.3, 0.99, 1.0):
            assert r_marginal(params, r) == pytest.approx(1.0, abs=1e-6)

    def test_three_dim(self):
        assert r_marginal(JointDensityParams(3, 0.01), 0.5) == pytest.approx(0.75, abs=1e-6)

    def test_normalization_high_dim(self):
        params = JointDensityParams(150, 0.01)
        total = integrate(lambda r: params.k * r ** (params.k - 1), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestConditionalDensity:
    def test_normalizes(self):
        params = JointDensityParams(3, 0.1)
        r = 0.5
        total = integrate(lambda s: cond_density_vec(params, r, s), 0.0, s_domain_cut(params, r))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_second_moment_identity(self):
        # E[S^2 | R = r] = r^2 + k nu
        params = JointDensityParams(5, 0.04)
        r = 0.3
        cut = s_domain_cut(params, r)
        moment = integrate(lambda s: s * s * cond_density_vec(params, r, s), 0.0, cut)
        assert moment == pytest.approx(r * r + params.k * params.nu, abs=1e-6)

    def test_agrees_with_sampler_histogram(self):
        # simulation oracle: fix the true point at radius r, add combined noise
        params = JointDensityParams(2, 0.05)
        r, draws = 0.6, 100_000
        rng = np.random.default_rng(99)
        direction = np.array([1.0, 0.0])
        noise = math.sqrt(params.nu) * rng.standard_normal((draws, params.k))
        dists = np.linalg.norm(r * direction + noise, axis=1)
        edges = np.quantile(dists, np.linspace(0.005, 0.995, 21))
        counts, _ = np.histogram(dists, edges)
        for i in range(20):
            expected = integrate(
                lambda s: cond_density_vec(params, r, s), float(edges[i]), float(edges[i + 1])
            )
            observed = counts[i] / draws
            se = math.sqrt(expected * (1 - expected) / draws)
            assert abs(observed - expected) <= 3 * se, i


class TestJointDensity:
    def test_composition(self):
        # the joint density is k r^(k-1) times the scipy noncentral chi-square oracle
        for k, nu in ((1, 0.01), (4, 0.05), (50, 0.005)):
            params = JointDensityParams(k, nu)
            for r in (0.2, 0.7, 1.0):
                s_typ = math.sqrt(r * r + k * nu)
                for s in (0.5 * s_typ, s_typ, 1.5 * s_typ):
                    joint = joint_log_density(params, r, s)
                    split = math.log(k * r ** (k - 1)) + ncx2_cond_log_density(params, r, s)
                    assert joint == pytest.approx(split, rel=1e-9, abs=1e-9), (k, nu, r, s)

    def test_cross_ratio_reduces_to_bessel_term(self):
        # all separable factors cancel in the cross-difference; only the
        # coupling through the Bessel argument r s / nu survives
        from mirrormatch import specfun

        params = JointDensityParams(5, 0.1)
        order = 0.5 * params.k - 1.0
        r1, r2, s1, s2 = 0.9, 0.4, 1.1, 0.3
        cross = (
            joint_log_density(params, r1, s1)
            + joint_log_density(params, r2, s2)
            - joint_log_density(params, r1, s2)
            - joint_log_density(params, r2, s1)
        )

        def log_bessel_i(x):
            # ln I_order(x) from the scaled evaluation
            return specfun.log_bessel_i_scaled(order, x) + order * math.log(x) + x

        bessel_cross = (
            log_bessel_i(r1 * s1 / params.nu)
            + log_bessel_i(r2 * s2 / params.nu)
            - log_bessel_i(r1 * s2 / params.nu)
            - log_bessel_i(r2 * s1 / params.nu)
        )
        assert cross == pytest.approx(bessel_cross, abs=1e-10)

    def test_total_mass(self):
        params = JointDensityParams(4, 0.1)

        def inner(r: float) -> float:
            cut = s_domain_cut(params, r)
            return integrate(lambda s: np.exp(joint_log_density(params, r, s)), 0.0, cut, abs_tol=1e-9)

        total = integrate(
            lambda r: np.array([inner(float(v)) for v in r]), 1e-9, 1.0, abs_tol=1e-7
        )
        assert total == pytest.approx(1.0, abs=1e-5)


class TestConditionalMean:
    def test_at_zero_one_dim_reference(self):
        params = JointDensityParams(1, 2 * 0.05**2)
        assert 1.0 / 18.0 <= conditional_mean_r_given_s(params, 0.0) < 1.0 / 17.0

    def test_matches_saturated_platform_value(self):
        # m(0) runs the joint kernel at s = 0, apart from both of d_ai_infinity's routes
        for k, nu in TEST_MATRIX:
            params = JointDensityParams(k, nu)
            mine = conditional_mean_r_given_s(params, 0.0)
            other = analytic.d_ai_infinity(k, nu / 2.0)
            assert abs(mine - other) <= 1e-12 * other, (k, nu)

    @pytest.mark.parametrize("k", [10**4, 10**6, 10**8])
    def test_matches_saturated_platform_value_high_dim(self, k):
        for nu in (0.005, 0.05, 0.5):
            mine = conditional_mean_r_given_s(JointDensityParams(k, nu), 0.0)
            assert mine == pytest.approx(analytic.d_ai_infinity(k, nu / 2.0), rel=1e-12), nu

    def test_tiny_s_equals_zero(self):
        params = JointDensityParams(150, 0.005)
        m0 = conditional_mean_r_given_s(params, 0.0)
        for s in (1e-100, 1e-200):
            assert conditional_mean_r_given_s(params, s) == pytest.approx(m0, abs=1e-12), s

    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=-12.0, max_value=1.0),
        st.lists(st.just(0.0) | st.floats(min_value=5e-324, max_value=1e9), min_size=2, max_size=2),
    )
    @settings(deadline=None, max_examples=150)
    def test_fuzz_fast_bounded_monotone(self, log_k, log_nu, s_pair):
        # any k in [1, 1e8], nu in [1e-12, 10] and s in {0} and [5e-324, 1e9]
        params = JointDensityParams(max(1, round(10.0**log_k)), 10.0**log_nu)
        values = []
        for s in sorted(s_pair):
            start = time.perf_counter()
            values.append(conditional_mean_r_given_s(params, s))
            assert time.perf_counter() - start < 1.0, (params, s)
        assert all(0.0 < v <= 1.0 for v in values), (params, s_pair, values)
        assert values[1] >= values[0] - 1e-9, (params, s_pair, values)

    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=-3.0, max_value=1.0),
        st.sampled_from([1e6, 1e8, 1e9]),
    )
    @settings(deadline=None, max_examples=60)
    def test_large_s_boundary_layer(self, k, log_nu, s):
        # oracle: with s/nu >= k^2 the posterior is a boundary layer at r = 1,
        # whose log kernel has slope a = (s - 1)/nu + (k - 1)/2 there, so
        # 1 - m(s) = 1/a to first order
        nu = min(10.0**log_nu, s / k**2)
        gap = 1.0 - conditional_mean_r_given_s(JointDensityParams(k, nu), s)
        assert gap == pytest.approx(nu / (s - 1.0 + nu * (k - 1) / 2.0), rel=1e-3), (k, nu, s)

    @pytest.mark.parametrize("k", [10**6, 10**8])
    def test_finite_bounded_monotone_high_dim(self, k):
        for nu in (0.005, 0.05):
            params = JointDensityParams(k, nu)
            center = math.sqrt(k * nu)
            grid = [0.0] + [f * center for f in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 3.0)]
            values = [conditional_mean_r_given_s(params, s) for s in grid]
            assert all(math.isfinite(v) and 0.0 < v <= 1.0 for v in values), (nu, values)
            # the posterior mass sits within ~1/k of r = 1, so the steps are
            # ~1e-15 at k = 1e8; allow a few ulps of 1
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-15, (nu, values)
            assert values[-1] > values[0], (nu, values)

    def test_large_s_saturates(self):
        # oracle: boundary-layer (saddle) analysis of the posterior kernel at
        # r = 1: mass ~ exp(-lambda (1 - r)), so m(s) = 1 - 1/lambda + O(1/lambda^2)
        params = JointDensityParams(3, 0.05)
        for s, tol in ((50.0, 2e-4), (500.0, 2e-4)):
            delta = 1e-7
            grid = np.array([1.0 - delta, 1.0])
            values = joint_log_density(params, grid, s)
            lam = float((values[1] - values[0]) / delta)
            predicted = 1.0 - 1.0 / lam
            assert conditional_mean_r_given_s(params, s) == pytest.approx(predicted, abs=tol)
        assert conditional_mean_r_given_s(params, 500.0) == pytest.approx(1.0, abs=1e-3)

    def test_monotone_sample_points(self):
        params = JointDensityParams(5, 0.1)
        m1 = conditional_mean_r_given_s(params, 0.1)
        m2 = conditional_mean_r_given_s(params, 0.5)
        m3 = conditional_mean_r_given_s(params, 2.0)
        assert m1 < m2 < m3

    def test_nondecreasing_on_grid_matrix(self):
        for k, nu in TEST_MATRIX:
            params = JointDensityParams(k, nu)
            scale = math.sqrt(k * nu + k / (k + 2.0))
            grid = [0.0, 0.25 * scale, 0.5 * scale, scale, 1.5 * scale, 2.5 * scale]
            values = [conditional_mean_r_given_s(params, s) for s in grid]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-9, (k, nu)

    def test_binned_empirical_means(self):
        # ties the posterior mean to the simulator: ten equal-probability bins
        # over the central 90% of S at (k, nu) = (5, 0.01). Each bin center is
        # the within-bin mean clone distance, which keeps the binning bias
        # first-order exact; midpoints of wide tail bins would not be
        # representative of a curved m(s). The exact mean R over the bin,
        # (G(b) - G(a)) / (F(b) - F(a)), carries no such bias.
        k, nu, draws = 5, 0.01, 100_000
        key = StreamKey(4242).child("binned")
        norms, dists = sampler.draw_clone_batch(
            k, draws, nu, keys=[key]
        )
        params = JointDensityParams(k, nu)
        edges = np.quantile(dists, np.linspace(0.05, 0.95, 11))
        F, G = np.array([clone_moments(k, nu, float(edge)) for edge in edges]).T
        for i in range(10):
            mask = (dists > edges[i]) & (dists <= edges[i + 1])
            count = int(mask.sum())
            assert count > 1000
            center = float(dists[mask].mean())
            predicted = conditional_mean_r_given_s(params, center)
            exact = (G[i + 1] - G[i]) / (F[i + 1] - F[i])
            observed = float(norms[mask].mean())
            se = float(norms[mask].std(ddof=1) / math.sqrt(count))
            assert abs(observed - predicted) <= 3 * se, i
            assert abs(observed - exact) <= 3 * se, i

    @pytest.mark.parametrize("k, nu", [(1, 0.005), (5, 0.005), (100, 0.005), (1000, 0.05), (3, 1e-6)])
    def test_batched_means_match_the_scalar_rule(self, k, nu):
        # one pass over many s, each entry refined on its own and a negligible
        # tail panel left out, against one call a value
        params = JointDensityParams(k, nu)
        s = np.linspace(0.0, math.sqrt(k * nu) + 1.0, 33)
        expected = [conditional_mean_r_given_s(params, float(v)) for v in s]
        np.testing.assert_allclose(density._conditional_means(params, s), expected, rtol=0.0, atol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            conditional_mean_r_given_s(JointDensityParams(3, 0.1), -0.5)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_rejects_infinite_and_nan_s(self, s):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            conditional_mean_r_given_s(JointDensityParams(5, 0.01), s)


class TestMlrpGridCheck:
    @staticmethod
    def grids(params, points=20, log_spaced=False):
        r = np.linspace(0.05, 1.0, points)
        s_hi = math.sqrt(params.k * params.nu) + 1.0
        if log_spaced:
            s = np.geomspace(0.02, s_hi, points)
        else:
            s = np.linspace(0.02, s_hi, points)
        return r, s

    def test_clean_low_dim(self):
        params = JointDensityParams(1, 0.005)
        report = mlrp_grid_check(params, *self.grids(params))
        assert report.max_violation <= 1e-9
        assert report.witness is None

    def test_clean_high_dim_log_grid(self):
        params = JointDensityParams(150, 0.005)
        report = mlrp_grid_check(params, *self.grids(params, log_spaced=True))
        assert report.max_violation <= 1e-9
        assert report.witness is None

    def test_matrix(self):
        for k, nu in TEST_MATRIX:
            params = JointDensityParams(k, nu)
            report = mlrp_grid_check(params, *self.grids(params, log_spaced=k >= 50))
            assert report.max_violation <= 1e-9, (k, nu)

    def test_adjacent_cell_log_supermodularity(self):
        # discrete cross-differences on adjacent cells
        for k, nu in TEST_MATRIX:
            params = JointDensityParams(k, nu)
            r, s = self.grids(params, points=12, log_spaced=k >= 50)
            m = joint_log_density(params, r[:, None], s[None, :])
            cross = m[1:, 1:] + m[:-1, :-1] - m[1:, :-1] - m[:-1, 1:]
            assert cross.min() >= -1e-9, (k, nu)

    @staticmethod
    def corrupted(p, r, s):
        # at k = 1 the coupling order is -1/2, the edge of the log-convex
        # family; shifted down by one it leaves that family. The corrupted
        # kernel is its own oracle, via the half-integer closed form
        # I_{-3/2}(z) = sqrt(2/(pi z)) (sinh z - cosh z / z).
        z = r * s / p.nu
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.abs(np.sinh(z) - np.cosh(z) / z)
        return 0.5 * np.log(r) - 0.5 * np.log(s) - (r * r + s * s) / (2.0 * p.nu) + np.log(bessel)

    def test_corrupted_density_fails(self):
        # negative control: the check must report a violation with a witness
        params = JointDensityParams(1, 0.5)
        r_grid = np.linspace(0.3, 1.0, 8)
        s_grid = np.linspace(0.3, 1.6, 8)
        report = mlrp_grid_check(params, r_grid, s_grid, log_density=self.corrupted)
        assert report.max_violation > 1e-9
        assert report.witness is not None
        r_hi, s_hi, r_lo, s_lo = report.witness
        assert r_hi > r_lo and s_hi > s_lo

    def test_matches_quadruple_loop_exactly(self):
        # oracle: a plain loop over every ordered quadruple r > r', s > s',
        # keeping the first worst cross difference in (r, r', s, s') order
        def worst_quadruple(params, r, s, log_density):
            m = log_density(params, r[:, None], s[None, :]).tolist()
            r, s = r.tolist(), s.tolist()
            worst, where = math.inf, None
            for i in range(len(r)):
                for i2 in range(i):
                    for j in range(len(s)):
                        for j2 in range(j):
                            cross = m[i][j] + m[i2][j2] - m[i][j2] - m[i2][j]
                            if cross < worst:
                                worst, where = cross, (r[i], s[j], r[i2], s[j2])
            violation = max(0.0, -worst)
            return violation, where if violation > density._MLRP_TOL else None

        cases = []
        for k, nu in ((1, 0.0025), (5, 0.05), (150, 0.005)):
            params = JointDensityParams(k, nu)
            cases.append((params, *self.grids(params, points=8, log_spaced=k >= 50), density._log_kernel))
        corrupted_grids = np.linspace(0.3, 1.0, 8), np.linspace(0.3, 1.6, 8)
        cases.append((JointDensityParams(1, 0.5), *corrupted_grids, self.corrupted))

        def whole_numbers(p, r, s):  # ties nine worst quadruples; the first is kept
            return np.round(np.sin(9.0 * r * s))

        cases.append((JointDensityParams(1, 0.5), *corrupted_grids, whole_numbers))
        for params, r, s, log_density in cases:
            report = mlrp_grid_check(params, r, s, log_density=log_density)
            assert (report.max_violation, report.witness) == worst_quadruple(params, r, s, log_density), params
            assert (report.witness is None) == (log_density is density._log_kernel), params

    def test_degenerate_grids_rejected(self):
        params = JointDensityParams(2, 0.1)
        with pytest.raises(ValueError):
            mlrp_grid_check(params, [0.5], [0.1, 0.2])
        with pytest.raises(ValueError):
            mlrp_grid_check(params, [0.5, 0.4], [0.1, 0.2])
        with pytest.raises(ValueError):
            mlrp_grid_check(params, [0.5, 0.9], [0.2, 0.1])
        for r_grid in ([0.5, 1.2], [0.0, 0.5]):
            with pytest.raises(ValueError, match=r"r_grid must lie in \(0, 1\]"):
                mlrp_grid_check(params, r_grid, [0.1, 0.2])

        def one_infinite_point(params, r, s):
            return np.where((r == 0.9) & (s == 0.2), -np.inf, 0.0)

        with pytest.raises(ValueError, match="not finite on the grid"):
            mlrp_grid_check(params, [0.5, 0.9], [0.1, 0.2], log_density=one_infinite_point)

    def test_infinite_s_point_rejected(self):
        # by the grid check itself, also for a log density defined there
        params = JointDensityParams(2, 0.1)
        for log_density in (None, lambda params, r, s: 0.0):
            with pytest.raises(ValueError, match="positive and finite"):
                mlrp_grid_check(params, [0.5, 0.9], [0.1, math.inf], log_density=log_density)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDensityParams(0, 0.1)
        with pytest.raises(ValueError):
            JointDensityParams(3, 0.0)
