import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mirrormatch import analytic, chebyshev, density, sampler, simulate
from mirrormatch.analytic import GroupSpec
from mirrormatch.simulate import Estimate, SeqSearchPolicy
from mirrormatch.streams import StreamKey
from oracles import finite_pool_d_ai, finite_pool_rich_win, threshold_stop_payoff

SEED = 20250810


def within(estimate, target, factor=3.0):
    return abs(estimate.mean - target) <= factor * estimate.std_error


def coupled_winner_means(k, variance, n_max, reps, seed):
    """Winner distance per pool size n = 1, 2, 4, ... <= n_max, each read off a prefix of one pool.

    Each replication draws one pool of n_max per-interaction clone draws at
    per-clone ``variance`` and takes the argmin of every prefix, so all pool
    sizes share one probability space.
    """
    base = StreamKey(seed).child(f"coupled(k={k},n_max={n_max})")
    keys = [base.child("rep", rep).child("pool") for rep in range(reps)]
    norms, dists, _ = sampler.draw_clone_batch(k, n_max, 2.0 * variance, keys=keys)
    sizes, rows = [2**j for j in range(n_max.bit_length())], np.arange(reps)
    return {n: simulate._estimate(norms[rows, np.argmin(dists[:, :n], axis=1)], "coupled") for n in sizes}


class TestEstimateDIp:
    def test_one_dim_two_draws(self):
        est = simulate.estimate_d_ip(1, 2, 100_000, SEED)
        assert within(est, 1.0 / 3.0)

    def test_five_dims_two_draws(self):
        est = simulate.estimate_d_ip(5, 2, 100_000, SEED)
        assert within(est, 50.0 / 66.0)
        assert abs(est.mean - 0.7554) < 0.01  # reference table entry

    def test_single_draw_benchmark(self):
        est = simulate.estimate_d_ip(10, 1, 50_000, SEED)
        assert within(est, 10.0 / 11.0)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2, 5, 1000])
    def test_control_variate_is_uniform(self, k, m):
        # the best of m radii M has M^k the least of m uniforms, so its
        # survival function Y = (1 - M^k)^m is Uniform(0, 1)
        values = simulate._d_ip_block(rep_keys(20_000), k, m)
        radii = sampler.sample_ball_radii(k, m, rep_keys(20_000))
        assert values[:, 0].tobytes() == radii.min(axis=1).tobytes()
        assert stats.kstest(values[:, 1], "uniform").pvalue > 0.001

    def test_one_draw_in_one_dimension_is_exact(self):
        # at k = 1, m = 1 the radius M is U and the control 1 - U, so M is
        # affine in the control and the fit leaves no residual
        est = simulate.estimate_d_ip(1, 1, 1000, SEED)
        assert abs(est.mean - 0.5) <= 1e-12 and est.std_error <= 1e-12

    def test_control_cuts_the_error(self):
        # the control-variate estimate against the plain mean of the same rows
        values = simulate._replicate(simulate._d_ip_block, 2, (2, 2), "cut", 4000, SEED)
        plain = simulate._estimate(values[:, 0], "plain")
        est = simulate._estimate(values, "controlled")
        assert est.std_error < plain.std_error / 5
        assert within(est, analytic.d_ip(2, 2)) and within(plain, analytic.d_ip(2, 2))

    def test_two_replications_take_the_plain_difference(self):
        # no slope is fitted at two replications: the values are 1/2 + M - Y,
        # and their spread over reps - 1 is the standard error
        values = simulate._replicate(simulate._d_ip_block, 2, (5, 2), "d_ip(k=5,m=2)", 2, SEED)
        est = simulate.estimate_d_ip(5, 2, 2, SEED)
        v = 0.5 + values[:, 0] - values[:, 1]
        assert est.mean == float(v.mean()) and est.std_error == float(v.std(ddof=1) / math.sqrt(2))
        assert est.std_error > 0.0

    def test_repeatable(self):
        a = simulate.estimate_d_ip(3, 2, 500, SEED)
        b = simulate.estimate_d_ip(3, 2, 500, SEED)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate.estimate_d_ip(3, 0, 100, SEED)
        with pytest.raises(ValueError):
            simulate.estimate_d_ip(3, 2, 1, SEED)


class TestEstimateDAi:
    def test_single_candidate_is_uniform_draw(self):
        est = simulate.estimate_d_ai(4, 1, 0.0025, 50_000, master_seed=SEED)
        assert within(est, 4.0 / 5.0)

    def test_one_dim_reference(self):
        est = simulate.estimate_d_ai(1, 10_000, 0.0025, 1000, master_seed=SEED)
        assert abs(est.mean - 0.0551) <= 0.01  # reference table entry

    def test_never_below_saturated_bound(self):
        for k, n in ((1, 50), (3, 200), (8, 1000)):
            est = simulate.estimate_d_ai(k, n, 0.0025, 2000, master_seed=SEED)
            bound = analytic.d_ai_infinity(k, 0.0025)
            assert est.mean >= bound - 3 * est.std_error, (k, n)

    def test_fixed_clone_mode_agrees(self):
        per = simulate.estimate_d_ai(
            5, 1000, 0.0025, 10_000, simulate.PER_INTERACTION, SEED
        )
        fixed = simulate.estimate_d_ai(
            5, 1000, 0.0025, 10_000, simulate.FIXED_SUBJECT_CLONE, SEED
        )
        spread = 3 * math.hypot(per.std_error, fixed.std_error)
        assert abs(per.mean - fixed.mean) <= spread

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            simulate.estimate_d_ai(3, 10, 0.0025, 100, "sometimes-fixed", SEED)

    def test_infinite_variance_rejected(self):
        # analytic.d_ai_infinity rejects it too; an infinite variance would
        # tie every clone distance and return the first candidate's norm
        with pytest.raises(ValueError):
            simulate.estimate_d_ai(3, 4, math.inf, 10, master_seed=SEED)

    def test_infinite_group_variance_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a pool was drawn before the group was rejected")

        monkeypatch.setattr(sampler, "draw_clone_batch", no_draw)
        with pytest.raises(ValueError):
            simulate.estimate_group_win_rate(3, GroupSpec(0.01, math.inf), 8, 10, 1)

    def test_fixed_mode_memory_is_dimension_free(self):
        # only the norm of the shared subject noise is drawn; as a k-vector it
        # would take 8 MB per replication here
        tracemalloc.start()
        try:
            est = simulate.estimate_d_ai(10**6, 100, 0.0025, 4, simulate.FIXED_SUBJECT_CLONE, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        assert 0.0 < est.mean <= 1.0


class TestPlatformWinner:
    # per interaction the winner is paid m(S_(1)) with the control (1 - F(S_(1)))^n
    # read off one table per (k, nu, n)

    def test_oracle_matches_baseline_cells(self):
        # the Delta G / Delta F cell sums at nu = 0.005, n = 1000, to the 7 digits recorded
        assert abs(finite_pool_d_ai(1, 1000, 0.005) - 0.0564302) <= 1e-7
        assert abs(finite_pool_d_ai(5, 1000, 0.005) - 0.2737680) <= 1e-7

    @pytest.mark.parametrize("n", [64, 1000])
    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_estimate_matches_exact_finite_pool(self, k, n):
        est = simulate.estimate_d_ai(k, n, 0.0025, 1000, master_seed=SEED)
        assert within(est, finite_pool_d_ai(k, n, 0.005), factor=4.0), (est, finite_pool_d_ai(k, n, 0.005))

    @pytest.mark.parametrize("k, n", [(1, 64), (5, 64), (5, 1000), (100, 25)])
    def test_plain_and_posterior_means_agree_on_the_same_draws(self, k, n):
        keys = [StreamKey(SEED).child("same-draws").child("rep", rep) for rep in range(2000)]
        paid = simulate._d_ai_block(keys, k, n, 0.0025, simulate.PER_INTERACTION)
        norms, dists, _ = sampler.draw_clone_batch(k, n, 0.005, keys=[key.child("pool") for key in keys])
        plain = simulate._estimate(norms[np.arange(len(keys)), np.argmin(dists, axis=1)], "plain")
        rb = simulate._estimate(paid.copy(), "rb")  # the fit works in place
        assert abs(rb.mean - plain.mean) <= 4.0 * plain.std_error, (rb, plain)
        assert rb.std_error < plain.std_error / 2.0
        assert paid.shape == (len(keys), 2)  # the control is formed
        assert stats.kstest(paid[:, 1], "uniform").pvalue > 0.001

    @pytest.mark.parametrize("k", [1, 5, 100, 1000])
    def test_table_holds_m_and_f(self, k):
        nu, n = 0.005, 64 if k <= 5 else 25
        table = simulate._winner_table(k, nu, n)
        s = np.random.default_rng(k).uniform(table.lo, table.hi, 100)
        mean, cdf = chebyshev.evaluate(table.pieces, (2.0 * s - table.lo - table.hi) / (table.hi - table.lo))
        exact = np.array([density.conditional_mean_r_given_s(table.params, float(v)) for v in s])
        np.testing.assert_allclose(mean, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(cdf, analytic.clone_distance_cdf(k, nu, s), rtol=0.0, atol=1e-12)
        # off the support a value takes m and F themselves
        off = np.array([table.hi + 0.1])
        (paid, control), = table.columns(off, np.array([-1.0]))
        assert paid == density.conditional_mean_r_given_s(table.params, float(off[0]))
        assert control == pytest.approx((1.0 - analytic.clone_distance_cdf(k, nu, off[0])) ** n, abs=1e-15)

    def test_truncated_threshold_search_pays_m_at_its_best(self):
        # F(1e-6) is far below 1e-20 at k = 5: no draw fires and the cap truncates
        # every search, which is paid m at its least clone distance over 600 draws
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, 600, 1e-6, cost_per_period=0.001, fee=0.1)
        for rep in range(3):
            key = StreamKey(SEED).child("truncated", rep)
            draws = [sampler.draw_clone_batch(5, n, 0.005, keys=[key.child("block", j)])[1] for j, n in ((0, 512), (1, 88))]
            mean = density.conditional_mean_r_given_s(density.JointDensityParams(5, 0.005), float(np.hstack(draws).min()))
            ((payoff, truncated),) = simulate._seq_payoff_block([key], 5, 0.0025, policy).tolist()
            assert truncated == 1.0
            assert payoff == pytest.approx(-mean - 0.001 * 600 - 0.1, rel=0.0, abs=1e-12)

    def test_vanishing_noise_pays_the_drawn_norm(self):
        # sqrt(nu) = 1.4e-7 is below every node spacing of a degree-256 series on
        # [0, s_max], so no table is built and the winner keeps its drawn norm
        keys = rep_keys(8)
        assert simulate._winner_table(1, 2e-14, 64).pieces is None
        norms, dists, _ = sampler.draw_clone_batch(1, 64, 2e-14, keys=[key.child("pool") for key in keys])
        paid = simulate._d_ai_block(keys, 1, 64, 1e-14, simulate.PER_INTERACTION)
        assert paid[:, 0].tobytes() == norms[np.arange(8), np.argmin(dists, axis=1)].tobytes()


class TestFixedSubjectWinner:
    # with a fixed subject the winner is paid E[R | rho, W] at its offset W

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_single_candidate_mean(self, k):
        # with one candidate the winner is a uniform point of the ball: E[R] = k/(k + 1)
        est = simulate.estimate_d_ai(k, 1, 0.0025, 4000, simulate.FIXED_SUBJECT_CLONE, SEED)
        assert within(est, k / (k + 1.0), factor=4.0), est

    @pytest.mark.parametrize("k", [1, 5, 100, 300])
    def test_drawn_and_conditional_norms_agree_on_the_same_draws(self, k):
        # the plain mean is the winner's drawn norm, read off the sampler itself
        keys = [StreamKey(SEED).child("fixed-same-draws").child("rep", rep) for rep in range(2000)]
        paid = simulate._d_ai_block(keys, k, 25, 0.0025, simulate.FIXED_SUBJECT_CLONE)
        rho = sampler.sample_noise_norm(k, 0.0025, [key.child("subject-clone") for key in keys])
        norms, dists, _ = sampler.draw_clone_batch(k, 25, 0.0025, rho, keys=[key.child("pool") for key in keys])
        drawn = norms[np.arange(len(keys)), np.argmin(dists, axis=1)]
        difference = simulate._estimate(paid - drawn, "difference")
        assert abs(difference.mean) <= 4.0 * difference.std_error, difference
        if k >= 100:
            assert paid.std(ddof=1) <= 0.3 * drawn.std(ddof=1)


def rep_keys(reps=40):
    return [StreamKey(SEED).child("blocking").child("rep", rep) for rep in range(reps)]


def chunk(block_fn, width, args):
    """Replications 0..39 of the label "blocking", as the serial runner draws them."""
    return simulate._replicate(block_fn, width, args, "blocking", 40, SEED)


class TestBlocking:
    # 40 replications drawn as one block, as blocks of the default size and as one
    # row per block must give the same bytes: a row is a function of its key
    CASES = [
        *[
            pytest.param(
                simulate._d_ai_block,
                sampler.clone_row_width(k, 20, fixed),
                (k, 20, 0.0025, mode),
                id=f"d_ai-k{k}-{mode}",
            )
            for k in (1, 24, 25, 26, 300)
            for mode, fixed in ((simulate.PER_INTERACTION, False), (simulate.FIXED_SUBJECT_CLONE, True))
        ],
        pytest.param(simulate._d_ip_block, 3, (26, 3), id="d_ip"),
        pytest.param(simulate._group_block, sampler.clone_row_width(26, 16, False), (26, 16, 0.01, 0.04), id="groups"),
        pytest.param(
            simulate._seq_payoff_block,
            4,
            (3, 0.0025, SeqSearchPolicy(simulate.IN_PERSON, 4, cost_per_period=0.005)),
            id="seq-in-person-control",
        ),
        # F(0.73) is about 0.21 at k = 5: about 100 hits a 512-draw round,
        # whose norms the stopped search averages
        pytest.param(
            simulate._seq_payoff_block,
            sampler.clone_row_width(5, 512, False),
            (5, 0.0025, SeqSearchPolicy(simulate.AI_PLATFORM, 1000, 0.73, cost_per_period=0.001)),
            id="seq-platform-threshold",
        ),
        # at k = 1 one draw in 800 is at most 0.00125: many searches stop in
        # a later 512-draw block, and some hit the cap
        pytest.param(
            simulate._seq_payoff_block,
            512,
            (1, 0.0025, SeqSearchPolicy(simulate.IN_PERSON, 1300, 0.00125, cost_per_period=1)),
            id="seq-in-person-later-block",
        ),
        pytest.param(
            simulate._seq_payoff_block,
            sampler.clone_row_width(2, 512, False),
            (2, 0.0025, SeqSearchPolicy(simulate.AI_PLATFORM, 1100, 0.0, fee=0.1)),
            id="seq-platform-cap",
        ),
    ]

    @pytest.mark.parametrize("block_fn, width, args", CASES)
    def test_block_size_does_not_change_bits(self, block_fn, width, args, monkeypatch):
        default = chunk(block_fn, width, args).tobytes()
        monkeypatch.setattr(simulate, "_BLOCK_UNIFORMS", 2**40)
        monkeypatch.setattr(simulate, "_BLOCK_KEYS", 2**40)
        assert chunk(block_fn, width, args).tobytes() == default  # one block
        assert block_fn(rep_keys(), *args).tobytes() == default
        monkeypatch.setattr(simulate, "_BLOCK_UNIFORMS", 1)
        assert chunk(block_fn, width, args).tobytes() == default  # one row per block

    def test_search_rounds_cover_later_blocks_and_the_cap(self):
        # the seq case above: payoff = -norm - tau with norm < 1 gives tau
        _, _, args = self.CASES[-2].values
        values = simulate._seq_payoff_block(rep_keys(), *args)
        taus = np.floor(-values[:, 0]).astype(int)
        stopped = values[:, 1] == 0.0
        assert (taus[stopped] > 512).any() and (taus[stopped] <= 1300).all()
        assert (taus[~stopped] == 1300).all() and (~stopped).any()

    def test_memory_per_replication_is_a_few_floats(self):
        # a call derives its keys block by block; holding all of them at once
        # would take a few hundred bytes a replication for their hash state
        reps = 50_000
        tracemalloc.start()
        try:
            simulate.estimate_d_ip(3, 2, reps, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * reps

    @pytest.mark.parametrize("regime", [simulate.IN_PERSON, simulate.AI_PLATFORM])
    def test_fixed_stop_memory_does_not_grow_with_the_cap(self, regime):
        # a search of 10**6 draws holds one 512-draw round at a time; one
        # block of all its draws would take 16 MB in person, 104 MB on the platform
        tracemalloc.start()
        try:
            report = simulate.evaluate_seq_policy(5, 0.0025, SeqSearchPolicy(regime, 10**6), 2, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        assert report.truncated_reps == 0

    def test_zero_subject_noise_draws_a_full_row(self):
        # a norm of exactly 0 takes the fixed-subject layout like any other
        # norm: its row is finite and the same beside other rows as alone
        keys = [StreamKey(SEED).child("zero-norm", i) for i in range(3)]
        rhos = [0.3, 0.0, 0.5]
        for k in (1, 5, 30):
            rows = sampler.draw_clone_batch(k, 9, 0.02, rhos, keys=keys)
            assert all(np.isfinite(row).all() for row in rows)
            for i, rho in enumerate(rhos):
                alone = sampler.draw_clone_batch(k, 9, 0.02, rho, keys=[keys[i]])
                for row, (alone_row,) in zip(rows, alone):  # norms, distances and offsets
                    assert row[i].tobytes() == alone_row.tobytes()


class TestCoupledMonotonicity:
    def test_weakly_decreasing_means(self):
        results = coupled_winner_means(2, 0.025, 64, 4000, SEED)
        sizes = sorted(results)
        assert sizes == [1, 2, 4, 8, 16, 32, 64]
        for small, large in zip(sizes, sizes[1:]):
            lo, hi = results[large], results[small]
            assert lo.mean <= hi.mean + 2 * (lo.std_error + hi.std_error), (small, large)

    def test_single_candidate_benchmark(self):
        results = coupled_winner_means(2, 0.025, 8, 4000, SEED)
        assert within(results[1], 2.0 / 3.0)

    def test_prefix_argmin_changes_only_on_improvement(self):
        # pathwise: the prefix winner moves exactly when the new draw strictly
        # improves the clone distance
        for rep in range(100):
            key = StreamKey(SEED).child("prefix", rep)
            _, (dists,), _ = sampler.draw_clone_batch(3, 16, 0.01 + 0.01, keys=[key])
            for n in range(1, 16):
                before = int(np.argmin(dists[:n]))
                after = int(np.argmin(dists[: n + 1]))
                if after != before:
                    assert after == n
                    assert dists[n] < dists[before]


class TestGroupWinRate:
    # (k, n, nu_r, nu_p): one data-rich candidate, the default cell, ratio 64,
    # the pools of the slow tests and a step of the CDF at small noise
    CELLS = [(1, 1, 0.02, 0.05), (5, 64, 0.02, 0.05), (5, 64, 0.02, 0.65), (80, 2000, 0.02, 0.05),
             (5, 10_000, 0.02, 0.05), (1, 64, 0.002, 0.003), (200, 64, 0.3, 0.5)]

    @pytest.mark.parametrize("k, n, nu_r, nu_p", CELLS)
    def test_replications_are_probabilities(self, k, n, nu_r, nu_p):
        values = simulate._group_block(rep_keys(64), k, n, nu_r, nu_p)
        assert values.shape == (64, 2)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_single_candidate_is_one_minus_the_poor_cdf(self):
        # with n = 1 the rich draw's distance S_r wins with probability 1 - F_p(S_r),
        # and its control variate is 1 - F_r(S_r)
        for k, nu_r, nu_p in ((1, 0.02, 0.05), (5, 0.02, 0.65), (300, 0.02, 0.05)):
            keys = rep_keys(50)
            values = simulate._group_block(keys, k, 1, nu_r, nu_p)
            _, dists, _ = sampler.draw_clone_batch(k, 1, nu_r, keys=[key.child("pool-rich") for key in keys])
            for column, nu in enumerate((nu_p, nu_r)):
                expected = 1.0 - analytic.clone_distance_cdf(k, nu, dists[:, 0])
                np.testing.assert_allclose(values[:, column], expected, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("k", [1, 2, 5, 200])
    def test_control_variate_is_uniform(self, k):
        # Y = (1 - F_r(M))^n is the survival function of the rich minimum M at M,
        # so it is Uniform(0, 1): the mean 1/2 the estimator subtracts is exact
        control = simulate._group_block(rep_keys(2000), k, 16, 0.02, 0.05)[:, 1]
        assert stats.kstest(control, "uniform").pvalue > 0.001

    def test_equal_variance_control(self):
        # X and Y are one value bit for bit, so every replication is exactly 1/2
        spec = GroupSpec(0.02, 0.02)
        values = simulate._group_block(rep_keys(64), 4, 2000, spec.nu_r, spec.nu_p)
        assert values[:, 0].tobytes() == values[:, 1].tobytes()
        est = simulate.estimate_group_win_rate(4, spec, 2000, 4000, SEED)
        assert est.mean == 0.5 and est.std_error == 0.0

    def test_two_replications_give_a_finite_estimate(self):
        for spec in (GroupSpec(0.01, 0.04), GroupSpec(0.01, 0.01)):
            est = simulate.estimate_group_win_rate(1, spec, 1, 2, SEED)
            assert est.reps == 2 and 0.0 <= est.mean <= 1.0 and math.isfinite(est.std_error)
        # two points would fit the slope exactly and leave no residual, so at
        # reps = 2 no slope is fitted and the se is the spread of X - Y over
        # reps - 1; the control row stays exactly 1/2
        for k, n in ((1, 1), (5, 64)):
            assert simulate.estimate_group_win_rate(k, GroupSpec(0.01, 0.04), n, 2, SEED).std_error > 0.0
            control = simulate.estimate_group_win_rate(k, GroupSpec(0.01, 0.01), n, 2, SEED)
            assert control.mean == 0.5 and control.std_error == 0.0

    def test_matches_analytic_limit(self):
        # the estimate against the exact win rate at its pool size, and that rate
        # against the n = infinity limit, which it approaches from 2.2e-4 above
        spec = GroupSpec(0.01, 0.04)
        est = simulate.estimate_group_win_rate(5, spec, 10_000, 2000, SEED)
        exact = finite_pool_rich_win(5, spec, 10_000)
        assert within(est, exact)
        assert abs(exact - analytic.rich_win_probability(5, spec)) < 3e-4

    def test_dimension_trend(self):
        spec = GroupSpec(0.01, 0.04)
        estimates = {
            k: simulate.estimate_group_win_rate(k, spec, 2000, 1500, SEED)
            for k in (1, 5, 20, 80)
        }
        values = [estimates[k].mean for k in (1, 5, 20, 80)]
        noise = [3 * estimates[k].std_error for k in (1, 5, 20, 80)]
        for i in range(3):
            assert values[i + 1] >= values[i] - (noise[i] + noise[i + 1])
        assert values[-1] > 0.99


class TestSeqPolicies:
    def test_ip_fixed_stop_matches_d_ip(self):
        policy = SeqSearchPolicy(simulate.IN_PERSON, 2)
        report = simulate.evaluate_seq_policy(4, 0.0025, policy, 40_000, SEED)
        assert report.truncated_reps == 0
        assert within(report.payoff, -analytic.d_ip(4, 2))

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_ip_fixed_stop_carries_the_d_ip_control(self, cap):
        # the block pays the best of its cap radii M and carries (1 - M^k)^cap,
        # as estimate_d_ip's block does; a threshold search carries none
        policy = SeqSearchPolicy(simulate.IN_PERSON, cap, cost_per_period=0.005, fee=0.1)
        keys = rep_keys()
        values = simulate._seq_payoff_block(keys, 5, 0.0025, policy)
        best = sampler.sample_ball_radii(5, cap, [key.child("block", 0) for key in keys]).min(axis=1)
        assert values[:, 0].tobytes() == (-best - 0.005 * cap - 0.1).tobytes()
        assert values[:, 1].tobytes() == ((1.0 - best**5) ** cap).tobytes()
        np.testing.assert_array_equal(values[:, 2], 0.0)
        threshold = SeqSearchPolicy(simulate.IN_PERSON, cap, 0.5)
        assert simulate._seq_payoff_block(keys, 5, 0.0025, threshold).shape == (len(keys), 2)

    def test_ai_fixed_stop_matches_d_ai(self):
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, 200)
        report = simulate.evaluate_seq_policy(3, 0.0025, policy, 3000, SEED)
        reference = simulate.estimate_d_ai(3, 200, 0.0025, 3000, master_seed=SEED + 1)
        spread = 3 * math.hypot(report.payoff.std_error, reference.std_error)
        assert abs(report.payoff.mean + reference.mean) <= spread

    def test_threshold_rule_costs_and_truncation(self):
        # threshold zero never fires: always truncated at the cap, and the
        # payoff equals the exhaustive-search payoff minus the cap cost
        cost = 0.001
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, 64, 0.0, cost_per_period=cost, fee=0.25)
        report = simulate.evaluate_seq_policy(2, 0.0025, policy, 400, SEED)
        assert report.truncated_reps == 400
        reference = simulate.estimate_d_ai(2, 64, 0.0025, 400, master_seed=SEED + 2)
        expected = -reference.mean - cost * 64 - 0.25
        spread = 3 * math.hypot(report.payoff.std_error, reference.std_error)
        assert abs(report.payoff.mean - expected) <= spread

    @pytest.mark.parametrize("regime", [simulate.IN_PERSON, simulate.AI_PLATFORM])
    def test_fixed_stop_draws_in_rounds(self, regime):
        # with no threshold the search draws rounds too: 512 draws from
        # ("block", 0), the last 88 from ("block", 1), and it pays the winner
        # over all 600 and is never truncated: in person the best radius M
        # with its control (1 - M^5)^600, on the platform the posterior mean
        # m(S_(1)) of the least clone distance with its control (1 - F(S_(1)))^600
        policy = SeqSearchPolicy(regime, 600, fee=0.1)
        for rep in range(3):
            key = StreamKey(SEED).child("rounds", rep)
            rounds = [(512, [key.child("block", 0)]), (88, [key.child("block", 1)])]
            ((payoff, control, truncated),) = simulate._seq_payoff_block([key], 5, 0.0025, policy).tolist()
            assert truncated == 0.0
            if regime == simulate.IN_PERSON:
                observed = np.hstack([sampler.sample_ball_radii(5, n, keys) for n, keys in rounds])[0]
                best = observed[[np.argmin(observed)]]  # as an array, so the power takes numpy's array loop
                assert [payoff, control] == [float(-best[0] - 0.0 * 600 - 0.1), float(((1.0 - best**5) ** 600)[0])]
            else:
                draws = [sampler.draw_clone_batch(5, n, 0.005, keys=keys)[1] for n, keys in rounds]
                low = float(np.hstack(draws).min())
                mean = density.conditional_mean_r_given_s(density.JointDensityParams(5, 0.005), low)
                survival = (1.0 - float(analytic.clone_distance_cdf(5, 0.005, low))) ** 600
                assert payoff == pytest.approx(-mean - 0.1, rel=0.0, abs=1e-12)
                assert control == pytest.approx(survival, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize(
        "regime, k, threshold",
        [
            (simulate.IN_PERSON, 1, 0.3),
            (simulate.IN_PERSON, 5, 0.6),
            (simulate.IN_PERSON, 50, 0.95),
            (simulate.AI_PLATFORM, 1, 0.3),
            (simulate.AI_PLATFORM, 5, 0.6),
            (simulate.AI_PLATFORM, 50, 1.0),
        ],
    )
    def test_threshold_stop_matches_exact_payoff(self, regime, k, threshold):
        # F(theta) is about 0.08 to 0.3 in these cells, so the cap all but never binds
        policy = SeqSearchPolicy(regime, 2000, threshold, cost_per_period=0.001, fee=0.1)
        report = simulate.evaluate_seq_policy(k, 0.0025, policy, 400, SEED)
        assert report.truncated_reps == 0
        assert within(report.payoff, threshold_stop_payoff(k, 0.0025, policy), factor=4.0)

    @pytest.mark.parametrize("regime", [simulate.IN_PERSON, simulate.AI_PLATFORM])
    def test_a_round_pays_the_mean_norm_of_its_hits(self, regime):
        # a threshold at a round's j-th least observation gives it j hits: the
        # search pays their mean norm at the first hit's tau, and with one hit
        # that draw's norm bit for bit, as the first hit's alone would be
        for rep in range(4):
            key = StreamKey(SEED).child("hits", rep)
            if regime == simulate.IN_PERSON:
                (norms,) = observed = sampler.sample_ball_radii(5, 512, [key.child("block", 0)])
            else:
                (norms,), observed, _ = sampler.draw_clone_batch(5, 512, 0.005, keys=[key.child("block", 0)])
            order = np.argsort(observed[0])
            for hits in (1, 3):
                threshold = float(observed[0, order[hits - 1]])
                policy = SeqSearchPolicy(regime, 512, threshold, cost_per_period=0.001, fee=0.1)
                ((payoff, truncated),) = simulate._seq_payoff_block([key], 5, 0.0025, policy).tolist()
                paid = -float(norms[order[:hits]].mean()) - 0.001 * (int(order[:hits].min()) + 1) - 0.1
                assert truncated == 0.0
                assert payoff == (paid if hits == 1 else pytest.approx(paid, rel=1e-14, abs=0.0))

    def test_in_person_threshold_stops_at_first_hit(self):
        policy = SeqSearchPolicy(simulate.IN_PERSON, 4096, 0.9)
        report = simulate.evaluate_seq_policy(1, 0.0025, policy, 2000, SEED)
        assert report.truncated_reps == 0
        # first |X| <= 0.9 is uniform on [0, 0.9]: expected payoff -0.45 - cost
        assert within(report.payoff, -0.45)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeqSearchPolicy("swim", 2)
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.IN_PERSON, 0)
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.AI_PLATFORM, 2, fee=-1.0)
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.AI_PLATFORM, 2, cost_per_period=-0.1)
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.AI_PLATFORM, 2, cost_per_period=math.nan)
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.AI_PLATFORM, 10, -0.5)


class TestEstimateType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Estimate(mean=0.5, std_error=0.1, reps=1)
        with pytest.raises(ValueError):
            Estimate(mean=0.5, std_error=-0.1, reps=10)

    def test_permutation_invariant_reduction(self):
        # the reduction is over the replication-indexed array; a shuffled
        # worker completion order cannot change it
        values = StreamKey(3).child("x").generator().random(1000)
        est = simulate._estimate(values, "x")
        assert est.mean == float(values.mean())
        assert est.reps == 1000


def linear_rule(values):
    """The one-slope control rule, step for step: the rule below six replications."""
    x, y = values[:, 0] - values[:, 1], values[:, 1].copy()
    reps, lost = len(x), 1
    ybar = y.mean()
    y -= ybar
    spread = (y * y).sum()
    gamma = 0.0
    if reps >= 3 and spread > 0.0:
        residual = x - x.mean()
        residual *= y
        gamma = residual.sum() / spread
        lost = 2
    y += ybar - 0.5
    y *= gamma
    x += 0.5
    x -= y
    return float(x.mean()), float(x.std(ddof=lost) / math.sqrt(reps))


def hc3_oracle(values):
    """1/2 plus the intercept of X - Y on P_0..P_3(2Y - 1), and its HC3 standard error, by lstsq."""
    x, t = values[:, 0] - values[:, 1], 2.0 * values[:, 1] - 1.0
    design = np.stack([np.ones_like(t), t, (3.0 * t * t - 1.0) / 2.0, (5.0 * t**3 - 3.0 * t) / 2.0], axis=1)
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    residual = x - design @ coef
    inverse = np.linalg.inv(design.T @ design)
    leverage = np.einsum("ij,jk,ik->i", design, inverse, design)
    weight = design @ inverse[0]
    return 0.5 + coef[0], math.sqrt(np.sum((weight * residual / (1.0 - leverage)) ** 2))


class TestCubicControls:
    def test_a_cubic_in_the_control_is_removed_exactly(self):
        # X = Y + 0.3 - 0.2 P1 + 0.7 P2 - 0.4 P3 has mean 1/2 + 0.3, and the
        # fit leaves only rounding behind
        y = StreamKey(5).child("cubic").generator().random(1000)
        t = 2.0 * y - 1.0
        x = y + 0.3 - 0.2 * t + 0.7 * (3.0 * t * t - 1.0) / 2.0 - 0.4 * (5.0 * t**3 - 3.0 * t) / 2.0
        est = simulate._estimate(np.stack([x, y], axis=1), "cubic")
        assert abs(est.mean - 0.8) <= 1e-14 and est.std_error <= 1e-15

    @pytest.mark.parametrize("k, reps", [(1, 3000), (5, 400), (1000, 800)])
    def test_matches_least_squares_with_hc3(self, k, reps):
        values = simulate._replicate(simulate._d_ip_block, 2, (k, 2), "hc3", reps, SEED)
        mean, se = hc3_oracle(values)
        est = simulate._estimate(values.copy(), "hc3")
        assert abs(est.mean - mean) <= 1e-12 and abs(est.std_error / se - 1.0) <= 1e-9
        assert est.std_error < linear_rule(values)[1]

    @pytest.mark.parametrize("reps", [2, 3, 4, 5])
    def test_few_replications_take_the_one_slope_rule(self, reps):
        values = simulate._replicate(simulate._d_ip_block, 2, (5, 2), "few", reps, SEED)
        est = simulate._estimate(values.copy(), "few")
        assert (est.mean, est.std_error) == linear_rule(values)

    @pytest.mark.parametrize("y", [
        [0.2, 0.7] * 500,  # two distinct values: P2 and P3 are combinations of 1 and P1
        [0.1, 0.1, 0.2, 0.2, 0.5, 0.9],  # the cubic passes through 0.5 and 0.9: leverage 1
        list(0.5 + 0.01 * StreamKey(7).child("narrow").generator().random(1000)),  # 1 - R^2 of P2 about 4e-8
    ])
    def test_an_ill_posed_fit_takes_the_one_slope_rule(self, y):
        y = np.array(y)
        noise = StreamKey(6).child("noise").generator().random(y.size)
        values = np.stack([np.sqrt(y) + 0.01 * noise, y], axis=1)
        est = simulate._estimate(values.copy(), "ill-posed")
        assert (est.mean, est.std_error) == linear_rule(values)

    @pytest.mark.parametrize("reps", [2, 5, 6, 400])
    def test_equal_variance_control_row_stays_one_half(self, reps):
        est = simulate.estimate_group_win_rate(5, GroupSpec(0.02, 0.02), 64, reps, SEED)
        assert est.mean == 0.5 and est.std_error == 0.0
