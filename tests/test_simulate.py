import math
import tracemalloc

import numpy as np
import pytest

from mirrormatch import analytic, sampler, simulate
from mirrormatch.analytic import GroupSpec
from mirrormatch.simulate import (
    AffineCost,
    Estimate,
    SeqSearchPolicy,
    StopAtFixedT,
    StopWhenBestBelow,
)
from mirrormatch.streams import StreamKey

SEED = 20250810


def within(estimate, target, factor=3.0):
    return abs(estimate.mean - target) <= factor * estimate.std_error


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
                sampler.clone_row_width(k, 20, fixed) + (sampler.chi_square_width(k) if fixed else 0),
                (k, 20, 0.0025, mode),
                id=f"d_ai-k{k}-{mode}",
            )
            for k in (1, sampler._CHI2_SUM_MAX_DF, 25, 26, 300)
            for mode, fixed in ((simulate.PER_INTERACTION, False), (simulate.FIXED_SUBJECT_CLONE, True))
        ],
        pytest.param(simulate._d_ip_block, 3, (26, 3), id="d_ip"),
        pytest.param(
            simulate._coupled_block,
            sampler.clone_row_width(5, 16, False),
            (5, 0.01, 16, simulate.monotonicity_grid(16)),
            id="coupled",
        ),
        pytest.param(
            simulate._group_block, 2 * sampler.clone_row_width(26, 16, False), (26, 16, 0.01, 0.04), id="groups"
        ),
        # at k = 1 one draw in 800 is at most 0.00125: many searches stop in
        # a later 512-draw block, and some hit the cap
        pytest.param(
            simulate._seq_payoff_block,
            512,
            (1, 0.0025, SeqSearchPolicy(simulate.IN_PERSON, StopWhenBestBelow(0.00125, 1300), AffineCost(1))),
            id="seq-in-person-later-block",
        ),
        pytest.param(
            simulate._seq_payoff_block,
            sampler.clone_row_width(2, 512, False),
            (2, 0.0025, SeqSearchPolicy(simulate.AI_PLATFORM, StopWhenBestBelow(0.0, 1100), kappa=0.1)),
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

    def test_zero_subject_noise_draws_a_full_row(self):
        # a norm of exactly 0 takes the fixed-subject layout like any other
        # norm: its row is finite and the same beside other rows as alone
        keys = [StreamKey(SEED).child("zero-norm", i) for i in range(3)]
        rhos = [0.3, 0.0, 0.5]
        for k in (1, 5, 30):
            norms, dists = sampler.draw_clone_batch(k, 9, 0.01, 0.02, rhos, stream=keys)
            assert np.isfinite(norms).all() and np.isfinite(dists).all()
            for i, rho in enumerate(rhos):
                (alone_norms,), (alone_dists,) = sampler.draw_clone_batch(k, 9, 0.01, 0.02, rho, stream=keys[i])
                assert norms[i].tobytes() == alone_norms.tobytes()
                assert dists[i].tobytes() == alone_dists.tobytes()


class TestCoupledMonotonicity:
    def test_grid(self):
        assert simulate.monotonicity_grid(64) == [1, 2, 4, 8, 16, 32, 64]
        assert simulate.monotonicity_grid(100) == [1, 2, 4, 8, 16, 32, 64]
        with pytest.raises(ValueError):
            simulate.monotonicity_grid(1)

    def test_weakly_decreasing_means(self):
        results = simulate.coupled_monotonicity_test(2, 0.025, 64, 4000, SEED)
        sizes = sorted(results)
        assert sizes == [1, 2, 4, 8, 16, 32, 64]
        for small, large in zip(sizes, sizes[1:]):
            lo, hi = results[large], results[small]
            assert lo.mean <= hi.mean + 2 * (lo.std_error + hi.std_error), (small, large)

    def test_single_candidate_benchmark(self):
        results = simulate.coupled_monotonicity_test(2, 0.025, 8, 4000, SEED)
        assert within(results[1], 2.0 / 3.0)

    def test_prefix_argmin_changes_only_on_improvement(self):
        # pathwise: the prefix winner moves exactly when the new draw strictly
        # improves the clone distance
        for rep in range(100):
            key = StreamKey(SEED).child("prefix", rep)
            _, (dists,) = sampler.draw_clone_batch(3, 16, 0.01, 0.01, stream=key)
            for n in range(1, 16):
                before = int(np.argmin(dists[:n]))
                after = int(np.argmin(dists[: n + 1]))
                if after != before:
                    assert after == n
                    assert dists[n] < dists[before]


class TestGroupWinRate:
    def test_equal_variance_control(self):
        spec = GroupSpec.unchecked(0.02, 0.02)
        est = simulate.estimate_group_win_rate(4, spec, 2000, 4000, SEED)
        assert within(est, 0.5)

    def test_matches_analytic_limit(self):
        spec = GroupSpec(0.01, 0.04)
        est = simulate.estimate_group_win_rate(5, spec, 10_000, 2000, SEED)
        assert within(est, analytic.rich_win_probability(5, spec))

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
        policy = SeqSearchPolicy(simulate.IN_PERSON, StopAtFixedT(2))
        report = simulate.evaluate_seq_policy(4, 0.0025, policy, 40_000, SEED)
        assert report.truncated_reps == 0
        assert within(report.payoff, -analytic.d_ip(4, 2))

    def test_ai_fixed_stop_matches_d_ai(self):
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, StopAtFixedT(200))
        report = simulate.evaluate_seq_policy(3, 0.0025, policy, 3000, SEED)
        reference = simulate.estimate_d_ai(3, 200, 0.0025, 3000, master_seed=SEED + 1)
        spread = 3 * math.hypot(report.payoff.std_error, reference.std_error)
        assert abs(report.payoff.mean + reference.mean) <= spread

    def test_threshold_rule_costs_and_truncation(self):
        # threshold zero never fires: always truncated at the cap, and the
        # payoff equals the exhaustive-search payoff minus the cap cost
        cost = AffineCost(per_period=0.001)
        policy = SeqSearchPolicy(
            simulate.AI_PLATFORM, StopWhenBestBelow(0.0, 64), cost_ai=cost, kappa=0.25
        )
        report = simulate.evaluate_seq_policy(2, 0.0025, policy, 400, SEED)
        assert report.truncated_reps == 400
        reference = simulate.estimate_d_ai(2, 64, 0.0025, 400, master_seed=SEED + 2)
        expected = -reference.mean - cost(64) - 0.25
        spread = 3 * math.hypot(report.payoff.std_error, reference.std_error)
        assert abs(report.payoff.mean - expected) <= spread

    def test_fixed_stop_is_one_block(self):
        # StopAtFixedT(t) draws one t-draw ("block", 0) batch, also past the
        # 512-draw block of the threshold rules, and pays its argmin winner
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, StopAtFixedT(600), kappa=0.1)
        for rep in range(3):
            key = StreamKey(SEED).child("one-block", rep)
            (norms,), (dists,) = sampler.draw_clone_batch(
                3, 600, 0.0025, 0.0025, stream=key.child("block", 0)
            )
            winner = -float(norms[int(np.argmin(dists))]) - 0.0 - 0.1
            assert simulate._seq_payoff_block([key], 3, 0.0025, policy).tolist() == [[winner, 0.0]]

    def test_in_person_threshold_stops_at_first_hit(self):
        policy = SeqSearchPolicy(simulate.IN_PERSON, StopWhenBestBelow(0.9, 4096))
        report = simulate.evaluate_seq_policy(1, 0.0025, policy, 2000, SEED)
        assert report.truncated_reps == 0
        # first |X| <= 0.9 is uniform on [0, 0.9]: expected payoff -0.45 - cost
        assert within(report.payoff, -0.45)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeqSearchPolicy("swim", StopAtFixedT(2))
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.IN_PERSON, StopAtFixedT(0))
        with pytest.raises(ValueError):
            SeqSearchPolicy(simulate.AI_PLATFORM, StopAtFixedT(2), kappa=-1.0)
        with pytest.raises(ValueError):
            AffineCost(per_period=-0.1)
        with pytest.raises(ValueError):
            AffineCost(per_period=math.nan)
        with pytest.raises(ValueError):
            StopWhenBestBelow(-0.5, 10)


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
