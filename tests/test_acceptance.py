"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see both the pytest
verdicts and the per-criterion lines. Monte Carlo criteria pin their
seeds, so every run is a deterministic replay.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mirrormatch import analytic, cli, density, sampler, simulate
from mirrormatch.analytic import GroupSpec
from mirrormatch.cli import parse_config
from mirrormatch.density import JointDensityParams
from mirrormatch.simulate import SeqSearchPolicy
from mirrormatch.streams import StreamKey
from oracles import clone_moments, finite_pool_rich_win
from test_simulate import coupled_winner_means

DENSITY_MATRIX = [(k, nu) for k in (1, 2, 5, 50, 150) for nu in (0.0025, 0.005, 0.05, 0.1)]
STRICT_BOUND_VARIANCES = (1e-4, 0.0025, 0.05, 1.0)

# per-clone variance under the resolved std-dev reading of sigma = 0.05
TABLE_VARIANCE = 0.05**2


def ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_closed_form_two_draw_identity():
    for k in range(1, 1001):
        identity = 2.0 * k * k / ((2.0 * k + 1.0) * (k + 1.0))
        assert abs(analytic.d_ip(k, 2) - identity) <= 1e-10, k
    assert abs(analytic.d_ip(50, 2) - 0.9709) <= 0.002
    assert abs(analytic.d_ip(150, 2) - 0.9902) <= 0.002
    ok(1, "closed-form two-draw distance matches the identity and table entries")


def test_criterion_02_reference_table_reproduction(tmp_path):
    cfg = parse_config(
        None, ["reps=1000", "n=10000", "master_seed=404", "noise_param=0.05"]
    )
    result = cli.cmd_calibrate(cfg, tmp_path)
    resolved = result.provenance["noise_convention_resolved"]
    assert resolved == "std_dev"
    rows = {(r["convention"], r["k"]): r for r in result.rows}
    binding = rows[("std_dev", 1)]
    assert abs(binding["deviation"]) <= 0.01, binding
    # neither convention reproduces every row; the output must document each
    any_full = result.metrics["all_rows_reproduced_std_dev"] or result.metrics[
        "all_rows_reproduced_variance"
    ]
    if not any_full:
        for key, row in rows.items():
            assert "deviation" in row and "within_tolerance" in row, key
        documented = [
            f"{conv} k={k}: dev={rows[(conv, k)]['deviation']:+.4f}"
            for conv in ("std_dev", "variance")
            for k in (1, 5, 10)
            if rows[(conv, k)]["within_tolerance"] == "no"
        ]
        print("   per-row discrepancies documented:", "; ".join(documented))
    ok(2, "k=1 row reproduced under std_dev (binding); per-row deviations documented")


def test_criterion_03_crossover_bracketed():
    seed, reps, n = 101, 500, 10_000
    signs = {}
    for k in (100, 200):
        ai = simulate.estimate_d_ai(k, n, TABLE_VARIANCE, reps, master_seed=seed)
        ip = simulate.estimate_d_ip(k, 2, reps, seed)
        signs[k] = ai.mean - ip.mean
    assert signs[100] < 0.0, signs
    assert signs[200] > 0.0, signs
    ok(3, f"platform-vs-two-draw gap flips sign: {signs[100]:+.4f} at k=100, {signs[200]:+.4f} at k=200")


def test_criterion_04_equivalent_sample_size_17():
    assert analytic.ai_equivalent_bound(1, TABLE_VARIANCE) == 17
    ok(4, "one-dimensional equivalent sample size is exactly 17 at sigma=0.05")


def test_criterion_05_strict_upper_bound_suite():
    for variance in STRICT_BOUND_VARIANCES:
        for k in range(1, 501):
            assert analytic.d_ai_infinity(k, variance) < analytic.benchmark_single_draw(k), (
                k,
                variance,
            )
    ok(5, "saturated-platform value stays strictly below k/(k+1) on the full matrix")


def test_criterion_06_rate_separation():
    k = 2000
    bench = analytic.benchmark_single_draw(k)
    # saturated regime: at v = 0.05 the platform gap scales like 1/(2 v k)
    # and is inside the 0.05 budget by k = 2000 (smaller v needs larger k)
    platform_gap = k * (bench - analytic.d_ai_infinity(k, 0.05))
    two_draw_gap = k * (bench - analytic.d_ip2_identity(k))
    assert platform_gap < 0.05, platform_gap
    assert 0.49 <= two_draw_gap <= 0.51, two_draw_gap
    ok(6, f"scaled gaps at k=2000: platform {platform_gap:.4f} < 0.05, two-draw {two_draw_gap:.4f}")


def test_criterion_07_mlrp_grids_and_negative_control():
    for k, nu in DENSITY_MATRIX:
        params = JointDensityParams(k, nu)
        r_grid = np.linspace(0.05, 1.0, 20)
        s_hi = math.sqrt(k * nu) + 1.0
        s_grid = np.geomspace(0.02, s_hi, 20) if k >= 50 else np.linspace(0.02, s_hi, 20)
        report = density.mlrp_grid_check(params, r_grid, s_grid)
        assert report.max_violation <= 1e-9, (k, nu, report)

    # negative control: at k=1 the coupling order -1/2 is the edge of the
    # log-convex family; an order shifted down by one leaves it, and the
    # corrupted closed form I_{-3/2} must be flagged with a witness
    params = JointDensityParams(1, 0.5)

    def corrupted(p, r, s):
        z = r * s / p.nu
        bessel = np.sqrt(2.0 / (np.pi * z)) * np.abs(np.sinh(z) - np.cosh(z) / z)
        return 0.5 * np.log(r) - 0.5 * np.log(s) - (r * r + s * s) / (2.0 * p.nu) + np.log(bessel)

    bad = density.mlrp_grid_check(
        params, np.linspace(0.3, 1.0, 8), np.linspace(0.3, 1.6, 8), log_density=corrupted
    )
    assert bad.max_violation > 1e-9
    assert bad.witness is not None
    ok(7, "likelihood-ratio ordering holds on all grids; corrupted control is flagged")


def test_criterion_08_conditional_mean_consistency():
    for k, nu in DENSITY_MATRIX:
        params = JointDensityParams(k, nu)
        mine = density.conditional_mean_r_given_s(params, 0.0)
        other = analytic.d_ai_infinity(k, nu / 2.0)
        assert abs(mine - other) <= 1e-6 * other, (k, nu)

    # binned empirical conditional means at (k, nu) = (5, 0.01), 1e5 draws;
    # bins are equal-probability over the central 90% and each bin center is
    # the within-bin mean clone distance (midpoints of wide tail bins do not
    # represent a curved posterior mean). Each bin's mean R is also held to
    # its exact value (G(b) - G(a)) / (F(b) - F(a)), which needs no center.
    k, nu, draws = 5, 0.01, 100_000
    norms, dists = sampler.draw_clone_batch(
        k, draws, nu, keys=[StreamKey(808).child("acceptance-bins")]
    )
    params = JointDensityParams(k, nu)
    edges = np.quantile(dists, np.linspace(0.05, 0.95, 11))
    F, G = np.array([clone_moments(k, nu, float(edge)) for edge in edges]).T
    for i in range(10):
        mask = (dists > edges[i]) & (dists <= edges[i + 1])
        count = int(mask.sum())
        predicted = density.conditional_mean_r_given_s(params, float(dists[mask].mean()))
        exact = (G[i + 1] - G[i]) / (F[i + 1] - F[i])
        observed = float(norms[mask].mean())
        se = float(norms[mask].std(ddof=1) / math.sqrt(count))
        assert abs(observed - predicted) <= 3 * se, i
        assert abs(observed - exact) <= 3 * se, i
    ok(8, "posterior mean matches the saturated bound and the binned simulator means")


def test_criterion_09_monotone_in_pool_size():
    # combined noise variance 0.05 -> per-clone variance 0.025
    results = coupled_winner_means(2, 0.025, 64, 10_000, 909)
    sizes = sorted(results)
    assert sizes == [1, 2, 4, 8, 16, 32, 64]
    for small, large in zip(sizes, sizes[1:]):
        lo, hi = results[large], results[small]
        assert lo.mean <= hi.mean + 2 * (lo.std_error + hi.std_error), (small, large)
    first = results[1]
    assert abs(first.mean - 2.0 / 3.0) <= 3 * first.std_error
    ok(9, "coupled winner distances weakly decrease in pool size; n=1 equals 2/3")


def test_criterion_10_group_selection_rate():
    spec = GroupSpec(0.01, 0.04)
    est = simulate.estimate_group_win_rate(5, spec, 10_000, 2000, 1010)
    exact = finite_pool_rich_win(5, spec, 10_000)
    assert abs(est.mean - exact) <= 3 * est.std_error, (est, exact)
    # the large-population claim, on the exact rate: its gap to the n = infinity
    # value shrinks with the pool size (7.1e-4 at n = 10^3 to 3.0e-5 at 10^6)
    target = analytic.rich_win_probability(5, spec)
    gaps = [finite_pool_rich_win(5, spec, n) - target for n in (10**3, 10**4, 10**5, 10**6)]
    assert all(0.0 < b < a for a, b in zip(gaps, gaps[1:])) and gaps[1] < 3e-4, gaps

    control = simulate.estimate_group_win_rate(5, GroupSpec(0.01, 0.01), 10_000, 2000, 1011)
    assert abs(control.mean - 0.5) <= 3 * control.std_error, control

    for k in (1, 2, 5, 20, 80, 200):
        for cell in (GroupSpec(0.01, 0.011), GroupSpec(0.01, 0.04), GroupSpec(0.01, 0.64)):
            assert analytic.rich_win_probability(k, cell) > 0.5, (k, cell)
    ok(10, f"data-rich win rate {est.mean:.6f} matches the exact {exact:.6f} at n = 10^4, "
           f"which tends to the analytic {target:.6f}; control is 1/2")


def test_criterion_11_selection_probability_trends():
    spec = GroupSpec(0.01, 0.04)
    assert analytic.rich_win_probability(200, spec) > 0.999
    wide = GroupSpec(0.01, 0.01 * 64)
    assert analytic.rich_win_probability(20, wide) > 0.999
    for k in (1, 2, 5, 20, 80, 200):
        for cell in (spec, wide, GroupSpec(0.3, 0.5)):
            assert analytic.rich_win_lower_bound(k, cell) <= analytic.rich_win_probability(k, cell)
    ok(11, "selection probability trends and the closed-form lower bound hold")


def test_criterion_12_vanishing_noise_limit():
    for k in (1, 5, 50):
        assert analytic.d_ai_infinity(k, 1e-12) <= 1e-4, k
    ok(12, "saturated-platform distance vanishes as the noise goes to zero")


def test_criterion_13_sequential_search_dominance():
    k, variance, cap, reps, seed = 300, TABLE_VARIANCE, 10_000, 128, 1313
    cost_ip, cost_ai = 0.005, 0.0
    kappa = cost_ip * 2 + 0.01

    ip_policy = SeqSearchPolicy(simulate.IN_PERSON, 2, cost_per_period=cost_ip)
    ip_report = simulate.evaluate_seq_policy(k, variance, ip_policy, reps, seed)

    s_typ = math.sqrt(k / (k + 2.0) + 2.0 * k * variance)
    best = None
    for factor in (0.0, 0.85, 0.95, 1.0):
        policy = SeqSearchPolicy(simulate.AI_PLATFORM, cap, factor * s_typ, cost_ai, kappa)
        report = simulate.evaluate_seq_policy(k, variance, policy, reps, seed)
        if best is None or report.payoff.mean > best.payoff.mean:
            best = report
    spread = 2.0 * math.hypot(ip_report.payoff.std_error, best.payoff.std_error)
    gap = ip_report.payoff.mean - best.payoff.mean
    assert gap >= -spread, (ip_report.payoff, best.payoff)
    ok(13, f"two in-person draws beat the best platform policy by {gap:+.4f} (2se={spread:.4f})")


def test_criterion_14_byte_identical_csv_across_block_sizes(tmp_path, monkeypatch):
    cfg = parse_config(None, ["k_grid=1,5", "reps=600", "n=64", "master_seed=7"])
    default = simulate._BLOCK_KEYS
    outputs = []
    for block_keys, name in ((default, "default"), (3, "blocks-of-3"), (default, "default-again")):
        monkeypatch.setattr(simulate, "_BLOCK_KEYS", block_keys)
        outputs.append(cli.cmd_table1(cfg, tmp_path / name).files[0].read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    ok(14, "table CSV bytes identical across reruns with blocks of 256 and of 3 replications")
