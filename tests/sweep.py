"""Seed sweep: does each Monte Carlo estimator centre on its exact value?

    PYTHONPATH=src python tests/sweep.py [--seeds 9000:9020] [--cells NAME ...]

Every cell pairs an estimator call at one master seed with an exact value
from ``analytic`` or ``tests/oracles.py``. For each seed of the half-open
range the cell's z = (estimate - exact) / se is taken, and the sweep prints
each cell's mean z, z SD and max |z| and how many |z| exceed 3, 4 and 5 (the
benchmark's gate width), then the same over every z of every cell. The
default seeds are used by no pinned test. The file has no ``test_`` prefix,
so the test suite does not collect it; a change that moves a Monte Carlo
column runs it on the parent and on the change with the same seeds. It
decides nothing by itself: a cell whose z SD is far from 1 is to be
investigated, never re-seeded away.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import finite_pool_d_ai, finite_pool_rich_win, threshold_stop_payoff  # noqa: E402

from mirrormatch import analytic, simulate  # noqa: E402
from mirrormatch.analytic import GroupSpec  # noqa: E402
from mirrormatch.simulate import AI_PLATFORM, IN_PERSON, SeqSearchPolicy  # noqa: E402

# the small-pools benchmark's cells: sigma = 0.05, n = 64, and the sequential
# search at k = 5 with a cap of 1000; platform-highdim's d_ip2 cells take
# 800 replications at k = 100, 300 and 1000; a fixed-subject platform with
# one candidate pays a uniform point of the ball, of mean k/(k + 1)
VARIANCE = 0.0025
N, K_SEQ, CAP, COST_IP, KAPPA = 64, 5, 1000, 0.005, 0.02
REPS, SEQ_REPS, HIGHDIM_REPS = 3000, 400, 800
S_TYP = math.sqrt(K_SEQ / (K_SEQ + 2.0) + 2.0 * K_SEQ * VARIANCE)


def _seq(policy):
    return lambda seed: simulate.evaluate_seq_policy(K_SEQ, VARIANCE, policy, SEQ_REPS, seed).payoff


def _cells() -> dict:
    cells = {}
    for k in (1, 2, 5):
        cells[f"d_ip2(k={k})"] = (
            lambda seed, k=k: simulate.estimate_d_ip(k, 2, REPS, seed),
            lambda k=k: analytic.d_ip(k, 2),
        )
        cells[f"d_ai(k={k},n={N})"] = (
            lambda seed, k=k: simulate.estimate_d_ai(k, N, VARIANCE, REPS, master_seed=seed),
            lambda k=k: finite_pool_d_ai(k, N, 2.0 * VARIANCE),
        )
    for k in (100, 300, 1000):
        cells[f"d_ip2(k={k},reps={HIGHDIM_REPS})"] = (
            lambda seed, k=k: simulate.estimate_d_ip(k, 2, HIGHDIM_REPS, seed),
            lambda k=k: analytic.d_ip(k, 2),
        )
    for k in (2, 30, 300):
        cells[f"d_ai_fixed(k={k},n=1)"] = (
            lambda seed, k=k: simulate.estimate_d_ai(k, 1, VARIANCE, REPS, simulate.FIXED_SUBJECT_CLONE, seed),
            lambda k=k: k / (k + 1.0),
        )
    for t in (1, 2, 4):
        cells[f"ip_stop{t}"] = (
            _seq(SeqSearchPolicy(IN_PERSON, t, cost_per_period=COST_IP)),
            lambda t=t: -analytic.d_ip(K_SEQ, t) - COST_IP * t,
        )
    for f in (0.85, 0.95, 1.0):
        policy = SeqSearchPolicy(AI_PLATFORM, CAP, f * S_TYP, 0.0, KAPPA)
        cells[f"ai_threshold_{f:g}"] = (_seq(policy), lambda policy=policy: threshold_stop_payoff(K_SEQ, VARIANCE, policy))
    cells["ai_exhaust_cap"] = (
        _seq(SeqSearchPolicy(AI_PLATFORM, CAP, 0.0, 0.0, KAPPA)),
        lambda: -finite_pool_d_ai(K_SEQ, CAP, 2.0 * VARIANCE) - KAPPA,
    )
    spec = GroupSpec(0.01, 0.04)
    cells["groups(k=5,ratio=4)"] = (
        lambda seed: simulate.estimate_group_win_rate(5, spec, N, SEQ_REPS, seed),
        lambda: finite_pool_rich_win(5, spec, N),
    )
    return cells


def _summary(zs: list[float]) -> str:
    spread = statistics.stdev(zs) if len(zs) > 1 else float("nan")
    beyond = [sum(abs(z) > c for z in zs) for c in (3.0, 4.0, 5.0)]
    return (f"mean z {statistics.fmean(zs):+.3f}  z SD {spread:.3f}  max |z| {max(map(abs, zs)):.2f}"
            f"  >3se {beyond[0]}  >4se {beyond[1]}  >5se {beyond[2]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="9000:9020", help="half-open range a:b of master seeds")
    parser.add_argument("--cells", nargs="*", help="cell names (default: all)")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split(":"))
    cells = _cells()
    names = args.cells or list(cells)
    pooled = []
    print(f"seeds {first}..{last - 1}")
    for name in names:
        estimate, exact = cells[name]
        value = exact()
        zs = []
        for seed in range(first, last):
            est = estimate(seed)
            zs.append((est.mean - value) / est.std_error if est.std_error > 0.0 else 0.0)
        pooled += zs
        print(f"{name:22s} exact {value:+.7f}  {_summary(zs)}")
    print(f"{'pooled':22s} {'':22s}{_summary(pooled)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
