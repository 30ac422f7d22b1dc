"""Monte Carlo estimators for the two search regimes.

Determinism contract: every replication owns a stream keyed by
(experiment label, replication index), so draws do not depend on worker
count or completion order. Results are written into a
replication-indexed array and reduced with numpy's pairwise mean over
that fixed-shape array; repeated runs with one seed are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import sampler
from .analytic import GroupSpec, NumericError
from .streams import StreamKey

IN_PERSON = "in_person"
AI_PLATFORM = "ai_platform"
PER_INTERACTION = "per-interaction"
FIXED_SUBJECT_CLONE = "fixed-subject-clone"

_SEQ_BLOCK = 512  # sequential-search draws per indexed sub-stream block


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error over replications."""

    mean: float
    std_error: float
    reps: int

    def __post_init__(self) -> None:
        if self.reps < 2:
            raise ValueError("an Estimate needs at least two replications")
        if not self.std_error >= 0.0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error!r}")


@dataclass(frozen=True)
class AffineCost:
    """Search cost c(tau) = per_period * tau, nondecreasing in tau."""

    per_period: float = 0.0

    def __post_init__(self) -> None:
        if self.per_period < 0:
            raise ValueError("the per-period cost must be nonnegative")

    def __call__(self, tau: int) -> float:
        return self.per_period * tau


@dataclass(frozen=True)
class StopAtFixedT:
    """Stop unconditionally after t draws."""

    t: int

    def __post_init__(self) -> None:
        if not isinstance(self.t, int) or self.t < 1:
            raise ValueError(f"fixed stopping time must be a positive integer, got {self.t!r}")


@dataclass(frozen=True)
class StopWhenBestBelow:
    """Stop the first time the running best observation is <= threshold, capped."""

    threshold: float
    cap: int

    def __post_init__(self) -> None:
        if not self.threshold >= 0.0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold!r}")
        if not isinstance(self.cap, int) or self.cap < 1:
            raise ValueError(f"cap must be a positive integer, got {self.cap!r}")


@dataclass(frozen=True)
class SeqSearchPolicy:
    """A regime choice plus stopping rule, costs, and platform entry fee."""

    regime: str
    rule: StopAtFixedT | StopWhenBestBelow
    cost_ip: AffineCost = AffineCost()
    cost_ai: AffineCost = AffineCost()
    kappa: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in (IN_PERSON, AI_PLATFORM):
            raise ValueError(f"unknown regime {self.regime!r}")
        if not self.kappa >= 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa!r}")


@dataclass(frozen=True)
class PolicyReport:
    """Expected-payoff estimate for one policy, with truncation accounting."""

    payoff: Estimate
    truncated_reps: int
    policy: SeqSearchPolicy


def resolve_workers(workers: int | None) -> int:
    """Worker count: the argument, else ``MIRRORMATCH_WORKERS``, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("MIRRORMATCH_WORKERS")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"MIRRORMATCH_WORKERS must be a positive integer, got {env!r}")
    return count


def _estimate(values: np.ndarray, label: str) -> Estimate:
    reps = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(reps))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericError(f"{label}: the mean {mean!r} with standard error {std_error!r} is not finite")
    return Estimate(mean=mean, std_error=std_error, reps=reps)


def _chunk(rep_fn, args: tuple, label: str, master_seed: int, start: int, stop: int) -> np.ndarray:
    base = StreamKey(master_seed).child(label)
    return np.array([rep_fn(base.child("rep", rep), *args) for rep in range(start, stop)])


def _replicate(
    rep_fn, args: tuple, label: str, reps: int, master_seed: int, workers: int | None
) -> np.ndarray:
    """Stack rep_fn(key, *args) for every replication in [0, reps), any worker count.

    Replication ``rep`` always draws from the key (master_seed, label,
    rep), and chunks land in a replication-indexed array, so the result
    is identical to a serial run.
    """
    count = resolve_workers(workers)
    if count == 1 or reps < 2 * count:
        return _chunk(rep_fn, args, label, master_seed, 0, reps)
    bounds = np.unique(np.linspace(0, reps, 4 * count + 1).astype(int))
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = [
            pool.submit(_chunk, rep_fn, args, label, master_seed, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        return np.concatenate([future.result() for future in futures], axis=0)


def _check_common(reps: int, m_or_n: int, name: str) -> None:
    if not isinstance(reps, int) or reps < 2:
        raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    if not isinstance(m_or_n, int) or m_or_n < 1:
        raise ValueError(f"{name} must be a positive integer, got {m_or_n!r}")


def _rep_d_ip(key: StreamKey, k: int, m: int) -> float:
    return sampler.sample_ball_radii(k, m, key).min()


def estimate_d_ip(k: int, m: int, reps: int, master_seed: int, *, workers: int | None = None) -> Estimate:
    """Mean of the min-norm over m fresh ball draws per replication."""
    _check_common(reps, m, "m")
    label = f"d_ip(k={k},m={m})"
    return _estimate(_replicate(_rep_d_ip, (k, m), label, reps, master_seed, workers), label)


def _rep_d_ai(key: StreamKey, k: int, n: int, variance: float, clone_mode: str) -> float:
    rho = None
    if clone_mode == FIXED_SUBJECT_CLONE:
        rho = sampler.sample_noise_norm(k, variance, key.child("subject-clone"))
    norms, dists = sampler.draw_clone_batch(k, n, variance, variance, rho, stream=key.child("pool"))
    return norms[int(np.argmin(dists))]  # argmin takes the lowest index on ties


def estimate_d_ai(
    k: int,
    n: int,
    noise_variance_per_clone: float,
    reps: int,
    clone_mode: str = PER_INTERACTION,
    master_seed: int = 0,
    *,
    workers: int | None = None,
) -> Estimate:
    """True distance to the candidate whose clone distance is minimal among n.

    Per replication: draw n clone interactions, select the argmin of the
    clone distance, record the winner's true norm; average over
    replications. In fixed-subject-clone mode each replication first
    draws the norm of one shared subject noise vector
    (``sampler.sample_noise_norm``), so a replication costs O(n) in any
    dimension k in either mode.
    """
    _check_common(reps, n, "n")
    if clone_mode not in (PER_INTERACTION, FIXED_SUBJECT_CLONE):
        raise ValueError(f"unknown clone mode {clone_mode!r}")
    label = f"d_ai(k={k},n={n},mode={clone_mode})"
    args = (k, n, noise_variance_per_clone, clone_mode)
    return _estimate(_replicate(_rep_d_ai, args, label, reps, master_seed, workers), label)


def monotonicity_grid(n_max: int) -> list[int]:
    """Pool-size grid 1, 2, 4, ... capped at n_max."""
    if not isinstance(n_max, int) or n_max < 2:
        raise ValueError(f"n_max must be an integer >= 2, got {n_max!r}")
    grid = []
    n = 1
    while n <= n_max:
        grid.append(n)
        n *= 2
    return grid


def _rep_coupled(key: StreamKey, k: int, variance: float, n_max: int, grid: list[int]) -> list[float]:
    norms, dists = sampler.draw_clone_batch(k, n_max, variance, variance, stream=key.child("pool"))
    return [norms[int(np.argmin(dists[:n]))] for n in grid]


def coupled_monotonicity_test(
    k: int,
    noise_variance_per_clone: float,
    n_max: int,
    reps: int,
    master_seed: int,
    *,
    workers: int | None = None,
) -> dict[int, Estimate]:
    """Winner distance per pool size, evaluated prefix-by-prefix on one pool.

    Each replication draws a single pool of n_max interactions and reads
    off the argmin of every prefix, coupling all pool sizes on one
    probability space; the returned means should be weakly decreasing in
    n up to Monte Carlo noise.
    """
    _check_common(reps, n_max, "n_max")
    grid = monotonicity_grid(n_max)
    label = f"coupled(k={k},n_max={n_max})"
    args = (k, noise_variance_per_clone, n_max, grid)
    values = _replicate(_rep_coupled, args, label, reps, master_seed, workers)
    return {n: _estimate(values[:, j], label) for j, n in enumerate(grid)}


def _rep_group(key: StreamKey, k: int, n: int, sigma_r2: float, sigma_p2: float) -> float:
    _, dists_r = sampler.draw_clone_batch(k, n, sigma_r2, sigma_r2, stream=key.child("pool-rich"))
    _, dists_p = sampler.draw_clone_batch(k, n, sigma_r2, sigma_p2, stream=key.child("pool-poor"))
    # global argmin with the deterministic tie rule: rich pool wins ties
    return 1.0 if dists_r.min() <= dists_p.min() else 0.0


def estimate_group_win_rate(
    k: int,
    group: GroupSpec,
    n: int,
    reps: int,
    master_seed: int,
    *,
    workers: int | None = None,
) -> Estimate:
    """Probability that the overall best clone match is from the data-rich pool.

    Per replication: n interactions against data-rich candidates (both
    sides carry the rich noise) and n against data-poor candidates
    (subject rich, candidate poor), winner = pool holding the global
    minimal clone distance.
    """
    _check_common(reps, n, "n")
    label = f"groups(k={k},n={n})"
    args = (k, n, group.sigma_r2, group.sigma_p2)
    return _estimate(_replicate(_rep_group, args, label, reps, master_seed, workers), label)


def _rep_seq_payoff(
    key: StreamKey, k: int, variance: float, policy: SeqSearchPolicy
) -> tuple[float, float]:
    # Draws arrive in blocks from the sub-streams ("block", 0), ("block", 1),
    # ...: 512 draws for a threshold rule, one t-draw block with no threshold
    # for StopAtFixedT(t). The search observes one value per draw (in person
    # the ball radius, on the platform the clone distance) and is paid the
    # true norm of the draw it stops on, or of the best observation at the cap.
    rule = policy.rule
    if isinstance(rule, StopAtFixedT):
        block, cap, threshold, truncated = rule.t, rule.t, -math.inf, 0.0
    else:
        block, cap, threshold, truncated = _SEQ_BLOCK, rule.cap, rule.threshold, 1.0
    in_person = policy.regime == IN_PERSON
    cost, fee = (policy.cost_ip, 0.0) if in_person else (policy.cost_ai, policy.kappa)
    best_obs = best_norm = math.inf
    for seen in range(0, cap, block):
        count = min(block, cap - seen)
        stream = key.child("block", seen // block)
        if in_person:
            norms = observed = sampler.sample_ball_radii(k, count, stream)
        else:
            norms, observed = sampler.draw_clone_batch(k, count, variance, variance, stream=stream)
        i = int(np.argmin(observed))
        if observed[i] <= threshold:
            first = int(np.argmax(observed <= threshold))  # the first draw at or below it
            return -float(norms[first]) - cost(seen + first + 1) - fee, 0.0
        if observed[i] < best_obs:
            best_obs, best_norm = float(observed[i]), float(norms[i])
    return -best_norm - cost(cap) - fee, truncated


def evaluate_seq_policy(
    k: int,
    noise_variance_per_clone: float,
    policy: SeqSearchPolicy,
    reps: int,
    master_seed: int,
    *,
    workers: int | None = None,
) -> PolicyReport:
    """Expected payoff of a stopping policy; truncated paths are flagged.

    In person the payoff is -(best norm so far) - c_ip(tau); on the
    platform it is -(true norm of the best clone match) - c_ai(tau) -
    kappa. A threshold rule that never fires is truncated at its cap and
    counted in ``truncated_reps``.
    """
    if not isinstance(reps, int) or reps < 2:
        raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    label = f"seq(k={k},regime={policy.regime},rule={policy.rule})"
    args = (k, noise_variance_per_clone, policy)
    values = _replicate(_rep_seq_payoff, args, label, reps, master_seed, workers)
    return PolicyReport(
        payoff=_estimate(values[:, 0], label),
        truncated_reps=int(values[:, 1].sum()),
        policy=policy,
    )
