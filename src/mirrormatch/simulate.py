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
from .analytic import GroupSpec
from .streams import StreamKey

IN_PERSON = "in_person"
AI_PLATFORM = "ai_platform"

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
    """Search cost c(tau) = fixed + per_period * tau, nondecreasing in tau."""

    per_period: float = 0.0
    fixed: float = 0.0

    def __post_init__(self) -> None:
        if self.per_period < 0 or self.fixed < 0:
            raise ValueError("cost components must be nonnegative")

    def __call__(self, tau: int) -> float:
        return self.fixed + self.per_period * tau


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


def _rep_key(master_seed: int, label: str, rep: int) -> StreamKey:
    return StreamKey(master_seed).child(label).child("rep", rep)


def _estimate(values: np.ndarray) -> Estimate:
    reps = values.shape[0]
    return Estimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(reps)),
        reps=reps,
    )


def _fanout(chunk_fn, payload: tuple, reps: int, workers: int | None) -> np.ndarray:
    """Run chunk_fn(payload, start, stop) over [0, reps), any worker count.

    Chunks land in a replication-indexed array, so the assembled result is
    identical to a serial run.
    """
    count = resolve_workers(workers)
    if count == 1 or reps < 2 * count:
        return chunk_fn(payload, 0, reps)
    bounds = np.unique(np.linspace(0, reps, 4 * count + 1).astype(int))
    spans = list(zip(bounds[:-1], bounds[1:]))
    pieces: list[np.ndarray | None] = [None] * len(spans)
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = {
            pool.submit(chunk_fn, payload, int(a), int(b)): i for i, (a, b) in enumerate(spans)
        }
        for future, i in futures.items():
            pieces[i] = future.result()
    return np.concatenate(pieces, axis=0)


def _check_common(reps: int, m_or_n: int, name: str) -> None:
    if not isinstance(reps, int) or reps < 2:
        raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    if not isinstance(m_or_n, int) or m_or_n < 1:
        raise ValueError(f"{name} must be a positive integer, got {m_or_n!r}")


def _chunk_d_ip(payload: tuple, start: int, stop: int) -> np.ndarray:
    master_seed, label, k, m = payload
    out = np.empty(stop - start)
    for i, rep in enumerate(range(start, stop)):
        out[i] = sampler.sample_ball_radii(k, m, _rep_key(master_seed, label, rep)).min()
    return out


def estimate_d_ip(k: int, m: int, reps: int, master_seed: int, *, workers: int | None = None) -> Estimate:
    """Mean of the min-norm over m fresh ball draws per replication."""
    _check_common(reps, m, "m")
    label = f"d_ip(k={k},m={m})"
    return _estimate(_fanout(_chunk_d_ip, (master_seed, label, k, m), reps, workers))


def _rep_clone_pool(key: StreamKey, k: int, n: int, variance: float, clone_mode: str):
    fixed = None
    if clone_mode == sampler.FIXED_SUBJECT_CLONE:
        fixed = sampler.sample_gaussian_vector(k, variance, key.child("subject-clone"))
    return sampler.draw_clone_batch(
        k, n, variance, variance, mode=clone_mode, subject_fixed_noise=fixed, stream=key.child("pool")
    )


def _chunk_d_ai(payload: tuple, start: int, stop: int) -> np.ndarray:
    master_seed, label, k, n, variance, clone_mode = payload
    out = np.empty(stop - start)
    for i, rep in enumerate(range(start, stop)):
        key = _rep_key(master_seed, label, rep)
        norms, dists = _rep_clone_pool(key, k, n, variance, clone_mode)
        out[i] = norms[int(np.argmin(dists))]  # argmin takes the lowest index on ties
    return out


def estimate_d_ai(
    k: int,
    n: int,
    noise_variance_per_clone: float,
    reps: int,
    clone_mode: str = sampler.PER_INTERACTION,
    master_seed: int = 0,
    *,
    workers: int | None = None,
) -> Estimate:
    """True distance to the candidate whose clone distance is minimal among n.

    Per replication: draw n clone interactions, select the argmin of the
    clone distance, record the winner's true norm; average over
    replications. With the fixed-subject-clone mode one shared subject
    noise vector is drawn per replication.
    """
    _check_common(reps, n, "n")
    if clone_mode not in (sampler.PER_INTERACTION, sampler.FIXED_SUBJECT_CLONE):
        raise ValueError(f"unknown clone mode {clone_mode!r}")
    label = f"d_ai(k={k},n={n},mode={clone_mode})"
    payload = (master_seed, label, k, n, noise_variance_per_clone, clone_mode)
    return _estimate(_fanout(_chunk_d_ai, payload, reps, workers))


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


def _chunk_coupled(payload: tuple, start: int, stop: int) -> np.ndarray:
    master_seed, label, k, variance, n_max, grid = payload
    out = np.empty((stop - start, len(grid)))
    for i, rep in enumerate(range(start, stop)):
        key = _rep_key(master_seed, label, rep)
        norms, dists = _rep_clone_pool(key, k, n_max, variance, sampler.PER_INTERACTION)
        for j, n in enumerate(grid):
            out[i, j] = norms[int(np.argmin(dists[:n]))]
    return out


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
    payload = (master_seed, label, k, noise_variance_per_clone, n_max, tuple(grid))
    values = _fanout(_chunk_coupled, payload, reps, workers)
    return {n: _estimate(values[:, j]) for j, n in enumerate(grid)}


def _chunk_group(payload: tuple, start: int, stop: int) -> np.ndarray:
    master_seed, label, k, n, sigma_r2, sigma_p2 = payload
    out = np.empty(stop - start)
    for i, rep in enumerate(range(start, stop)):
        key = _rep_key(master_seed, label, rep)
        _, dists_r = sampler.draw_clone_batch(
            k, n, sigma_r2, sigma_r2, stream=key.child("pool-rich")
        )
        _, dists_p = sampler.draw_clone_batch(
            k, n, sigma_r2, sigma_p2, stream=key.child("pool-poor")
        )
        # global argmin with the deterministic tie rule: rich pool wins ties
        out[i] = 1.0 if dists_r.min() <= dists_p.min() else 0.0
    return out


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
    payload = (master_seed, label, k, n, group.sigma_r2, group.sigma_p2)
    return _estimate(_fanout(_chunk_group, payload, reps, workers))


def _rep_seq_payoff(key: StreamKey, k: int, variance: float, policy: SeqSearchPolicy):
    rule = policy.rule
    if policy.regime == IN_PERSON:
        if isinstance(rule, StopAtFixedT):
            norms = sampler.sample_ball_radii(k, rule.t, key.child("block", 0))
            return -float(norms.min()) - policy.cost_ip(rule.t), 0.0
        best = math.inf
        seen = 0
        while seen < rule.cap:
            count = min(_SEQ_BLOCK, rule.cap - seen)
            norms = sampler.sample_ball_radii(k, count, key.child("block", seen // _SEQ_BLOCK))
            hits = np.nonzero(norms <= rule.threshold)[0]
            if hits.size:
                tau = seen + int(hits[0]) + 1
                return -float(norms[int(hits[0])]) - policy.cost_ip(tau), 0.0
            best = min(best, float(norms.min()))
            seen += count
        return -best - policy.cost_ip(rule.cap), 1.0

    if isinstance(rule, StopAtFixedT):
        norms, dists = sampler.draw_clone_batch(
            k, rule.t, variance, variance, stream=key.child("block", 0)
        )
        winner = int(np.argmin(dists))
        return -float(norms[winner]) - policy.cost_ai(rule.t) - policy.kappa, 0.0
    best_dist = math.inf
    best_norm = math.inf
    seen = 0
    while seen < rule.cap:
        count = min(_SEQ_BLOCK, rule.cap - seen)
        norms, dists = sampler.draw_clone_batch(
            k, count, variance, variance, stream=key.child("block", seen // _SEQ_BLOCK)
        )
        hits = np.nonzero(dists <= rule.threshold)[0]
        if hits.size:
            tau = seen + int(hits[0]) + 1
            return -float(norms[int(hits[0])]) - policy.cost_ai(tau) - policy.kappa, 0.0
        block_best = int(np.argmin(dists))
        if dists[block_best] < best_dist:
            best_dist = float(dists[block_best])
            best_norm = float(norms[block_best])
        seen += count
    return -best_norm - policy.cost_ai(rule.cap) - policy.kappa, 1.0


def _chunk_seq(payload: tuple, start: int, stop: int) -> np.ndarray:
    master_seed, label, k, variance, policy = payload
    out = np.empty((stop - start, 2))
    for i, rep in enumerate(range(start, stop)):
        key = _rep_key(master_seed, label, rep)
        out[i] = _rep_seq_payoff(key, k, variance, policy)
    return out


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
    payload = (master_seed, label, k, noise_variance_per_clone, policy)
    values = _fanout(_chunk_seq, payload, reps, workers)
    return PolicyReport(
        payoff=_estimate(values[:, 0]),
        truncated_reps=int(values[:, 1].sum()),
        policy=policy,
    )
