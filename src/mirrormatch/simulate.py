"""Monte Carlo estimators for the two search regimes.

Determinism contract: every replication owns a stream keyed by
(experiment label, replication index), so draws do not depend on how the
replications are cut into blocks. Results are written into a
replication-indexed array and reduced with numpy's pairwise mean over
that fixed-shape array; repeated runs with one seed are bit-identical.

The runner cuts the replications into blocks and maps them in the calling
process: a block holds at most ``_BLOCK_KEYS`` replications and
``_BLOCK_UNIFORMS`` uniforms, given the row width its estimator declares.
Each estimator is one function of one block: it draws the streams of all
the block's replications in one sampler call (a sequential search in one
call a round) and reduces them to one value each before the next block,
so memory stays bounded and a row's bits never depend on the block size."""

from __future__ import annotations

import math
# unused: perfbench/spans.py::count_pool_starts replaces it; goes with the next benchmark change (ROADMAP item 1)
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
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
# uniforms and keys drawn at once per block of replications: enough to
# spread each sampler call's fixed cost over many replications, few enough
# that a block's arrays (a few of 128 KB) and its keys (about 0.4 KB each,
# mostly hash state) barely move the peak RSS
_BLOCK_UNIFORMS = 2**14
_BLOCK_KEYS = 2**8


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
        if not self.per_period >= 0:
            raise ValueError(f"the per-period cost must be nonnegative, got {self.per_period!r}")

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


def _estimate(values: np.ndarray, label: str) -> Estimate:
    reps = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(reps))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericError(f"{label}: the mean {mean!r} with standard error {std_error!r} is not finite")
    return Estimate(mean=mean, std_error=std_error, reps=reps)


def _winners(norms: np.ndarray, dists: np.ndarray) -> np.ndarray:
    # each row's true norm at its clone-distance argmin (the lowest index on ties)
    return norms[np.arange(norms.shape[0]), np.argmin(dists, axis=1)]


def _replicate(block_fn, width: int, args: tuple, label: str, reps: int, master_seed: int) -> np.ndarray:
    """Stack block_fn(keys, *args) over the replications [0, reps).

    The replications are cut here into blocks of at most ``_BLOCK_KEYS``
    rows and ``_BLOCK_UNIFORMS`` uniforms, rows of ``width`` each, but one
    row at least, however wide. Replication ``rep`` always draws from the
    key (master_seed, label, "rep", rep), and the blocks' rows are stacked
    in order. The keys are derived a block at a time: a key holds its hash
    state (about 0.4 KB in all), so a call never holds all of its keys at
    once and ``reps`` costs time, not memory.
    """
    step = max(1, min(_BLOCK_KEYS, _BLOCK_UNIFORMS // width))
    base = StreamKey(master_seed).child(label)
    return np.concatenate([
        block_fn([base.child("rep", rep) for rep in range(start, min(start + step, reps))], *args)
        for start in range(0, reps, step)
    ])


def _check_common(reps: int, **sizes: int) -> None:
    if not isinstance(reps, int) or reps < 2:
        raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    for name, size in sizes.items():
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"{name} must be a positive integer, got {size!r}")


def _d_ip_block(keys, k: int, m: int) -> np.ndarray:
    return sampler.sample_ball_radii(k, m, keys).min(axis=1)


def estimate_d_ip(k: int, m: int, reps: int, master_seed: int) -> Estimate:
    """Mean of the min-norm over m fresh ball draws per replication."""
    _check_common(reps, m=m)
    label = f"d_ip(k={k},m={m})"
    return _estimate(_replicate(_d_ip_block, m, (k, m), label, reps, master_seed), label)


def _d_ai_block(keys, k: int, n: int, variance: float, clone_mode: str) -> np.ndarray:
    rho = None
    if clone_mode == FIXED_SUBJECT_CLONE:
        rho = sampler.sample_noise_norm(k, variance, [key.child("subject-clone") for key in keys])
    pools = [key.child("pool") for key in keys]
    return _winners(*sampler.draw_clone_batch(k, n, variance, variance, rho, stream=pools))


def estimate_d_ai(
    k: int, n: int, noise_variance_per_clone: float, reps: int,
    clone_mode: str = PER_INTERACTION, master_seed: int = 0,
) -> Estimate:
    """True distance to the candidate whose clone distance is minimal among n.

    Per replication: draw n clone interactions, select the argmin of the
    clone distance, record the winner's true norm; average over
    replications. In fixed-subject-clone mode each replication first
    draws the norm of one shared subject noise vector
    (``sampler.sample_noise_norm``), so a replication costs O(n) in any
    dimension k in either mode.
    """
    _check_common(reps, n=n)
    if clone_mode not in (PER_INTERACTION, FIXED_SUBJECT_CLONE):
        raise ValueError(f"unknown clone mode {clone_mode!r}")
    label = f"d_ai(k={k},n={n},mode={clone_mode})"
    fixed = clone_mode == FIXED_SUBJECT_CLONE
    width = sampler.clone_row_width(k, n, fixed) + (sampler.chi_square_width(k) if fixed else 0)
    args = (k, n, noise_variance_per_clone, clone_mode)
    return _estimate(_replicate(_d_ai_block, width, args, label, reps, master_seed), label)


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


def _coupled_block(keys, k: int, variance: float, n_max: int, grid: list[int]) -> np.ndarray:
    pools = [key.child("pool") for key in keys]
    norms, dists = sampler.draw_clone_batch(k, n_max, variance, variance, stream=pools)
    return np.stack([_winners(norms[:, :n], dists[:, :n]) for n in grid], axis=1)


def coupled_monotonicity_test(
    k: int, noise_variance_per_clone: float, n_max: int, reps: int, master_seed: int
) -> dict[int, Estimate]:
    """Winner distance per pool size, evaluated prefix-by-prefix on one pool.

    Each replication draws a single pool of n_max interactions and reads
    off the argmin of every prefix, coupling all pool sizes on one
    probability space; the returned means should be weakly decreasing in
    n up to Monte Carlo noise.
    """
    _check_common(reps, n_max=n_max)
    grid = monotonicity_grid(n_max)
    label = f"coupled(k={k},n_max={n_max})"
    args = (k, noise_variance_per_clone, n_max, grid)
    width = sampler.clone_row_width(k, n_max, False)
    values = _replicate(_coupled_block, width, args, label, reps, master_seed)
    return {n: _estimate(values[:, j], label) for j, n in enumerate(grid)}


def _group_block(keys, k: int, n: int, sigma_r2: float, sigma_p2: float) -> np.ndarray:
    rich = [key.child("pool-rich") for key in keys]
    poor = [key.child("pool-poor") for key in keys]
    _, dists_r = sampler.draw_clone_batch(k, n, sigma_r2, sigma_r2, stream=rich)
    _, dists_p = sampler.draw_clone_batch(k, n, sigma_r2, sigma_p2, stream=poor)
    # global argmin with the deterministic tie rule: rich pool wins ties
    return (dists_r.min(axis=1) <= dists_p.min(axis=1)).astype(float)


def estimate_group_win_rate(k: int, group: GroupSpec, n: int, reps: int, master_seed: int) -> Estimate:
    """Probability that the overall best clone match is from the data-rich pool.

    Per replication: n interactions against data-rich candidates (both
    sides carry the rich noise) and n against data-poor candidates
    (subject rich, candidate poor), winner = pool holding the global
    minimal clone distance.
    """
    _check_common(reps, n=n)
    label = f"groups(k={k},n={n})"
    args = (k, n, group.sigma_r2, group.sigma_p2)
    width = 2 * sampler.clone_row_width(k, n, False)
    return _estimate(_replicate(_group_block, width, args, label, reps, master_seed), label)


def _seq_plan(rule: StopAtFixedT | StopWhenBestBelow) -> tuple[int, int, float, float]:
    """A rule's (draws a round, cap, stopping threshold, truncated flag at the cap)."""
    if isinstance(rule, StopAtFixedT):
        return rule.t, rule.t, -math.inf, 0.0
    return _SEQ_BLOCK, rule.cap, rule.threshold, 1.0


def _seq_payoff_block(keys, k: int, variance: float, policy: SeqSearchPolicy) -> np.ndarray:
    # Draws arrive in blocks from the sub-streams ("block", 0), ("block", 1),
    # ...: 512 draws for a threshold rule, one t-draw block with no threshold
    # for StopAtFixedT(t). The search observes one value per draw (in person
    # the ball radius, on the platform the clone distance) and is paid the
    # true norm of the draw it stops on, or of the best observation at the cap.
    # Round j draws block j for the replications still searching; the rows
    # are (payoff, truncated).
    block, cap, threshold, truncated = _seq_plan(policy.rule)
    in_person = policy.regime == IN_PERSON
    cost, fee = (policy.cost_ip, 0.0) if in_person else (policy.cost_ai, policy.kappa)
    values = np.empty((len(keys), 2))
    values[:, 1] = truncated
    best_obs = np.full(len(keys), math.inf)
    best_norm = np.full(len(keys), math.inf)
    searching = np.arange(len(keys))
    with np.errstate(over="ignore"):  # a huge per-period cost is caught as a non-finite mean
        for seen in range(0, cap, block):
            count = min(block, cap - seen)
            streams = [keys[i].child("block", seen // block) for i in searching]
            if in_person:
                norms = observed = sampler.sample_ball_radii(k, count, streams)
            else:
                norms, observed = sampler.draw_clone_batch(k, count, variance, variance, stream=streams)
            rows = np.arange(searching.size)
            i = np.argmin(observed, axis=1)
            low = observed[rows, i]
            fired = low <= threshold
            if fired.any():
                first = np.argmax(observed[fired] <= threshold, axis=1)  # the first draw at or below it
                stopped = searching[fired]
                values[stopped, 0] = -norms[fired, first] - cost(seen + first + 1) - fee
                values[stopped, 1] = 0.0
            # a stopped search is not read again, so its best may move too
            better = low < best_obs[searching]
            best_obs[searching[better]] = low[better]
            best_norm[searching[better]] = norms[rows[better], i[better]]
            searching = searching[~fired]
            if not searching.size:
                break
        values[searching, 0] = -best_norm[searching] - cost(cap) - fee
    return values


def evaluate_seq_policy(
    k: int, noise_variance_per_clone: float, policy: SeqSearchPolicy, reps: int, master_seed: int
) -> PolicyReport:
    """Expected payoff of a stopping policy; truncated paths are flagged.

    In person the payoff is -(best norm so far) - c_ip(tau); on the
    platform it is -(true norm of the best clone match) - c_ai(tau) -
    kappa. A threshold rule that never fires is truncated at its cap and
    counted in ``truncated_reps``.
    """
    _check_common(reps)
    label = f"seq(k={k},regime={policy.regime},rule={policy.rule})"
    block, cap, _, _ = _seq_plan(policy.rule)
    first = min(block, cap)  # the first round draws the most, so its width bounds every round
    width = first if policy.regime == IN_PERSON else sampler.clone_row_width(k, first, False)
    args = (k, noise_variance_per_clone, policy)
    values = _replicate(_seq_payoff_block, width, args, label, reps, master_seed)
    return PolicyReport(
        payoff=_estimate(values[:, 0], label),
        truncated_reps=int(values[:, 1].sum()),
        policy=policy,
    )
