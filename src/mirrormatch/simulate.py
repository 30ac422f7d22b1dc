"""Monte Carlo estimators for the two search regimes.

Determinism contract: every replication owns a stream keyed by
(experiment label, replication index), so draws do not depend on how the
replications are cut into blocks. Results are written into a
replication-indexed array and reduced with numpy's pairwise sums over
that fixed-shape array, to a plain mean or, where a block also returns an
exact Uniform(0, 1) control, a control-variate mean (``_estimate``);
repeated runs with one seed are bit-identical.

The runner cuts the replications into blocks and maps them in the calling
process: a block holds at most ``_BLOCK_KEYS`` replications and
``_BLOCK_UNIFORMS`` uniforms, given the row width its estimator declares.
Each estimator is one function of one block: it draws the streams of all
the block's replications in one sampler call (a sequential search in one
call a round) and reduces them to one value each before the next block,
so memory stays bounded and a row's bits never depend on the block size.
A threshold search pays the mean norm of its stopping round's hits, a sum
over that round's own row, so it too keeps its bits at any block size."""

from __future__ import annotations

import math
# unused: perfbench/spans.py::count_pool_starts replaces it; goes with the next benchmark change (ROADMAP item 1)
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import analytic, sampler
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
class SeqSearchPolicy:
    """One regime's stopping policy with its search cost and entry fee.

    The search draws rounds of ``_SEQ_BLOCK`` draws up to ``cap``. With no
    threshold it takes all ``cap`` draws and is never truncated. With a
    threshold it stops at the first observation at or below it, and is
    truncated at the cap. The payoff is -norm - cost_per_period * tau - fee,
    where a stopped search is paid the mean norm of its stopping round's hits.
    """

    regime: str
    cap: int
    threshold: float | None = None
    cost_per_period: float = 0.0
    fee: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in (IN_PERSON, AI_PLATFORM):
            raise ValueError(f"unknown regime {self.regime!r}")
        analytic._check_positive_int("cap", self.cap)
        for name in ("threshold", "cost_per_period", "fee"):
            value = getattr(self, name)
            if value is not None and not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


@dataclass(frozen=True)
class PolicyReport:
    """Expected-payoff estimate for one policy, with truncation accounting."""

    payoff: Estimate
    truncated_reps: int


def _estimate(values: np.ndarray, label: str) -> Estimate:
    """Mean and standard error of a block function's rows: X, or (X, Y).

    Y is an exact Uniform(0, 1) control variate (Lavenberg and Welch 1981;
    Glasserman 2003, section 4.1). The estimate of E[X] is then the mean of
    v = 1/2 + (X - Y) - gamma (Y - 1/2), the regression mean X - beta (Y - 1/2)
    with gamma = beta - 1 the slope of X - Y on Y, by pairwise sums (a BLAS
    dot's bits may depend on its thread count). Where X is Y bit for bit,
    every v is 1/2 and the standard error 0. gamma is fitted only when
    reps >= 3 and Y varies, and the standard error then takes the residual
    variance over reps - 2; otherwise gamma = 0 and it takes reps - 1.
    The fit overwrites the rows in place, so beside them it holds one more
    array a replication at most.
    """
    reps = values.shape[0]
    values, *control = values.reshape(reps, -1).T
    lost = 1  # degrees of freedom the fit takes from the variance
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is caught below
        if control:
            (y,) = control
            values -= y  # X - Y
            ybar = y.mean()
            y -= ybar  # Y centred
            spread = (y * y).sum()
            gamma = 0.0
            if reps >= 3 and spread > 0.0:
                residual = values - values.mean()
                residual *= y
                gamma = residual.sum() / spread
                lost = 2
                del residual
            y += ybar - 0.5
            y *= gamma
            values += 0.5
            values -= y  # 1/2 + (X - Y) - gamma (Y - 1/2)
        mean = float(values.mean())
        std_error = float(values.std(ddof=lost) / math.sqrt(reps))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericError(f"{label}: the mean {mean!r} with standard error {std_error!r} is not finite")
    return Estimate(mean=mean, std_error=std_error, reps=reps)


def _replicate(block_fn, width: int, args: tuple, label: str, reps: int, master_seed: int) -> np.ndarray:
    """Stack block_fn(keys, *args) over the replications [0, reps).

    The replications are cut here into blocks of at most ``_BLOCK_KEYS``
    rows and ``_BLOCK_UNIFORMS`` uniforms, rows of ``width`` each, but one
    row at least, however wide. Replication ``rep`` always draws from the
    key (master_seed, label, "rep", rep), and the blocks' rows are stacked
    in order into one array. The keys are derived a block at a time: a key
    holds its hash state (about 0.4 KB in all), so a call never holds all of
    its keys at once and ``reps`` costs time, not memory.
    """
    step = max(1, min(_BLOCK_KEYS, _BLOCK_UNIFORMS // width))
    base = StreamKey(master_seed).child(label)
    rows = None
    for start in range(0, reps, step):
        stop = min(start + step, reps)
        block = block_fn([base.child("rep", rep) for rep in range(start, stop)], *args)
        if rows is None:
            rows = np.empty((reps,) + block.shape[1:])
        rows[start:stop] = block
    return rows


def _check_common(reps: int, **sizes: int) -> None:
    if not isinstance(reps, int) or reps < 2:
        raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    for name, size in sizes.items():
        analytic._check_positive_int(name, size)


def _in_person_control(best: np.ndarray, k: int, m: int) -> np.ndarray:
    # the survival function of the best of m ball radii at itself
    return (1.0 - best**k) ** m


def _d_ip_block(keys, k: int, m: int) -> np.ndarray:
    best = sampler.sample_ball_radii(k, m, keys).min(axis=1)
    return np.stack([best, _in_person_control(best, k, m)], axis=1)


def estimate_d_ip(k: int, m: int, reps: int, master_seed: int) -> Estimate:
    """Mean of the min-norm M over m fresh ball draws per replication.

    M^k is the least of m uniforms, so the estimate subtracts the exact
    Uniform(0, 1) control Y = (1 - M^k)^m (see ``_estimate``).
    """
    _check_common(reps, m=m)
    label = f"d_ip(k={k},m={m})"
    return _estimate(_replicate(_d_ip_block, m, (k, m), label, reps, master_seed), label)


def _d_ai_block(keys, k: int, n: int, variance: float, clone_mode: str) -> np.ndarray:
    pools = [key.child("pool") for key in keys]
    if clone_mode == FIXED_SUBJECT_CLONE:
        rho = sampler.sample_noise_norm(k, variance, [key.child("subject-clone") for key in keys])
        norms, dists = sampler.draw_clone_batch(k, n, variance, rho, keys=pools)
    else:  # both clones' noise is fresh per interaction
        norms, dists = sampler.draw_clone_batch(k, n, 2.0 * variance, keys=pools)
    # each row's true norm at its clone-distance argmin (the lowest index on ties)
    return norms[np.arange(len(keys)), np.argmin(dists, axis=1)]


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
    width = sampler.clone_row_width(k, n, fixed)
    args = (k, n, noise_variance_per_clone, clone_mode)
    return _estimate(_replicate(_d_ai_block, width, args, label, reps, master_seed), label)


def _group_block(keys, k: int, n: int, nu_r: float, nu_p: float) -> np.ndarray:
    _, dists = sampler.draw_clone_batch(k, n, nu_r, keys=[key.child("pool-rich") for key in keys])
    # columns (X, Y): the probability that all n data-poor clone distances
    # exceed the rich pool's minimum m (the rich pool wins ties, which have
    # probability 0), and that n more data-rich ones would, (1 - F_r(m))^n
    low = dists.min(axis=1)
    cdf = np.stack([analytic.clone_distance_cdf(k, nu, low) for nu in (nu_p, nu_r)], axis=1)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: the rich pool cannot win
        return np.exp(n * np.log1p(-cdf))


def estimate_group_win_rate(k: int, group: GroupSpec, n: int, reps: int, master_seed: int) -> Estimate:
    """Probability that the overall best clone match is from the data-rich pool.

    A searcher with rich noise meets n data-rich candidates (combined
    variance nu_r) and n data-poor ones (nu_p), and the pool holding the
    minimal clone distance wins. Per replication only the rich pool is
    drawn, and X is the exact conditional probability that no data-poor
    clone comes closer than the rich pool's minimum m: (1 - F_p(m))^n, with
    F_p = ``analytic.clone_distance_cdf`` at nu_p (conditional Monte Carlo).
    Its control variate Y = (1 - F_r(m))^n is the survival function of m at
    m, so it is Uniform(0, 1) with mean 1/2 exactly, and the estimate
    subtracts it (see ``_estimate``). At equal variances X is Y bit for
    bit, so every value is exactly 1/2 and the standard error is 0.
    Elsewhere the cut is largest where the variances are close: at k = 5
    and n = 64, about 200-fold against X alone at ratio 4 and 2-fold at 64.
    """
    _check_common(reps, n=n)
    label = f"groups(k={k},n={n})"
    args = (k, n, group.nu_r, group.nu_p)
    width = sampler.clone_row_width(k, n, False)
    return _estimate(_replicate(_group_block, width, args, label, reps, master_seed), label)


def _seq_payoff_block(keys, k: int, variance: float, policy: SeqSearchPolicy) -> np.ndarray:
    # Round j draws up to ``_SEQ_BLOCK`` draws from the sub-stream ("block", j)
    # of each replication still searching, which observes one value per draw
    # (in person the ball radius, on the platform the clone distance). It is
    # paid the mean true norm of the round's draws at or below the threshold at
    # the first one's tau, or the norm of the best observation at the cap; with
    # no threshold it searches at -inf and is never truncated. The rows are
    # (payoff, truncated), and in person without a threshold, where the payoff
    # is the best of cap radii, (payoff, its control, truncated).
    fixed = policy.threshold is None
    threshold = -math.inf if fixed else policy.threshold
    cap, cost, fee = policy.cap, policy.cost_per_period, policy.fee
    in_person = policy.regime == IN_PERSON
    controlled = in_person and fixed
    values = np.empty((len(keys), 3 if controlled else 2))
    values[:, -1] = not fixed
    best_obs = np.full(len(keys), math.inf)
    best_norm = np.full(len(keys), math.inf)
    searching = np.arange(len(keys))
    with np.errstate(over="ignore"):  # a huge per-period cost is caught as a non-finite mean
        for seen in range(0, cap, _SEQ_BLOCK):
            count = min(_SEQ_BLOCK, cap - seen)
            streams = [keys[i].child("block", seen // _SEQ_BLOCK) for i in searching]
            if in_person:
                norms = observed = sampler.sample_ball_radii(k, count, streams)
            else:
                norms, observed = sampler.draw_clone_batch(k, count, 2.0 * variance, keys=streams)
            rows = np.arange(searching.size)
            i = np.argmin(observed, axis=1)
            low = observed[rows, i]
            fired = low <= threshold
            if fired.any():
                hits = observed[fired] <= threshold
                first = np.argmax(hits, axis=1)  # the first draw at or below it
                paid = np.where(hits, norms[fired], 0.0).sum(axis=1) / hits.sum(axis=1)  # Rao-Blackwell
                stopped = searching[fired]
                values[stopped, 0] = -paid - cost * (seen + first + 1) - fee
                values[stopped, -1] = 0.0
            # a stopped search is not read again, so its best may move too
            better = low < best_obs[searching]
            best_obs[searching[better]] = low[better]
            best_norm[searching[better]] = norms[rows[better], i[better]]
            searching = searching[~fired]
            if not searching.size:
                break
        values[searching, 0] = -best_norm[searching] - cost * cap - fee
    if controlled:
        values[:, 1] = _in_person_control(best_norm, k, cap)
    return values


def evaluate_seq_policy(
    k: int, noise_variance_per_clone: float, policy: SeqSearchPolicy, reps: int, master_seed: int
) -> PolicyReport:
    """Expected payoff of a stopping policy; truncated paths are flagged.

    The payoff is -(true norm of the draw stopped on) - cost_per_period *
    tau - fee: in person the best radius so far, on the platform the best
    clone match. Every search draws rounds of ``_SEQ_BLOCK`` draws, so its
    memory does not grow with the cap; with no threshold it takes all cap
    draws. A threshold that never fires is truncated at the cap and
    counted in ``truncated_reps``. A threshold that fires at tau pays the
    mean norm of every draw of that round at or below it: the round's draws
    are i.i.d., so given which of them hit and their unordered values, the
    hit at tau is equally likely to be any of them, and that mean is
    E[norm at tau | hits] (Rao-Blackwell): the same expected payoff from the
    same draws at a lower variance. In person without a threshold the
    payoff is -M - cost_per_period * cap - fee with M the best of cap radii,
    and the estimate subtracts M's control variate (1 - M^k)^cap, as
    ``estimate_d_ip`` does; every other policy takes the plain mean.
    """
    _check_common(reps)
    analytic._check_variance(noise_variance_per_clone)
    # the label is part of every stream address, so this rule text must stay byte for byte
    rule = (f"StopAtFixedT(t={policy.cap!r})" if policy.threshold is None
            else f"StopWhenBestBelow(threshold={policy.threshold!r}, cap={policy.cap!r})")
    label = f"seq(k={k},regime={policy.regime},rule={rule})"
    # the first round draws the most, so its width bounds every round
    first = min(_SEQ_BLOCK, policy.cap)
    width = first if policy.regime == IN_PERSON else sampler.clone_row_width(k, first, False)
    args = (k, noise_variance_per_clone, policy)
    values = _replicate(_seq_payoff_block, width, args, label, reps, master_seed)
    return PolicyReport(payoff=_estimate(values[:, :-1], label), truncated_reps=int(values[:, -1].sum()))
