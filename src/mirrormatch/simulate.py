"""Monte Carlo estimators for the two search regimes.

Determinism contract: every replication owns a stream keyed by
(experiment label, replication index), so draws do not depend on how the
replications are cut into blocks. Results are written into a
replication-indexed array and reduced with numpy's pairwise sums over
that fixed-shape array, to a plain mean or, where a block also returns an
exact Uniform(0, 1) control Y, a control-variate mean (``_estimate``): a
least-squares fit on the shifted Legendre polynomials P_1..P_3(2Y - 1),
whose small normal equations are solved by hand in a fixed order, or with
fewer than six replications or an ill-posed fit one slope on Y. Repeated
runs with one seed are bit-identical, at any BLAS thread count.

The runner cuts the replications into blocks and maps them in the calling
process: a block holds at most ``_BLOCK_KEYS`` replications and
``_BLOCK_UNIFORMS`` uniforms, given the row width its estimator declares.
Each estimator is one function of one block: it draws the streams of all
the block's replications in one sampler call (a sequential search in one
call a round) and reduces them to one value each before the next block,
so memory stays bounded and a row's bits never depend on the block size.
A threshold search pays the mean norm of its stopping round's hits, a sum
over that round's own row, so it too keeps its bits at any block size. A
platform winner among per-interaction clones is paid its posterior mean
m(S_(1)) with the control (1 - F(S_(1)))^n, read off a table that depends
on (k, nu, n) alone and is evaluated elementwise (``_winner_table``). With
a fixed subject clone the winner is paid its mean norm given the subject
noise's norm and its own offset from that noise
(``density.mean_norm_given_offset``), one quadrature entry a replication,
refined and summed on its own, so it too keeps its bits at any block
size."""

from __future__ import annotations

import functools
import math
# unused: perfbench/spans.py::count_pool_starts replaces it; goes with the next benchmark change (ROADMAP item 1)
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from . import analytic, chebyshev, density, sampler
from .analytic import GroupSpec, NumericError
from .quadrature import QuadratureError
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
# the platform winner's table spans the least of n clone distances but with
# probability about _TABLE_CUT at either end, and each of its series holds
# its function to about _TABLE_TAIL
_TABLE_CUT = 1e-17
_TABLE_TAIL = 1e-13
_TABLE_DEGREES = (16, 256)  # a series' first and last degree
_CHNDTR_RANGE = 1e10  # chndtr's arguments past which it gives NaN
# the shifted Legendre polynomials P_j(2y - 1), j = 0..3, by their
# coefficients in y, highest power first, each padded to four
_LEGENDRE = (
    np.array([0.0, 0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, 2.0, -1.0]),
    np.array([0.0, 6.0, -6.0, 1.0]),
    np.array([20.0, -30.0, 12.0, -1.0]),
)
_POWERS_PLUS_ONE = np.array([4.0, 3.0, 2.0, 1.0])  # y^3, y^2, y and 1 have means 1/4, 1/3, 1/2 and 1
_FIT_TOLERANCE = 1e-6  # see _cubic_fit


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

    Y is an exact Uniform(0, 1) control variate, and every shifted Legendre
    polynomial P_j(2Y - 1), j >= 1, has mean exactly 0, so each is an exact
    control too (Lavenberg and Welch 1981; Glasserman 2003, section 4.1.2).
    With reps >= 6, X - Y is fitted by least squares on P_0..P_3(2Y - 1)
    where that fit is well posed (``_cubic_fit``): the estimate of E[X] is
    1/2 plus the fit's intercept, with that intercept's HC3 standard error.
    Otherwise the estimate is the mean of v = 1/2 + (X - Y) - gamma (Y - 1/2),
    the regression mean X - beta (Y - 1/2) with gamma = beta - 1 the slope
    of X - Y on Y; gamma is fitted only when reps >= 3 and Y varies, and the
    standard error then takes the residual variance over reps - 2;
    otherwise gamma = 0 and it takes reps - 1. Where X is Y bit for bit,
    either rule gives exactly 1/2 and a standard error of 0. Every sum is
    numpy's pairwise sum over the replication array (a BLAS dot's bits may
    depend on its thread count). The fit overwrites the rows in place, so
    beside them it holds one more array a replication at most.
    """
    reps = values.shape[0]
    values, *control = values.reshape(reps, -1).T
    lost, fit = 1, None  # lost: the degrees of freedom a fitted slope takes from the variance
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is caught below
        if control:
            (y,) = control
            values -= y  # X - Y
            fit = _cubic_fit(values, y) if reps >= 6 else None
        if control and fit is None:
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
        mean, std_error = fit or (float(values.mean()), float(values.std(ddof=lost) / math.sqrt(reps)))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise NumericError(f"{label}: the mean {mean!r} with standard error {std_error!r} is not finite")
    return Estimate(mean=mean, std_error=std_error, reps=reps)


def _horner(coefficients: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    # the polynomial with these coefficients (highest power first) at y, into out
    out.fill(coefficients[0])
    for c in coefficients[1:]:
        out *= y
        out += c
    return out


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the product of two polynomials by their coefficients, in a fixed order
    # (np.convolve takes BLAS dots)
    out = np.zeros(a.size + b.size - 1)
    for i, c in enumerate(a):
        out[i : i + b.size] += c * b
    return out


def _cubic_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """1/2 plus the intercept of the least-squares fit of x = X - Y on
    P_0..P_3(2Y - 1), and its HC3 standard error, or None with x untouched.

    Each entry of the Gram matrix G_ij = sum P_i P_j is one polynomial in Y,
    evaluated by Horner's rule into one buffer and summed, and G = L L^T is
    factored by hand in a fixed order, so no bit depends on a BLAS thread
    count. The polynomials Q = L^-1 P are orthonormal over the
    replications, so the fit is f = sum_i c_i Q_i with c_i = sum Q_i x, and
    the leverage h = sum_i Q_i^2 is one polynomial of degree 6. Only P_0 = 1
    has a nonzero mean over Uniform(0, 1), so a polynomial's coefficient on
    P_0 is its mean there: the intercept is f's mean, sum w x with
    w = sum_i (mean of Q_i) Q_i. None is returned where some P_j is all but
    a combination of those before it (1 - R^2 below ``_FIT_TOLERANCE``, as
    where Y takes three distinct values or fewer) or some replication's
    1 - h is below it. The standard error is HC3 (MacKinnon and White 1985),
    sqrt(sum (w e / (1 - h))^2) with e = x - f, because X - Y has its
    largest residuals where Y is near 0 or 1, where h is largest: over
    1,000 seeds of the benchmark's gated cells (``tests/sweep.py``) it kept
    every |z| below 4.7, where the residual variance over reps - 4 reached
    4.99.
    """
    buffer = np.empty_like(x)
    lower = [[0.0] * len(_LEGENDRE) for _ in _LEGENDRE]
    for i, p in enumerate(_LEGENDRE):  # Cholesky, an entry of G at a time
        for j in range(i + 1):
            gram = s = float(_horner(_times(p, _LEGENDRE[j]), y, buffer).sum())
            for m in range(j):
                s -= lower[i][m] * lower[j][m]
            if j < i:
                lower[i][j] = s / lower[j][j]
            elif s > _FIT_TOLERANCE * gram:
                lower[i][i] = math.sqrt(s)
            else:
                return None
    orthonormal = []
    for i, p in enumerate(_LEGENDRE):  # forward substitution
        for m, q in enumerate(orthonormal):
            p = p - lower[i][m] * q
        orthonormal.append(p / lower[i][i])
    leverage = sum(_times(q, q) for q in orthonormal)
    if not _horner(leverage, y, buffer).max() < 1.0 - _FIT_TOLERANCE:
        return None
    fitted = weight = intercept = 0.0
    for q in orthonormal:
        _horner(q, y, buffer)
        buffer *= x
        c, mean = float(buffer.sum()), float((q / _POWERS_PLUS_ONE).sum())
        fitted, weight, intercept = fitted + c * q, weight + mean * q, intercept + c * mean
    x -= _horner(fitted, y, buffer)  # the residuals e
    _horner(leverage, y, buffer)
    buffer -= 1.0  # h - 1: its sign goes with the square
    x /= buffer
    x *= _horner(weight, y, buffer)
    x *= x
    return 0.5 + intercept, math.sqrt(float(x.sum()))


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


@dataclass(frozen=True)
class _WinnerTable:
    """m(s) = E[R | S = s] and F(s) = P(S <= s) of one clone distance, on the
    support [lo, hi] of the least of n; see ``_winner_table``."""

    params: density.JointDensityParams
    n: int
    lo: float
    hi: float
    pieces: np.ndarray | None  # m's pieces, then F's when the control is formed
    controlled: bool

    def columns(self, low: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        """(X,) or (X, (1 - F(s))^n) a row, at the least clone distances s = ``low``.

        X is m(s), or the winner's ``drawn`` norm where m is not to be had.
        """
        if self.pieces is None:
            return drawn[:, None]
        x = (2.0 * low - (self.lo + self.hi)) / (self.hi - self.lo)
        values = chebyshev.evaluate(self.pieces, x).T
        k, nu = self.params.k, self.params.nu
        for i in np.flatnonzero(~(np.abs(x) <= 1.0)):  # off the table: m and F themselves
            try:
                values[i, 0] = density.conditional_mean_r_given_s(self.params, float(low[i]))
            except QuadratureError:
                values[i, 0] = drawn[i]
            if self.controlled:
                values[i, 1] = analytic.clone_distance_cdf(k, nu, float(low[i]))
        if self.controlled:
            with np.errstate(divide="ignore"):  # F = 1 gives log1p(-1) = -inf and a control of 0
                values[:, 1] = np.exp(self.n * np.log1p(-np.clip(values[:, 1], 0.0, 1.0)))
        return values


def _winner_support(k: int, nu: float, n: int, s_max: float) -> tuple[float, float, bool]:
    # [lo, hi] in [0, s_max] with n F(lo) and (1 - F(hi))^n at most
    # _TABLE_CUT, from F on a 17-point grid and then on 9 points across each
    # end's cell, and whether F was finite there; chndtr gives NaN, after a
    # long series, once s^2/nu reaches _CHNDTR_RANGE, so F is not tried
    # where s_max^2/nu does
    if not s_max * s_max < _CHNDTR_RANGE * nu:
        return 0.0, s_max, False

    def ends(below, f_below, above, f_above) -> tuple[np.ndarray, np.ndarray]:
        # the cells of below and above that hold lo and hi, from F there
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf
            low = n * f_below <= _TABLE_CUT  # F rises, so these lead the grid
            high = n * np.log1p(-f_above) <= math.log(_TABLE_CUT)  # and these close it
        i, j = low.sum() - 1, min(above.size - high.sum(), above.size - 1)
        return below[i : i + 2], above[max(j - 1, 0) : j + 1]

    try:
        grid = np.linspace(0.0, s_max, 17)
        cdf = analytic.clone_distance_cdf(k, nu, grid)  # once: both ends read the one grid
        below, above = ends(grid, cdf, grid, cdf)
        below, above = np.linspace(below[0], below[-1], 9), np.linspace(above[0], above[-1], 9)
        cdf = analytic.clone_distance_cdf(k, nu, np.concatenate([below, above]))
        below, above = ends(below, cdf[:9], above, cdf[9:])
    except NumericError:  # chndtr gives NaN: the support is the bound's
        return 0.0, s_max, False
    return float(below[0]), float(above[-1]), True


@functools.cache
def _winner_table(k: int, nu: float, n: int) -> _WinnerTable:
    """The table of the platform winner among n per-interaction clones at combined variance nu.

    m is ``density.conditional_mean_r_given_s``, evaluated at the nodes in
    one batch (``density._conditional_means``), and F is
    ``analytic.clone_distance_cdf``, each a Chebyshev series on S_(1)'s
    support of degree 16 doubled up to 256 (``chebyshev.fit``), read off
    its pieces; a value off the support takes m and F themselves. The table
    depends on (k, nu, n) alone and is built once a process. F enters only
    where its series converges, which takes F finite at every node. Where
    m's series cannot converge (vanishing noise: m(s) bends on a scale of
    sqrt(nu), below the finest node spacing) or does not, or m fails at a
    node or at a value off the table, the replication keeps its drawn norm:
    the choice depends on S_(1) alone and E[R | S_(1)] = m(S_(1)), so the
    mean stays exact.
    """
    params = density.JointDensityParams(k, nu)
    # by the chi-square bound of Laurent and Massart (2000) the noise norm
    # exceeds sqrt(nu (k + 2 sqrt(40 k) + 80)) with probability below e^-40,
    # and S exceeds s_max with probability below that
    s_max = 1.0 + math.sqrt(nu * (k + 2.0 * math.sqrt(40.0 * k) + 80.0))
    # no series of the last degree resolves a bend narrower than its finest node spacing
    if not math.sqrt(nu) > s_max * 0.5 * (1.0 - math.cos(math.pi / _TABLE_DEGREES[1])):
        return _WinnerTable(params, n, 0.0, s_max, None, False)
    lo, hi, finite = _winner_support(k, nu, n, s_max)
    try:
        mean = chebyshev.fit(
            lambda s: density._conditional_means(params, s), lo, hi, _TABLE_TAIL, _TABLE_DEGREES
        )
    except QuadratureError:
        mean = None
    if mean is None:
        return _WinnerTable(params, n, lo, hi, None, False)
    series = [mean]
    if finite:
        try:
            cdf = chebyshev.fit(lambda s: analytic.clone_distance_cdf(k, nu, s), lo, hi, _TABLE_TAIL, _TABLE_DEGREES)
        except NumericError:  # chndtr gives NaN at a node
            cdf = None
        if cdf is not None:
            series.append(np.pad(cdf, (0, max(0, mean.size - cdf.size))))
            series[0] = np.pad(mean, (0, max(0, cdf.size - mean.size)))
    return _WinnerTable(params, n, lo, hi, chebyshev.pieces(np.stack(series)), len(series) == 2)


def _d_ai_block(keys, k: int, n: int, variance: float, clone_mode: str) -> np.ndarray:
    """A row a key: with a fixed subject the winner's mean norm given its
    offset, E[R | rho, W]; per interaction the columns of
    ``_WinnerTable.columns``, (m(S_(1)), (1 - F(S_(1)))^n) where the table
    forms the control, else (m(S_(1)),)."""
    pools = [key.child("pool") for key in keys]
    rows = np.arange(len(keys))
    if clone_mode == FIXED_SUBJECT_CLONE:
        rho = sampler.sample_noise_norm(k, variance, [key.child("subject-clone") for key in keys])
        _, dists, offsets = sampler.draw_clone_batch(k, n, variance, rho, keys=pools)
        # the winner is each row's clone-distance argmin (the lowest index on ties)
        return density.mean_norm_given_offset(k, rho, offsets[rows, np.argmin(dists, axis=1)])
    # both clones' noise is fresh per interaction: the winner's posterior mean
    # m(S_(1)), and the control (1 - F(S_(1)))^n where the table forms it
    norms, dists, _ = sampler.draw_clone_batch(k, n, 2.0 * variance, keys=pools)
    i = np.argmin(dists, axis=1)
    return _winner_table(k, 2.0 * variance, n).columns(dists[rows, i], norms[rows, i])


def estimate_d_ai(
    k: int, n: int, noise_variance_per_clone: float, reps: int,
    clone_mode: str = PER_INTERACTION, master_seed: int = 0,
) -> Estimate:
    """True distance to the candidate whose clone distance is minimal among n.

    Per replication: draw n clone interactions and select the argmin of the
    clone distance. In per-interaction mode the n candidates' (R, S) are
    i.i.d. and the winner is picked by S alone, so its true norm has mean
    m(S_(1)) = E[R | S = S_(1)] given the least clone distance S_(1)
    (conditional Monte Carlo; Asmussen and Glynn 2007, ch. V): a
    replication pays m(S_(1)), with m ``density.conditional_mean_r_given_s``
    at nu = 2 sigma^2, and carries the exact Uniform(0, 1) control
    (1 - F(S_(1)))^n, F = ``analytic.clone_distance_cdf`` (see ``_estimate``).
    Both are read off one table per (k, nu, n) (``_winner_table``). Where
    F's series does not converge on the table's nodes (chndtr gives NaN
    under vanishing noise, or at n = 1, where F is not resolved to the
    table's tolerance) the replication pays m(S_(1)) alone. In
    fixed-subject-clone mode the candidates share the subject noise e, so
    they are i.i.d. only given it: each replication first draws its norm
    rho (``sampler.sample_noise_norm``). A candidate's clone distance then
    depends on its true point X only through its offset W = ||X - e||, and
    the winner is picked by the clone distances alone, so its true norm has
    mean E[R | rho, W] at its own offset, the mean norm over the sphere of
    radius W about e inside the ball (``density.mean_norm_given_offset``):
    a replication pays that (conditional Monte Carlo again), and the
    estimate is its plain mean. At n = 25 and sigma^2 = 0.0025 that cuts
    the variance of the winner's drawn norm about 27-fold at k = 100,
    300-fold at k = 300 and 3,000-fold at k = 1000. A replication costs
    O(n) in any dimension k in either mode.
    """
    _check_common(reps, n=n)
    analytic._check_variance(noise_variance_per_clone)
    if clone_mode not in (PER_INTERACTION, FIXED_SUBJECT_CLONE):
        raise ValueError(f"unknown clone mode {clone_mode!r}")
    label = f"d_ai(k={k},n={n},mode={clone_mode})"
    fixed = clone_mode == FIXED_SUBJECT_CLONE
    width = sampler.clone_row_width(k, n, fixed)
    args = (k, n, noise_variance_per_clone, clone_mode)
    return _estimate(_replicate(_d_ai_block, width, args, label, reps, master_seed), label)


def _group_block(keys, k: int, n: int, nu_r: float, nu_p: float) -> np.ndarray:
    _, dists, _ = sampler.draw_clone_batch(k, n, nu_r, keys=[key.child("pool-rich") for key in keys])
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
    # the first one's tau; at the cap, in person the best radius and on the
    # platform the posterior mean m of the best clone distance; with no
    # threshold it searches at -inf and is never truncated. The rows are
    # (payoff, truncated), and where no draw can stop the search (threshold
    # None or 0) and a control is formed, (payoff, its control, truncated).
    fixed = policy.threshold is None
    threshold = -math.inf if fixed else policy.threshold
    cap, cost, fee = policy.cap, policy.cost_per_period, policy.fee
    in_person = policy.regime == IN_PERSON
    # a search no draw can stop (threshold None or 0) carries a control
    controlled = not policy.threshold and (in_person or _winner_table(k, 2.0 * variance, cap).controlled)
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
                norms, observed, _ = sampler.draw_clone_batch(k, count, 2.0 * variance, keys=streams)
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
        # at the cap the best observation is the least of cap draws: in person
        # its radius is paid, on the platform m at its clone distance
        paid = best_norm
        if not in_person and (controlled or searching.size):
            columns = _winner_table(k, 2.0 * variance, cap).columns(best_obs, best_norm)
            paid = columns[:, 0]
        values[searching, 0] = -paid[searching] - cost * cap - fee
    if controlled:
        values[:, 1] = _in_person_control(best_norm, k, cap) if in_person else columns[:, 1]
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
    counted in ``truncated_reps``. A platform search that reaches its cap
    is paid the posterior mean m of its best clone distance, the least of
    cap i.i.d. distances, as ``estimate_d_ai`` pays its winner (conditional
    Monte Carlo; where m is not to be had, the best clone match's drawn
    norm). A threshold that fires at tau pays the
    mean norm of every draw of that round at or below it: the round's draws
    are i.i.d., so given which of them hit and their unordered values, the
    hit at tau is equally likely to be any of them, and that mean is
    E[norm at tau | hits] (Rao-Blackwell): the same expected payoff from the
    same draws at a lower variance. In person without a threshold the
    payoff is -M - cost_per_period * cap - fee with M the best of cap radii.
    A search no draw can stop (threshold None or 0) carries the exact
    Uniform(0, 1) control of its best observation, which the estimate
    subtracts (see ``_estimate``): in person (1 - M^k)^cap, as
    ``estimate_d_ip`` does, on the platform (1 - F(S_(1)))^cap where the
    winner's table forms it. Every other policy takes the plain mean.
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
