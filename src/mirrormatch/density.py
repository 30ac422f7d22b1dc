"""Joint law of the true norm R and the clone distance S.

Conventions. The single parameter ``nu`` is the per-coordinate variance
of the combined proxy noise Z (twice the per-clone variance in the
homogeneous model). Conditional on R = r, the rescaled distance
S / sqrt(nu) follows a noncentral chi law with dimension k and
noncentrality r / sqrt(nu); the Bessel order is fixed to k/2 - 1
throughout, the order required for that density to normalize.

Everything is evaluated in log space. The terms that vary with r form
one kernel, (k-1) ln r + lam (t - lam/2) + ln(x^-v e^-x I_v(x)) at
x = lam t, with t = s / sqrt(nu), lam = r / sqrt(nu) and v = k/2 - 1, in
which no two terms of size s^2/nu cancel. The joint log density is that
kernel plus ln k + (k-1) ln t - t^2/2 - ln(nu)/2, which depend on s
alone; neither the posterior mean nor the likelihood-ratio grid check
needs them, so the module evaluates the kernel only. The posterior mean
m(s) = E[R : S = s], for any s >= 0, is a ratio of two integrals over r
in (0, 1] of that kernel, taken in one adaptive pass in
u = (r - peak) / width with the kernel divided by its peak value, over
``quadrature._knots``'s panels (1, 8 and 64 Laplace widths from the peak),
so the same rule holds at any k, including k in the millions where the
mass sits within ~1/k of r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, specfun
from .quadrature import _KNOT_EDGES, DEFAULT_ABS_TOL, _knots, integrate

_R_MIN = 1e-12  # floor of the peak search's left end, clear of log(0)
_MLRP_TOL = 1e-9  # cross differences down to -_MLRP_TOL count as rounding, not violations

_log_bessel_vec = specfun.log_bessel_i_scaled


@dataclass(frozen=True)
class JointDensityParams:
    """Dimension and combined per-coordinate noise variance."""

    k: int
    nu: float

    def __post_init__(self) -> None:
        analytic._check_dim(self.k)
        analytic._check_variance(self.nu)


def _log_kernel(params: JointDensityParams, r, s) -> np.ndarray:
    # the joint log density's terms that vary with r: r^(k-1), -(t - lam)^2/2 less
    # its -t^2/2, and the Bessel factor scaled by (lam t)^-order e^-(lam t)
    root_nu = math.sqrt(params.nu)
    lam, t = r / root_nu, s / root_nu
    return (params.k - 1) * np.log(r) + lam * (t - 0.5 * lam) + _log_bessel_vec(0.5 * params.k - 1.0, lam * t)


def _laplace_peak(log_kernel, lo: float) -> tuple[float, float, float]:
    # zoom a grid on [lo, 1] onto the maximum of the unimodal log kernel g until
    # the grid resolves it; returns the peak, the Laplace width 1/sqrt(-g'')
    # (or 1/g' against r = 1, at most 1) and g at the peak
    hi, last = 1.0, 16  # 17 grid points per zoom level
    while True:
        r = np.linspace(lo, hi, last + 1)
        g = log_kernel(r)
        i = int(np.argmax(g))
        h = r[1] - r[0]
        if g[i] - g[max(i - 1, 0) : i + 2].min() <= 2.0 or h <= 4.0 * np.spacing(r[i]):
            j = min(max(i, 1), last - 1)
            curvature = (2.0 * g[j] - g[j - 1] - g[j + 1]) / (h * h)
            slope = (g[last] - g[last - 1]) / h if i == last else 0.0
            return float(r[i]), 1.0 / math.sqrt(max(curvature, slope * slope, 1.0)), float(g[i])
        lo, hi = r[max(i - 1, 0)], r[min(i + 1, last)]


def _laplace_peaks(log_kernel, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # zoom a grid on [lo, 1] onto the maximum of each row's unimodal log kernel g
    # until the grid resolves it; returns each row's peak, Laplace width
    # 1/sqrt(-g'') (or 1/g' against r = 1, at most 1) and g at the peak.
    # log_kernel(rows, r) evaluates the rows listed at r, one grid a row
    last = 16  # 17 grid points per zoom level
    lo, hi = lo.copy(), np.ones_like(lo)
    steps = np.arange(last + 1.0)
    peak, width, shift = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
    todo = np.arange(lo.size)
    while todo.size:
        r = steps * ((hi[todo] - lo[todo]) / last)[:, None] + lo[todo, None]  # np.linspace's rule
        r[:, last] = hi[todo]
        g = log_kernel(todo, r)
        at = np.arange(todo.size)
        i = np.argmax(g, axis=1)
        left, right = np.maximum(i - 1, 0), np.minimum(i + 1, last)
        top, h = g[at, i], r[:, 1] - r[:, 0]
        done = (top - np.minimum(g[at, left], g[at, right]) <= 2.0) | (h <= 4.0 * np.spacing(r[at, i]))
        gd, hd = g[done], h[done]
        ad, j = np.arange(gd.shape[0]), np.clip(i[done], 1, last - 1)
        curvature = (2.0 * gd[ad, j] - gd[ad, j - 1] - gd[ad, j + 1]) / (hd * hd)
        slope = np.where(i[done] == last, (gd[:, last] - gd[:, last - 1]) / hd, 0.0)
        rows = todo[done]
        peak[rows], shift[rows] = r[at, i][done], top[done]
        width[rows] = 1.0 / np.sqrt(np.maximum(np.maximum(curvature, slope * slope), 1.0))
        lo[todo], hi[todo] = r[at, left], r[at, right]
        todo = todo[~done]
    return peak, width, shift


def conditional_mean_r_given_s(params: JointDensityParams, s: float) -> float:
    """Posterior mean of the true norm given the observed clone distance.

    At s = 0 this is the saturated-platform distance at per-clone
    variance nu / 2, a route independent of both of ``analytic``'s.
    """
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be nonnegative and finite, got {s!r}")
    # the kernel is log-supermodular, so its mode at s = 0, sqrt((k-1) nu), bounds
    # every mode from below; a grid from r ~ 0 would meet the steep (k-1) ln r first
    lo = min(max(math.sqrt((params.k - 1) * params.nu), _R_MIN), 0.5)
    peak, width, shift = _laplace_peak(lambda r: _log_kernel(params, r, s), lo)

    def rows(u: np.ndarray) -> np.ndarray:
        w = np.exp(_log_kernel(params, peak + width * u, s) - shift)
        return np.array((w, u * w))

    # the kernel sums terms of size up to k + s/nu; its rounding error, weighted
    # by w, stays within ~10 eps (k + s/nu), and no far smaller tolerance converges
    noise = np.finfo(float).eps * (params.k + s / params.nu)
    tol = max(DEFAULT_ABS_TOL, 8.0 * noise)
    # peak + width * int u w / int w, both rows in one adaptive pass per panel
    knots = _knots(peak, width)
    total, weighted = sum(integrate(rows, a, b, abs_tol=tol) for a, b in zip(knots, knots[1:]))
    return peak + width * float(weighted / total)


def _conditional_means(params: JointDensityParams, s: np.ndarray) -> np.ndarray:
    """``conditional_mean_r_given_s`` at every entry of a 1-D array s >= 0.

    One pass for all entries: the peak search zooms every entry's grid at
    once, and each panel is one adaptive pass over the entries it holds,
    each entry refined on its own, so the Bessel calls take many entries
    each. An entry's last bits may depend on the others beside it. A tail
    panel past 8 widths is left out where a bound puts it within the
    tolerance (below), so a value may differ from the scalar rule's by up
    to about that tolerance.
    """
    flat = s
    # the lower end of every entry's peak search, as in the scalar rule
    lo = min(max(math.sqrt((params.k - 1) * params.nu), _R_MIN), 0.5)
    peak, width, shift = _laplace_peaks(
        lambda rows, r: _log_kernel(params, r, flat[rows, None]), np.full(flat.size, lo)
    )
    # each entry's tolerance, as in the scalar rule
    tol = np.maximum(DEFAULT_ABS_TOL, 8.0 * np.finfo(float).eps * (params.k + flat / params.nu))

    def kernel(rows, u: np.ndarray) -> np.ndarray:  # w at u, the kernel over its peak value
        r = np.maximum(peak[rows, None] + width[rows, None] * u, 0.0)  # rounding may dip below 0
        return np.exp(_log_kernel(params, r, flat[rows, None]) - shift[rows, None])

    # peak + width * int u w / int w, both rows in one adaptive pass per panel,
    # each entry refined on its own; each panel [a, b] of u is mapped onto
    # [0, 1] and an entry's rows are scaled by 1/tol, so that it meets its own
    # tolerance. The kernel is unimodal with its mode within a grid step (two
    # widths) of the peak, so on a tail panel past 8 widths w is at most its
    # value at the inner end: a tail panel whose length times that value is
    # within tol is left out. The panel ends are ``_knots``'s, clipped to
    # [lo, hi], where a panel outside it is empty
    lo_u, hi_u = -peak / width, (1.0 - peak) / width
    knots = [lo_u] + [np.minimum(np.maximum(u, lo_u), hi_u) for u in _KNOT_EDGES] + [hi_u]
    ends = [np.where(knots[i] == edge, edge, 0.0) for i, edge in zip((1, 2, 5, 6), (-64.0, -8.0, 8.0, 64.0))]
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 at k = 1 gives a NaN bound, kept below
        inner = kernel(slice(None), np.stack(ends, axis=1))
    bounds = [inner[:, 0], inner[:, 1], None, None, None, inner[:, 2], inner[:, 3]]
    sums = np.zeros((2, flat.size))
    for a, b, bound in zip(knots, knots[1:], bounds):
        used = b > a if bound is None else (b > a) & ~((b - a) * bound <= tol)
        rows = np.flatnonzero(used)
        if not rows.size:
            continue
        start, length = a[rows, None], (b - a)[rows, None]
        scale = length / tol[rows, None]

        def panel(v: np.ndarray, which: np.ndarray) -> np.ndarray:
            u = start[which] + length[which] * v
            w = kernel(rows[which], u) * scale[which]
            return np.stack((w, u * w))

        sums[:, rows] += integrate(panel, 0.0, 1.0, abs_tol=1.0, entries=rows.size)
    return peak + width * (sums[1] / sums[0])


@dataclass(frozen=True)
class MlrpReport:
    """Outcome of a grid check of the monotone likelihood ratio property."""

    max_violation: float
    witness: tuple[float, float, float, float] | None


def mlrp_grid_check(params: JointDensityParams, r_grid, s_grid, *, log_density=None) -> MlrpReport:
    """Check log-supermodularity of the joint density on all ordered quadruples.

    For every ordered pair r > r' of the r grid and s > s' of the s grid
    the log-form inequality f(r,s) + f(r',s') >= f(r,s') + f(r',s) must
    hold up to a fixed tolerance of 1e-9. The worst quadruple is reported
    as ``witness`` when it does not. The joint log density is the kernel
    plus terms that depend on s alone, and those cancel in every such
    cross difference, so by default the check evaluates the kernel. It is
    evaluated once over the grid, as ``log_density(params, r[:, None],
    s[None, :])``; a replacement taking arrays that way may be supplied,
    e.g. a deliberately corrupted kernel as a negative control.
    """
    r = np.asarray(r_grid, dtype=np.float64)
    s = np.asarray(s_grid, dtype=np.float64)
    for grid, name in ((r, "r_grid"), (s, "s_grid")):
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError(f"{name} must be one-dimensional with at least two points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError(f"{name} must be strictly increasing")
    if not (r[0] > 0.0 and r[-1] <= 1.0):
        raise ValueError("r_grid must lie in (0, 1]")
    if not (s[0] > 0.0 and s[-1] < math.inf):
        raise ValueError("s_grid must be positive and finite")

    fn = _log_kernel if log_density is None else log_density
    m = fn(params, r[:, None], s[None, :])
    if not np.isfinite(m).all():
        raise ValueError("log density is not finite on the grid")

    # each grid's ordered pairs, hi > lo and up > down, in lexicographic order
    hi, lo = np.tril_indices(r.size, -1)
    up, down = np.tril_indices(s.size, -1)
    cross = m[hi][:, up] + m[lo][:, down] - m[hi][:, down] - m[lo][:, up]
    a, b = np.unravel_index(int(np.argmin(cross)), cross.shape)
    violation = max(0.0, -float(cross[a, b]))
    witness = None
    if violation > _MLRP_TOL:
        witness = (float(r[hi[a]]), float(s[up[b]]), float(r[lo[a]]), float(s[down[b]]))
    return MlrpReport(max_violation=violation, witness=witness)
