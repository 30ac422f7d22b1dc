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
which no two terms of size s^2/nu cancel. The posterior mean
m(s) = E[R : S = s], for any s >= 0, is a ratio of two integrals over r
in (0, 1] of that kernel, taken in one adaptive pass in
u = (r - peak) / width with the kernel divided by its peak value, over
``analytic._knots``'s panels (1, 8 and 64 Laplace widths from the peak),
so the same rule holds at any k, including k in the millions where the
mass sits within ~1/k of r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, specfun
from .quadrature import DEFAULT_ABS_TOL, integrate

_R_MIN = 1e-12  # floor of the peak search's left end, clear of log(0)

_log_bessel_vec = specfun.log_bessel_i_scaled


@dataclass(frozen=True)
class JointDensityParams:
    """Dimension and combined per-coordinate noise variance."""

    k: int
    nu: float

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"dimension k must be a positive integer, got {self.k!r}")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")

    @property
    def bessel_order(self) -> float:
        return 0.5 * self.k - 1.0


def _log_kernel(params: JointDensityParams, r, s) -> np.ndarray:
    # the joint log density's terms that vary with r: r^(k-1), -(t - lam)^2/2 less
    # its -t^2/2, and the Bessel factor scaled by (lam t)^-order e^-(lam t)
    root_nu = math.sqrt(params.nu)
    lam, t = r / root_nu, s / root_nu
    return (params.k - 1) * np.log(r) + lam * (t - 0.5 * lam) + _log_bessel_vec(params.bessel_order, lam * t)


def _joint_log_density_arr(params: JointDensityParams, r, s) -> np.ndarray:
    # the kernel plus the terms constant in r: ln k + (k-1) ln t - t^2/2 - ln(nu)/2
    t = s / math.sqrt(params.nu)
    const = math.log(params.k) + (params.k - 1) * math.log(t) - 0.5 * t * t - 0.5 * math.log(params.nu)
    return _log_kernel(params, r, s) + const


def joint_log_density(params: JointDensityParams, r: float, s: float) -> float:
    """Log of the joint density of (R, S) at (r, s)."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r!r}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s!r}")
    value = float(_joint_log_density_arr(params, r, s))
    if not math.isfinite(value):
        raise ValueError(f"joint log density is not finite at (r={r!r}, s={s!r})")
    return value


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
    knots = analytic._knots(peak, width)
    total, weighted = sum(integrate(rows, a, b, abs_tol=tol) for a, b in zip(knots, knots[1:]))
    return peak + width * float(weighted / total)


@dataclass(frozen=True)
class MlrpReport:
    """Outcome of a grid check of the monotone likelihood ratio property."""

    max_violation: float
    witness: tuple[float, float, float, float] | None


def mlrp_grid_check(
    params: JointDensityParams,
    r_grid,
    s_grid,
    *,
    log_density=None,
    tol: float = 1e-9,
) -> MlrpReport:
    """Check log-supermodularity of the joint density on all ordered quadruples.

    For every r > r' and s > s' the log-form inequality
    f(r,s) + f(r',s') >= f(r,s') + f(r',s) must hold up to ``tol``. The
    worst quadruple is reported as ``witness`` when it does not. A
    replacement ``log_density(params, r, s)`` may be supplied, e.g. a
    deliberately corrupted kernel as a negative control.
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

    fn = joint_log_density if log_density is None else log_density
    m = np.array([[fn(params, ri, sj) for sj in s] for ri in r])
    if not np.isfinite(m).all():
        raise ValueError("log density is not finite on the grid")

    cross = m[:, None, :, None] + m[None, :, None, :] - m[:, None, None, :] - m[None, :, :, None]
    nr, ns = m.shape
    ordered = (np.arange(nr)[:, None, None, None] > np.arange(nr)[None, :, None, None]) & (
        np.arange(ns)[None, None, :, None] > np.arange(ns)[None, None, None, :]
    )
    cross = np.where(ordered, cross, np.inf)
    worst = float(cross.min())
    violation = max(0.0, -worst)
    witness = None
    if violation > tol:
        i, i2, j, j2 = np.unravel_index(int(np.argmin(cross)), cross.shape)
        witness = (float(r[i]), float(s[j]), float(r[i2]), float(s[j2]))
    return MlrpReport(max_violation=violation, witness=witness)
