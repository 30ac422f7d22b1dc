"""Joint law of the true norm R and the clone distance S.

Conventions. The single parameter ``nu`` is the per-coordinate variance
of the combined proxy noise Z (twice the per-clone variance in the
homogeneous model). Conditional on R = r, the rescaled distance
S / sqrt(nu) follows a noncentral chi law with dimension k and
noncentrality r / sqrt(nu); the Bessel order is fixed to k/2 - 1
throughout, the order required for that density to normalize.

Everything is evaluated in log space, and the posterior integrals behind
the conditional mean m(s) = E[R : S = s] subtract the scanned maximum of
the log kernel before quadrature. For k >= 50 the integration variable
is stretched by a tanh map that clusters nodes against r = 1, where the
posterior mass collapses in high dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .quadrature import integrate

_STRETCH_MIN_DIM = 50

_log_bessel_vec = specfun.log_bessel_i


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


def _joint_log_density_arr(params: JointDensityParams, r, s) -> np.ndarray:
    # ball-norm density k r^(k-1) times the scaled noncentral chi density of
    # S given R = r: t = s/sqrt(nu), lam = r/sqrt(nu), order k/2 - 1
    order = params.bessel_order
    root_nu = math.sqrt(params.nu)
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(s, dtype=np.float64) / root_nu
    lam = r / root_nu
    log_marginal = math.log(params.k) + (params.k - 1) * np.log(r)
    return log_marginal + (
        -order * np.log(lam)
        + (order + 1.0) * np.log(t)
        - 0.5 * (t * t + lam * lam)
        + _log_bessel_vec(order, lam * t)
        - math.log(root_nu)
    )


def joint_log_density(params: JointDensityParams, r: float, s: float) -> float:
    """Log of the joint density of (R, S) at (r, s)."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r!r}")
    if not s > 0.0:
        raise ValueError(f"s must be positive, got {s!r}")
    value = float(_joint_log_density_arr(params, r, s))
    if not math.isfinite(value):
        raise ValueError(f"joint log density is not finite at (r={r!r}, s={s!r})")
    return value


def _posterior_mean(params: JointDensityParams, log_kernel) -> float:
    # m = int r w(r) dr / int w(r) dr with w = exp(log_kernel), max-subtracted;
    # for large k integrate in a tanh-stretched variable clustering at r = 1
    if params.k >= _STRETCH_MIN_DIM:
        a = math.log(params.k)
        tanh_a = math.tanh(a)

        def to_r(v: np.ndarray) -> np.ndarray:
            return np.tanh(a * v) / tanh_a

        def log_jacobian(v: np.ndarray) -> np.ndarray:
            return math.log(a / tanh_a) + 2.0 * _log_sech(a * v)

    else:

        def to_r(v: np.ndarray) -> np.ndarray:
            return v

        def log_jacobian(v: np.ndarray) -> np.ndarray:
            return np.zeros_like(v)

    v_scan = np.linspace(1e-9, 1.0 - 1e-12, 512)
    scanned = log_kernel(to_r(v_scan)) + log_jacobian(v_scan)
    peak_index = int(np.argmax(scanned))
    shift = float(scanned[peak_index])

    def weight(v: np.ndarray) -> np.ndarray:
        return np.exp(log_kernel(to_r(v)) + log_jacobian(v) - shift)

    # split at knots bracketing the scanned peak so a narrow spike always
    # sits against a panel boundary and cannot be skipped by early panel
    # agreement
    spacing = float(v_scan[1] - v_scan[0])
    v_peak = float(v_scan[peak_index])
    knots = sorted(
        {0.0, 1.0}
        | {
            min(1.0, max(0.0, v_peak + offset * spacing))
            for offset in (-4.0, -1.0, 1.0, 4.0)
        }
    )
    # max-subtraction leaves relative noise ~ eps * |shift| in the weights;
    # demanding tolerances below that floor cannot converge
    tol = max(1e-12, 8.0 * np.finfo(float).eps * (1.0 + abs(shift)))
    total = 0.0
    weighted = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi - lo <= 0.0:
            continue
        total += integrate(weight, lo, hi, abs_tol=tol)
        weighted += integrate(lambda v: to_r(v) * weight(v), lo, hi, abs_tol=tol)
    return weighted / total


def _log_sech(y: np.ndarray) -> np.ndarray:
    # log(2) - y - log1p(exp(-2y)), stable for y >= 0
    return math.log(2.0) - y - np.log1p(np.exp(-2.0 * y))


def conditional_mean_r_given_s(params: JointDensityParams, s: float) -> float:
    """Posterior mean of the true norm given the observed clone distance.

    At s = 0 the noncentral-chi kernel degenerates; the limiting
    posterior weight r^(k-1) exp(-r^2 / (2 nu)) is integrated directly,
    giving an evaluation of the saturated-platform distance independent
    of the incomplete-gamma route.
    """
    if not s >= 0.0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    if s == 0.0:

        def log_kernel(r: np.ndarray) -> np.ndarray:
            return (params.k - 1) * np.log(r) - r * r / (2.0 * params.nu)

    else:

        def log_kernel(r: np.ndarray) -> np.ndarray:
            return _joint_log_density_arr(params, r, s)

    return _posterior_mean(params, log_kernel)


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
    if not s[0] > 0.0:
        raise ValueError("s_grid must be positive")

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
