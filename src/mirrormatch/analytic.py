"""Closed-form and quadrature-based match-quality benchmarks.

Two regimes are compared throughout. In-person search over m candidates
has an exact expected match distance d_ip(k, m). Platform search through
noisy proxies is bounded below by the saturated-platform value
d_ai_infinity(k, sigma2): the expected true distance to a candidate
whose proxy coincides with the searcher's own. That value is evaluated
twice -- through regularized incomplete-gamma identities and through
direct log-space quadrature -- and the two routes must agree to 1e-8;
disagreement raises rather than returning a number.

Both routes hold at any k. The gamma route takes the ratio from the two
incomplete-gamma series sums wherever ln P is large; the quadrature
route integrates r^(k-1) exp(-r^2/(4 sigma2)) divided by its peak value,
over panels bracketing the peak (``quadrature._knots``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, poch

from . import specfun
from .quadrature import _knots, integrate

_REL_AGREEMENT = 1e-8  # required match between the two d_ai_infinity routes
_TIE_EPS = 1e-12  # boundary rule for the AI-equivalent sample size
_SEARCH_LIMIT = 10**15  # exact-integer search range for the sample size


def _cdf_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on t in [0, 1] mapped to u = t^4: the nodes in u and their weights
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)
    return t**4, 2.0 * t**3 * w


# the clone-distance CDF's rule on each of its two panels; doubling the nodes
# moves no value by 1e-12 for variances down to 0.02 at k = 1 (the steepest
# step in t) and down to 0.005 at k >= 2
_CDF_U, _CDF_DU = _cdf_rule(32)


class NumericError(RuntimeError):
    """Two independent evaluations of the same quantity disagreed."""


@dataclass(frozen=True)
class GroupSpec:
    """Per-group proxy noise variances: data-rich at most data-poor, with a finite sum.

    Equal variances are the control case, where neither group is favoured.
    """

    sigma_r2: float
    sigma_p2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_r2 <= self.sigma_p2 and math.isfinite(self.nu_p)):
            raise ValueError(
                f"GroupSpec requires 0 < sigma_r2 <= sigma_p2 with a finite sum, "
                f"got ({self.sigma_r2!r}, {self.sigma_p2!r})"
            )

    @property
    def nu_r(self) -> float:
        """Combined per-coordinate noise variance for rich-rich interactions."""
        return 2.0 * self.sigma_r2

    @property
    def nu_p(self) -> float:
        """Combined per-coordinate noise variance for rich-poor interactions."""
        return self.sigma_r2 + self.sigma_p2


def _check_positive_int(name: str, value: int) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_dim(k: int) -> None:
    _check_positive_int("dimension k", k)


def _check_variance(variance: float) -> None:
    if not (variance > 0 and math.isfinite(variance)):
        raise ValueError(f"noise variance must be positive and finite, got {variance!r}")


def benchmark_single_draw(k: int) -> float:
    """Expected norm of one uniform ball draw, k/(k+1), as a plain rational."""
    _check_dim(k)
    return k / (k + 1.0)


def d_ip(k: int, m: int) -> float:
    """Expected distance to the best of m in-person draws: B(1/k, m+1)/k."""
    _check_dim(k)
    _check_positive_int("sample size m", m)
    inv = 1.0 / k
    return math.exp(math.lgamma(inv) + math.lgamma(m + 1.0) - math.lgamma(inv + m + 1.0)) / k


def d_ip2_identity(k: int) -> float:
    """Best-of-two distance by the gap identity k/(k+1) - k/((2k+1)(k+1))."""
    _check_dim(k)
    kk = float(k)
    return kk / (kk + 1.0) - kk / ((2.0 * kk + 1.0) * (kk + 1.0))


def _d_ai_infinity_gamma(k: int, variance: float) -> float:
    # 2 sigma * g(a, X) / g(b, X), a = (k+1)/2, b = k/2, for the lower incomplete
    # gamma g(s, X) = P(s, X) Gamma(s) = X^s e^-X M(s, X) / s; below X = a + 1
    # the ratio comes from the series sums M, since there ln P can be so large
    # that a difference of two loses eps * |ln P| to cancellation
    x = 1.0 / (4.0 * variance)
    a, b = 0.5 * (k + 1), 0.5 * k
    if x < a + 1.0:
        log_m = specfun._log_m_series(a, x) - specfun._log_m_series(b, x)
        log_ratio = 0.5 * math.log(x) + math.log(b / a) + log_m
    else:
        log_p = specfun.log_reg_lower_inc_gamma(a, x) - specfun.log_reg_lower_inc_gamma(b, x)
        log_ratio = log_p + math.log(poch(b, 0.5))
    return 2.0 * math.sqrt(variance) * math.exp(log_ratio)


def _d_ai_infinity_quadrature(k: int, variance: float) -> float:
    # the ratio of integral_0^1 r^p exp(-x r^2) dr for p = k over p = k - 1, as
    # peak + width * int u w / int w in u = (r - peak) / width, w = r^(k-1)
    # exp(-x r^2) divided by its peak value, both rows in one adaptive pass per
    # panel bracketing the peak; peak and Laplace width in closed form, the
    # slope setting the width of a peak against r = 1
    x = 1.0 / (4.0 * variance)
    peak = min(1.0, math.sqrt((k - 1) / (2.0 * x)))
    width = 1.0 / max(k - 1 - 2.0 * x, 2.0 * math.sqrt(x))

    def rows(u: np.ndarray) -> np.ndarray:
        du = width * u
        w = np.exp(-x * du * (2.0 * peak + du) + ((k - 1) * np.log1p(du / peak) if k > 1 else 0.0))
        return np.array((w, u * w))

    knots = _knots(peak, width)
    total, weighted = sum(integrate(rows, a, b) for a, b in zip(knots, knots[1:]))
    return peak + width * float(weighted / total)


def d_ai_infinity(k: int, noise_variance_per_clone: float) -> float:
    """Saturated-platform expected distance: E[||Z|| : ||Z|| <= 1] for the
    combined proxy noise Z with per-coordinate variance twice the
    per-clone value.

    Evaluated through incomplete-gamma identities and cross-checked
    against direct quadrature; the routes must agree to relative 1e-8.
    """
    _check_dim(k)
    _check_variance(noise_variance_per_clone)
    try:
        value = _d_ai_infinity_gamma(k, noise_variance_per_clone)
        check = _d_ai_infinity_quadrature(k, noise_variance_per_clone)
    except RuntimeError as exc:  # an incomplete-gamma series or the quadrature did not converge
        raise NumericError(
            f"d_ai_infinity did not converge at k={k}, variance={noise_variance_per_clone}: {exc}"
        ) from exc
    if abs(value - check) > _REL_AGREEMENT * max(abs(value), abs(check)):
        raise NumericError(
            f"d_ai_infinity routes disagree at k={k}, variance={noise_variance_per_clone}: "
            f"gamma={value!r} quadrature={check!r}"
        )
    return value


def ai_equivalent_bound(k: int, noise_variance_per_clone: float) -> int:
    """Smallest m whose in-person distance beats the saturated platform.

    Certified against the infinite-pool lower bound (every finite pool
    does at least this badly), with the boundary rule: an m that ties the
    bound within 1e-12 is bumped by one. Search is by doubling then
    bisection on the strictly decreasing d_ip(k, .); the last doubling
    stops at the search limit, so every m up to it is reachable.
    """
    bound = d_ai_infinity(k, noise_variance_per_clone)
    lo = 1  # d_ip(k, 1) = k/(k+1) strictly exceeds the bound
    hi = 2
    while d_ip(k, hi) >= bound:
        if hi == _SEARCH_LIMIT:
            raise NumericError(
                f"AI-equivalent sample size exceeds {_SEARCH_LIMIT} at k={k}, "
                f"variance={noise_variance_per_clone}"
            )
        lo, hi = hi, min(2 * hi, _SEARCH_LIMIT)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if d_ip(k, mid) < bound:
            hi = mid
        else:
            lo = mid
    if abs(d_ip(k, hi) - bound) <= _TIE_EPS:
        return hi + 1
    return hi


def clone_distance_cdf(k: int, variance: float, s) -> np.ndarray:
    """P(S <= s) for one per-interaction clone distance S, vectorized in s >= 0.

    ``variance`` is the combined per-coordinate noise variance nu, as in
    ``sampler.draw_clone_batch``. Given R = r, S^2/nu ~ ncx2(k, r^2/nu),
    and u = R^k is uniform on (0, 1), so
    F(s) = int_0^1 chndtr(s^2/nu, k, u^(2/k)/nu) du. In r the integrand
    steps from about 1 to about 0 near r = s, over a width of about
    sqrt(nu), so the integral is split at u = min(s, 1)^k, and each panel
    takes one fixed Gauss-Legendre rule in t with u = t^4 from its left
    end. Values are clipped to [0, 1]. ``chndtr`` returns NaN once its
    arguments reach about 1e10 (k near 10^12, or nu below about 1e-10),
    and a value it cannot give raises ``NumericError``.
    """
    _check_dim(k)
    _check_variance(variance)
    s = np.asarray(s, dtype=float)[..., None]
    if not np.all(s >= 0.0):
        raise ValueError("clone distances s must be nonnegative")
    split = np.minimum(s, 1.0) ** k
    u = np.concatenate((split * _CDF_U, split + (1.0 - split) * _CDF_U), axis=-1)
    du = np.concatenate((split * _CDF_DU, (1.0 - split) * _CDF_DU), axis=-1)
    cdf = (chndtr(s * s / variance, k, u ** (2.0 / k) / variance) * du).sum(axis=-1)
    if not np.all(np.isfinite(cdf)):
        raise NumericError(f"clone_distance_cdf is not finite at k={k}, variance={variance!r}")
    return np.clip(cdf, 0.0, 1.0)


def rich_win_probability(k: int, group: GroupSpec) -> float:
    """Large-population probability that the selected match is data-rich.

    The density-at-zero ratio reduces to a ratio of regularized
    incomplete gammas; all prefactors cancel, so the value depends on the
    group only through (nu_r, nu_p).
    """
    _check_dim(k)
    try:
        log_p_rich, log_p_poor = (
            specfun.log_reg_lower_inc_gamma(0.5 * k, 0.5 / nu) for nu in (group.nu_r, group.nu_p)
        )
    except RuntimeError as exc:  # an incomplete-gamma series did not converge
        raise NumericError(
            f"rich_win_probability did not converge at k={k}, "
            f"nu_r={group.nu_r}, nu_p={group.nu_p}: {exc}"
        ) from exc
    return 1.0 / (1.0 + math.exp(log_p_poor - log_p_rich))


def rich_win_lower_bound(k: int, group: GroupSpec) -> float:
    """Closed-form lower bound LB/(1+LB), LB = exp(-1/(2 nu_r)) (nu_p/nu_r)^(k/2)."""
    _check_dim(k)
    log_lb = -0.5 / group.nu_r + 0.5 * k * math.log(group.nu_p / group.nu_r)
    if log_lb >= 0:
        return 1.0 / (1.0 + math.exp(-log_lb))
    lb = math.exp(log_lb)
    return lb / (1.0 + lb)
