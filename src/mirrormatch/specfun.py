"""Scalar special functions backing the closed-form layer.

Log-scaled variants are provided wherever raw values leave the double
range: the high-order modified Bessel function and the deep tails of the
regularized incomplete gamma. Algorithm layout:

* incomplete gamma: power series below the ``x < s + 1`` split,
  continued fraction (modified Lentz) above it;
* ``ln I_nu``: log-sum-exp over a peak-windowed power series for
  ``x <= max(30, nu**2)``, large-argument expansion with optimal
  truncation beyond.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln as _gammaln

NEG_INF = float("-inf")

_MAX_ITER = 800
_EXP_UNDERFLOW = -745.0  # below log(min subnormal double)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function on (0, inf)."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _log_p_series(s: float, x: float) -> float:
    # P(s,x) = x^s e^-x / Gamma(s+1) * sum_n prod_{j<=n} x/(s+j); valid x < s+1
    total = 1.0
    term = 1.0
    for n in range(1, _MAX_ITER):
        term *= x / (s + n)
        total += term
        if term < total * 1e-17:
            break
    else:
        raise RuntimeError(f"incomplete gamma series did not converge at s={s}, x={x}")
    return s * math.log(x) - x - math.lgamma(s + 1.0) + math.log(total)


def _upper_q_cont_frac(s: float, x: float) -> float:
    # Q(s,x) via the classical continued fraction; valid x >= s+1
    ax = s * math.log(x) - x - math.lgamma(s)
    if ax < _EXP_UNDERFLOW:
        return 0.0
    big = 4.503599627370496e15
    biginv = 1.0 / big
    y = 1.0 - s
    z = x + y + 1.0
    c = 0.0
    p3, q3 = 1.0, x
    p2, q2 = x + 1.0, z * x
    ans = p2 / q2
    for _ in range(_MAX_ITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        p = p2 * z - p3 * yc
        q = q2 * z - q3 * yc
        if q != 0.0:
            nxt = p / q
            err = abs((ans - nxt) / nxt)
            ans = nxt
        else:
            err = 1.0
        p3, p2 = p2, p
        q3, q2 = q2, q
        if abs(p) > big:
            p3 *= biginv
            p2 *= biginv
            q3 *= biginv
            q2 *= biginv
        if err <= 1e-16:
            return math.exp(ax) * ans
    raise RuntimeError(f"incomplete gamma continued fraction did not converge at s={s}, x={x}")


def _check_inc_gamma_domain(s: float, x: float) -> None:
    if not s > 0:
        raise ValueError(f"incomplete gamma requires s > 0, got {s!r}")
    if not x >= 0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")


def log_reg_lower_inc_gamma(s: float, x: float) -> float:
    """ln P(s, x); stays finite far into the lower tail where P underflows."""
    _check_inc_gamma_domain(s, x)
    if x == 0.0:
        return NEG_INF
    if x < s + 1.0:
        return _log_p_series(s, x)
    return math.log1p(-_upper_q_cont_frac(s, x))


def _log_i_series(nu: float, x: float) -> float:
    # log-sum-exp over term index n of (x/2)^(2n+nu) / (n! Gamma(n+nu+1)),
    # windowed around the peak term so huge x stays O(sqrt(x)) work
    half_log = math.log(0.5 * x)
    center = max(0.0, 0.5 * (math.sqrt((nu + 1.0) ** 2 + x * x) - (nu + 1.0)))
    curvature = 1.0 / (center + 1.0) + 1.0 / (center + nu + 1.0)
    width = math.sqrt(90.0 / curvature) + 12.0
    lo = max(0, int(center - width))
    hi = int(center + width) + 1
    for _ in range(60):
        n = np.arange(lo, hi + 1, dtype=np.float64)
        log_terms = (2.0 * n + nu) * half_log - _gammaln(n + 1.0) - _gammaln(n + nu + 1.0)
        peak = float(log_terms.max())
        lo_ok = lo == 0 or log_terms[0] < peak - 41.0
        hi_ok = log_terms[-1] < peak - 41.0
        if lo_ok and hi_ok:
            return peak + math.log(float(np.exp(log_terms - peak).sum()))
        grow = max(16, int(width))
        if not lo_ok:
            lo = max(0, lo - grow)
        if not hi_ok:
            hi += grow
        width *= 1.5
    raise RuntimeError(f"Bessel series window did not stabilize at nu={nu}, x={x}")


def _log_i_large_x(nu: float, x: float) -> float:
    # I_nu(x) ~ e^x / sqrt(2 pi x) * sum_j term_j with
    # term_j = term_{j-1} * ((2j-1)^2 - 4 nu^2) / (8 j x); optimal truncation
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    for j in range(1, 200):
        nxt = term * (((2.0 * j - 1.0) ** 2 - mu) / (8.0 * j * x))
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(total)


def log_bessel_i(nu: float, x: float) -> float:
    """ln of the modified Bessel function of the first kind, order nu >= -1/2.

    I_nu(0) = 0 for nu > 0, represented as the -inf sentinel (log of
    zero); callers must handle it. For nu in [-1/2, 0) the x -> 0 limit
    diverges, represented as +inf.
    """
    if nu < -0.5:
        raise ValueError(f"log_bessel_i requires nu >= -1/2, got {nu!r}")
    if not x >= 0:
        raise ValueError(f"log_bessel_i requires x >= 0, got {x!r}")
    if x == 0.0:
        if nu == 0.0:
            return 0.0
        return NEG_INF if nu > 0 else math.inf
    # the large-argument expansion only decays from its first term once
    # x exceeds nu^2 / 2; keep the series well past that point
    if x <= max(30.0, nu * nu):
        return _log_i_series(nu, x)
    return _log_i_large_x(nu, x)
