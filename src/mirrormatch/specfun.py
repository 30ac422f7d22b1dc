"""Special functions backing the closed-form layer.

Log-scaled variants are provided wherever raw values leave the double
range: the high-order modified Bessel function and the deep tails of the
regularized incomplete gamma. ``scipy.special`` does the work where its
results are representable; log-space power series cover the rest:

* incomplete gamma: power series below the ``x < s + 1`` split, where
  P(s, x) may underflow; ``log1p(-gammaincc(s, x))`` above it;
* ``ln I_nu``: ``log(ive(nu, x)) + x``, with a log-sum-exp over a
  peak-windowed power series where the scaled ``ive`` underflows (x
  small against nu, or nu in the thousands).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc as _gammaincc
from scipy.special import gammaln as _gammaln
from scipy.special import ive as _ive

NEG_INF = float("-inf")

_MAX_ITER = 800
_TINY = np.finfo(np.float64).tiny  # smallest normal double


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


def log_reg_lower_inc_gamma(s: float, x: float) -> float:
    """ln P(s, x); stays finite far into the lower tail where P underflows."""
    if not s > 0:
        raise ValueError(f"incomplete gamma requires s > 0, got {s!r}")
    if not x >= 0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return NEG_INF
    if x < s + 1.0:
        return _log_p_series(s, x)
    return math.log1p(-float(_gammaincc(s, x)))


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


def log_bessel_i(nu: float, x):
    """ln of the modified Bessel function of the first kind, order nu >= -1/2.

    ``x`` is a scalar or an array of any shape; the result has the same
    shape (a float for a scalar). I_nu(0) = 0 for nu > 0, represented as
    the -inf sentinel (log of zero); callers must handle it. For nu in
    [-1/2, 0) the x -> 0 limit diverges, represented as +inf.
    """
    if nu < -0.5:
        raise ValueError(f"log_bessel_i requires nu >= -1/2, got {nu!r}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise ValueError(f"log_bessel_i requires x >= 0, got {x!r}")
    flat = x.ravel()
    scaled = _ive(nu, flat)
    normal = (scaled >= _TINY) & np.isfinite(scaled)
    out = np.log(np.where(normal, scaled, 1.0)) + flat
    at_origin = 0.0 if nu == 0.0 else (NEG_INF if nu > 0 else math.inf)
    for i in np.flatnonzero(~normal):
        out[i] = at_origin if flat[i] == 0.0 else _log_i_series(nu, float(flat[i]))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
