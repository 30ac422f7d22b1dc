"""Special functions backing the closed-form layer.

Log-scaled variants are provided wherever raw values leave the double
range: the high-order modified Bessel function and the deep tails of the
regularized incomplete gamma. ``scipy.special`` does the work where its
results are representable; log-space power series cover the rest:

* incomplete gamma: below the ``x < s + 1`` split, where P(s, x) may
  underflow and ``gammainc`` loses digits once s is large, a power
  series with a cancellation-free prefactor; ``log1p(-gammaincc(s, x))``
  above it;
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

_MAX_TERMS = 2**20  # incomplete-gamma series terms: enough near x = s up to s ~ 1e10
_TINY = np.finfo(np.float64).tiny  # smallest normal double


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function on (0, inf)."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _log_p_prefactor(s: float, x: float) -> float:
    # ln(x^s e^-x / Gamma(s+1)); above s = 100 as -s (d - ln(1 + d)) - ln(2 pi s)/2
    # - r(s), d = x/s - 1, r Stirling's remainder, without the cancellation
    # between s ln x, x and ln Gamma(s+1) that costs eps * s ln s near x = s
    if s < 100.0:
        return s * math.log(x) - x - math.lgamma(s + 1.0)
    d = (x - s) / s
    log_ratio = math.log1p(d) if d > -0.5 else math.log(x) - math.log(s)
    rest = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * s * s)) / (s * s)) / s
    return -s * (d - log_ratio) - 0.5 * math.log(2.0 * math.pi * s) - rest


def _log_m_series(s: float, x: float) -> float:
    # ln M(s, x), M = sum_{n>=0} prod_{j<=n} x/(s+j), so that
    # P(s, x) = x^s e^-x M(s, x) / Gamma(s+1); for x < s + 1 the terms fall
    # from the start, yet at x = s they stay above 1e-17 for ~9 sqrt(s) terms,
    # so they are summed in chunks of doubling length up to _MAX_TERMS
    total, term, n = 1.0, 1.0, 0
    while term >= total * 1e-17:
        if n >= _MAX_TERMS:
            raise RuntimeError(f"incomplete gamma series did not converge at s={s}, x={x}")
        chunk = max(64, n)
        terms = term * np.cumprod(x / (s + np.arange(n + 1.0, n + chunk + 1.0)))
        total += float(terms.sum())
        term = float(terms[-1])
        n += chunk
    return math.log(total)


def log_reg_lower_inc_gamma(s: float, x: float) -> float:
    """ln P(s, x); stays finite far into the lower tail where P underflows."""
    if not 0 < s < math.inf:
        raise ValueError(f"incomplete gamma requires a finite s > 0, got {s!r}")
    if not x >= 0:
        raise ValueError(f"incomplete gamma requires x >= 0, got {x!r}")
    if x == 0.0:
        return NEG_INF
    if x < s + 1.0:
        return _log_p_prefactor(s, x) + _log_m_series(s, x)
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
    if not -0.5 <= nu < math.inf:
        raise ValueError(f"log_bessel_i requires a finite nu >= -1/2, got {nu!r}")
    x = np.asarray(x, dtype=np.float64)
    if not ((x >= 0) & (x < math.inf)).all():
        raise ValueError(f"log_bessel_i requires finite x >= 0, got {x!r}")
    flat = x.ravel()
    scaled = _ive(nu, flat)
    normal = (scaled >= _TINY) & np.isfinite(scaled)
    out = np.log(np.where(normal, scaled, 1.0)) + flat
    at_origin = 0.0 if nu == 0.0 else (NEG_INF if nu > 0 else math.inf)
    for i in np.flatnonzero(~normal):
        out[i] = at_origin if flat[i] == 0.0 else _log_i_series(nu, float(flat[i]))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
