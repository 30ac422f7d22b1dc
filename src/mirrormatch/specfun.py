"""Special functions backing the closed-form layer.

Log-scaled variants are provided wherever raw values leave the double
range: the high-order modified Bessel function and the deep tails of the
regularized incomplete gamma. ``scipy.special`` does the work where its
results are representable; fixed closed forms cover the rest:

* incomplete gamma: below the ``x < s + 1`` split, where P(s, x) may
  underflow and ``gammainc`` loses digits once s is large, a power
  series with a cancellation-free prefactor; ``log1p(-gammaincc(s, x))``
  above it;
* ``ln(x^-nu e^-x I_nu(x))``: ``log(ive(nu, x)) - nu log x`` where ``ive``
  is a normal double; the series' first two terms below x = 1e-4; where
  ``ive`` underflows or is NaN (from x = 2**30 on), the Hankel expansion
  below order 50 and the uniform large-order expansion from it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaincc as _gammaincc
from scipy.special import ive as _ive

NEG_INF = float("-inf")

_MAX_TERMS = 2**20  # incomplete-gamma series terms: enough near x = s up to s ~ 1e10
_TINY = np.finfo(np.float64).tiny  # smallest normal double
_SERIES_MAX_X = 1e-4  # below it the Bessel series' first two terms are exact to double
_HANKEL_MAX_ORDER = 50.0  # below it ive fails only from x = 2**30 on, where nu^2 << x
_U_POLYS = (  # DLMF 10.41.10: U_k(p) = p^k P_k(p^2) / d_k for k = 1..4, as (P_k, d_k)
    ((3.0, -5.0), 24.0),
    ((81.0, -462.0, 385.0), 1152.0),
    ((30375.0, -369603.0, 765765.0, -425425.0), 414720.0),
    ((4465125.0, -94121676.0, 349922430.0, -446185740.0, 185910725.0), 39813120.0),
)


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


def _log_series(nu: float, x: np.ndarray) -> np.ndarray:
    # (x/2)^nu / Gamma(nu+1) (1 + x^2 / (4 (nu+1))); the next term is below eps
    return np.log1p(0.25 * x * x / (nu + 1.0)) - x - nu * math.log(2.0) - math.lgamma(nu + 1.0)


def _log_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.40.1: e^-x I_nu(x) sqrt(2 pi x) ~ sum_j (-1)^j a_j(nu) / x^j; at
    # nu < 50 and x >= 2**30 the fourth term is below eps
    mu = 4.0 * nu * nu
    a1 = (1.0 - mu) / (8.0 * x)
    a2 = a1 * (9.0 - mu) / (16.0 * x)
    a3 = a2 * (25.0 - mu) / (24.0 * x)
    return np.log1p(a1 + a2 + a3) - 0.5 * np.log(2.0 * math.pi * x) - nu * np.log(x)


def _log_uniform(nu: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.41.3 at x = nu z; with q = sqrt(nu^2 + x^2) and p = nu / q, nu eta - x
    # - nu ln x = nu^2 / (q + x) - nu ln(nu + q), in which no terms of size x cancel
    q = np.hypot(nu, x)
    p = nu / q
    total = sum((p / nu) ** k * polyval(p * p, poly) / d for k, (poly, d) in enumerate(_U_POLYS, 1))
    return nu * nu / (q + x) - nu * np.log(nu + q) - 0.5 * np.log(2.0 * math.pi * q) + np.log1p(total)


def log_bessel_i_scaled(nu: float, x):
    """ln(x^-nu e^-x I_nu(x)) of the modified Bessel function of the first kind,
    order nu >= -1/2, at finite x >= 0 of any shape (a float for a scalar).

    Finite also at x = 0, where it equals -nu ln 2 - ln Gamma(nu + 1).
    """
    if not -0.5 <= nu < math.inf:
        raise ValueError(f"log_bessel_i_scaled requires a finite nu >= -1/2, got {nu!r}")
    x = np.asarray(x, dtype=np.float64)
    if not ((x >= 0) & (x < math.inf)).all():
        raise ValueError(f"log_bessel_i_scaled requires finite x >= 0, got {x!r}")
    flat = x.ravel()
    scaled = _ive(nu, flat)
    common = (scaled >= _TINY) & (flat >= _SERIES_MAX_X)  # false where ive is NaN
    out = np.log(np.where(common, scaled, 1.0)) - nu * np.log(np.where(common, flat, 1.0))
    if not common.all():
        small = flat < _SERIES_MAX_X
        out[small] = _log_series(nu, flat[small])
        rest = ~(common | small)
        out[rest] = (_log_hankel if nu < _HANKEL_MAX_ORDER else _log_uniform)(nu, flat[rest])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
