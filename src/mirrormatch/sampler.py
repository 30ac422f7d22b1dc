"""Population and clone-interaction sampling.

Every operation is a pure function of its :class:`~mirrormatch.streams.StreamKey`:
calling it twice with the same key returns identical values. Each call
draws through :meth:`~mirrormatch.streams.StreamKey.draw`, so the
generator it sees never leaves the call. The draw algorithms are frozen
so that golden outputs stay stable, and none of them uses a numpy
``Generator`` distribution method (those algorithms are not stable across
numpy versions); everything is an inverse CDF of the key's uniform
stream:

* standard normals: inverse normal CDF (zero-guarded at 2**-54);
* chi-square with ``df`` degrees of freedom: for ``df <= 24`` the row sums
  of one row-major ``(count, df)`` block of squared standard normals,
  above that ``2 * gammaincinv(df / 2, U)`` with one uniform per draw;
  ``df = 0`` is exactly zero and draws nothing;
* ball radii: ``U**(1/k)``, one uniform per point.

Clone draws cost O(1) in k. Only the candidate's norm R and the clone
distance S are returned, and both depend on the vectors only through
rotation-invariant quantities. With rho the norm of the fixed subject
noise (0 in per-interaction mode) and v the per-coordinate variance of
the fresh noise, rotating the subject-noise axis and then the noiseless
clone difference onto the first coordinate gives::

    R     = U**(1/k)
    Theta = g1 / sqrt(g1**2 + chi2[k-1])        cosine of x to the noise axis
    W**2  = (R - rho)**2 + 2 R rho (1 - Theta)   = ||x - subject noise||**2
    S**2  = (W + sqrt(v) g)**2 + v chi2[k-1]

The subject-noise norm is drawn on its own stream as
``rho = sqrt(variance * chi2[k])``, one chi-square draw. Batch draw order:
the radii, then (rho > 0 only) ``g1`` and its chi-square, then ``g`` and
its chi-square; each block holds ``count`` draws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincinv, ndtri

from .streams import StreamKey

_MIN_UNIFORM = 2.0**-54  # ndtri(0) is -inf; clamp the (prob 2**-53) exact zero
# largest df drawn as a sum of squared normals; above it one gammaincinv
# call per draw is cheaper than df inverse-CDF normals (the two meet near
# df = 24 at 25-512 draws a call)
_CHI2_SUM_MAX_DF = 24


def _check_dim(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"dimension k must be a positive integer, got {k!r}")


def _check_count(count: int) -> None:
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")


def _standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u)


def _chi_square(rng: np.random.Generator, df: int, count: int) -> np.ndarray:
    if df == 0:
        return np.zeros(count)
    if df <= _CHI2_SUM_MAX_DF:
        normals = _standard_normals(rng, (count, df))
        return np.einsum("ij,ij->i", normals, normals)
    return 2.0 * gammaincinv(0.5 * df, rng.random(count))


def _ball_radii(rng: np.random.Generator, k: int, count: int) -> np.ndarray:
    return rng.random(count) ** (1.0 / k)


def _clone_batch(
    rng: np.random.Generator, k: int, count: int, rho: float, variance: float
) -> tuple[np.ndarray, np.ndarray]:
    radii = _ball_radii(rng, k, count)
    if rho > 0.0:
        g1 = _standard_normals(rng, count)
        axis_norm = np.sqrt(g1 * g1 + _chi_square(rng, k - 1, count))
        # g1 = chi2 = 0 (probability 2**-53 at k = 1) has no direction; cosine 0
        cosine = g1 / np.maximum(axis_norm, np.finfo(float).tiny)
        offset2 = (radii - rho) ** 2 + 2.0 * rho * radii * (1.0 - cosine)
        offset = np.sqrt(np.maximum(offset2, 0.0))
    else:
        offset = radii
    along = offset + math.sqrt(variance) * _standard_normals(rng, count)
    return radii, np.sqrt(along * along + variance * _chi_square(rng, k - 1, count))


def sample_ball_radii(k: int, count: int, stream: StreamKey) -> np.ndarray:
    """Draw the norms of ``count`` points uniform in the k-dimensional unit ball."""
    _check_dim(k)
    _check_count(count)
    return stream.draw(_ball_radii, k, count)


def sample_noise_norm(k: int, variance: float, stream: StreamKey) -> float:
    """Draw the norm of one isotropic k-dimensional Gaussian vector, sqrt(variance * chi2[k])."""
    _check_dim(k)
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance!r}")
    return math.sqrt(variance * float(stream.draw(_chi_square, k, 1)[0]))


def draw_clone_batch(
    k: int,
    count: int,
    sigma_subject2: float,
    sigma_other2: float,
    subject_noise_norm: float | None = None,
    *,
    stream: StreamKey,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` full clone interactions; returns (true_norms, clone_dists).

    With ``subject_noise_norm`` None (per-interaction) the subject's proxy
    is regenerated for every interaction, so the combined noise on the
    clone difference is a single Gaussian with per-coordinate variance
    ``sigma_subject2 + sigma_other2``. A float reuses one subject noise
    vector of that norm across the batch (fixed subject clone), and only
    ``sigma_other2`` is fresh per interaction. Time and memory are
    O(count) in any dimension k.
    """
    _check_dim(k)
    _check_count(count)
    if not (sigma_subject2 > 0 and sigma_other2 > 0):
        raise ValueError("noise variances must be positive")
    if subject_noise_norm is None:
        rho, variance = 0.0, sigma_subject2 + sigma_other2
    elif 0.0 <= subject_noise_norm < math.inf:
        rho, variance = float(subject_noise_norm), sigma_other2
    else:
        raise ValueError(f"subject_noise_norm must be finite and nonnegative, got {subject_noise_norm!r}")

    return stream.draw(_clone_batch, k, count, rho, variance)
