"""Population and clone-interaction sampling.

Each public function takes a sequence of
:class:`~mirrormatch.streams.StreamKey`, ``keys``, and returns one row per
key; a single draw is a sequence of one key. Row i is a pure function of
key i: the same key gives the same row alone or beside any other keys. A
call fills a ``(len(keys), width)`` matrix from
:func:`~mirrormatch.streams.uniform_rows` (row i holds the first ``width``
uniforms of key i's stream) and turns it into draws with one transform per
law. The draw algorithms are frozen so that golden outputs stay stable,
and none of them uses a numpy ``Generator`` distribution method (those
algorithms are not stable across numpy versions); everything is a fixed
transform of the uniforms:

* standard normals: inverse normal CDF (zero-guarded at 2**-54);
* chi-square with ``df >= 1`` degrees of freedom: twice a Gamma(df/2)
  draw by Marsaglia and Tsang (2000, ACM TOMS 26(3)) on three uniforms:
  ``z`` from U1, the acceptance test on ``ln U2``, and for a rejected draw
  ``2 * gammaincinv(df / 2, U3)``. Acceptance reads (U1, U2) alone, so U3
  is uniform under either outcome and the mixture is exact. At ``df = 1``
  the test runs at shape 3/2 and an accepted draw is boosted by ``U3**2``;
  ``df = 0`` is exactly zero and takes no uniforms;
* ball radii: ``U**(1/k)``, one uniform per point.

Clone draws cost O(1) in k, in time and in uniforms. Only the candidate's
norm R, the clone distance S and the offset W are returned, and all three
depend on the vectors only through rotation-invariant quantities. With
rho the norm of the fixed subject noise (0 in per-interaction mode) and v
the per-coordinate variance of the noise drawn fresh per interaction (both
clones' noise per interaction, the other clone's alone with a fixed
subject), rotating the subject-noise axis and then the noiseless clone
difference onto the first coordinate gives::

    R     = U**(1/k)
    Theta = g1 / sqrt(g1**2 + chi2[k-1])        cosine of x to the noise axis
    W**2  = (R - rho)**2 + 2 R rho (1 - Theta)   = ||x - subject noise||**2
    S**2  = (W + sqrt(v) g)**2 + v chi2[k-1]

The subject-noise norm is drawn on its own stream as
``rho = sqrt(variance * chi2[k])``, one chi-square draw.

Row layout. A row is cut, left to right, into column blocks of ``count``
draws each; a chi-square draw takes three uniforms at any ``df >= 1``, as
three blocks of ``count`` (U1, U2, U3):

* ball radii: the radii;
* noise norm: one chi-square block with ``df = k`` and ``count = 1``;
* clone batch: the radii, then (fixed subject only) ``g1`` and its
  chi-square, then ``g`` and its chi-square, each chi-square with
  ``df = k - 1``.

Block rule: every column block is copied to a contiguous array before it
is transformed, so each transform sees the same memory layout whether one
key or many are drawn together. A strided slice may take another numpy
loop (a vectorized ``pow``, say) whose results differ in the last bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.special import gammaincinv, ndtri

from .analytic import _check_dim, _check_positive_int, _check_variance
from .streams import StreamKey, uniform_rows

_MIN_UNIFORM = 2.0**-54  # ndtri(0) is -inf; clamp the (prob 2**-53) exact zero
_CHI2_WIDTH = 3  # uniforms a chi-square draw takes at df >= 1


def clone_row_width(k: int, count: int, subject_noise: bool) -> int:
    """Uniforms in one key's row of :func:`draw_clone_batch`, with or without a subject noise."""
    chi = 0 if k == 1 else _CHI2_WIDTH  # a chi-square with k - 1 degrees of freedom
    return count * (3 + 2 * chi if subject_noise else 2 + chi)


def _column_blocks(uniforms: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    # the row layout, left to right, as contiguous blocks (the block rule)
    return [np.ascontiguousarray(block) for block in np.hsplit(uniforms, np.cumsum(widths)[:-1])]


def _standard_normals(uniforms: np.ndarray) -> np.ndarray:
    np.maximum(uniforms, _MIN_UNIFORM, out=uniforms)
    return ndtri(uniforms)


def _chi_square(uniforms: np.ndarray, df: int, count: int) -> np.ndarray:
    if df == 0:
        return np.zeros((uniforms.shape[0], count))
    shape = 0.5 * df
    d = shape + (2.0 / 3.0 if shape < 1.0 else -1.0 / 3.0)  # the test runs at shape + 1 below 1
    u1, u2, u3 = _column_blocks(uniforms, [count] * _CHI2_WIDTH)
    z = _standard_normals(u1)
    # z <= -sqrt(9 d) (as at the clamped U1 = 0 for small df) gives v <= 0, a NaN
    # or -inf bound and a rejection; U2 = 0 gives ln 0 = -inf and an acceptance
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (1.0 + z / math.sqrt(9.0 * d)) ** 3
        accepted = np.log(u2) < 0.5 * z * z + d - d * v + d * np.log(v)
    gamma = d * v
    if shape < 1.0:  # Gamma(a) = Gamma(a + 1) U**(1/a)
        gamma *= u3 ** (1.0 / shape)
    gamma[~accepted] = gammaincinv(shape, u3[~accepted])
    return 2.0 * gamma


def _clone_batch(
    uniforms: np.ndarray, k: int, count: int, rho: np.ndarray | None, variance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # rho: None, or a column of nonnegative subject-noise norms, one per row
    chi = 0 if k == 1 else _CHI2_WIDTH * count
    widths = [count] + ([count, chi] if rho is not None else []) + [count, chi]
    blocks = iter(_column_blocks(uniforms, widths))
    radii = next(blocks) ** (1.0 / k)
    if rho is not None:
        g1 = _standard_normals(next(blocks))
        axis_norm = np.sqrt(g1 * g1 + _chi_square(next(blocks), k - 1, count))
        # g1 = chi2 = 0 (probability 2**-53 at k = 1) has no direction; cosine 0
        cosine = g1 / np.maximum(axis_norm, np.finfo(float).tiny)
        offset2 = (radii - rho) ** 2 + 2.0 * rho * radii * (1.0 - cosine)
        offset = np.sqrt(np.maximum(offset2, 0.0))
    else:
        offset = radii
    along = offset + math.sqrt(variance) * _standard_normals(next(blocks))
    return radii, np.sqrt(along * along + variance * _chi_square(next(blocks), k - 1, count)), offset


def sample_ball_radii(k: int, count: int, keys: Sequence[StreamKey]) -> np.ndarray:
    """Norms of ``count`` points uniform in the k-dimensional unit ball, one row per key."""
    _check_dim(k)
    _check_positive_int("count", count)
    return uniform_rows(keys, count) ** (1.0 / k)


def sample_noise_norm(k: int, variance: float, keys: Sequence[StreamKey]) -> np.ndarray:
    """Norm of one isotropic k-dimensional Gaussian vector, sqrt(variance * chi2[k]), per key."""
    _check_dim(k)
    _check_variance(variance)
    chi2 = _chi_square(uniform_rows(keys, _CHI2_WIDTH), k, 1)
    return np.sqrt(variance * chi2[:, 0])


def draw_clone_batch(
    k: int,
    count: int,
    variance: float,
    subject_noise_norm: float | Sequence[float] | None = None,
    *,
    keys: Sequence[StreamKey],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``count`` clone interactions per key; returns (true_norms,
    clone_dists, offsets), one row per key.

    ``variance`` is the per-coordinate variance of the noise drawn fresh
    for every interaction. With ``subject_noise_norm`` None (per-interaction)
    the subject's proxy is regenerated for every interaction too, so
    ``variance`` is the combined noise of both clones (twice the per-clone
    variance when the two match). Otherwise ``subject_noise_norm`` gives
    each row's subject-noise norm (a float serves every row): that row
    reuses one subject noise vector of this norm across its interactions
    (fixed subject clone), and ``variance`` is the other clone's noise
    alone. A draw's offset W is the distance from its true point to the
    fixed subject noise; per interaction it is the distance to the origin,
    so W is R (the same array). The clone distance depends on the true
    point only through W. Time and memory are O(count) per key in any
    dimension k.
    """
    _check_dim(k)
    _check_positive_int("count", count)
    _check_variance(variance)
    if subject_noise_norm is None:
        uniforms = uniform_rows(keys, clone_row_width(k, count, False))
        return _clone_batch(uniforms, k, count, None, variance)
    rho = np.broadcast_to(np.asarray(subject_noise_norm, dtype=float), (len(keys),))
    if not np.all((rho >= 0.0) & (rho < math.inf)):
        raise ValueError(f"subject_noise_norm must be finite and nonnegative, got {subject_noise_norm!r}")
    uniforms = uniform_rows(keys, clone_row_width(k, count, True))
    return _clone_batch(uniforms, k, count, rho[:, None], variance)
