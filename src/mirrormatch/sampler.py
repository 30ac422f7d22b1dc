"""Population and clone-interaction sampling.

Each public function takes one :class:`~mirrormatch.streams.StreamKey` or a
sequence of them and returns one row per key. Row i is a pure function of
key i: the same key gives the same row alone or beside any other keys. A
call fills a ``(len(keys), width)`` matrix from
:func:`~mirrormatch.streams.uniform_rows` (row i holds the first ``width``
uniforms of key i's stream) and turns it into draws with one transform per
law. The draw algorithms are frozen so that golden outputs stay stable,
and none of them uses a numpy ``Generator`` distribution method (those
algorithms are not stable across numpy versions); everything is an inverse
CDF of the uniforms:

* standard normals: inverse normal CDF (zero-guarded at 2**-54);
* chi-square with ``df`` degrees of freedom: for ``df <= 24`` the sums of
  squared standard normals over ``df`` consecutive uniforms, above that
  ``2 * gammaincinv(df / 2, U)`` with one uniform per draw; ``df = 0`` is
  exactly zero and takes no uniforms;
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
``rho = sqrt(variance * chi2[k])``, one chi-square draw.

Row layout. A row is cut, left to right, into column blocks of ``count``
draws each; a chi-square block takes ``count * chi_square_width(df)``
uniforms (``df`` of them per draw, row-major, for ``df <= 24``):

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

from .streams import StreamKey, uniform_rows

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


def _check_variance(*variances: float) -> None:
    for variance in variances:
        if not (variance > 0 and math.isfinite(variance)):
            raise ValueError(f"noise variance must be positive and finite, got {variance!r}")


def _keys(stream: StreamKey | Sequence[StreamKey]) -> list:
    return [stream] if isinstance(stream, StreamKey) else list(stream)


def chi_square_width(df: int) -> int:
    """Uniforms one chi-square draw with ``df`` degrees of freedom takes."""
    return 0 if df == 0 else df if df <= _CHI2_SUM_MAX_DF else 1


def clone_row_width(k: int, count: int, subject_noise: bool) -> int:
    """Uniforms in one key's row of :func:`draw_clone_batch`, with or without a subject noise."""
    chi = chi_square_width(k - 1)
    return count * (3 + 2 * chi if subject_noise else 2 + chi)


def _column_blocks(uniforms: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    # the row layout, left to right, as contiguous blocks (the block rule)
    return [np.ascontiguousarray(block) for block in np.hsplit(uniforms, np.cumsum(widths)[:-1])]


def _standard_normals(uniforms: np.ndarray) -> np.ndarray:
    np.maximum(uniforms, _MIN_UNIFORM, out=uniforms)
    return ndtri(uniforms)


def _chi_square(uniforms: np.ndarray, df: int, count: int) -> np.ndarray:
    rows = uniforms.shape[0]
    if df == 0:
        return np.zeros((rows, count))
    if df <= _CHI2_SUM_MAX_DF:
        normals = _standard_normals(uniforms).reshape(rows * count, df)
        return np.einsum("ij,ij->i", normals, normals).reshape(rows, count)
    return 2.0 * gammaincinv(0.5 * df, uniforms)


def _clone_batch(
    uniforms: np.ndarray, k: int, count: int, rho: np.ndarray | None, variance: float
) -> tuple[np.ndarray, np.ndarray]:
    # rho: None, or a column of nonnegative subject-noise norms, one per row
    chi = count * chi_square_width(k - 1)
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
    return radii, np.sqrt(along * along + variance * _chi_square(next(blocks), k - 1, count))


def sample_ball_radii(k: int, count: int, stream: StreamKey | Sequence[StreamKey]) -> np.ndarray:
    """Norms of ``count`` points uniform in the k-dimensional unit ball, one row per key."""
    _check_dim(k)
    _check_count(count)
    return uniform_rows(_keys(stream), count) ** (1.0 / k)


def sample_noise_norm(k: int, variance: float, stream: StreamKey | Sequence[StreamKey]) -> np.ndarray:
    """Norm of one isotropic k-dimensional Gaussian vector, sqrt(variance * chi2[k]), per key."""
    _check_dim(k)
    _check_variance(variance)
    chi2 = _chi_square(uniform_rows(_keys(stream), chi_square_width(k)), k, 1)
    return np.sqrt(variance * chi2[:, 0])


def draw_clone_batch(
    k: int,
    count: int,
    sigma_subject2: float,
    sigma_other2: float,
    subject_noise_norm: float | Sequence[float] | None = None,
    *,
    stream: StreamKey | Sequence[StreamKey],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` clone interactions per key; returns (true_norms, clone_dists), one row per key.

    With ``subject_noise_norm`` None (per-interaction) the subject's proxy
    is regenerated for every interaction, so the combined noise on the
    clone difference is a single Gaussian with per-coordinate variance
    ``sigma_subject2 + sigma_other2``. Otherwise it gives each row's
    subject-noise norm (a float serves every row): that row reuses one
    subject noise vector of this norm across its interactions (fixed
    subject clone), and only ``sigma_other2`` is fresh per interaction.
    Time and memory are O(count) per key in any dimension k.
    """
    _check_dim(k)
    _check_count(count)
    _check_variance(sigma_subject2, sigma_other2)
    keys = _keys(stream)
    if subject_noise_norm is None:
        uniforms = uniform_rows(keys, clone_row_width(k, count, False))
        return _clone_batch(uniforms, k, count, None, sigma_subject2 + sigma_other2)
    rho = np.broadcast_to(np.asarray(subject_noise_norm, dtype=float), (len(keys),))
    if not np.all((rho >= 0.0) & (rho < math.inf)):
        raise ValueError(f"subject_noise_norm must be finite and nonnegative, got {subject_noise_norm!r}")
    uniforms = uniform_rows(keys, clone_row_width(k, count, True))
    return _clone_batch(uniforms, k, count, rho[:, None], sigma_other2)
