"""Chebyshev tables of smooth functions on an interval, evaluated elementwise.

:func:`fit` samples a vectorised function at the Chebyshev-Lobatto points
of [lo, hi] and doubles their number, the new points interleaving the old
so that no value is computed twice, until the last quarter of the
Chebyshev coefficients is below a tolerance (Trefethen 2019, *Approximation
Theory and Approximation Practice*, ch. 3 and 8). A series of degree N
costs N steps of Clenshaw's recurrence a value, so :func:`pieces`
re-expands it on equal cells as polynomials of degree ``_PIECE_DEGREE`` in
each cell's own variable, doubling the cells until the pieces match the
series, and :func:`evaluate` reads a value off its cell by Horner's rule in
a few elementwise operations. Every value is then a
fixed sequence of elementwise operations on its own argument, so its bits
never depend on the values evaluated beside it. Coefficients are formed by
elementwise products and pairwise sums, never a BLAS product.
"""

from __future__ import annotations

import numpy as np

_PIECE_DEGREE = 7
_PIECE_TOL = 1e-14  # the pieces against the series, at the midpoints of their points
_MAX_CELLS = 2**14


def _monomials(degree: int) -> np.ndarray:
    # row j holds the power coefficients of T_j, by T_j+1 = 2 y T_j - T_j-1
    rows = np.zeros((degree + 1, degree + 1))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    for j in range(1, degree):
        rows[j + 1, 1:] = 2.0 * rows[j, :-1]
        rows[j + 1] -= rows[j - 1]
    return rows


_MONOMIALS = _monomials(_PIECE_DEGREE)


def _lobatto(degree: int) -> np.ndarray:
    return np.cos(np.pi * np.arange(degree + 1) / degree)


def _coefficients(values: np.ndarray) -> np.ndarray:
    # Chebyshev coefficients from values at the Lobatto points, along the last axis
    degree = values.shape[-1] - 1
    j = np.arange(degree + 1)
    cosines = np.cos(np.pi * (np.outer(j, j) % (2 * degree)) / degree)
    weights = np.full(degree + 1, 2.0 / degree)
    weights[[0, -1]] = 1.0 / degree
    coef = (values[..., None, :] * weights * cosines).sum(axis=-1)
    coef[..., [0, -1]] *= 0.5
    return coef


def _clenshaw(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sum_j coef[j] T_j(x), the coefficients along the first axis of coef
    # (broadcast against x), by Clenshaw's recurrence
    twice = 2.0 * x
    b1 = b2 = np.zeros_like(x)
    for c in coef[:0:-1]:
        b1, b2 = twice * b1 - b2 + c, b1
    return x * b1 - b2 + coef[0]


def fit(f, lo: float, hi: float, tol: float, degrees: tuple[int, int]) -> np.ndarray | None:
    """Chebyshev coefficients of ``f`` on [lo, hi] in x = (2s - lo - hi)/(hi - lo).

    ``f`` maps an array of points to an array of values. The degree starts
    at ``degrees[0]`` and doubles until the last quarter of the
    coefficients is below ``tol`` in magnitude; ``None`` when that fails at
    ``degrees[1]`` (a non-finite value never passes).
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    degree = degrees[0]
    values = np.asarray(f(mid + half * _lobatto(degree)), dtype=float)
    while True:
        coef = _coefficients(values)
        if np.abs(coef[3 * degree // 4 :]).max() < tol:
            return coef
        if degree >= degrees[1]:
            return None
        new = np.asarray(f(mid + half * np.cos(np.pi * np.arange(1, 2 * degree, 2) / (2 * degree))), dtype=float)
        values = np.stack([values, np.append(new, 0.0)], axis=1).ravel()[:-1]
        degree *= 2


def pieces(series: np.ndarray) -> np.ndarray:
    """Re-expand the series ``series[i]`` (coefficients on the last axis) on
    equal cells of [-1, 1]: an array (cells, len(series), _PIECE_DEGREE + 1)
    of each cell's power coefficients in y in [-1, 1] across the cell.

    The cells start at a power of two near half the series' degree, where
    the pieces of the series in ``fit`` usually hold already, and double until
    the pieces hold the series to ``_PIECE_TOL`` halfway between their
    Lobatto points. In a cell of a smooth function the Chebyshev coefficients
    fall fast, so the powers, of size up to 2^(degree - 1) in T_degree, add
    no rounding to speak of.
    """
    cells = 1 << max(0, (series.shape[-1] - 1).bit_length() - 2)
    series = series.T[:, :, None, None]  # (degree + 1, functions, 1, 1): the coefficients first
    local, between = _lobatto(_PIECE_DEGREE), np.cos(np.pi * (np.arange(_PIECE_DEGREE) + 0.5) / _PIECE_DEGREE)
    while True:
        left = -1.0 + 2.0 * np.arange(cells)[:, None] / cells
        coef = _coefficients(_clenshaw(series, left + (local + 1.0) / cells))  # (functions, cells, points)
        table = np.moveaxis((coef[..., :, None] * _MONOMIALS).sum(axis=-2), 1, 0)
        check = left + (between + 1.0) / cells
        error = np.abs(evaluate(table, check.ravel()) - _clenshaw(series, check).reshape(len(coef), -1)).max()
        if error <= _PIECE_TOL or cells >= _MAX_CELLS:
            return table
        cells *= 2


def evaluate(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The functions of a :func:`pieces` table at x in [-1, 1], one row of values a function.

    Each value takes its cell's Horner rule elementwise; an x outside
    [-1, 1] is read off the nearest end cell, extrapolated.
    """
    cells = table.shape[0]
    where = (x + 1.0) * (0.5 * cells)
    cell = np.clip(np.floor(where), 0, cells - 1).astype(np.intp)
    coef = table[cell]  # (values, functions, degree + 1)
    y = (2.0 * (where - cell) - 1.0)[:, None]
    value = coef[..., -1]
    for j in range(coef.shape[-1] - 2, -1, -1):
        value = value * y + coef[..., j]
    return value.T
