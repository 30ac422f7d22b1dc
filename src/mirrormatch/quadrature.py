"""Adaptive composite Gauss-Legendre quadrature.

The integrand maps an array of nodes to an array of values, or to a
stack of rows (one integral per row, all sharing the nodes). Each panel
is accepted when its two-half refinement agrees with the single-panel
estimate, in every row, within the panel's share of the error budget;
otherwise the panel is bisected. Running out of refinement depth raises
:class:`QuadratureError` -- non-convergence is never silently absorbed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_ABS_TOL = 1e-12
_MAX_DEPTH = 20
_KNOT_WIDTHS = (1.0, 8.0, 64.0)  # panel knots, in Laplace widths from the peak
_KNOT_EDGES = sorted(sign * d for d in _KNOT_WIDTHS for sign in (-1.0, 1.0))

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
# one call of the integrand on a panel's nodes and on both halves' nodes
# (in units of the half-width about the midpoint) gives the three estimates
_SPLIT_NODES = np.concatenate((_NODES, 0.5 * (_NODES - 1.0), 0.5 * (_NODES + 1.0)))
_SPLIT_WEIGHTS = np.kron(np.eye(3), _WEIGHTS[:, None]) * (1.0, 0.5, 0.5)
_SPLIT_ROWS = np.outer((1.0, 0.5, 0.5), _WEIGHTS)  # the same weights, one row of nodes an estimate


def _knots(peak: float, width: float) -> list[float]:
    # panel ends in u = (r - peak) / width over r in (0, 1]: the peak's panel
    # spans one width either side, and the geometric spacing keeps every tail
    # panel's nearest node within reach of the tail's mass
    lo, hi = -peak / width, (1.0 - peak) / width
    inner = {sign * d for d in _KNOT_WIDTHS for sign in (-1.0, 1.0)}
    return sorted({lo, hi} | {u for u in inner if lo < u < hi})


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _refine(f, a: float, b: float, tol: float, depth: int):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    whole, left, right = (half * (f(mid + half * _SPLIT_NODES) @ _SPLIT_WEIGHTS)).T
    residual = abs(left + right - whole).max()
    if residual <= tol:
        return left + right
    if depth <= 0:
        raise QuadratureError(
            f"no convergence on [{a:.6g}, {b:.6g}]: residual {residual:.3e} > {tol:.3e}"
        )
    return _refine(f, a, mid, 0.5 * tol, depth - 1) + _refine(f, mid, b, 0.5 * tol, depth - 1)


def _refine_entries(f, a: float, b: float, tol: float, depth: int, entries: np.ndarray) -> np.ndarray:
    # _refine with f(x, entries) giving rows (..., entries, nodes): an entry
    # whose rows all meet tol is done, and only the others are bisected. Each
    # weighted sum runs over one entry's own nodes (a matrix product's bits may
    # depend on its shape), so an entry's bits do not depend on the others
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(mid + half * _SPLIT_NODES, entries)
    estimates = half * (values.reshape(values.shape[:-1] + _SPLIT_ROWS.shape) * _SPLIT_ROWS).sum(axis=-1)
    whole, total = estimates[..., 0], estimates[..., 1] + estimates[..., 2]
    residual = abs(total - whole).reshape(-1, entries.size).max(axis=0)
    failed = residual > tol
    if not failed.any():
        return total
    if depth <= 0:
        raise QuadratureError(
            f"no convergence on [{a:.6g}, {b:.6g}]: residual {residual.max():.3e} > {tol:.3e}"
        )
    again = entries[failed]
    halves = _refine_entries(f, a, mid, 0.5 * tol, depth - 1, again)
    total[..., failed] = halves + _refine_entries(f, mid, b, 0.5 * tol, depth - 1, again)
    return total


def integrate(
    f: Callable[..., np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    entries: int | None = None,
):
    """Integrate the vectorized integrand ``f`` over [a, b]; one integral per
    row when ``f`` returns stacked rows.

    With ``entries``, ``f(x, which)`` returns rows (..., len(which), nodes)
    for the entries listed in the index array ``which``, and each entry is
    refined on its own until all its rows meet the tolerance: an entry that
    converges is not evaluated again. Each entry's sums run over its own
    nodes, so where ``f`` evaluates an entry alike beside any others, the
    entry's bits do not depend on them. The result is (..., entries).
    """
    if not b > a:
        raise ValueError(f"integration bounds must satisfy b > a, got [{a!r}, {b!r}]")
    if not abs_tol > 0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")
    if entries is None:
        return _refine(f, a, b, abs_tol, _MAX_DEPTH)
    return _refine_entries(f, a, b, abs_tol, _MAX_DEPTH, np.arange(entries))
