"""Exact oracles shared by several test modules."""

import numpy as np

from mirrormatch import analytic


def finite_pool_rich_win(k, spec, n, levels=1000):
    """Exact probability that the best of n rich and n poor clones is rich.

    It is E[(1 - F_p(M))^n] with M the smallest of the n rich distances,
    P(M > s) = (1 - F_r(s))^n, and F_r, F_p the clone-distance CDFs at
    nu_r and nu_p: a trapezoid Stieltjes sum over nodes at ``levels``
    equal steps of both minima's CDFs, placed from a uniform grid. The
    nodes must crowd where F_r is about 1/n: at ratio 64 the uniform grid
    itself is off by 2e-4 at k = 2, n = 10^5, and steps of the rich
    minimum's CDF alone converge only to first order.
    """

    def survival(nu, s):  # P(the smallest of n clone distances at nu exceeds s)
        with np.errstate(divide="ignore"):  # F = 1 gives log1p(-1) = -inf and survival 0
            return np.exp(n * np.log1p(-analytic.clone_distance_cdf(k, nu, s)))

    hi = 1.0
    while survival(spec.nu_r, hi) > 0.0:
        hi *= 2.0
    grid = np.linspace(0.0, hi, 4001)
    steps = np.linspace(0.0, 1.0, levels + 1)
    nodes = [np.interp(steps, 1.0 - survival(nu, grid), grid) for nu in (spec.nu_r, spec.nu_p)]
    s = np.unique(np.concatenate(nodes + [[0.0, hi]]))
    rich, poor = survival(spec.nu_r, s), survival(spec.nu_p, s)
    return float(np.sum(0.5 * (poor[1:] + poor[:-1]) * (rich[:-1] - rich[1:])))
