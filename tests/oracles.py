"""Exact oracles shared by several test modules."""

import mpmath
import numpy as np
from scipy import integrate, special

from mirrormatch import analytic, simulate


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


def clone_moments(k, nu, theta):
    """F = P(S <= theta) and G = E[R; S <= theta] for the clone distance S.

    With nu the combined per-coordinate noise variance, S^2/nu ~
    ncx2(k, R^2/nu) given R, and R has density k r^(k-1) on [0, 1], so F
    and G are ``quad`` integrals over r of k r^(k-1) {1, r}
    chndtr(theta^2/nu, k, r^2/nu), a route apart from ``analytic``'s node
    rule. (G(b) - G(a)) / (F(b) - F(a)) is the exact mean of R over
    a < S <= b.
    """

    def moment(power):
        def integrand(r):
            return k * r ** (k - 1 + power) * special.chndtr(theta**2 / nu, k, r**2 / nu)

        return integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    return moment(0), moment(1)


def threshold_stop_payoff(k, variance, policy):
    """Exact expected payoff of a threshold stop that the cap does not truncate.

    The search stops at its first draw whose observation is at most theta, so
    tau is geometric in F = P(observation <= theta), cut at the cap, and the
    norm it is paid has mean G/F with G = E[R; observation <= theta]. In
    person the observation is the radius R itself, of density k r^(k-1) on
    [0, 1], so F = theta^k and G/F = theta k/(k + 1). On the platform it is
    the clone distance S at nu = 2 variance, whose F and G are
    ``clone_moments``. A truncated search is paid by another law, so the cap
    must miss with probability (1 - F)^cap below 1e-12.
    """
    theta = policy.threshold
    if policy.regime == simulate.IN_PERSON:
        assert theta <= 1.0
        cdf, mean = theta**k, theta * k / (k + 1.0)
    else:
        cdf, weighted = clone_moments(k, 2.0 * variance, theta)
        mean = weighted / cdf
    miss = (1.0 - cdf) ** policy.cap
    assert miss < 1e-12, miss
    return -mean - policy.cost_per_period * (1.0 - miss) / cdf - policy.fee


def finite_pool_d_ai(k, n, nu, cells=200):
    """Exact expected true norm of the platform winner, the least of n clone distances.

    With F(s) = P(S <= s), G(s) = E[R; S <= s] from ``clone_moments`` at the
    combined variance nu and q(s) = 1 - (1 - F(s))^n the law of the least
    distance, d_ai = int (dG/dF) dq, summed as (ΔG/ΔF) Δq over ``cells``
    cells uniform in t = ln(-n ln(1 - F)) on [-20, 3.6] (q from 2e-9 to
    1 - 1e-16), plus one cell below and one above. The cell sum's error
    falls fourfold a halving of the cells, so the value is the Richardson
    extrapolation (4 S(cells) - S(cells/2)) / 3 on the same ends. The ends
    are placed by F on a geometric grid; neither ``analytic``'s node rule
    nor ``density``'s m enters.
    """
    def moments(points):
        return np.array([clone_moments(k, nu, float(s)) for s in points]).T

    s_max = 1.0 + np.sqrt(nu * (k + 2.0 * np.sqrt(40.0 * k) + 80.0))
    grid = np.geomspace(1e-6 * s_max, s_max, 400)
    cdf, _ = moments(grid)
    inside = (cdf > 0.0) & (cdf < 1.0)
    t = np.log(-n * np.log1p(-cdf[inside]))
    ends = np.interp(np.linspace(-20.0, 3.6, cells + 1), t, grid[inside])
    cdf, weighted = moments(ends)
    mean_r = k / (k + 1.0)  # G at s = infinity

    def cell_sum(cdf, weighted):
        f = np.concatenate([[0.0], cdf, [1.0]])
        g = np.concatenate([[0.0], weighted, [mean_r]])
        q = -np.expm1(n * np.log1p(-f[:-1]))
        q = np.append(q, 1.0)
        df, keep = np.diff(f), np.diff(f) > 0.0
        return float(np.sum((np.diff(g)[keep] / df[keep]) * np.diff(q)[keep]))

    fine, coarse = cell_sum(cdf, weighted), cell_sum(cdf[::2], weighted[::2])
    return (4.0 * fine - coarse) / 3.0


def offset_conditional_mean(k, rho, w, dps=30):
    """E[||X|| : ||X - e|| = w] for X uniform in the k-ball and ||e|| = rho, by mpmath.

    The r-form, apart from the library's integral over the angle: the ball's
    volume element r^(k-1) (1 - theta^2)^((k-3)/2) dr dtheta, theta the
    cosine of X to e, taken at fixed r from theta to w through w^2 = r^2 +
    rho^2 - 2 r rho theta, gives R the density r^(k-2) (1 - theta^2)^((k-3)/2)
    on [|rho - w|, min(rho + w, 1)] with theta = (r^2 + rho^2 - w^2) / (2 r
    rho). tanh-sinh takes the endpoint singularities at k = 2 (a node that
    rounds onto an end is given weight 0, which moves nothing at the
    working precision), and the interval is split about the mode, found on
    a grid, so a sharp peak at large k is not missed. At k = 1 the law is
    the two points |rho - w| and rho + w, of which those in the ball are
    equally likely; at rho = 0 it is the one norm w.
    """
    if k == 1:
        points = [v for v in (abs(rho - w), rho + w) if v <= 1.0]
        return sum(points) / len(points)
    if rho == 0.0:
        return w
    with mpmath.workdps(dps):
        rho, w = mpmath.mpf(rho), mpmath.mpf(w)
        a, b = abs(rho - w), min(rho + w, mpmath.mpf(1))

        def log_density(r):
            # 1 - theta^2 as a product of four factors, each nonnegative on [a, b],
            # with no cancellation at either end
            sine2 = (w - r + rho) * (w + r - rho) * (r + rho - w) * (r + rho + w) / (2 * r * rho) ** 2
            if not sine2 > 0:  # a node that rounds onto an end, where the density may be infinite
                return -mpmath.inf
            return (k - 2) * mpmath.log(r) + mpmath.mpf(k - 3) / 2 * mpmath.log(sine2)

        grid = [a + (b - a) * i / 2000 for i in range(1, 2000)]
        mode = max(grid, key=log_density)
        top = log_density(mode)
        splits = sorted({a, b, mode} | {mode + sign * (b - a) * d for d in (1e-3, 1e-2, 0.1) for sign in (-1, 1)
                                          if a < mode + sign * (b - a) * d < b})

        def moment(power):
            return mpmath.quad(lambda r: r**power * mpmath.exp(log_density(r) - top), splits)

        return float(moment(1) / moment(0))
