import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy import stats

from mirrormatch.quadrature import QuadratureError, integrate


def test_polynomial_exact():
    assert integrate(lambda r: 3 * r**2, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_exponential():
    assert integrate(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-13)


def test_narrow_spike_matches_scipy():
    f = lambda r: np.exp(-((r - 0.3) ** 2) / 2e-6)
    mine = integrate(f, 0.0, 1.0)
    ref, err = sci_integrate.quad(lambda r: math.exp(-((r - 0.3) ** 2) / 2e-6), 0, 1,
                                  epsabs=1e-14, limit=200, points=[0.3])
    assert err < 1e-10
    assert mine == pytest.approx(ref, rel=1e-10)
    # the spike integrates to sqrt(2 pi) * 1e-3 up to negligible tail mass
    assert mine == pytest.approx(math.sqrt(2 * math.pi) * 1e-3, rel=1e-10)


def test_boundary_layer():
    # r^k mass concentrates against 1; exact value 1/(k+1)
    k = 5000
    assert integrate(lambda r: r**k, 0.0, 1.0) == pytest.approx(1.0 / (k + 1), rel=1e-9)


def test_stacked_rows_equal_scalar_integrals():
    # the smooth row 0 converges at once; the spike in row 1 forces refinement,
    # which both rows share, and every row must meet the tolerance
    smooth = lambda r: r * np.cos(7 * r)
    spike = lambda r: np.exp(-((r - 0.3) ** 2) / 2e-6)
    both = integrate(lambda r: np.array((smooth(r), spike(r))), 0.0, 1.0)
    assert both.shape == (2,)
    assert both[0] == pytest.approx(integrate(smooth, 0.0, 1.0), abs=1e-12)
    assert both[1] == pytest.approx(integrate(spike, 0.0, 1.0), abs=1e-12)
    assert both[0] == pytest.approx(math.cos(7) / 49 + math.sin(7) / 7 - 1 / 49, abs=1e-13)
    assert both[1] == pytest.approx(math.sqrt(2 * math.pi) * 1e-3, rel=1e-10)


def test_entries_keep_their_bits_beside_any_others():
    # bumps of many widths, so the entries take refinement trees of many depths;
    # each entry's sums run over its own nodes, so a chunk of 7 gives the bits of one batch
    centre = np.random.default_rng(3).uniform(0.1, 0.9, 300)
    width = np.geomspace(1e-2, 1.0, 300)

    def rows(which):
        return lambda x, i: np.stack([np.exp(-0.5 * ((x - centre[which][i, None]) / width[which][i, None]) ** 2)] * 2)

    one = integrate(rows(slice(None)), 0.0, 1.0, entries=300)
    chunks = [integrate(rows(slice(i, i + 7)), 0.0, 1.0, entries=min(7, 300 - i)) for i in range(0, 300, 7)]
    assert np.concatenate(chunks, axis=-1).tobytes() == one.tobytes()
    exact = np.sqrt(2.0 * np.pi) * width * (stats.norm.cdf((1.0 - centre) / width) - stats.norm.cdf(-centre / width))
    np.testing.assert_allclose(one[0], exact, rtol=0.0, atol=1e-11)


def test_invalid_bounds():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, 1.0, abs_tol=0.0)


def test_nonconvergence_raises():
    # interior algebraic singularity defeats bisection at this tolerance
    f = lambda r: np.abs(r - 1 / math.pi) ** -0.95
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0, abs_tol=1e-12)
