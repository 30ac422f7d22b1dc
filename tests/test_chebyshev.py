import numpy as np
import pytest

from mirrormatch import chebyshev

DEGREES = (16, 256)


def smooth(s):
    return np.exp(np.sin(3.0 * s)) / (1.0 + s * s)


def test_fit_reaches_the_tolerance_and_stops():
    coef = chebyshev.fit(smooth, 0.2, 1.7, 1e-13, DEGREES)
    assert coef is not None and coef.size - 1 in (16, 32, 64, 128, 256)
    assert np.abs(coef[3 * (coef.size - 1) // 4 :]).max() < 1e-13
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 500)
    table = chebyshev.pieces(coef[None, :])
    np.testing.assert_allclose(chebyshev.evaluate(table, x)[0], smooth(0.95 + 0.75 * x), rtol=0.0, atol=1e-13)


def test_fit_reuses_every_point():
    # doubling the degree adds the interleaved points only: 17 + 16 + 32 + ... points in all
    seen = []

    def counted(s):
        seen.append(s.copy())
        return smooth(s)

    coef = chebyshev.fit(counted, 0.0, 1.0, 1e-13, DEGREES)
    points = np.concatenate(seen)
    assert points.size == coef.size == np.unique(points).size


def test_fit_gives_up_on_a_kink():
    assert chebyshev.fit(lambda s: np.abs(s - 0.3), 0.0, 1.0, 1e-13, (16, 64)) is None
    assert chebyshev.fit(lambda s: np.where(s < 0.5, np.nan, s), 0.0, 1.0, 1e-13, DEGREES) is None


def test_pieces_hold_several_functions():
    a = chebyshev.fit(smooth, -1.0, 1.0, 1e-13, DEGREES)
    b = chebyshev.fit(np.cos, -1.0, 1.0, 1e-13, DEGREES)
    width = max(a.size, b.size)
    table = chebyshev.pieces(np.stack([np.pad(c, (0, width - c.size)) for c in (a, b)]))
    x = np.linspace(-1.0, 1.0, 301)
    first, second = chebyshev.evaluate(table, x)
    np.testing.assert_allclose(first, smooth(x), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(second, np.cos(x), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_a_value_keeps_its_bits_beside_any_others(size):
    table = chebyshev.pieces(chebyshev.fit(smooth, 0.0, 2.0, 1e-13, DEGREES)[None, :])
    x = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    together = chebyshev.evaluate(table, x)
    alone = np.hstack([chebyshev.evaluate(table, x[i : i + 1]) for i in range(size)])
    assert together.tobytes() == alone.tobytes()
