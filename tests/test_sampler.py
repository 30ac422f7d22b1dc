import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats
from scipy.special import chndtr, gammaincinv

from mirrormatch import analytic, sampler, simulate, streams
from mirrormatch.streams import StreamKey


def key(*path, seed=1234):
    k = StreamKey(seed)
    for label in path:
        k = k.child(label) if isinstance(label, str) else k.child(*label)
    return k


def noise_norms(k, variance, label, count):
    return sampler.sample_noise_norm(k, variance, [key(label, ("i", i)) for i in range(count)])


def clone_row(*args, stream, **kwargs):
    """(true_norms, clone_dists) of one key's row of ``draw_clone_batch``."""
    (norms,), (dists,) = sampler.draw_clone_batch(*args, keys=[stream], **kwargs)
    return norms, dists


def ball_row(k, count, stream):
    (radii,) = sampler.sample_ball_radii(k, count, [stream])
    return radii


def fresh_rows(keys, width):
    """The reference for ``uniform_rows``: a fresh generator per key."""
    return np.array([k.generator().random(width) for k in keys]).reshape(len(keys), width)


def direct_clone_draws(k, count, variance, subject_noise, seed):
    """(||X||, ||X + eps - subject_noise||) from full k-vectors, numpy's own generator.

    ``subject_noise`` is a k-vector; any direction gives the same law.
    """
    rng = np.random.default_rng([seed, k])
    directions = rng.standard_normal((count, k))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = directions * rng.random((count, 1)) ** (1.0 / k)
    noise = math.sqrt(variance) * rng.standard_normal((count, k))
    return np.linalg.norm(points, axis=1), np.linalg.norm(points + noise - subject_noise, axis=1)


class TestStreamKey:
    def test_pure_function_of_key(self):
        a = sampler.sample_ball_radii(4, 8, [key("x")])
        b = sampler.sample_ball_radii(4, 8, [key("x")])
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = sampler.sample_ball_radii(4, 8, [key("x")])
        b = sampler.sample_ball_radii(4, 8, [key("y")])
        c = sampler.sample_ball_radii(4, 8, [key(("x", 1))])
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_matters(self):
        a = sampler.sample_ball_radii(4, 8, [key("x", seed=1)])
        b = sampler.sample_ball_radii(4, 8, [key("x", seed=2)])
        assert not np.array_equal(a, b)

    def test_sibling_streams_uncorrelated(self):
        base = StreamKey(7)
        draws = np.stack(
            [base.child("rep", i).generator().random(2048) for i in range(16)]
        )
        corr = np.corrcoef(draws)
        off_diag = corr[~np.eye(16, dtype=bool)]
        assert np.abs(off_diag).max() < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamKey(-1)
        with pytest.raises(ValueError):
            StreamKey(0).child("")
        with pytest.raises(ValueError):
            StreamKey(0).child("x", -3)
        with pytest.raises(ValueError):
            StreamKey(0).child("x" * 2**16)  # its length does not fit the two hashed bytes

    # Philox key words and first uniforms (float.hex) of a few keys; any
    # change to the key derivation breaks these
    GOLDEN = [
        (
            StreamKey(0),
            (0x7A0B81A1F57055AF, 0x0F660AC74BAF8CF7),
            ("0x1.ed671aed29408p-2", "0x1.94d192dedc8dep-2", "0x1.921238402481cp-1", "0x1.be40ef86e22aep-2"),
        ),
        (
            StreamKey(1234).child("d_ai(k=5,n=10,mode=per-interaction)").child("rep", 7).child("pool"),
            (0xF4AC1BDDB75EAD44, 0xD1A62BA35E1E45FD),
            ("0x1.b031a8e2baa5ep-2", "0x1.30ebbada457c8p-2", "0x1.e2e1d8b2ccaf0p-1", "0x1.a3365aa0e6690p-4"),
        ),
        (
            StreamKey(2**64 - 1).child("σ²-clône", 3),
            (0xE2C860FFA80F8F23, 0xBD11BF573D8629D6),
            ("0x1.130175befdea9p-1", "0x1.b3a4c65ee7ffcp-3", "0x1.eccb891ef7559p-1", "0x1.c5b8dbed3eb46p-2"),
        ),
        (
            StreamKey(42).child("rep", 2**64 - 1),
            (0x355A646A9F73CE94, 0x619163E3595F166A),
            ("0x1.391f00f8ebecdp-1", "0x1.394e43dc3d022p-2", "0x1.fca8efaff00d0p-5", "0x1.798bfd9a2a5ecp-2"),
        ),
    ]

    def test_golden_uniforms(self):
        def philox_words(stream):
            return tuple(int(w) for w in stream.generator().bit_generator.state["state"]["key"])

        for stream, words, uniforms in self.GOLDEN:
            assert philox_words(stream) == words, stream
            expected = [float.fromhex(u) for u in uniforms]
            assert stream.generator().random(4).tolist() == expected, stream
            # the cached prefix and a key built from the whole path agree
            rebuilt = StreamKey(stream.master_seed, stream.path)
            assert philox_words(rebuilt) == words, stream

    def test_equality_hash_and_repr(self):
        a = StreamKey(5).child("x", 2)
        b = StreamKey(5, (("x", 2),))
        assert a == b and hash(a) == hash(b)
        assert a != StreamKey(5).child("x", 3) and a != StreamKey(6).child("x", 2)
        assert repr(a) == "StreamKey(master_seed=5, path=(('x', 2),))"


def pool_keys(count=40):
    base = StreamKey(99).child("shared")
    return [base.child("rep", i) for i in range(count)]


class TestSharedDraw:
    # uniform_rows resets one generator per thread instead of building one
    # per key; a batch of keys gives each key the row it gets alone
    @pytest.mark.parametrize(
        "entry",
        [
            lambda s: sampler.sample_ball_radii(3, 17, s),
            lambda s: sampler.sample_noise_norm(30, 0.2, s)[:, None],
            lambda s: np.hstack(sampler.draw_clone_batch(4, 9, 0.01 + 0.02, keys=s)),
            lambda s: np.hstack(sampler.draw_clone_batch(40, 9, 0.02, 0.3, keys=s)),
        ],
        ids=["ball", "noise-norm", "clone-per-interaction", "clone-fixed-subject"],
    )
    def test_draw_matches_fresh_generator(self, entry, monkeypatch):
        keys = pool_keys()
        batch = entry(keys)
        assert batch.shape[0] == len(keys)
        single = [entry([s]) for s in keys]  # one key a call
        # the same entry point on a fresh generator per key
        monkeypatch.setattr(sampler, "uniform_rows", fresh_rows)
        fresh = [entry([s]) for s in keys]
        for row, alone, reference in zip(batch, single, fresh):
            assert alone.shape == reference.shape == (1, batch.shape[1])
            assert row.tobytes() == alone[0].tobytes() == reference[0].tobytes()

    def test_golden_uniforms(self):
        golden = TestStreamKey.GOLDEN
        rows = streams.uniform_rows([stream for stream, _, _ in golden], 4)
        assert rows.shape == (len(golden), 4)
        for row, (stream, _, uniforms) in zip(rows, golden):
            assert row.tolist() == [float.fromhex(u) for u in uniforms], stream

    def test_reset_after_partial_use(self):
        # a dirty generator (buffered 32-bit half, advanced counter) resets cleanly
        first, second = pool_keys(2)
        streams.uniform_rows([first], 5)
        streams._thread.generator[1].integers(0, 2**32, size=3, dtype=np.uint32)
        assert streams.uniform_rows([second], 5000).tobytes() == fresh_rows([second], 5000).tobytes()

    def test_one_shared_generator(self):
        # a thread's draws share its one generator
        first, second = pool_keys(2)
        streams.uniform_rows([first], 3)
        shared = streams._thread.generator
        streams.uniform_rows([second, first], 3)
        assert streams._thread.generator is shared

    def test_other_threads_generator_is_untouched(self):
        # each thread draws on its own generator and leaves this one where it was
        first, second = pool_keys(2)
        streams.uniform_rows([first], 3)
        bits = streams._thread.generator[0]
        before = bits.state
        with ThreadPoolExecutor(max_workers=1) as pool:
            rows = pool.submit(streams.uniform_rows, [second, first], 7).result(timeout=60)
        assert rows.tobytes() == fresh_rows([second, first], 7).tobytes()
        after = bits.state
        assert after["state"]["key"].tolist() == before["state"]["key"].tolist()
        assert after["state"]["counter"].tolist() == before["state"]["counter"].tolist()

    def test_draw_after_an_exception(self):
        first, second = pool_keys(2)
        with pytest.raises(AttributeError):
            streams.uniform_rows([first, "not a key", second], 3)
        assert streams.uniform_rows([second], 3).tobytes() == fresh_rows([second], 3).tobytes()

    def test_concurrent_draws(self):
        # more threads than cores, switching often: a row filled after another
        # thread reset its generator must still carry its own key
        keys = pool_keys(200)
        batches = [keys[i : i + 5] for i in range(0, len(keys), 5)] * 4
        expected = [fresh_rows(batch, 120).tobytes() for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda b: streams.uniform_rows(b, 120).tobytes(), batches, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestUnitBall:
    # the norm of a uniform unit-ball point, the only part of it any draw uses
    def test_support(self):
        for k in (1, 2, 7, 40):
            radii = sampler.sample_ball_radii(k, 200, [key("support", ("k", k))])
            assert radii.shape == (1, 200)
            assert radii.min() >= 0.0 and radii.max() <= 1.0

    def test_single_draw_shape(self):
        radii = sampler.sample_ball_radii(7, 1, [key("one"), key("two")])
        assert radii.shape == (2, 1)
        assert np.all((0.0 <= radii) & (radii <= 1.0))

    @pytest.mark.parametrize("k", [1, 2, 10, 150])
    def test_radius_power_uniform(self, k):
        # ||X||^k is uniform on [0, 1]; KS test at the 0.1% level
        radii = ball_row(k, 100_000, key("ks", ("k", k)))
        assert stats.kstest(radii**k, "uniform").pvalue > 0.001

    def test_ball_cdf_at_half(self):
        # P(||X|| <= 0.5) = 0.5^k at k = 3
        radii = ball_row(3, 100_000, key("cdf"))
        assert float((radii <= 0.5).mean()) == pytest.approx(0.125, abs=0.004)

    def test_mean_norm_one_dim(self):
        radii = ball_row(1, 100_000, key("mean1"))
        assert float(radii.mean()) == pytest.approx(0.5, abs=0.005)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sampler.sample_ball_radii(0, 1, [key("bad")])


class TestGaussian:
    # the norm of an isotropic Gaussian vector, the only part of it any draw uses
    @pytest.mark.parametrize("k", [1, 24, 25, 1000])
    def test_norm_law(self, k):
        # rho / sigma follows the chi law with k degrees of freedom, from the
        # boosted shape 1/2 to large k
        sigma = 0.3
        draws = noise_norms(k, sigma**2, f"norm-{k}", 10_000)
        assert stats.kstest(draws / sigma, stats.chi(k).cdf).pvalue > 0.001

    def test_norm_second_moment(self):
        draws = noise_norms(10, 1.0, "m2", 20_000)
        assert float((draws**2).mean()) == pytest.approx(10.0, abs=0.2)

    def test_half_normal_mean(self):
        # oracle: one-dimensional quadrature of |z| against the normal density
        from scipy import integrate as sci_integrate

        oracle, _ = sci_integrate.quad(
            lambda z: abs(z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), -9, 9
        )
        assert oracle == pytest.approx(math.sqrt(2 / math.pi), abs=1e-10)
        draws = noise_norms(1, 1.0, "half", 50_000)
        assert float(draws.mean()) == pytest.approx(oracle, abs=0.01)

    def test_rejects_bad_variance(self):
        for variance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                sampler.sample_noise_norm(3, variance, [key("bad")])
        with pytest.raises(ValueError):
            sampler.sample_noise_norm(0, 1.0, [key("bad")])


class TestCloneDraws:
    def test_combined_variance_moment(self):
        # E S^2 = E ||X||^2 + k (sigma_s^2 + sigma_o^2), with E ||X||^2 = k/(k+2)
        k, count, s2 = 6, 200_000, 0.02
        _, dists = clone_row(k, count, s2 + s2, stream=key("mom"))
        expected = k / (k + 2) + k * (2 * s2)
        assert float((dists**2).mean()) == pytest.approx(expected, rel=0.01)

    def test_group_pool_variance(self):
        # subject rich, candidate poor: combined variance sigma_r2 + sigma_p2
        k, count = 5, 200_000
        sigma_r2, sigma_p2 = 0.01, 0.04
        _, dists = clone_row(k, count, sigma_r2 + sigma_p2, stream=key("grp"))
        expected = k / (k + 2) + k * (sigma_r2 + sigma_p2)
        assert float((dists**2).mean()) == pytest.approx(expected, rel=0.01)

    def test_no_noise_limit(self):
        norms, dists = clone_row(4, 2000, 1e-12 + 1e-12, stream=key("tiny"))
        assert np.abs(dists - norms).max() <= 1e-4

    def test_scalar_draw(self):
        norms, dists = sampler.draw_clone_batch(3, 1, 0.01 + 0.01, keys=[key("scalar")])
        assert norms.shape == dists.shape == (1, 1)
        assert norms[0, 0] <= 1.0
        assert dists[0, 0] >= 0.0

    @pytest.mark.parametrize("variance", [0.0, -0.01, math.inf, math.nan])
    def test_rejects_bad_variance(self, variance):
        for rho in (None, 0.5):
            with pytest.raises(ValueError):
                sampler.draw_clone_batch(3, 4, variance, rho, keys=[key("bad-variance")])

    @pytest.mark.parametrize("count", [0, 2.0])
    def test_rejects_bad_count(self, count):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sampler.sample_ball_radii(3, count, [key("bad-count")])
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sampler.draw_clone_batch(3, count, 0.01 + 0.01, keys=[key("bad-count")])

    @pytest.mark.parametrize("rho", [-0.1, math.inf, math.nan])
    def test_rejects_bad_noise_norm(self, rho):
        with pytest.raises(ValueError):
            sampler.draw_clone_batch(3, 4, 0.01, rho, keys=[key("bad-norm")])

    def test_fixed_mode_conditional_iid(self):
        # conditional on the fixed subject noise, distances must be i.i.d.:
        # chi-square independence of consecutive above/below-median signs
        k, count = 3, 40_000
        (rho,) = sampler.sample_noise_norm(k, 0.01, [key("fixed-eps")])
        _, dists = clone_row(k, count, 0.01, rho, stream=key("fixed-pool"))
        signs = dists > np.median(dists)
        first, second = signs[0::2], signs[1::2]
        table = np.array(
            [
                [np.sum(first & second), np.sum(first & ~second)],
                [np.sum(~first & second), np.sum(~first & ~second)],
            ]
        )
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_fixed_mode_distribution_matches_construction(self):
        # law of (R, S) against ||X + eps_other - eps_fixed|| built from full
        # k-vectors with an independent generator: two-sample KS on R, S, S - R
        k, count, s_other2 = 4, 20_000, 0.03
        (rho,) = sampler.sample_noise_norm(k, 0.02, [key("check-eps")])
        norms, dists = clone_row(k, count, s_other2, rho, stream=key("check-pool"))
        fixed = np.full(k, rho / math.sqrt(k))
        ref_norms, ref_dists = direct_clone_draws(k, count, s_other2, fixed, seed=4)
        for ours, ref in ((norms, ref_norms), (dists, ref_dists), (dists - norms, ref_dists - ref_norms)):
            assert stats.ks_2samp(ours, ref).pvalue > 0.001

    def test_fixed_mode_second_moments(self):
        # E S^2 = k/(k+2) + rho^2 + k s_o2 and E[S^2 | R] = R^2 + rho^2 + k s_o2:
        # the mean, and an OLS fit of S^2 on R^2 (slope 1, that intercept)
        k, count, s_other2 = 6, 400_000, 0.02
        norms, dists = clone_row(k, count, s_other2, 0.5, stream=key("fixed-mom"))
        shift = 0.25 + k * s_other2
        s2 = dists**2
        se = s2.std(ddof=1) / math.sqrt(count)
        assert abs(s2.mean() - (k / (k + 2) + shift)) <= 4 * se
        fit = stats.linregress(norms**2, s2)
        assert abs(fit.slope - 1.0) <= 4 * fit.stderr
        assert abs(fit.intercept - shift) <= 4 * fit.intercept_stderr

    @pytest.mark.parametrize("k", [1, 2, 25, 26])
    @pytest.mark.parametrize("mode", [simulate.PER_INTERACTION, simulate.FIXED_SUBJECT_CLONE])
    def test_edge_dimensions_match_construction(self, k, mode):
        # k = 1 (no chi-square, cosine +-1), k = 2 (the boosted chi-square at
        # df = 1), and chi-square df 24 and 25, in both modes
        count, s_subject2, s_other2 = 20_000, 0.02, 0.03
        stream = key("edge", mode, ("k", k))
        if mode == simulate.PER_INTERACTION:
            # one-sample KS against the exact laws: R^k is uniform, S has the CDF
            # clone_distance_cdf, and given R, S^2/nu ~ ncx2(k, R^2/nu)
            variance = s_subject2 + s_other2
            norms, dists = clone_row(k, count, variance, stream=stream)
            given_norm = chndtr(dists**2 / variance, k, norms**2 / variance)
            for ours, law in (
                (norms**k, "uniform"),
                (dists, lambda s: analytic.clone_distance_cdf(k, variance, s)),
                (given_norm, "uniform"),
            ):
                assert stats.kstest(ours, law).pvalue > 0.001
            return
        rho = 0.4
        norms, dists = clone_row(k, count, s_other2, rho, stream=stream)
        ref_norms, ref_dists = direct_clone_draws(k, count, s_other2, np.full(k, rho / math.sqrt(k)), seed=k)
        for ours, ref in ((norms, ref_norms), (dists, ref_dists), (dists - norms, ref_dists - ref_norms)):
            assert stats.ks_2samp(ours, ref).pvalue > 0.001

    @pytest.mark.parametrize("mode", [simulate.PER_INTERACTION, simulate.FIXED_SUBJECT_CLONE])
    def test_memory_is_linear_in_count(self, mode):
        # one (count, k) float64 array here would be 8 GB
        k, count = 10**6, 1000
        rho, variance = (0.1, 0.01) if mode == simulate.FIXED_SUBJECT_CLONE else (None, 0.01 + 0.01)
        tracemalloc.start()
        try:
            norms, dists = sampler.draw_clone_batch(k, count, variance, rho, keys=[key("mem")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 8 * count
        assert np.all(np.isfinite(dists)) and norms.max() <= 1.0


class TestChiSquare:
    @pytest.mark.parametrize("df", [1, 2, 3, 24, 25, 129, 999, 10**6])
    def test_law(self, df):
        # 50,000 draws as 500 rows of 100, the shape a block of keys gives
        keys = [key("chi2", ("df", df), ("row", i)) for i in range(500)]
        uniforms = streams.uniform_rows(keys, 3 * 100)
        draws = sampler._chi_square(uniforms, df, 100)
        assert draws.shape == (500, 100)
        assert stats.kstest(draws.ravel(), stats.chi2(df).cdf).pvalue > 0.001

    @pytest.mark.parametrize("df", [1, 2, 5])
    def test_rejected_and_accepted_rows_exactly(self, df):
        # rows of (U1, U2, U3): U1 = 0 puts z far below -sqrt(9 d), so v <= 0 and
        # the draw falls back to the inverse CDF at U3; U2 = 0 with U1 = 1/2
        # (z = 0, v = 1) accepts d, boosted by U3**2 at shape 1/2
        shape = 0.5 * df
        d = shape + 2.0 / 3.0 if df == 1 else shape - 1.0 / 3.0
        u3 = np.array([0.0, 0.1, 0.5, 0.9, 1.0 - 2.0**-53])
        rejected = np.stack([np.zeros_like(u3), np.full_like(u3, 0.5), u3], axis=1)
        accepted = np.stack([np.full_like(u3, 0.5), np.zeros_like(u3), u3], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fallback = sampler._chi_square(rejected, df, 1)[:, 0]
            boosted = sampler._chi_square(accepted, df, 1)[:, 0]
        assert fallback.tobytes() == (2.0 * gammaincinv(shape, u3)).tobytes()
        assert boosted.tobytes() == (2.0 * (d * u3**2 if df == 1 else np.full_like(u3, d))).tobytes()

    def test_zero_df_is_zero_and_draws_nothing(self):
        assert np.array_equal(sampler._chi_square(np.empty((2, 0)), 0, 5), np.zeros((2, 5)))
        # at k = 1 a clone row is the radii and g alone
        assert sampler.clone_row_width(1, 7, False) == 2 * 7
        assert sampler.clone_row_width(1, 7, True) == 3 * 7

    def test_row_width_is_free_of_the_dimension(self):
        # three uniforms a chi-square draw at any df >= 1
        for k in (2, 25, 10**6):
            assert sampler.clone_row_width(k, 7, False) == (2 + 3) * 7
            assert sampler.clone_row_width(k, 7, True) == (3 + 2 * 3) * 7


def test_ball_radii_law():
    # R^k is uniform on [0, 1]
    for k in (1, 7, 1000):
        radii = ball_row(k, 50_000, key("radii", ("k", k)))
        assert stats.kstest(radii**k, "uniform").pvalue > 0.001
