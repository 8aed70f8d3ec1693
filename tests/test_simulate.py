import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from homsum import kernels, moments, reductions, simulate
from homsum.errors import ValidationError
from oracles import (draw_generator, law_draw, product_normal_cdf, read_samples, unit_sums,
                     whole_block_sums)

LAW_NAMES = [t if t != "two_point" else "two_point:0.3" for t in simulate.LAW_TAGS]


class TestLaws:
    @pytest.mark.parametrize(
        "name", ["gaussian", "rademacher", "uniform", "shifted_exponential", "two_point:0.3"]
    )
    def test_centered_unit_variance_and_moments(self, name):
        law = simulate.get_law(name)
        gen = np.random.default_rng(0)
        x = law.sample(gen, 400_000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.mean(x ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.mean(np.abs(x) ** 3) == pytest.approx(law.abs_moment3, rel=0.03)
        assert np.mean(x ** 3) == pytest.approx(law.moment3, abs=0.05)
        assert np.mean(x ** 4) == pytest.approx(law.moment4, rel=0.05)

    def test_two_point_atoms(self):
        law = simulate.get_law("two_point:0.25")
        gen = np.random.default_rng(1)
        x = law.sample(gen, 1000)
        assert set(np.round(np.unique(x), 10)) == {
            round(math.sqrt(3), 10),
            round(-math.sqrt(1 / 3), 10),
        }

    @pytest.mark.parametrize("name", LAW_NAMES)
    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_sample_equals_reference_draw(self, name, size):
        got = simulate.get_law(name).sample(np.random.default_rng(size), size)
        assert got.tobytes() == law_draw(name, np.random.default_rng(size), size).tobytes()

    def test_unknown_law(self):
        with pytest.raises(ValidationError, match="unknown law 'cauchy'"):
            simulate.get_law("cauchy")
        with pytest.raises(ValidationError, match=r"two_point probability must be in \(0,1\), got 1.5"):
            simulate.get_law("two_point:1.5")


class TestSampling:
    def test_deterministic_across_workers(self):
        f = kernels.disjoint_pairs(10)
        law = simulate.get_law("gaussian")
        runs = [
            simulate.sample_sums(f, law, simulate.SampleConfig(n=4000, seed=42, workers=w))
            for w in (1, 4, 8)
        ]
        assert np.array_equal(runs[0].samples, runs[1].samples)
        assert np.array_equal(runs[0].samples, runs[2].samples)

    def test_workers_capped_at_cpu_count(self, monkeypatch, inline_pools):
        pool_sizes = inline_pools
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        f = kernels.disjoint_pairs(5)
        law = simulate.get_law("uniform")
        wide = simulate.SampleConfig(n=640, seed=3, workers=64, batch_size=10)
        capped = simulate.sample_sums(f, law, wide)
        assert pool_sizes == [3]
        serial = simulate.sample_sums(f, law, simulate.SampleConfig(n=640, seed=3, batch_size=10))
        assert np.array_equal(capped.samples, serial.samples)

    def test_one_pool_per_scope_grown_on_demand(self, monkeypatch, inline_pools):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        f = kernels.disjoint_pairs(5)
        law = simulate.get_law("uniform")

        def sample(workers):
            config = simulate.SampleConfig(n=100, seed=1, workers=workers, batch_size=10)
            return simulate.sample_sums(f, law, config).samples

        sample(2)
        sample(2)
        assert inline_pools == [2, 2]  # outside any scope, each call has its own pool
        with simulate.worker_pool():
            runs = [sample(w) for w in (2, 1, 2, 4, 3)]
        assert inline_pools == [2, 2, 2, 4]  # restarted only to grow
        assert all(np.array_equal(runs[0], r) for r in runs)

    @staticmethod
    def _sample(workers):
        config = simulate.SampleConfig(n=100, seed=1, workers=workers, batch_size=10)
        return simulate.sample_sums(kernels.disjoint_pairs(5), simulate.get_law("uniform"), config)

    def test_nested_scope_builds_its_own_pool(self, monkeypatch, inline_pools):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        with simulate.worker_pool():
            self._sample(2)
            with simulate.worker_pool():
                self._sample(2)
            with pytest.raises(RuntimeError), simulate.worker_pool():
                self._sample(3)
                raise RuntimeError
            self._sample(2)
        assert inline_pools == [2, 2, 3]  # the last call is back on the outer pool

    def test_nested_scope_shuts_its_workers_down(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)

        def children():
            return {p.pid for p in multiprocessing.active_children()}

        with simulate.worker_pool():
            self._sample(2)
            outer = children()
            assert len(outer) == 2
            with pytest.raises(RuntimeError), simulate.worker_pool():
                self._sample(3)
                assert len(children() - outer) == 3
                raise RuntimeError
            assert children() == outer
            self._sample(2)
            assert children() == outer  # the outer pool, not restarted
        assert multiprocessing.active_children() == []

    @staticmethod
    def _assert_block_equals_fresh_draws(name, n_inputs, seed, lo, hi):
        # order-1 coordinate kernels read the block's input rows back exactly
        coords = [kernels.make_kernel(1, n_inputs, {(i,): 1.0}) for i in range(1, n_inputs + 1)]
        want = np.vstack([law_draw(name, draw_generator(seed, j), n_inputs) for j in range(lo, hi)])
        got = simulate._compute_blocks(coords, simulate.get_law(name), seed, [(lo, hi)], n_inputs)
        assert got[0][1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", LAW_NAMES)
    @pytest.mark.parametrize("n_inputs", [1, 2, 7, 8])
    @pytest.mark.parametrize("seed, lo, hi", [(5, 0, 6), (2**64 + 3, 2**64 - 3, 2**64 + 2)],
                             ids=["small", "past_2_64"])
    def test_block_equals_fresh_generator_per_draw(self, name, n_inputs, seed, lo, hi):
        # Consecutive draws at odd and even widths: a 32- or 64-bit value
        # left buffered by one draw would shift the next, and one raw word
        # carries two Rademacher values.  The second case wraps the draw
        # index and takes a seed past 2^64, where masking counts.
        self._assert_block_equals_fresh_draws(name, n_inputs, seed, lo, hi)

    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_block_longer_than_one_finishing_chunk(self, name):
        n_inputs = simulate._FINISH_VALUES // 100 + 1
        assert 130 > simulate._FINISH_VALUES // n_inputs  # rows per chunk
        self._assert_block_equals_fresh_draws(name, n_inputs, 9, 0, 130)

    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_vector_sums_equal_fresh_generator_per_draw(self, name):
        # the larger N is odd, and the smaller kernel reads a prefix of it
        kernel_list = [kernels.constant_kernel(4), kernels.walsh_kernel(2, 7)]
        config = simulate.SampleConfig(n=130, seed=4, batch_size=64)
        X = np.vstack([law_draw(name, draw_generator(4, j), 7) for j in range(130)])
        want = np.column_stack([unit_sums(f, X[:, : f.N]) for f in kernel_list])
        got = simulate.sample_vector_sums(kernel_list, simulate.get_law(name), config)
        assert got.tobytes() == want.tobytes()

    def test_deterministic_given_seed_independent_of_runs(self):
        f = kernels.walsh_kernel(2, 9)
        law = simulate.get_law("uniform")
        a = simulate.sample_sums(f, law, simulate.SampleConfig(n=500, seed=7))
        b = simulate.sample_sums(f, law, simulate.SampleConfig(n=500, seed=7))
        c = simulate.sample_sums(f, law, simulate.SampleConfig(n=500, seed=8))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_kernel_gives_zero_samples(self):
        f = kernels.make_kernel(2, 4, {})
        s = simulate.sample_sums(f, simulate.get_law("gaussian"), simulate.SampleConfig(n=64, seed=1))
        assert np.all(s.samples == 0.0)

    def test_second_moment_within_5_se_every_law(self):
        f = kernels.disjoint_pairs(8)
        want = kernels.second_moment(f)
        for name in ("gaussian", "rademacher", "uniform", "shifted_exponential", "two_point:0.4"):
            s = simulate.sample_sums(
                f, simulate.get_law(name), simulate.SampleConfig(n=100_000, seed=11, workers=2)
            )
            assert abs(s.moment(2) - want) <= 5 * s.standard_error(2), name

    def test_empirical_law_matches_exact_atoms(self):
        # P2 under signs: atoms +-1 with probability 1/2 each, DKW band
        f = kernels.single_pair()
        s = simulate.sample_sums(f, simulate.get_law("rademacher"),
                                 simulate.SampleConfig(n=10_000, seed=3))
        frac_minus = np.mean(s.samples < 0)
        assert abs(frac_minus - 0.5) <= simulate.dkw_epsilon(10_000)
        assert set(np.unique(s.samples)) == {-1.0, 1.0}

    def test_fourth_moment_against_contraction_identity(self):
        f = kernels.disjoint_pairs(100)
        s = simulate.sample_sums(f, simulate.get_law("gaussian"),
                                 simulate.SampleConfig(n=100_000, seed=13, workers=2))
        want = moments.gaussian_fourth_moment(f)
        assert abs(s.moment(4) - want) <= 5 * s.standard_error(4)

    def test_moment_matching_across_laws(self):
        # second moments agree between laws within joint 5 SE
        f = kernels.walsh_kernel(2, 12)
        g = simulate.sample_sums(f, simulate.get_law("gaussian"),
                                 simulate.SampleConfig(n=100_000, seed=17, workers=2))
        r = simulate.sample_sums(f, simulate.get_law("rademacher"),
                                 simulate.SampleConfig(n=100_000, seed=17, workers=2))
        joint_se = math.hypot(g.standard_error(2), r.standard_error(2))
        assert abs(g.moment(2) - r.moment(2)) <= 5 * joint_se


# Kernel lists for the fill-slice tests, under a gather budget of 64,000
# values: disjoint_pairs(2000) (4000 inputs) sums 16 rows at a time and
# walsh(2, 1300) 24; constant(40) and constant(100) sum a block as one GEMM,
# whose bits at N = 100 already depend on which rows it covers.
SPAN_CASES = {
    "chunk_16": lambda: [kernels.disjoint_pairs(2000)],
    "lcm_48": lambda: [kernels.disjoint_pairs(2000), kernels.walsh_kernel(2, 1300)],
    "dense_with_sparse": lambda: [kernels.constant_kernel(40), kernels.disjoint_pairs(2000)],
    "dense_100": lambda: [kernels.constant_kernel(100)],
    "empty": lambda: [kernels.make_kernel(2, 50, {})],
}


def _tiling(rows, step):
    """The (start, rows) slices of a block of `rows` rows filled `step` at a time."""
    return [(start, min(step, rows - start)) for start in range(0, rows, step)]


@pytest.fixture
def fill_slices(monkeypatch):
    """The (start, rows) of every piece handed to a `kernels.RowSums`."""
    seen = []
    add = kernels.RowSums.add

    def spy(self, rows, start, sums):
        seen.append((start, len(rows)))
        add(self, rows, start, sums)

    monkeypatch.setattr(kernels.RowSums, "add", spy)
    return seen


class TestBlockSpans:
    """A block is filled and finished in slices of rows; each slice goes to
    every kernel's `kernels.RowSums`, which copies its columns or products
    into a unit buffer at their row offsets and reduces a unit once it is
    complete, so every sum keeps the bits of evaluating the whole block at
    once, wherever the slices fall against the units."""

    @pytest.fixture(autouse=True)
    def small_gather(self, monkeypatch):
        monkeypatch.setattr(kernels, "GATHER_VALUES", 64_000)

    @staticmethod
    def _assert_whole_block_bits(name, kernel_list, lo, hi, fill_slices) -> list:
        """The block's sums equal the whole-block oracle's bit for bit; returns
        the slices the block was filled in."""
        n_inputs = max(f.N for f in kernel_list)
        dist = simulate.get_law(name)
        want = whole_block_sums(kernel_list, dist, 3, lo, hi, n_inputs)
        fill_slices.clear()
        got = simulate._compute_blocks(kernel_list, dist, 3, [(lo, hi)], n_inputs)[0][1]
        assert got.tobytes() == want.tobytes()
        return sorted(set(fill_slices))

    @pytest.mark.parametrize("name", LAW_NAMES)
    @pytest.mark.parametrize("case, lo, hi, span", [
        ("chunk_16", 500, 600, 16),  # slices on the chunk bounds, the last one 4 rows
        ("chunk_16", 0, 1024, 16),
        ("lcm_48", 500, 600, 48),
        ("dense_with_sparse", 500, 600, 100),  # one slice
        ("dense_with_sparse", 500, 600, 7),  # the GEMM unit split over 15 slices
        ("empty", 500, 600, 100),
    ])
    def test_spans_keep_whole_block_bits(self, name, case, lo, hi, span, monkeypatch, fill_slices):
        # a fill budget of `span` rows of inputs
        kernel_list = SPAN_CASES[case]()
        n_inputs = max(f.N for f in kernel_list)
        monkeypatch.setattr(simulate, "_FILL_VALUES", span * n_inputs)
        slices = self._assert_whole_block_bits(name, kernel_list, lo, hi, fill_slices)
        assert slices == _tiling(hi - lo, span)

    @pytest.mark.parametrize("name", LAW_NAMES)
    @pytest.mark.parametrize("case, lo, hi, fill_values, slice_rows", [
        ("chunk_16", 500, 600, None, 65),  # the default budget
        ("chunk_16", 0, 1024, None, 65),
        ("chunk_16", 500, 600, 7 * 4000, 7),  # several slices per chunk
        ("chunk_16", 500, 600, 3999, 1),  # less than one row: one row per slice
        ("lcm_48", 500, 600, None, 65),
        ("lcm_48", 500, 600, 40 * 4000 + 3999, 40),  # a multiple of neither 16 nor 24
        ("lcm_48", 0, 1024, 11 * 4000, 11),
        ("dense_with_sparse", 0, 1024, None, 65),  # the GEMM unit spans 16 slices
        ("dense_100", 0, 1024, 7 * 100, 7),
    ])
    def test_slices_straddling_chunks_keep_whole_block_bits(
        self, name, case, lo, hi, fill_values, slice_rows, monkeypatch, fill_slices
    ):
        kernel_list = SPAN_CASES[case]()
        if fill_values is not None:
            monkeypatch.setattr(simulate, "_FILL_VALUES", fill_values)
        slices = self._assert_whole_block_bits(name, kernel_list, lo, hi, fill_slices)
        assert slices == _tiling(hi - lo, slice_rows)

    def test_slice_rule(self, fill_slices):
        assert simulate._FILL_VALUES == 1 << 18

        def slices(kernel_list, rows):
            fill_slices.clear()
            n_inputs = max(f.N for f in kernel_list)
            simulate._compute_blocks(kernel_list, simulate.get_law("rademacher"), 1, [(0, rows)],
                                     n_inputs)
            return sorted(set(fill_slices))

        wide = [kernels.disjoint_pairs(2000)]
        assert slices(wide, 1024) == _tiling(1024, (1 << 18) // 4000)
        assert slices(wide, 30) == [(0, 30)]
        # narrow blocks still fill in one slice; a block that a kernel sums as
        # one dense form is sliced like any other
        assert slices([kernels.disjoint_pairs(128)], 1024) == [(0, 1024)]
        assert slices(SPAN_CASES["dense_with_sparse"](), 1024) == _tiling(1024, (1 << 18) // 4000)

    def test_chunk_rule(self):
        assert kernels.evaluation_chunk(kernels.disjoint_pairs(2000)) == 16
        assert kernels.evaluation_chunk(kernels.walsh_kernel(2, 1300)) == 24
        assert kernels.evaluation_chunk(kernels.constant_kernel(40)) is None
        assert kernels.evaluation_chunk(kernels.make_kernel(2, 50, {})) == 4096


def test_dense_form_built_once_per_share(monkeypatch):
    # five 100-row blocks of a dense-path kernel in one worker's share
    f = kernels.constant_kernel(40)
    law = simulate.get_law("gaussian")
    want = np.concatenate([whole_block_sums([f], law, 2, lo, lo + 100, f.N)[:, 0]
                           for lo in range(0, 500, 100)])
    builds = []
    dense_tensor = kernels.dense_tensor
    monkeypatch.setattr(kernels, "dense_tensor", lambda g: builds.append(g) or dense_tensor(g))
    config = simulate.SampleConfig(n=500, seed=2, batch_size=100)
    got = simulate.sample_sums(f, law, config).samples
    assert len(builds) == 1
    assert got.tobytes() == want.tobytes()


def _block_peak(kernel_list) -> int:
    """tracemalloc peak of one 1024-row Rademacher block, evaluators included."""
    n_inputs = max(f.N for f in kernel_list)
    tracemalloc.start()
    try:
        simulate._compute_blocks(kernel_list, simulate.get_law("rademacher"), 7, [(0, 1024)],
                                 n_inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_memory_bounded_by_span():
    # One 1024-row block of a 20,000-input kernel: the whole-block input
    # alone would take 164 MB.  What stays is one 200-row chunk product
    # buffer (16 MB), one fill slice (2 MB) and one slice's gather (1 MB).
    assert _block_peak([kernels.disjoint_pairs(10_000)]) < 24 * 2**20


def test_dense_block_memory_bounded_by_slice():
    # A dense-path kernel beside a 20,000-input one no longer makes the
    # block fill whole (164 MB of inputs): on top of the sparse case above
    # stay constant(700)'s dense tensor (3.9 MB), its 1024 x 700 unit
    # buffer (5.7 MB) and the GEMM's product of the same size.
    assert _block_peak([kernels.constant_kernel(700), kernels.disjoint_pairs(10_000)]) < 48 * 2**20


class TestVectorSampling:
    def test_identical_kernels_fully_correlated(self):
        f = kernels.disjoint_pairs(6)
        joint = simulate.sample_vector_sums(
            [f, f], simulate.get_law("gaussian"), simulate.SampleConfig(n=2000, seed=19)
        )
        cov = reductions.covariance(joint)
        assert cov[0, 1] == pytest.approx(cov[0, 0], rel=1e-12)

    def test_disjoint_supports_uncorrelated(self):
        a = kernels.make_kernel(2, 8, {(1, 2): 0.5})
        b = kernels.make_kernel(2, 8, {(3, 4): 0.5, (5, 6): 0.5})
        joint = simulate.sample_vector_sums(
            [a, b], simulate.get_law("uniform"), simulate.SampleConfig(n=100_000, seed=23)
        )
        cov = reductions.covariance(joint)
        se = (joint[:, 0] * joint[:, 1]).std() / math.sqrt(len(joint))
        assert abs(cov[0, 1] - 0.0) <= 5 * se

    def test_single_kernel_reduces_to_sample_sums(self):
        f = kernels.disjoint_pairs(5)
        law = simulate.get_law("rademacher")
        joint = simulate.sample_vector_sums([f], law, simulate.SampleConfig(n=256, seed=29))
        flat = simulate.sample_sums(f, law, simulate.SampleConfig(n=256, seed=29))
        assert np.array_equal(joint[:, 0], flat.samples)

    def test_smaller_kernel_reads_prefix(self):
        # a kernel on the first 4 coordinates sees the same inputs whether
        # sampled alone or alongside a wider kernel
        small = kernels.make_kernel(2, 4, {(1, 2): 0.5, (3, 4): 0.5})
        wide = kernels.walsh_kernel(2, 10)
        law = simulate.get_law("gaussian")
        joint = simulate.sample_vector_sums([small, wide], law, simulate.SampleConfig(n=128, seed=31))
        alone = simulate.sample_vector_sums([small], law, simulate.SampleConfig(n=128, seed=31))
        # different input-vector lengths change the draws, so only the wide
        # run is comparable: re-run with matching n_inputs via the wide pair
        again = simulate.sample_vector_sums([small, wide], law, simulate.SampleConfig(n=128, seed=31))
        assert np.array_equal(joint, again)
        assert joint.shape == (128, 2)
        assert alone.shape == (128, 1)

    def test_empty_kernel_list(self):
        with pytest.raises(ValidationError, match="need at least one kernel"):
            simulate.sample_vector_sums([], simulate.get_law("gaussian"),
                                        simulate.SampleConfig(n=8, seed=1))


class TestKolmogorov:
    def test_ks_statistic_exact_two_atoms(self):
        # +-1 law against the standard normal: distance is 1/2 - Phi(-1)
        from scipy.special import ndtr

        samples = np.array([-1.0] * 500 + [1.0] * 500)
        summary = simulate.SampleSummary(n=1000, law="atoms", seed=0, samples=samples)
        want = 0.5 - ndtr(-1.0)
        assert simulate.ks_normal(summary) == pytest.approx(want, abs=1e-12)
        assert simulate.ks_normal(summary) >= 0.3

    def test_self_ks_within_dkw(self):
        gen = np.random.default_rng(37)
        n = 50_000
        summary = simulate.SampleSummary(n=n, law="gaussian", seed=0,
                                         samples=gen.standard_normal(n))
        assert simulate.ks_normal(summary) <= simulate.dkw_epsilon(n)

    def test_ks_chi2_self_consistency(self):
        gen = np.random.default_rng(41)
        n = 50_000
        nu = 3
        samples = gen.chisquare(nu, n) - nu
        summary = simulate.SampleSummary(n=n, law="chi2", seed=0, samples=samples)
        assert simulate.ks_chi2(summary, nu) <= simulate.dkw_epsilon(n)

    def test_ks_rate(self):
        gen = np.random.default_rng(43)
        ds = []
        for n in (1000, 100_000):
            summary = simulate.SampleSummary(n=n, law="gaussian", seed=0,
                                             samples=gen.standard_normal(n))
            ds.append(simulate.ks_normal(summary))
        assert ds[1] < ds[0]


class TestCenteredChi2Cdf:
    def test_support_boundary(self):
        assert simulate.centered_chi2_cdf(-1.0, 1) == 0.0
        assert simulate.centered_chi2_cdf(-5.0, 2) == 0.0

    def test_exponential_closed_form(self):
        assert simulate.centered_chi2_cdf(0.0, 2) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_limits_and_median(self):
        assert simulate.centered_chi2_cdf(1e9, 4) == pytest.approx(1.0, abs=1e-12)
        # P(chi2_1 <= 1) = P(|Z| <= 1)
        from scipy.special import ndtr

        assert simulate.centered_chi2_cdf(0.0, 1) == pytest.approx(2 * ndtr(1.0) - 1, abs=1e-12)

    def test_against_quadrature(self):
        from scipy import integrate

        nu = 5
        for x in (-3.0, 0.0, 2.5, 10.0):
            def density(t):
                return t ** (nu / 2 - 1) * math.exp(-t / 2) / (2 ** (nu / 2) * math.gamma(nu / 2))
            want, _ = integrate.quad(density, 0, x + nu)
            assert simulate.centered_chi2_cdf(x, nu) == pytest.approx(want, abs=1e-10)

    def test_invalid_degrees(self):
        with pytest.raises(ValidationError, match="degrees of freedom must be a positive integer, got 0"):
            simulate.centered_chi2_cdf(0.0, 0)


class TestProductNormalOracleAgreement:
    def test_walsh_gaussian_limit_is_product_normal(self):
        # order-2 Walsh-style kernel under Gaussian inputs has the law of a
        # two-normal product for every N; compare empirical CDF to the oracle
        f = kernels.walsh_kernel(2, 40)
        s = simulate.sample_sums(f, simulate.get_law("gaussian"),
                                 simulate.SampleConfig(n=40_000, seed=47, workers=2))
        for z in (-1.5, -0.5, 0.0, 0.4, 1.2):
            emp = float(np.mean(s.samples <= z))
            assert emp == pytest.approx(product_normal_cdf(z), abs=simulate.dkw_epsilon(40_000))


class TestRawDump:
    def test_round_trip(self, tmp_path):
        data = np.array([0.0, -1.5, math.pi, 1e-300])
        path = tmp_path / "s.raw"
        simulate.write_samples(path, data)
        back = read_samples(path)
        np.testing.assert_array_equal(back, data)
        # the layout the README gives
        np.testing.assert_array_equal(np.fromfile(path, "<f8", offset=16), data)
        raw = path.read_bytes()
        assert raw[:8] == b"HSUMRAW1"
        assert len(raw) == 16 + 8 * data.size

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.raw"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(ValidationError, match="not a raw sample file"):
            read_samples(path)

    def test_header_shorter_than_16_bytes(self, tmp_path):
        path = tmp_path / "short.raw"
        path.write_bytes(b"HSUMRAW1")
        with pytest.raises(ValidationError, match="truncated sample file"):
            read_samples(path)
