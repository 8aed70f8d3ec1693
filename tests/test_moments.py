import itertools
import math

import numpy as np
import pytest

from homsum import bounds, contractions, kernels, moments, reductions, simulate
from homsum.errors import CapacityError, ValidationError
from conftest import random_kernels, row_sums, traced_memory
import oracles


class TestChiSquareMoments:
    def test_invalid(self):
        f = kernels.disjoint_pairs(3, sigma2=2.0)
        for nu in (0, -1, 1.5):
            with pytest.raises(ValidationError, match="degrees of freedom must be a positive integer"):
                moments.gaussian_chi_square_combination(f, nu)
            with pytest.raises(ValidationError, match="degrees of freedom must be a positive integer"):
                simulate.centered_chi2_cdf(0.0, nu)


def _joint_gaussian(kernel_list, n, seed):
    return simulate.sample_vector_sums(
        kernel_list, simulate.get_law("gaussian"), simulate.SampleConfig(n=n, seed=seed)
    )


def _assert_cross_within(joint, want, z=5.0):
    emp = reductions.covariance(joint)[0, 1]
    se = (joint[:, 0] * joint[:, 1]).std() / math.sqrt(len(joint))
    assert abs(emp - want) <= z * se


class TestSecondAndCrossMoments:
    def test_p2(self, p2):
        assert moments.gaussian_second_moment(p2) == 1.0

    def test_cross_orders_orthogonal(self):
        f2 = kernels.random_sparse_kernel(2, 6, seed=1)
        f3 = kernels.random_sparse_kernel(3, 6, seed=2)
        assert oracles.cross_moment(f2, f3) == 0.0
        _assert_cross_within(_joint_gaussian([f2, f3], 100_000, seed=4), 0.0)

    def test_self_cross_equals_second_moment(self):
        f = kernels.disjoint_pairs(7)
        assert oracles.cross_moment(f, f) == pytest.approx(
            moments.gaussian_second_moment(f), rel=1e-14
        )
        cov = reductions.covariance(_joint_gaussian([f, f], 20_000, seed=6))
        assert cov[0, 1] == cov[0, 0] == cov[1, 1]

    def test_different_n_padded(self):
        a = kernels.make_kernel(2, 3, {(1, 2): 0.5, (1, 3): 0.25})
        b = kernels.make_kernel(2, 5, {(1, 2): 0.5, (4, 5): 1.0})
        # only the common tuple contributes: 2!^2 * 0.25
        want = oracles.cross_moment(a, b)
        assert want == pytest.approx(1.0, rel=1e-14)
        # the smaller kernel reads a prefix of the shared input vector
        _assert_cross_within(_joint_gaussian([a, b], 100_000, seed=7), want)

    def test_cross_moment_matches_monte_carlo(self):
        a = kernels.random_sparse_kernel(2, 6, seed=31)
        b = kernels.random_sparse_kernel(2, 6, seed=32)
        _assert_cross_within(_joint_gaussian([a, b], 150_000, seed=8), oracles.cross_moment(a, b))


class TestGaussianFourthMoment:
    def test_p2(self, p2):
        assert moments.gaussian_fourth_moment(p2) == pytest.approx(9.0, rel=1e-12)

    def test_disjoint_pairs_closed_form(self):
        for m in (1, 3, 10, 100, 10_000):
            f = kernels.disjoint_pairs(m)
            assert moments.gaussian_fourth_moment(f) == pytest.approx(3 + 6 / m, rel=1e-12)

    def test_requires_normalization(self, p2):
        f = kernels.make_kernel(2, 2, {(1, 2): 0.7})
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 1.0"):
            moments.gaussian_fourth_moment(f)

    def test_excess_nonnegative(self):
        rng = np.random.default_rng(139)
        for f in random_kernels(rng, 30, d_range=(2, 3), n_max=7, sigma2=1.0):
            assert moments.gaussian_fourth_moment(f) >= 3.0 - 1e-12

    def test_matches_monte_carlo(self):
        from homsum import simulate

        f = kernels.disjoint_pairs(5)
        s = simulate.sample_sums(f, simulate.get_law("gaussian"),
                                 simulate.SampleConfig(n=400_000, seed=21, workers=2))
        want = moments.gaussian_fourth_moment(f)
        assert abs(s.moment(4) - want) <= 5 * s.standard_error(4)


class TestChiSquareCombination:
    def test_matching_moments_vanish(self):
        # a kernel exactly at the chi-square target: nu copies of (G_i^2 - 1)
        # are not homogeneous sums, but CONST2 approaches the target as N grows
        f = kernels.constant_kernel(400, sigma2=2.0)
        comb = moments.gaussian_chi_square_combination(f, 1)
        assert comb == pytest.approx(12 - 48, abs=0.5)

    def test_against_monte_carlo(self):
        from homsum import simulate

        f = kernels.constant_kernel(30, sigma2=2.0)
        comb = moments.gaussian_chi_square_combination(f, 1)
        s = simulate.sample_sums(f, simulate.get_law("gaussian"),
                                 simulate.SampleConfig(n=400_000, seed=33, workers=2))
        est = s.moment(4) - 12 * s.moment(3)
        se = (s.samples ** 4 - 12 * s.samples ** 3).std() / math.sqrt(s.n)
        assert abs(est - comb) <= 5 * se

    def test_odd_order_rejected(self):
        f = kernels.normalize_to_variance(kernels.random_sparse_kernel(3, 6, seed=9), 2.0)
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            moments.gaussian_chi_square_combination(f, 1)


def _same_value_or_error(library, oracle, *args):
    """library(*args) == oracle(*args) bit for bit, or both raise
    CapacityError with the same message."""
    try:
        want = oracle(*args)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as got:
            library(*args)
        assert str(got.value) == str(exc)
        return
    assert library(*args) == want


# largest N of the random kernels of each order: a symmetrized norm at rank
# r costs N^(2d-2r) (2d-2r)! additions, so orders 5 and 6 run under a cap
# that keeps contractions of arity 8 and more from being built
RANK_SUM_N_MAX = {2: 30, 3: 10, 4: 6, 5: 6, 6: 7}
DEFAULT_CAP = kernels.MATERIALIZATION_CAP


def _rank_sum_caps(d: int, N: int) -> list:
    """The default cap up to order 4, a cap that sends rank 1 (and, at
    order 6, rank 2) past it, and a cap that every rank below d-1 is past."""
    return [DEFAULT_CAP] * (d <= 4) + [N ** min(2 * d - 3, 7), 1]


class _DrawnNorms(contractions.ChaosNorms):
    """A ChaosNorms record of f whose norms are drawn instead of computed,
    so that the arithmetic of the statistics is checked at every order;
    the symmetrized norms of the ranks in `past` are past the cap."""

    def __init__(self, f, rng, past=()):
        super().__init__(f)
        self.drawn, self.past = rng.uniform(0.0, 2.0, size=(3, f.d + 1)), set(past)

    def gram(self, r):
        return float(self.drawn[0, r])

    def exact_symmetrized(self, r):
        if r in self.past:
            raise CapacityError(f"rank {r} is drawn past the cap")
        return float(self.drawn[1, r]) if r < self.f.d - 1 else self.gram(r)

    def defect(self):
        self.exact_symmetrized(self.f.d // 2)  # the defect is past the cap with its rank
        return float(self.drawn[2, 0])


class TestRankSumKeepsBits:
    """t1, t3, the Gaussian fourth moment and the chi-square combination
    share one rank-weighted sum; each keeps the bits of its own loop."""

    @pytest.mark.parametrize("d", sorted(RANK_SUM_N_MAX))
    def test_random_kernels(self, d, monkeypatch):
        rng = np.random.default_rng(300 + d)
        for trial in range(4):
            nu = trial % 3 + 1
            [f] = random_kernels(rng, 1, d_range=(d, d), n_max=RANK_SUM_N_MAX[d], sigma2=1.0)
            [g] = random_kernels(rng, 1, d_range=(d, d), n_max=RANK_SUM_N_MAX[d],
                                 sigma2=2.0 * nu)
            for cap in _rank_sum_caps(d, f.N):
                monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", cap)
                norms = contractions.ChaosNorms(f)
                value, exactness = bounds.t1(norms)
                assert (value, exactness) == oracles.t1_by_rank_loop(norms)
                # a cap below N^(2d-2) puts rank 1 past it, where t1 is an upper bound
                rank_one_past = d >= 3 and f.N ** (2 * d - 2) > cap
                assert exactness == (bounds.UPPER_BOUND if rank_one_past else bounds.EXACT)
                _same_value_or_error(moments.gaussian_fourth_moment,
                                     oracles.fourth_moment_by_rank_loop, norms)
            for cap in _rank_sum_caps(d, g.N) if d % 2 == 0 else []:
                monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", cap)
                norms = contractions.ChaosNorms(g)
                _same_value_or_error(lambda n: bounds.t3(n, nu), oracles.t3_by_rank_loop, norms)
                _same_value_or_error(moments.gaussian_chi_square_combination,
                                     oracles.chi_square_combination_by_rank_loop, norms, nu)

    def test_past_the_cap_names_size_and_cap(self, monkeypatch):
        f = kernels.normalize_to_variance(kernels.walsh_kernel(4, 6), 1.0)
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 40_000)
        with pytest.raises(CapacityError,
                           match=r"d=4, r=1, N=6 needs 46656 values, cap is 40000"):
            moments.gaussian_fourth_moment(f)

    @pytest.mark.parametrize("d", range(2, kernels.MAX_ORDER + 1))
    def test_drawn_norms_at_every_order(self, d):
        # up to order 12, where some weights pass 2^53 and are rounded
        rng = np.random.default_rng(400 + d)
        unit = kernels.make_kernel(d, d, {tuple(range(1, d + 1)): 1.0})
        for trial in range(12):
            past = [r for r in range(1, d - 1) if trial % 2 and rng.random() < 0.5]
            nu = trial % 3 + 1
            norms = _DrawnNorms(kernels.normalize_to_variance(unit, 1.0), rng, past)
            assert bounds.t1(norms) == oracles.t1_by_rank_loop(norms)
            _same_value_or_error(moments.gaussian_fourth_moment,
                                 oracles.fourth_moment_by_rank_loop, norms)
            if d % 2 == 0:
                norms = _DrawnNorms(kernels.normalize_to_variance(unit, 2.0 * nu), rng, past)
                _same_value_or_error(lambda n: bounds.t3(n, nu), oracles.t3_by_rank_loop, norms)
                _same_value_or_error(moments.gaussian_chi_square_combination,
                                     oracles.chi_square_combination_by_rank_loop, norms, nu)


class TestExactRademacher:
    def test_p2_atoms(self, p2):
        dist = moments.exact_rademacher_distribution(p2)
        np.testing.assert_array_equal(dist.values, [-1.0, 1.0])
        np.testing.assert_array_equal(dist.probabilities, [0.5, 0.5])
        assert dist.moment(4) == 1.0

    def test_d2_atoms(self):
        dist = moments.exact_rademacher_distribution(kernels.disjoint_pairs(2))
        np.testing.assert_allclose(dist.values, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-15)
        np.testing.assert_allclose(dist.probabilities, [0.25, 0.5, 0.25])

    def test_memory_bounded(self):
        # the 2^20 sums take 8 MiB; held while the counts are built, they
        # and the counts pass the bound
        f = kernels.random_sparse_kernel(2, 20, seed=7)
        assert traced_memory(lambda: moments.exact_rademacher_distribution(f))[1] < 17.5 * 2**20

    def test_zero_kernel(self):
        dist = moments.exact_rademacher_distribution(kernels.make_kernel(2, 3, {}))
        np.testing.assert_array_equal(dist.values, [0.0])
        np.testing.assert_array_equal(dist.probabilities, [1.0])

    def test_too_large(self):
        with pytest.raises(CapacityError, match="exact enumeration needs N <= 22, got N=23"):
            moments.exact_rademacher_distribution(kernels.walsh_kernel(2, 23))

    def test_second_moment_identity(self):
        rng = np.random.default_rng(149)
        for f in random_kernels(rng, 25, d_range=(1, 3), n_max=12):
            dist = moments.exact_rademacher_distribution(f)
            want = kernels.second_moment(f)
            assert abs(dist.moment(2) - want) <= 1e-12 * max(want, 1e-12)

    def test_odd_moments_vanish_for_odd_order(self):
        f = kernels.random_sparse_kernel(3, 8, seed=6)
        dist = moments.exact_rademacher_distribution(f)
        assert dist.moment(3) == pytest.approx(0.0, abs=1e-13)

    def test_matches_brute_force_enumeration(self):
        f = kernels.random_sparse_kernel(2, 6, seed=61)
        dist = moments.exact_rademacher_distribution(f)
        vals = []
        for signs in itertools.product((-1.0, 1.0), repeat=6):
            vals.append(row_sums(f, np.array(signs)[None, :])[0])
        assert dist.moment(2) == pytest.approx(np.mean(np.array(vals) ** 2), rel=1e-12)
        assert dist.moment(4) == pytest.approx(np.mean(np.array(vals) ** 4), rel=1e-12)


def _on_inputs(d, N, inputs, seed):
    """A random order-d kernel on N inputs whose entries use only `inputs`
    (0-based)."""
    g = kernels.random_sparse_kernel(d, len(inputs), seed=seed)
    return kernels.kernel_from_arrays(d, N, np.asarray(inputs)[g.index_array] + 1, g.value_array)


def _assert_atoms_equal_by_entry_oracle(f):
    dist = moments.exact_rademacher_distribution(f)
    atoms, probabilities = oracles.rademacher_atoms_by_entry(f)
    assert dist.values.tobytes() == atoms.tobytes()
    assert dist.probabilities.tobytes() == probabilities.tobytes()


class TestRademacherEnumerationBitwise:
    """The chunked low/high enumeration gives the per-entry pass's atoms
    and probabilities bit for bit."""

    @pytest.mark.parametrize(
        "d, N", [(d, N) for N in (1, 5, 11, 12, 13, 20) for d in (1, 2, 3, 4) if d <= N]
    )
    def test_random_sparse(self, d, N):
        _assert_atoms_equal_by_entry_oracle(kernels.random_sparse_kernel(d, N, seed=10 * N + d))

    @pytest.mark.parametrize(
        "f",
        [
            _on_inputs(3, 20, range(12), seed=1),  # low bits only
            _on_inputs(3, 20, range(12, 20), seed=2),  # high bits only
            kernels.make_kernel(2, 13, {}),  # zero kernel
            kernels.constant_kernel(18),
            kernels.random_sparse_kernel(2, 20, seed=7),
            kernels.random_sparse_kernel(4, 16, seed=3, entry_count=300),  # 2 chunks of 2^15
            kernels.random_sparse_kernel(3, 13, seed=4, entry_count=100),  # 7 groups of entries
        ],
        ids=["low_only", "high_only", "zero", "constant18", "random_sparse_2_20", "two_chunks",
             "entry_groups"],
    )
    def test_kernel(self, f):
        _assert_atoms_equal_by_entry_oracle(f)


class TestHypercontractivity:
    def test_p2_rademacher_q3(self, p2):
        dist = moments.exact_rademacher_distribution(p2)
        ok, slack = moments.hypercontractivity_check(
            dist.abs_moment(3), dist.moment(2), 3, p2.d, gamma=1.0
        )
        assert ok and slack == pytest.approx((2 * math.sqrt(2)) ** 6 - 1, rel=1e-12)

    def test_p2_gaussian_q4(self, p2):
        # E F^4 = 9 against gamma = E G^4 = 3
        ok, _ = moments.hypercontractivity_check(9.0, 1.0, 4, 2, gamma=3.0)
        assert ok

    def test_q2_boundary(self):
        ok, slack = moments.hypercontractivity_check(1.0, 1.0, 2, 3, gamma=1.0)
        assert ok and slack == pytest.approx(2.0 ** 6 - 1.0)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValidationError, match="hypercontractivity check needs q >= 2, got 1.5"):
            moments.hypercontractivity_check(1.0, 1.0, 1.5, 2, 1.0)
