import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from homsum import contractions, kernels, reductions
from homsum.errors import CapacityError, ValidationError
from conftest import random_kernels, traced_memory
from oracles import (entries, evaluate, first_seen_ids_by_unique, symmetrize,
                     symmetrize_all_permutations)


def brute_force_contraction(f, r):
    """Direct evaluation of the defining sum, independent of the library's
    dense/matrix path."""
    N, d = f.N, f.d
    arity = 2 * d - 2 * r
    out = np.zeros((N,) * arity)
    for j in itertools.product(range(1, N + 1), repeat=arity):
        acc = 0.0
        for a in itertools.product(range(1, N + 1), repeat=r):
            acc += evaluate(f, a + j[: d - r]) * evaluate(f, a + j[d - r :])
        out[tuple(i - 1 for i in j)] = acc
    return out


class TestContract:
    def test_p2_rank1(self, p2):
        T = contractions.contract(p2, 1)
        np.testing.assert_allclose(T.values, np.diag([0.25, 0.25]))
        assert T.arity == 2

    def test_rank_d_is_squared_norm(self, c3, d4):
        for f in (c3, d4):
            T = contractions.contract(f, f.d)
            assert T.arity == 0
            assert float(T.values) == pytest.approx(kernels.squared_norm(f), rel=1e-14)

    def test_c3_rank1(self, c3):
        T = contractions.contract(c3, 1)
        want = np.full((3, 3), 1.0 / 12.0)
        np.fill_diagonal(want, 1.0 / 6.0)
        np.testing.assert_allclose(T.values, want, rtol=1e-13)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for f in random_kernels(rng, 6, d_range=(2, 3), n_max=4):
            for r in range(0, f.d + 1):
                got = contractions.contract(f, r).values
                want = brute_force_contraction(f, r)
                np.testing.assert_allclose(np.atleast_1d(got), np.atleast_1d(want),
                                           rtol=1e-12, atol=1e-15)

    def test_rank_out_of_range(self, p2):
        with pytest.raises(ValidationError, match="contraction rank 3 outside 0..2"):
            contractions.contract(p2, 3)
        with pytest.raises(ValidationError, match="contraction rank -1 outside 0..2"):
            contractions.contraction_norm(p2, -1)

    def test_materialization_cap(self, monkeypatch):
        f = kernels.walsh_kernel(2, 200)
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 10_000)
        with pytest.raises(CapacityError, match="needs 40000 values, cap is 10000"):
            contractions.contract(f, 1)
        with pytest.raises(CapacityError, match="d=2, r=1, N=200 needs 40000 values, cap is 10000"):
            contractions.chi_square_defect(f)


class TestContractionNorm:
    def test_closed_forms(self, p2, c3):
        assert contractions.contraction_norm(p2, 1) == pytest.approx(math.sqrt(1 / 8), rel=1e-14)
        assert contractions.contraction_norm(c3, 1) == pytest.approx(math.sqrt(1 / 8), rel=1e-13)

    def test_disjoint_pairs_closed_form(self):
        for m in (1, 4, 25, 100):
            f = kernels.disjoint_pairs(m)
            assert contractions.contraction_norm(f, 1) == pytest.approx(
                1.0 / math.sqrt(8 * m), rel=1e-13
            )

    def test_rank_zero_and_full(self, d4):
        sq = kernels.squared_norm(d4)
        assert contractions.contraction_norm(d4, 0) == pytest.approx(sq, rel=1e-14)
        assert contractions.contraction_norm(d4, 2) == pytest.approx(sq, rel=1e-14)

    def test_gram_identity_random_suite(self):
        # spot suite; the full 1000-kernel run lives in the acceptance module
        rng = np.random.default_rng(103)
        for f in random_kernels(rng, 60, d_range=(1, 4), n_max=8):
            for r in range(1, f.d):
                gram = contractions.contraction_norm(f, r)
                mat = contractions.contract(f, r).frobenius_norm()
                assert gram == pytest.approx(mat, rel=1e-12, abs=1e-300)


FIRST_SEEN_KERNELS = {
    "constant_500": lambda: kernels.constant_kernel(500),
    "random_sparse_3_40": lambda: kernels.random_sparse_kernel(3, 40),
    "random_sparse_4_60": lambda: kernels.random_sparse_kernel(4, 60, entry_count=3000),
    "walsh_4_8": lambda: kernels.walsh_kernel(4, 8),
}


@pytest.mark.parametrize("name", FIRST_SEEN_KERNELS)
def test_first_seen_ids_equal_unique_numbering(name):
    # the row and column numberings of the slice matrix at every rank
    f = FIRST_SEEN_KERNELS[name]()
    for r in range(1, f.d):
        subsets = list(itertools.combinations(range(f.d), r))
        rest = [[k for k in range(f.d) if k not in s] for s in subsets]
        for rows in (f.index_array[:, rest].reshape(-1, f.d - r),
                     f.index_array[:, subsets].reshape(-1, r)):
            ids, count = contractions._first_seen_ids(rows)
            want_ids, want_count = first_seen_ids_by_unique(rows)
            assert count == want_count
            assert ids.dtype == want_ids.dtype and ids.tobytes() == want_ids.tobytes()


class TestChaosNorms:
    def test_past_cap_falls_back_to_gram(self, monkeypatch):
        f = kernels.walsh_kernel(4, 6)  # ranks 1 and 2 need 6^6 and 6^4 values
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 1000)
        norms = contractions.ChaosNorms(f)
        for _ in range(2):
            with pytest.raises(CapacityError, match="r=1, N=6 needs 46656 values, cap is 1000"):
                norms.exact_symmetrized(1)
            with pytest.raises(CapacityError, match="r=2, N=6 needs 1296 values, cap is 1000"):
                norms.defect()
            with pytest.raises(CapacityError, match="r=1, N=6 needs 46656 values, cap is 1000"):
                norms.rank_sum([1], lambda _: 1.0, exact=True)
            gram = [contractions.contraction_norm(f, r) ** 2 for r in (1, 3)]
            assert norms.rank_sum([1], lambda _: 1.0) == (gram[0], False)
            assert norms.rank_sum([3], lambda _: 1.0) == (gram[1], True)

    def test_within_cap_equals_direct_computation(self):
        f = kernels.walsh_kernel(4, 6)
        norms = contractions.ChaosNorms(f)
        for r in (1, 2):
            T = symmetrize(contractions.contract(f, r))
            assert norms.exact_symmetrized(r) == T.frobenius_norm()
            assert norms.rank_sum([r], lambda _: 1.0) == (T.frobenius_norm() ** 2, True)
        for r in (1, 2, 3):
            assert norms.gram(r) == contractions.contraction_norm(f, r)
        assert norms.defect() == contractions.chi_square_defect(f)


class TestSymmetrize:
    def test_fixed_point(self, p2):
        T = contractions.contract(p2, 1)
        S = symmetrize(T)
        np.testing.assert_array_equal(S.values, T.values)

    def test_two_permutations(self):
        T = contractions.ContractionTensor(arity=2, N=2, values=np.array([[0.0, 1.0], [0.0, 0.0]]))
        S = symmetrize(T)
        np.testing.assert_allclose(S.values, [[0.0, 0.5], [0.5, 0.0]])

    def test_invariance_spot_check(self):
        rng = np.random.default_rng(107)
        f = random_kernels(rng, 1, d_range=(3, 3), n_max=5)[0]
        S = symmetrize(contractions.contract(f, 1))
        for perm in itertools.permutations(range(S.arity)):
            np.testing.assert_allclose(np.transpose(S.values, perm), S.values, atol=1e-15)

    def test_symmetrized_norm_contracts(self):
        rng = np.random.default_rng(109)
        for f in random_kernels(rng, 40, d_range=(2, 3), n_max=7):
            for r in range(1, f.d):
                s = contractions.ChaosNorms(f).exact_symmetrized(r)
                u = contractions.contraction_norm(f, r)
                assert s <= u * (1 + 1e-12) + 1e-15

    def test_symmetrized_equals_bruteforce_average(self):
        rng = np.random.default_rng(7)
        f = kernels.random_sparse_kernel(2, 5, seed=7)
        T = contractions.contract(f, 1).values
        want = 0.5 * (T + T.T)
        got = symmetrize(contractions.contract(f, 1)).values
        np.testing.assert_allclose(got, want, atol=1e-16)
        assert contractions.ChaosNorms(f).exact_symmetrized(1) == pytest.approx(
            float(np.sqrt((want ** 2).sum())), rel=1e-13
        )


def symmetrize_bit_identity_cases():
    """(name, tensor) pairs on which symmetrize must match the all-permutations
    oracle bit for bit; between them they cover full, partial and no bitwise
    symmetry, and more distinct transposes than one slab holds copies of."""
    walsh_48 = kernels.walsh_kernel(4, 8)
    cases = [
        ("walsh(4,8) r=1", contractions.contract(walsh_48, 1)),
        ("walsh(4,8) r=2", contractions.contract(walsh_48, 2)),
        ("random_sparse(3,40,seed=8) r=1",
         contractions.contract(kernels.random_sparse_kernel(3, 40, seed=8), 1)),
        # under some OpenBLAS kernels (AVX-512) only the half swap holds bitwise
        ("random_sparse(3,14,seed=5,entry_count=300) r=1",
         contractions.contract(kernels.random_sparse_kernel(3, 14, seed=5, entry_count=300), 1)),
    ]
    nudged = contractions.contract(kernels.walsh_kernel(4, 6), 1).values.copy()
    nudged[0, 1, 2, 3, 4, 5] = np.nextafter(nudged[0, 1, 2, 3, 4, 5], np.inf)
    cases.append(("walsh(4,6) r=1, one entry moved by one ulp", contractions.ContractionTensor(6, 6, nudged)))
    rng = np.random.default_rng(113)
    a = rng.standard_normal((4,) * 5)
    cases.append(("random arity 5, symmetric in its first two axes",
                  contractions.ContractionTensor(5, 4, a + np.transpose(a, (1, 0, 2, 3, 4)))))
    a = rng.standard_normal((64, 64))
    cases.append(("random arity 6 with only the half swap (360 distinct transposes)",
                  contractions.ContractionTensor(6, 4, (a + a.T).reshape((4,) * 6))))
    return cases


def assert_symmetrize_matches_oracle_bitwise():
    for name, T in symmetrize_bit_identity_cases():
        got, want = symmetrize(T), symmetrize_all_permutations(T.values)
        assert (got.arity, got.N) == (T.arity, T.N), name
        # tobytes also tells the signs of zeros apart
        assert np.array_equal(got.values, want) and got.values.tobytes() == want.tobytes(), name
        norm = math.sqrt(reductions.sum_squares(want))
        assert contractions.symmetrized_norm(T).hex() == norm.hex(), name


class TestSymmetrizeBitIdentity:
    def test_matches_all_permutations_oracle(self):
        assert_symmetrize_matches_oracle_bitwise()

    def test_orbits_follow_the_bitwise_symmetries(self):
        # integer-valued: every within-half swap and the half swap hold, so the
        # 720 transposes of an arity-6 tensor fall into C(6,3)/2 = 10 classes
        idx = np.indices((3,) * 6)
        full = contractions._transpose_classes((idx.sum(axis=0) + idx.prod(axis=0)).astype(float))[1]
        assert len(set(full)) == 10
        assert all(full[c] == c <= i for i, c in enumerate(full))  # first member of the class
        a = np.random.default_rng(5).standard_normal((27, 27))
        assert len(set(contractions._transpose_classes((a + a.T).reshape((3,) * 6))[1])) == 360
        assert len(set(contractions._transpose_classes(a.reshape((3,) * 6))[1])) == 720

    @pytest.mark.parametrize("arity", [0, 1])
    def test_low_arity_passes_through(self, arity):
        T = contractions.ContractionTensor(arity, 3, np.arange(3.0 ** arity).reshape((3,) * arity))
        kept = T.values.copy()
        assert symmetrize(T).values.tobytes() == kept.tobytes()
        assert contractions.symmetrized_norm(T) == T.frobenius_norm()
        assert T.values.tobytes() == kept.tobytes()

    def test_chi_square_defect_bitwise_against_oracle(self):
        # 300^2 values at order 2: the streamed sum splits into leaves
        for f in (kernels.walsh_kernel(4, 7), kernels.random_sparse_kernel(4, 10, seed=2),
                  kernels.random_sparse_kernel(2, 300, seed=4)):
            sym = symmetrize_all_permutations(contractions.contract(f, f.d // 2).values)
            diff = sym - contractions.chi_square_match_constant(f.d) * kernels.dense_tensor(f)
            want = float(np.sqrt((diff ** 2).sum()))
            assert contractions.chi_square_defect(f).hex() == want.hex()

    # Which symmetries of f *_r f hold bitwise depends on the BLAS kernel that
    # computed it; the orbits must stay exact under each.  OPENBLAS_* is read
    # when numpy loads, hence one subprocess per setting.
    @pytest.mark.parametrize("setting", [
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_NUM_THREADS": "2"},
    ], ids=lambda s: "=".join(*s.items()))
    def test_matches_oracle_under_other_blas_kernels(self, setting):
        here = Path(__file__).resolve().parent
        src = str(Path(contractions.__file__).resolve().parents[1])
        path = [src, str(here), os.environ.get("PYTHONPATH")]
        env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = "import test_contractions as t; t.assert_symmetrize_matches_oracle_bitwise()"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestSymmetrizedNormMemory:
    """The symmetrized norms hold the contraction and a few slab-sized
    buffers, never the symmetrized tensor, its difference or its square
    whole."""

    def test_exact_symmetrized_peak(self):
        # the rank-1 contraction holds 40^4 values (19.5 MiB); sym(T) or its
        # square held whole would add as much again
        norms = contractions.ChaosNorms(kernels.random_sparse_kernel(3, 40, seed=8))
        assert traced_memory(lambda: norms.exact_symmetrized(1))[1] < 24 * 2**20

    def test_chi_square_defect_peak(self):
        # the contraction and the dense kernel hold 2000^2 values each
        # (30.5 MiB); a third array of that size would pass the bound
        f = kernels.constant_kernel(2000)
        assert traced_memory(lambda: contractions.chi_square_defect(f))[1] < 70 * 2**20

    def test_copy_plan_peaks(self):
        # each copied transpose class holds one slab; the bounds sit 0.5 MiB
        # (arity 6) and 1.5 MiB (the others) above the peaks of 4.28, 1.92
        # and 2.82 MiB taken when each copy was dropped after its last use
        a = np.random.default_rng(7).standard_normal((125, 125))
        half_swap = contractions.ContractionTensor(6, 5, (a + a.T).reshape((5,) * 6))
        # 359 non-identity classes used twice each, more than are copied
        assert len(set(contractions._transpose_classes(half_swap.values)[1])) == 360
        cases = [
            (half_swap, 4.28 + 0.5),
            (contractions.contract(kernels.walsh_kernel(4, 8), 1), 1.92 + 1.5),
            (contractions.contract(kernels.random_sparse_kernel(3, 40, seed=8), 1), 2.82 + 1.5),
        ]
        for T, mib in cases:
            assert traced_memory(lambda: contractions.symmetrized_norm(T))[1] < mib * 2**20

    def test_nothing_outlives_the_call(self):
        # no reference cycle keeps the contraction until the next collection:
        # what stays is the memo entry
        norms = contractions.ChaosNorms(kernels.random_sparse_kernel(3, 40, seed=8))
        gc.disable()
        try:
            held = traced_memory(lambda: norms.exact_symmetrized(1))[0]
        finally:
            gc.enable()
        assert held < 64 * 2**10


class TestInfluence:
    def test_closed_forms(self, c3, w25):
        np.testing.assert_allclose(contractions.influence_profile(c3), 1 / 6, rtol=1e-13)
        prof = contractions.influence_profile(w25)
        assert prof[0] == pytest.approx(0.25, rel=1e-13)
        np.testing.assert_allclose(prof[1:], 1 / 16, rtol=1e-13)

    def test_disjoint_pairs(self):
        for m in (2, 10):
            prof = contractions.influence_profile(kernels.disjoint_pairs(m))
            np.testing.assert_allclose(prof, 1.0 / (4 * m), rtol=1e-13)

    def test_sum_identity(self):
        # influences sum to ||f||^2 / (d-1)!
        rng = np.random.default_rng(113)
        for f in random_kernels(rng, 40):
            want = kernels.squared_norm(f) / math.factorial(f.d - 1)
            assert float(contractions.influence_profile(f).sum()) == pytest.approx(want, rel=1e-12)

    def test_matches_ordered_sum_definition(self):
        rng = np.random.default_rng(127)
        for f in random_kernels(rng, 8, d_range=(2, 3), n_max=5):
            prof = contractions.influence_profile(f)
            for i in range(1, f.N + 1):
                ordered = sum(
                    evaluate(f, (i,) + rest) ** 2
                    for rest in itertools.product(range(1, f.N + 1), repeat=f.d - 1)
                )
                assert prof[i - 1] == pytest.approx(
                    ordered / math.factorial(f.d - 1), rel=1e-11, abs=1e-15
                )


class TestChiSquareDefect:
    def test_constants(self):
        assert contractions.chi_square_match_constant(2) == 1.0
        assert contractions.chi_square_match_constant(4) == pytest.approx(1 / 18, rel=1e-15)
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            contractions.chi_square_match_constant(3)

    def test_odd_order_rejected(self):
        f = kernels.random_sparse_kernel(3, 5, seed=3)
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            contractions.chi_square_defect(f)

    def test_constant_kernel_rate(self):
        # diagonal of the half-contraction contributes exactly 1/N
        for N in (50, 100, 200):
            f = kernels.constant_kernel(N, sigma2=2.0)
            defect = contractions.chi_square_defect(f)
            ratio = defect * math.sqrt(N)
            assert 0.9 <= ratio <= 1.1

    def test_dense_kernel_built_once(self, monkeypatch):
        builds, build = [], kernels.dense_tensor
        monkeypatch.setattr(kernels, "dense_tensor", lambda f: builds.append(f) or build(f))
        for f in (kernels.constant_kernel(30), kernels.walsh_kernel(4, 6)):
            builds.clear()
            contractions.chi_square_defect(f)
            assert builds == [f]

    def test_matches_materialized_oracle(self):
        rng = np.random.default_rng(131)
        for f in random_kernels(rng, 6, d_range=(2, 2), n_max=7):
            c_d = contractions.chi_square_match_constant(2)
            T = contractions.contract(f, 1).values
            sym = 0.5 * (T + T.T)
            want = float(np.sqrt(((sym - c_d * kernels.dense_tensor(f)) ** 2).sum()))
            assert contractions.chi_square_defect(f) == pytest.approx(want, rel=1e-12)


class TestCruxGap:
    def test_closed_forms(self, c3):
        lhs, rhs = contractions.crux_gap(c3)
        assert lhs == pytest.approx(1 / 8, rel=1e-13)
        assert rhs == pytest.approx(1 / 36, rel=1e-13)

    def test_disjoint_pairs(self):
        for m in (2, 9):
            lhs, rhs = contractions.crux_gap(kernels.disjoint_pairs(m))
            assert lhs == pytest.approx(1 / (8 * m), rel=1e-13)
            assert rhs == pytest.approx(1 / (16 * m * m), rel=1e-13)

    def test_single_pair(self, p2):
        lhs, rhs = contractions.crux_gap(p2)
        assert lhs == pytest.approx(1 / 8, rel=1e-14)
        # max influence is 1/4, so the dominated side is 1/16
        assert rhs == pytest.approx(1 / 16, rel=1e-14)

    def test_inequality_never_violated(self):
        rng = np.random.default_rng(137)
        for f in random_kernels(rng, 120, d_range=(2, 4), n_max=8):
            lhs, rhs = contractions.crux_gap(f)
            assert lhs >= rhs - 1e-12 * max(1.0, lhs)


def loop_influences(f):
    """Per-entry loop over the canonical entries: the reference order."""
    acc = np.zeros(f.N)
    for t, v in entries(f).items():
        for i in t:
            acc[i - 1] += v * v
    return acc


def loop_gram_norm(f, r):
    """contraction_norm through a slice matrix built entry by entry, rows and
    columns numbered by first occurrence."""
    row_ids, col_ids, rows, cols, vals = {}, {}, [], [], []
    for t, v in entries(f).items():
        for s in itertools.combinations(t, r):
            u = tuple(i for i in t if i not in s)
            rows.append(row_ids.setdefault(u, len(row_ids)))
            cols.append(col_ids.setdefault(s, len(col_ids)))
            vals.append(v)
    S = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(row_ids), len(col_ids))).tocsr()
    gram_sq = float(((S.T @ S).tocoo().data ** 2).sum())
    return math.factorial(r) * math.factorial(f.d - r) * math.sqrt(gram_sq)


def test_array_readers_equal_entry_loops_bitwise():
    rng = np.random.default_rng(131)
    for f in random_kernels(rng, 30, d_range=(2, 4), n_max=9):
        assert contractions.influence_profile(f).tobytes() == loop_influences(f).tobytes()
        for r in range(1, f.d):
            assert contractions.contraction_norm(f, r).hex() == loop_gram_norm(f, r).hex()


def _half_rounded(f):
    """f with its values rounded to multiples of 1/2, zeros made 1/2, so
    that some Gram sums cancel exactly."""
    values = np.round(2 * f.value_array) / 2
    values[values == 0] = 0.5
    return kernels.kernel_from_arrays(f.d, f.N, f.index_array + 1, values)


def dense_gram_cases():
    for N in (2, 3, 50, 200, 500):
        yield f"constant_{N}", kernels.constant_kernel(N)
    for d in (2, 3, 4):
        for N in (d + 2, 9):
            total = math.comb(N, d)
            for count in (total // 2, total):
                for seed in range(2):
                    f = kernels.random_sparse_kernel(d, N, seed=seed, entry_count=count)
                    name = f"random_sparse_{d}_{N}_{count}_{seed}"
                    yield name, f
                    yield name + "_half", _half_rounded(f)
    # every product underflows to 0.0, so nothing is stored
    yield "underflowing", kernels.kernel_from_arrays(2, 3, [[1, 2], [1, 3], [2, 3]], [1e-200] * 3)
    # 8 entries of S^T S get products; the 4 off the diagonal cancel to 0.0
    # and are not stored
    yield "cancelling", kernels.kernel_from_arrays(
        2, 4, [[1, 3], [2, 3], [1, 4], [2, 4]], [1.0, 1.0, 1.0, -1.0])


@pytest.fixture
def dense_calls(monkeypatch):
    """The slice matrices the dense Gram route is given."""
    calls, dense = [], reductions._dense_gram_values
    monkeypatch.setattr(reductions, "_dense_gram_values", lambda S: calls.append(S) or dense(S))
    return calls


class TestDenseGram:
    """Dense slice matrices get their Gram norms from a dense array, with
    the stored values of the sparse product S^T S in its storage order."""

    def test_norms_and_stored_values_bitwise(self, dense_calls):
        routed = 0
        for name, f in dense_gram_cases():
            for r in range(1, f.d):
                before = len(dense_calls)
                assert contractions.contraction_norm(f, r).hex() == loop_gram_norm(f, r).hex(), name
                routed += len(dense_calls) > before
                # the dense route keeps every stored value and its place, routed or not
                S = contractions._slice_matrix(f, r)
                stored = reductions.gram(S).data
                assert reductions._dense_gram_values(S).tobytes() == stored.tobytes(), (name, r)
        assert routed == 53  # of the 103 (kernel, rank) cases

    def test_cancelling_sums_are_dropped(self, dense_calls):
        f = dict(dense_gram_cases())["cancelling"]
        S = contractions._slice_matrix(f, 1)
        values = reductions.gram_values(S, kernels.MATERIALIZATION_CAP)
        assert len(dense_calls) == 1 and S.shape == (4, 4)
        assert reductions.gram(S).nnz == 4 and values.tolist() == [2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("make, dense", [
        (lambda: kernels.disjoint_pairs(10_000), False),
        (lambda: kernels.walsh_kernel(4, 8), False),
        (lambda: kernels.random_sparse_kernel(3, 40), False),
        (lambda: kernels.constant_kernel(100), True),
    ], ids=["disjoint_pairs_10000", "walsh_4_8", "random_sparse_3_40", "constant_100"])
    def test_route_follows_density(self, dense_calls, make, dense):
        f = make()
        for r in range(1, f.d):
            contractions.contraction_norm(f, r)
        assert bool(dense_calls) == dense

    def test_past_the_cap_stays_sparse(self, dense_calls, monkeypatch):
        f = kernels.constant_kernel(100)
        want = contractions.contraction_norm(f, 1)
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 100 * 100 - 1)
        assert contractions.contraction_norm(f, 1).hex() == want.hex()
        assert len(dense_calls) == 1

    def test_memory_bounded(self, dense_calls):
        # contraction_norm(constant(1000), 1) builds a 1000 x 1000 slice
        # matrix; from it, the sparse product peaked at 22.9 MiB
        S = contractions._slice_matrix(kernels.constant_kernel(1000), 1)
        tracemalloc.start()
        try:
            reductions.gram_values(S, kernels.MATERIALIZATION_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dense_calls) == 1
        assert peak <= 34 * 2**20


def test_file_round_trip_keeps_statistics_bitwise(tmp_path):
    # influences and Gram norms sum in canonical order, whatever order the
    # entries were generated in, so a kernel read back from its file agrees
    def stats(k):
        return [
            contractions.max_influence(k).hex(),
            float(contractions.influence_profile(k).sum()).hex(),
            *(contractions.contraction_norm(k, r).hex() for r in range(1, k.d)),
        ]

    for d, N in ((2, 30), (3, 20)):
        for seed in range(20):
            f = kernels.random_sparse_kernel(d, N, seed=seed)
            kernels.write_kernel(f, tmp_path / "k.kern")
            assert stats(f) == stats(kernels.read_kernel(tmp_path / "k.kern")), (d, seed)
