import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from homsum import cli, kernels
from homsum.errors import CapacityError, ValidationError
from conftest import random_kernels, row_sums
from oracles import entries, evaluate, format_kernel_by_record, parse_kernel_whole_text, unit_sums


class TestMakeKernel:
    def test_smallest_admissible(self):
        f = kernels.make_kernel(2, 2, {(1, 2): 0.5})
        assert entries(f) == {(1, 2): 0.5}

    def test_diagonal_entry_rejected(self):
        with pytest.raises(ValidationError, match=r"entry tuple \(1, 1\) is not strictly increasing"):
            kernels.make_kernel(2, 2, {(1, 1): 0.5})

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError, match=r"entry tuple \(2, 1\) is not strictly increasing"):
            kernels.make_kernel(2, 3, {(2, 1): 0.5})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"entry tuple \(1, 3\) has an index outside 1..2"):
            kernels.make_kernel(2, 2, {(1, 3): 0.5})
        with pytest.raises(ValidationError, match=r"entry tuple \(0, 1\) has an index outside 1..2"):
            kernels.make_kernel(2, 2, {(0, 1): 0.5})

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match=r"entry tuple \(1, 2\) is supplied twice"):
            kernels.make_kernel(2, 3, [((1, 2), 0.5), ((1, 2), 0.25)])

    def test_bad_shape(self):
        with pytest.raises(ValidationError, match="order d must be an integer in 1..12, got 0"):
            kernels.make_kernel(0, 2, {})
        with pytest.raises(ValidationError, match="dimension N must satisfy N >= d, got N=2, d=3"):
            kernels.make_kernel(3, 2, {})
        with pytest.raises(ValidationError, match=r"entry tuples have shape \(1, 3\), need \(1, 2\)"):
            kernels.make_kernel(2, 4, {(1, 2, 3): 1.0})

    def test_order_limit(self):
        top = tuple(range(1, kernels.MAX_ORDER + 1))
        assert kernels.make_kernel(kernels.MAX_ORDER, kernels.MAX_ORDER, {top: 1.0}).d == 12
        with pytest.raises(ValidationError, match="1..12"):
            kernels.make_kernel(13, 13, {top + (13,): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"entry tuple \(3, 4\) has a non-finite value"):
            kernels.make_kernel(2, 4, {(1, 2): 0.5, (3, 4): bad})

    def test_duplicate_behind_zero_rejected(self):
        with pytest.raises(ValidationError, match=r"entry tuple \(1, 2\) is supplied twice"):
            kernels.make_kernel(2, 3, [((1, 2), 0.0), ((1, 2), 0.5)])

    def test_zeros_dropped(self):
        f = kernels.make_kernel(2, 4, {(1, 2): 0.0, (3, 4): 1.0})
        assert entries(f) == {(3, 4): 1.0}

    def test_symmetry_closure_by_hand(self):
        f = kernels.make_kernel(3, 4, {(1, 2, 3): 0.7, (2, 3, 4): -0.2})
        assert f.entry_count == 2
        assert evaluate(f, (3, 1, 2)) == 0.7


class TestStorage:
    def test_fields_are_order_dimension_and_two_frozen_arrays(self):
        f = kernels.random_sparse_kernel(3, 8, seed=1)
        assert [fl.name for fl in dataclasses.fields(f)] == ["d", "N", "index_array", "value_array"]
        assert not f.index_array.flags.writeable
        assert not f.value_array.flags.writeable

    def test_rows_zero_based_and_sorted(self):
        f = kernels.make_kernel(2, 4, [((3, 4), 1.0), ((1, 2), 0.5), ((1, 3), -0.25)])
        assert f.index_array.tolist() == [[0, 1], [0, 2], [2, 3]]
        assert f.value_array.tolist() == [0.5, -0.25, 1.0]

    def test_dense_tensor_matches_evaluate(self):
        rng = np.random.default_rng(3)
        for f in random_kernels(rng, 6, d_range=(1, 3), n_max=6):
            F = kernels.dense_tensor(f)
            for idx in itertools.product(range(1, f.N + 1), repeat=f.d):
                assert F[tuple(i - 1 for i in idx)] == evaluate(f, idx)

    def test_second_moment_check_fails_on_nan(self, p2):
        kernels.require_second_moment(p2, 1.0)
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 1.1"):
            kernels.require_second_moment(p2, 1.1)
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected nan"):
            kernels.require_second_moment(p2, math.nan)


class TestEvaluate:
    def test_symmetry(self, p2):
        assert evaluate(p2, (2, 1)) == 0.5

    def test_vanishes_on_diagonal(self, p2):
        assert evaluate(p2, (1, 1)) == 0.0

    def test_constant_family_value(self, c3):
        assert evaluate(c3, (3, 1)) == pytest.approx(12 ** -0.5, rel=1e-15)

    def test_out_of_range(self, p2):
        with pytest.raises(ValidationError, match="index 3 outside 1..2"):
            evaluate(p2, (1, 3))

    def test_permutation_invariance_random(self):
        rng = np.random.default_rng(7)
        for f in random_kernels(rng, 10, d_range=(2, 3), n_max=6):
            for t in list(entries(f))[:3]:
                for perm in itertools.permutations(t):
                    assert evaluate(f, perm) == entries(f)[t]


class TestNorms:
    def test_p2(self, p2):
        assert kernels.squared_norm(p2) == pytest.approx(0.5, abs=0)
        assert kernels.second_moment(p2) == pytest.approx(1.0, abs=0)

    def test_c3(self, c3):
        assert kernels.squared_norm(c3) == pytest.approx(0.5, rel=1e-14)

    def test_empty(self):
        f = kernels.make_kernel(2, 3, {})
        assert kernels.squared_norm(f) == 0.0

    def test_matches_bruteforce_ordered_sum(self):
        # exhaustive over [N]^d for small kernels
        rng = np.random.default_rng(11)
        for f in random_kernels(rng, 15, d_range=(1, 3), n_max=6):
            brute = sum(
                evaluate(f, idx) ** 2
                for idx in itertools.product(range(1, f.N + 1), repeat=f.d)
            )
            assert kernels.squared_norm(f) == pytest.approx(brute, rel=1e-12)


class TestEvaluateSum:
    def test_all_ones(self, p2):
        assert row_sums(p2, np.array([[1.0, 1.0]]))[0] == 1.0

    def test_sign_flip(self, p2):
        assert row_sums(p2, np.array([[1.0, -1.0]]))[0] == -1.0

    def test_zero_vector(self, c3):
        assert row_sums(c3, np.zeros((1, 3)))[0] == 0.0

    @pytest.mark.parametrize("f", [kernels.constant_kernel(40), kernels.disjoint_pairs(5)],
                             ids=["dense", "sparse"])
    def test_empty_batch(self, f):
        got = row_sums(f, np.empty((0, f.N)))
        assert got.shape == (0,)

    def test_matches_bruteforce_ordered_sum(self):
        rng = np.random.default_rng(23)
        for f in random_kernels(rng, 10, d_range=(1, 3), n_max=6):
            x = rng.standard_normal(f.N)
            brute = sum(
                evaluate(f, idx) * np.prod([x[i - 1] for i in idx])
                for idx in itertools.product(range(1, f.N + 1), repeat=f.d)
            )
            got = row_sums(f, x[None, :])[0]
            assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_single_index_decomposition(self):
        # Q(x) = U_i + x_i V_i with U_i, V_i free of x_i, so Q is multilinear
        rng = np.random.default_rng(31)
        for f in random_kernels(rng, 8, d_range=(2, 3), n_max=6):
            x = rng.standard_normal(f.N)
            i = int(rng.integers(0, f.N))
            x0 = x.copy()
            x0[i] = 0.0
            u = row_sums(f, x0[None, :])[0]
            x1 = x.copy()
            x1[i] = 1.0
            v = row_sums(f, x1[None, :])[0] - u
            for lam in (-2.0, 0.5, 3.0):
                xl = x.copy()
                xl[i] = lam
                got = row_sums(f, xl[None, :])[0]
                assert got == pytest.approx(u + lam * v, rel=1e-9, abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        for f in random_kernels(rng, 6, d_range=(1, 3), n_max=7):
            X = rng.standard_normal((5, f.N))
            batch = row_sums(f, X)
            single = [row_sums(f, row[None, :])[0] for row in X]
            np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_dense_path_matches_sparse_path(self):
        # constant kernel takes the quadratic-form path; compare to per-entry path
        f = kernels.constant_kernel(12)
        assert f.entry_count > f.N
        rng = np.random.default_rng(41)
        X = rng.standard_normal((16, 12))
        dense = row_sums(f, X)
        sparse = [
            2.0 * sum(v * X[r, t[0] - 1] * X[r, t[1] - 1] for t, v in entries(f).items())
            for r in range(16)
        ]
        np.testing.assert_allclose(dense, sparse, rtol=1e-12)


class TestRowSums:
    """Rows fed to one evaluator in pieces of any length get the bits of the
    evaluation rule applied to the whole batch at once, batch after batch."""

    @pytest.fixture(autouse=True)
    def small_gather(self, monkeypatch):
        # disjoint_pairs(2000) then sums 16 rows at a time
        monkeypatch.setattr(kernels, "GATHER_VALUES", 64_000)

    @pytest.mark.parametrize("piece", [1, 7, 333])
    @pytest.mark.parametrize("make", [lambda: kernels.constant_kernel(40),
                                      lambda: kernels.constant_kernel(100),
                                      lambda: kernels.disjoint_pairs(2000)],
                             ids=["dense", "dense_100", "sparse"])
    def test_pieces_keep_whole_batch_bits(self, make, piece):
        # at N = 100 a GEMM over 7 or 100 of the 1000 rows already rounds
        # some rows differently from one over all of them
        f = make()
        assert (kernels.evaluation_chunk(f) is None) == (f.N <= 100)
        rng = np.random.default_rng(piece)
        sums = kernels.RowSums(f, 1000)
        # a full batch, then a block shorter than the batch; rows wider than N
        for rows in (1000, 600):
            X = rng.standard_normal((rows, f.N + 3))
            want = unit_sums(f, X[:, : f.N])
            whole = np.empty(rows)
            kernels.RowSums(f, rows).add(X, 0, whole)
            got = np.full(rows, np.nan)
            for start in range(0, rows, piece):
                sums.add(X[start : start + piece], start, got)
            assert got.tobytes() == whole.tobytes() == want.tobytes()
            assert row_sums(f, X[:, : f.N]).tobytes() == want.tobytes()


class TestNormalize:
    def test_already_normalized(self, p2):
        g = kernels.normalize_to_variance(p2, 1.0)
        assert entries(g) == entries(p2)

    def test_scaled_constant(self, c3):
        doubled = kernels.make_kernel(2, 3, {t: 2 * v for t, v in entries(c3).items()})
        g = kernels.normalize_to_variance(doubled, 1.0)
        assert entries(g) == pytest.approx(entries(c3))

    def test_zero_kernel(self):
        with pytest.raises(ValidationError, match="cannot normalize a kernel with zero norm"):
            kernels.normalize_to_variance(kernels.make_kernel(2, 3, {}), 1.0)

    def test_exact_target(self):
        rng = np.random.default_rng(43)
        for f in random_kernels(rng, 10):
            for s2 in (0.5, 1.0, 2.0):
                g = kernels.normalize_to_variance(f, s2)
                assert abs(kernels.second_moment(g) - s2) <= 1e-12 * s2


class TestFamilies:
    def test_disjoint_pairs_m4(self):
        f = kernels.disjoint_pairs(4)
        assert f.entry_count == 4
        assert all(v == 0.25 for v in entries(f).values())
        assert kernels.second_moment(f) == pytest.approx(1.0, abs=1e-15)

    def test_walsh_2_5(self):
        f = kernels.walsh_kernel(2, 5)
        assert entries(f) == {(1, i): 0.25 for i in range(2, 6)}
        assert kernels.second_moment(f) == pytest.approx(1.0, abs=1e-15)

    def test_constant_3(self, c3):
        assert set(entries(c3)) == {(1, 2), (1, 3), (2, 3)}
        assert kernels.second_moment(c3) == pytest.approx(1.0, rel=1e-14)

    def test_all_families_hit_target_second_moment(self):
        specs = [
            ("single_pair", 2, 2, 1.0, 0),
            ("constant", 2, 6, 2.0, 0),
            ("disjoint_pairs", 2, 10, 0.5, 0),
            ("walsh", 3, 9, 1.5, 0),
            ("random_sparse", 3, 7, 1.0, 99),
        ]
        for family, d, size, sigma2, seed in specs:
            f = kernels.generate_family(family, d, size, sigma2, seed)
            assert abs(kernels.second_moment(f) - sigma2) <= 1e-12 * sigma2

    def test_normalization_idempotent_on_families(self):
        f = kernels.disjoint_pairs(5)
        g = kernels.normalize_to_variance(f, 1.0)
        assert entries(g) == entries(f)

    def test_family_parameter_errors(self):
        with pytest.raises(ValidationError, match="walsh family needs N > d >= 2, got d=2, N=2"):
            kernels.walsh_kernel(2, 2)
        with pytest.raises(ValidationError, match="disjoint_pairs needs m >= 1, got 0"):
            kernels.disjoint_pairs(0)
        with pytest.raises(ValidationError, match="constant family requires d = 2"):
            kernels.generate_family("constant", 3, 5, 1.0, 0)
        with pytest.raises(ValidationError, match="unknown family 'nope'"):
            kernels.generate_family("nope", 2, 2, 1.0, 0)

    @pytest.mark.parametrize("family, d, size, within", [
        ("constant", 2, 15, 14),  # N(N-1)/2 entries: 105, then 91
        ("disjoint_pairs", 2, 101, 100),  # m entries
        ("walsh", 3, 103, 102),  # N-d+1 entries: 101, then 100
    ])
    def test_family_past_cap_raises_before_building(self, monkeypatch, family, d, size, within):
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 100)
        assert kernels.generate_family(family, d, within, 1.0, 0).entry_count <= 100
        with pytest.raises(CapacityError, match=r" has 10[15] entries, cap is 100$"):
            kernels.generate_family(family, d, size, 1.0, 0)

    def test_random_sparse_is_seeded(self):
        a = kernels.random_sparse_kernel(2, 9, seed=5)
        b = kernels.random_sparse_kernel(2, 9, seed=5)
        c = kernels.random_sparse_kernel(2, 9, seed=6)
        assert entries(a) == entries(b)
        assert entries(a) != entries(c)


class TestKernelFile:
    def test_round_trip_bytes(self, tmp_path):
        f = kernels.random_sparse_kernel(3, 7, seed=17, sigma2=1.3)
        p1 = tmp_path / "a.kern"
        p2 = tmp_path / "b.kern"
        kernels.write_kernel(f, p1)
        g = kernels.read_kernel(p1)
        kernels.write_kernel(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert g == f

    def test_full_precision(self, tmp_path):
        f = kernels.make_kernel(2, 3, {(1, 2): 1.0 / 3.0, (2, 3): math.pi * 1e-7})
        path = tmp_path / "k.kern"
        kernels.write_kernel(f, path)
        g = kernels.read_kernel(path)
        assert entries(g) == entries(f)

    @pytest.mark.parametrize("records, message", [
        ("1 2 0.5\n3 4 nan\n", r"entry tuple \(3, 4\) has a non-finite value"),
        ("1 2 0.5\n3 4 inf\n", r"entry tuple \(3, 4\) has a non-finite value"),
        ("1 2 0.0\n1 2 0.5\n", r"entry tuple \(1, 2\) is supplied twice"),
        ("1 2 0.5 3\n4 0.5\n", "malformed kernel record '1 2 0.5 3' at line 4:"),
        ("1 x 0.5\n", "malformed kernel record '1 x 0.5' at line 4:"),
        ("1 2 0.5\n# 3 4 0.5\n", "malformed kernel record '# 3 4 0.5' at line 5:"),
        ("1 2 1_0\n", "malformed kernel record '1 2 1_0' at line 4:"),
    ], ids=["nan", "inf", "duplicate_behind_zero", "misaligned_fields", "non_integer_index",
            "comment_line", "underscore_in_value"])
    def test_parse_rejects_bad_records(self, tmp_path, records, message):
        path = tmp_path / "bad.kern"
        path.write_text("artifact-kernel v1\nd 2\nN 4\n" + records)
        with pytest.raises(ValidationError, match=message):
            kernels.read_kernel(path)

    @pytest.mark.parametrize("suffix", [" 7", "x"], ids=["extra_field", "non_number"])
    def test_bad_record_far_into_a_large_file(self, tmp_path, suffix):
        # constant(400) has 79,800 records; the bad one lies past the first 50,000
        path = tmp_path / "c400.kern"
        kernels.write_kernel(kernels.constant_kernel(400), path)
        lines = path.read_text().splitlines()
        lines[3 + 60_000] += suffix
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="malformed kernel record '.*' at line 60004:"):
            kernels.read_kernel(path)
        assert cli.main(["kernel", "inspect", "--kernel", str(path)]) == 2

    @pytest.mark.parametrize("record", ["1 3 x", "1 3 0.5 7"], ids=["non_number", "extra_field"])
    def test_bad_record_message_quotes_it_with_its_file_line(self, tmp_path, record):
        # numpy numbers this record "row 1" or "row 2", counting records, not lines
        path = tmp_path / "k.kern"
        path.write_text(f"artifact-kernel v1\nd 2\nN 4\n1 2 0.5\n\n{record}\n")
        with pytest.raises(ValidationError, match="malformed kernel record") as err:
            kernels.read_kernel(path)
        assert str(err.value).startswith(f"malformed kernel record {record!r} at line 6: ")

    @pytest.mark.parametrize("d", ["0", "-1", "1000000"])
    def test_order_out_of_range_exit_2(self, tmp_path, d):
        path = tmp_path / "k.kern"
        path.write_text(f"artifact-kernel v1\nd {d}\nN 4\n1 2 0.5\n")
        with pytest.raises(ValidationError, match="order d must be an integer"):
            kernels.read_kernel(path)
        assert cli.main(["kernel", "inspect", "--kernel", str(path)]) == 2

    @pytest.mark.parametrize("f", [
        kernels.make_kernel(2, 4, {(1, 3): 0.25}),
        kernels.make_kernel(1, 5, {(2,): 0.5, (4,): -1.0}),
    ], ids=["one_record", "order_one"])
    def test_small_kernels_read_back_equal(self, tmp_path, f):
        path = tmp_path / "k.kern"
        kernels.write_kernel(f, path)
        assert kernels.read_kernel(path) == f

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "header.kern"
        path.write_text("artifact-kernel v1\nd 2\nN 4\n")
        with pytest.raises(ValidationError, match="kernel file .* has no records"):
            kernels.read_kernel(path)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("not a kernel\n")
        with pytest.raises(ValidationError, match="not a kernel file"):
            kernels.read_kernel(path)


def _mixed_kernel(rng, d, N, count):
    """`count` random canonical rows of order d whose values mix repeats (a
    pool of eight, each drawn many times), distinct normals, subnormals and
    +-1e300."""
    rows = set()
    while len(rows) < count:
        rows.add(tuple(sorted(rng.choice(N, size=d, replace=False) + 1)))
    pool = np.array([0.5, -0.25, 1 / 3, 5e-324, -2.5e-310, 1e300, -1e300, 7.0])
    values = np.where(rng.random(count) < 0.5, rng.choice(pool, count), rng.standard_normal(count))
    return kernels.kernel_from_arrays(d, N, sorted(rows), values)


class TestKernelWriter:
    """write_kernel formats each distinct value and used index once, block
    by block; it must write the per-record formatter's text exactly."""

    @pytest.mark.parametrize("block", [1, 5, kernels.WRITE_BLOCK], ids=lambda b: f"block_{b}")
    def test_same_text_as_per_record_formatter(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(kernels, "WRITE_BLOCK", block)
        rng = np.random.default_rng(24)
        cases = [
            _mixed_kernel(rng, 2, 40, 300),
            _mixed_kernel(rng, 3, 12, 200),
            _mixed_kernel(rng, 1, 50, 37),
            kernels.make_kernel(1, 1, {(1,): -0.0625}),
            kernels.make_kernel(2, 4, {}),
            kernels.make_kernel(2, kernels.MAX_DIMENSION,
                                {(1, kernels.MAX_DIMENSION): 0.5, (7, 2**32 - 1): -1e-300}),
            *random_kernels(rng, 6),
        ]
        path = tmp_path / "k.kern"
        for f in cases:
            kernels.write_kernel(f, path)
            assert path.read_bytes() == format_kernel_by_record(f).encode("ascii"), f
        kernels.write_kernel(cases[4], path)
        assert path.read_bytes() == b"artifact-kernel v1\nd 2\nN 4\n"

    def test_widest_dimension_formatted_without_an_index_table(self, tmp_path):
        # a table over range(N) would hold 2^32 texts
        f = kernels.make_kernel(2, kernels.MAX_DIMENSION,
                                {(7, 2**32 - 1): -1e-300, (3, kernels.MAX_DIMENSION): 0.5})
        path = tmp_path / "k.kern"
        tracemalloc.start()
        try:
            kernels.write_kernel(f, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == (b"artifact-kernel v1\nd 2\nN 4294967296\n"
                                     b"3 4294967296 0.5\n7 4294967295 -1e-300\n")
        assert peak < 2**20

    # the per-record formatter, which held every record and the whole text
    # before writing, peaked at 55.7 and 48.7 MiB on these kernels; formatting
    # all records at once with one text per distinct item, at 45.2 and 52.9 MiB
    @pytest.mark.parametrize("make, per_record_peak_mib", [
        (lambda: kernels.constant_kernel(700), 55.7),
        (lambda: kernels.random_sparse_kernel(2, 2000, seed=1, entry_count=200_000), 48.7),
    ], ids=["constant_700", "random_sparse_200k"])
    def test_write_memory_bounded(self, tmp_path, make, per_record_peak_mib):
        f = make()
        path = tmp_path / "k.kern"
        tracemalloc.start()
        try:
            kernels.write_kernel(f, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < per_record_peak_mib * 2**20
        assert kernels.read_kernel(path) == f


def _kernel_text(records):
    return "artifact-kernel v1\nd 2\nN 30\n" + "".join(r + "\n" for r in records)


_C30 = format_kernel_by_record(kernels.constant_kernel(30))
_C30_RECORDS = _C30.splitlines()[3:]
STREAM_TEXTS = {
    "lf": _C30,
    "crlf": _C30.replace("\n", "\r\n"),
    "cr_only": _C30.replace("\n", "\r"),
    "no_final_newline": _C30.rstrip("\n"),
    "form_feed_in_record": _kernel_text(_C30_RECORDS[:50] + ["1 2\x0c0.5"] + _C30_RECORDS[51:]),
    "file_separator_in_record": _kernel_text(["1 2\x1c0.5"] + _C30_RECORDS[1:]),
    "line_separator_in_record": _kernel_text(_C30_RECORDS[:-1] + ["29 30\u20280.5"]),
    "form_feed_between_records": _C30.replace("\n", "\x0c", 20),
    "blank_lines": "\n\n" + _C30.replace("\n", "\n\n  \n\t\n", 40),
    "whitespace_only_lines": " \n" + _C30.replace("\n", "\n \x0b \n\u3000\n", 40),
    "header_only": "artifact-kernel v1\nd 2\nN 30\n",
    "header_cut_short": "artifact-kernel v1\nd 2\n",
    "empty": "",
    "bad_last_record": _C30 + "1 3 0.5 7\n",
    "duplicate_last_record": _C30 + _C30_RECORDS[0] + "\n",
}


def _outcome(read, arg):
    """The kernel read, or the type of the exception raised with its message
    when a record check of `kernel_from_arrays`, which both readers call,
    failed ("entry tuple ..."), else None: each reader words its own parse
    errors."""
    try:
        return read(arg)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc) if str(exc).startswith("entry tuple") else None


class TestStreamedReading:
    """read_kernel hands the lines of a file to `np.loadtxt` as it reads
    them; it must give the kernel, or raise the exception type, that
    splitting the whole text at once gives."""

    @pytest.mark.parametrize("piece", [1, 3, 7, 1 << 20], ids=lambda n: f"piece_{n}")
    @pytest.mark.parametrize("name", STREAM_TEXTS)
    def test_same_kernel_as_whole_text(self, name, piece, monkeypatch, tmp_path):
        # the file object decodes `piece` bytes at a time, so a "\r\n" pair,
        # a line or a multi-byte character can straddle two reads
        opened = []

        def open_in_pieces(*args, **kwargs):
            fh = open(*args, **kwargs)
            fh._CHUNK_SIZE = piece
            opened.append(fh)
            return fh

        monkeypatch.setattr(kernels, "open", open_in_pieces, raising=False)
        path = tmp_path / "k.kern"
        path.write_bytes(STREAM_TEXTS[name].encode())
        # reading a file translates "\r\n" and "\r" into "\n", as read_text does
        assert _outcome(kernels.read_kernel, path) == _outcome(parse_kernel_whole_text, path.read_text())
        assert [fh._CHUNK_SIZE for fh in opened] == [piece]

    def test_cases_cover_both_outcomes(self):
        outcomes = {name: _outcome(parse_kernel_whole_text, text) for name, text in STREAM_TEXTS.items()}
        for name in ("lf", "crlf", "cr_only", "no_final_newline", "blank_lines", "whitespace_only_lines"):
            assert outcomes[name] == kernels.constant_kernel(30), name
        assert outcomes["form_feed_in_record"] == (ValidationError, None)
        assert outcomes["header_only"] == (ValidationError, None)
        assert outcomes["duplicate_last_record"] == (
            ValidationError, "entry tuple (1, 2) is supplied twice")

    def test_text_without_newline_parsed_in_linear_time(self, tmp_path):
        # a text without "\n" is one line of the file, which `str.splitlines`
        # splits at once.  A file read turns "\r" into "\n", so form feeds
        # separate the lines.
        f = kernels.constant_kernel(300)
        path = tmp_path / "k.kern"
        kernels.write_kernel(f, path)
        text = path.read_text()
        seconds = {}
        for sep in ("\n", "\x0c"):
            path.write_text(text.replace("\n", sep))
            start = time.perf_counter()
            assert kernels.read_kernel(path) == f
            seconds[sep] = time.perf_counter() - start
        assert seconds["\x0c"] < 3 * seconds["\n"] + 0.5

    def test_read_memory_bounded(self, tmp_path):
        # on this 244,650-record file, whole-text reading peaked at 53.7 MiB
        # and reading in pieces with a token parser at 14.7 MiB
        path = tmp_path / "c700.kern"
        g = kernels.constant_kernel(700)
        kernels.write_kernel(g, path)
        tracemalloc.start()
        try:
            f = kernels.read_kernel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.entry_count == 244_650 and f == g
        assert peak < 13 * 2**20


def test_sorted_rows_skip_the_sort():
    # rows already in order are kept as given; others are sorted as before
    rows = np.array([[1, 2], [1, 3], [2, 3]])
    f = kernels.kernel_from_arrays(2, 3, rows, [1.0, 2.0, 3.0])
    g = kernels.kernel_from_arrays(2, 3, rows[::-1], [3.0, 2.0, 1.0])
    assert f == g and entries(f) == {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 3.0}
    assert kernels._rows_sorted(rows) and not kernels._rows_sorted(rows[::-1])
    assert kernels._rows_sorted(np.array([[1, 2], [1, 2]]))  # repeats are in order
    assert kernels._rows_sorted(np.empty((0, 2), dtype=np.int64))
    assert not kernels._rows_sorted(np.array([[1, 3], [2, 1], [2, 0]]))
    with pytest.raises(ValidationError, match=r"entry tuple \(1, 2\) is supplied twice"):
        kernels.kernel_from_arrays(2, 3, [[1, 2], [1, 2]], [1.0, 2.0])
