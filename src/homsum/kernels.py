"""Symmetric coefficient kernels on [N]^d vanishing on diagonals.

A kernel f assigns a real coefficient to every d-tuple of distinct indices
from [N] = {1, ..., N}, invariant under permutations of the tuple and zero
whenever two indices coincide.  Storage is sparse-canonical: only strictly
increasing tuples with nonzero coefficients are kept; the symmetric
extension is implied.

The associated degree-d multilinear form is

    Q_d(N, f, x) = d! * sum_{i1 < ... < id} f(i1, ..., id) x_{i1} ... x_{id},

equivalently the sum of f * x-products over all ordered tuples.  Under
independent unit-variance inputs, E[Q_d^2] = d! * ||f||_d^2 with
||f||_d^2 the sum of f^2 over all ordered tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import reductions
from .errors import CapacityError, ValidationError, reading

FAMILY_TAGS = ("single_pair", "constant", "disjoint_pairs", "walsh", "random_sparse")
NORMALIZED_RTOL = 1e-9
MAX_ORDER = 12  # factorial/binomial arithmetic kept in exact-integer range
# one float64 row of this many values is 32 GiB, so every N-sized array built
# from a kernel (influence profile, sample row, `bound multi` stack) is indexable
MAX_DIMENSION = 2 ** 32


@dataclass(frozen=True, eq=False)
class SymmetricKernel:
    """Sparse-canonical symmetric kernel.  Build it with `kernel_from_arrays`
    or `make_kernel`, which validate the entries and freeze both arrays."""

    d: int
    N: int
    index_array: np.ndarray = field(repr=False)  # (K, d) 0-based, rows strictly increasing, sorted
    value_array: np.ndarray = field(repr=False)  # (K,) nonzero finite coefficients

    def __eq__(self, other):
        if not isinstance(other, SymmetricKernel):
            return NotImplemented
        return (
            self.d == other.d
            and self.N == other.N
            and np.array_equal(self.index_array, other.index_array)
            and np.array_equal(self.value_array, other.value_array)
        )

    @property
    def entry_count(self) -> int:
        return len(self.value_array)

    def __repr__(self):
        return f"SymmetricKernel(d={self.d}, N={self.N}, entries={self.entry_count})"


def kernel_from_arrays(d: int, N: int, index, values) -> SymmetricKernel:
    """The one constructor every kernel passes through.

    `index` holds 1-based canonical tuples as the rows of a (K, d) integer
    array and `values` their coefficients.  Rejects a bad order or
    dimension, tuples of the wrong length, out-of-range indices, rows that
    are not strictly increasing, non-finite values and repeated tuples (a
    zero-valued repeat included); then drops exact zeros.  Rows are kept in
    lexicographic order.
    """
    check_order(d)
    if int(N) != N or N < d:
        raise ValidationError(f"dimension N must satisfy N >= d, got N={N}, d={d}")
    check_dimension(N)
    d, N = int(d), int(N)
    try:
        # the index is only read, so an int64 array is taken as it is
        index = np.array(index, dtype=np.int64, ndmin=2, copy=None)
        values = np.array(values, dtype=np.float64, ndmin=1)
    except (ValueError, OverflowError):
        raise ValidationError(f"entries must be integer {d}-tuples with real values") from None
    if index.size == 0:
        index = index.reshape(0, d)
    if index.ndim != 2 or index.shape[1] != d or values.shape != (len(index),):
        raise ValidationError(f"entry tuples have shape {index.shape}, need ({values.size}, {d})")
    if not _rows_sorted(index):  # files and families give sorted rows
        order = np.lexsort(index.T[::-1])
        index, values = index[order], values[order]
    distinct = np.ones(len(index), dtype=bool)
    distinct[1:] = (index[1:] != index[:-1]).any(axis=1)
    for ok, what in (
        (((index > 0) & (index <= N)).all(axis=1), f"has an index outside 1..{N}"),
        ((np.diff(index, axis=1) > 0).all(axis=1), "is not strictly increasing"),
        (np.isfinite(values), "has a non-finite value"),
        (distinct, "is supplied twice"),
    ):
        if not ok.all():
            raise ValidationError(f"entry tuple {tuple(index[np.argmin(ok)].tolist())} {what}")
    keep = values != 0.0
    if not keep.all():
        index, values = index[keep], values[keep]
    index = index - 1
    index.flags.writeable = values.flags.writeable = False
    return SymmetricKernel(d=d, N=N, index_array=index, value_array=values)


def check_order(d) -> None:
    """Raise unless the order d is an integer in 1..MAX_ORDER."""
    if int(d) != d or not 1 <= d <= MAX_ORDER:
        raise ValidationError(f"order d must be an integer in 1..{MAX_ORDER}, got {d}")


def check_dimension(N) -> None:
    """Raise unless the dimension N is at most MAX_DIMENSION."""
    if N > MAX_DIMENSION:
        raise ValidationError(f"dimension N must be at most {MAX_DIMENSION}, got N={N}")


def _rows_sorted(index: np.ndarray) -> bool:
    """Whether the rows are in lexicographic order (repeats allowed), which
    is when a stable lexsort would leave them where they are."""
    undecided = np.ones(len(index[1:]), dtype=bool)
    for a, b in zip(index[:-1].T, index[1:].T):
        if (undecided & (a > b)).any():
            return False
        undecided &= a == b
    return True


def make_kernel(d: int, N: int, canonical_entries) -> SymmetricKernel:
    """Build a kernel from canonical (strictly increasing tuple -> value)
    entries, given as a mapping or an iterable of (tuple, value) pairs."""
    mapping = isinstance(canonical_entries, Mapping)
    items = list(canonical_entries.items() if mapping else canonical_entries)
    return kernel_from_arrays(d, N, [t for t, _ in items], [v for _, v in items])


def squared_norm(f: SymmetricKernel) -> float:
    """||f||_d^2: sum of f^2 over all ordered tuples = d! * sum of canonical f^2."""
    return math.factorial(f.d) * reductions.dot(f.value_array, f.value_array)


def second_moment(f: SymmetricKernel) -> float:
    """E[Q_d(X)^2] for unit-variance independent inputs: d! * ||f||_d^2."""
    return math.factorial(f.d) * squared_norm(f)


def require_second_moment(f: SymmetricKernel, target: float) -> None:
    """Raise unless E[Q_d^2] is within relative 1e-9 of target (NaN fails)."""
    got = second_moment(f)
    if not abs(got - target) <= NORMALIZED_RTOL * target:
        raise ValidationError(f"kernel second moment is {got!r}, expected {target!r}")


# values the sparse path gathers at once (32 MB), which sets its row chunk
GATHER_VALUES = 4_000_000


def evaluation_chunk(f: SymmetricKernel) -> int | None:
    """Rows `RowSums` reduces as one unit: None when the whole batch is one
    dense quadratic form (order 2, more entries than inputs, N <= 1024),
    otherwise a chunk bounding the gathered product to about GATHER_VALUES
    values.  It depends on the kernel alone."""
    if f.d == 2 and f.entry_count > f.N and f.N <= 1024:
        return None
    return min(4096, max(16, GATHER_VALUES // max(1, f.entry_count * f.d)))


class RowSums:
    """Q_d of the rows of batches of at most `batch` rows, each batch fed in
    pieces of any length through `add`.

    Rows are reduced in units counted from the start of their batch: on the
    dense path (`evaluation_chunk` is None) the whole batch, one GEMM
    quadratic form sum_{i,j} F[i,j] x_i x_j over its first N columns
    (`reductions.row_quadratic_forms`); otherwise `evaluation_chunk(f)`
    rows, one GEMV (`reductions.row_dots`) times d! over each row's
    products x_{i1} ... x_{id} (one gather per coordinate, multiplied in
    coordinate order).  BLAS handles rows in small groups and rounds a
    leftover group differently, so a row's last bits depend on the unit it
    falls in.  A piece's columns or products, both exact copies, go into one
    unit buffer at the rows' offsets, and a unit is reduced once its last
    row is in: so every sum has the bits of one `add` of the whole batch,
    however the rows are split.  The dense tensor is built once, here.
    """

    def __init__(self, f: SymmetricKernel, batch: int):
        self.f = f
        chunk = evaluation_chunk(f)
        self.dense = dense_tensor(f) if chunk is None else None
        self.unit = max(1, batch) if chunk is None else chunk
        self.buffer = np.empty((min(self.unit, batch), f.N if chunk is None else f.entry_count))

    def add(self, rows: np.ndarray, start: int, sums: np.ndarray) -> None:
        """Take batch rows start, start + 1, ... (the rows of `rows`, which
        may be wider than N) and write the sums of each unit they complete
        into `sums`, which spans the batch."""
        f, unit = self.f, self.unit
        stop = start + len(rows)
        for lo in range(start - start % unit, stop, unit):
            hi = min(lo + unit, len(sums))
            a, b = max(lo, start), min(hi, stop)
            part, out = rows[a - start : b - start], self.buffer[a - lo : b - lo]
            if self.dense is not None:
                out[...] = part[:, : f.N]
            else:
                # indices are validated to lie in 0..N-1, so clipping never
                # moves one; unlike the default mode it writes into `out`
                # without a buffer
                np.take(part, f.index_array[:, 0], axis=1, out=out, mode="clip")
                for k in range(1, f.d):
                    out *= np.take(part, f.index_array[:, k], axis=1, mode="clip")
            if b == hi:
                sums[lo:hi] = self._reduce(self.buffer[: hi - lo])

    def _reduce(self, unit: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return reductions.row_quadratic_forms(unit, self.dense)
        return reductions.row_dots(unit, self.f.value_array) * float(math.factorial(self.f.d))


# the most values a dense kernel or contraction tensor may hold, and the
# most entries a named family may have
MATERIALIZATION_CAP = 10_000_000


def dense_tensor(f: SymmetricKernel) -> np.ndarray:
    """Dense (N,)*d array of kernel values over all ordered tuples, one
    scatter per coordinate permutation, indexed by the columns of
    index_array in place (no copy of the index array)."""
    F = np.zeros((f.N,) * f.d)
    for p in itertools.permutations(range(f.d)):
        F[tuple(f.index_array[:, k] for k in p)] = f.value_array
    return F


def _require_positive_sigma2(sigma2: float) -> None:
    if not 0 < sigma2 < math.inf:  # NaN fails too
        raise ValidationError(f"target second moment must be finite and positive, got {sigma2}")


def normalize_to_variance(f: SymmetricKernel, sigma2: float) -> SymmetricKernel:
    """Scale so that E[Q_d^2] = d! * ||f||_d^2 equals sigma2."""
    _require_positive_sigma2(sigma2)
    cur = second_moment(f)
    if cur == 0.0:
        raise ValidationError("cannot normalize a kernel with zero norm")
    lam = math.sqrt(sigma2 / cur)
    return kernel_from_arrays(f.d, f.N, f.index_array + 1, lam * f.value_array)


# ---------------------------------------------------------------------------
# Named kernel families
# ---------------------------------------------------------------------------

def _require_within_cap(entries: int, what: str) -> None:
    """Raise CapacityError, before a family builds any array, when it would
    hold more than MATERIALIZATION_CAP entries; `what` names the family."""
    if entries > MATERIALIZATION_CAP:
        raise CapacityError(f"{what} {entries} entries, cap is {MATERIALIZATION_CAP}")


def single_pair(sigma2: float = 1.0) -> SymmetricKernel:
    # E[Q^2] = 4 v^2
    return make_kernel(2, 2, {(1, 2): math.sqrt(sigma2) / 2.0})


def constant_kernel(N: int, sigma2: float = 1.0) -> SymmetricKernel:
    """Order-2 kernel constant off the diagonal, E[Q^2] = sigma2."""
    if N < 2:
        raise ValidationError(f"constant family needs N >= 2, got {N}")
    _require_within_cap(N * (N - 1) // 2, f"constant family N={N} has")
    c = math.sqrt(sigma2 / (2.0 * N * (N - 1)))
    rows = np.column_stack(np.triu_indices(N, k=1)) + 1
    return kernel_from_arrays(2, N, rows, np.full(len(rows), c))


def disjoint_pairs(m: int, sigma2: float = 1.0) -> SymmetricKernel:
    """m disjoint index pairs (2k-1, 2k), each with weight sqrt(sigma2)/(2 sqrt(m))."""
    if m < 1:
        raise ValidationError(f"disjoint_pairs needs m >= 1, got {m}")
    _require_within_cap(m, f"disjoint_pairs m={m} has")
    v = math.sqrt(sigma2 / (4.0 * m))
    odd = np.arange(1, 2 * m, 2)
    return kernel_from_arrays(2, 2 * m, np.column_stack([odd, odd + 1]), np.full(m, v))


def walsh_kernel(d: int, N: int, sigma2: float = 1.0) -> SymmetricKernel:
    """Kernel of x_1 ... x_{d-1} * sum_{i>=d} x_i / sqrt(N-d+1), E[Q^2] = sigma2."""
    if d < 2 or N <= d:
        raise ValidationError(f"walsh family needs N > d >= 2, got d={d}, N={N}")
    _require_within_cap(N - d + 1, f"walsh family d={d}, N={N} has")
    v = math.sqrt(sigma2) / (math.factorial(d) * math.sqrt(N - d + 1))
    rows = np.column_stack([np.tile(np.arange(1, d), (N - d + 1, 1)), np.arange(d, N + 1)])
    return kernel_from_arrays(d, N, rows, np.full(N - d + 1, v))


def random_sparse_kernel(
    d: int,
    N: int,
    *,
    seed: int = 0,
    sigma2: float = 1.0,
    entry_count: int | None = None,
) -> SymmetricKernel:
    """Seeded random support with standard-normal weights, normalized to sigma2."""
    if d < 1 or N < d:
        raise ValidationError(f"random_sparse needs N >= d >= 1, got d={d}, N={N}")
    total = math.comb(N, d)
    if entry_count is None:
        entry_count = min(total, max(2 * N, 8))
    if not 1 <= entry_count <= total:
        raise ValidationError(
            f"entry_count {entry_count} outside 1..{total} for d={d}, N={N}"
        )
    rng = np.random.default_rng(seed)
    if total <= 200_000:
        support = list(itertools.combinations(range(1, N + 1), d))
        chosen = [support[i] for i in rng.choice(total, size=entry_count, replace=False)]
    else:
        _require_within_cap(entry_count, f"random_sparse d={d}, N={N} samples")
        seen: set = set()
        while len(seen) < entry_count:
            seen.add(tuple(sorted(rng.choice(N, size=d, replace=False) + 1)))
        chosen = sorted(seen)
    values = rng.standard_normal(entry_count)
    values[values == 0.0] = 1.0  # keep the support size deterministic
    return normalize_to_variance(kernel_from_arrays(d, N, chosen, values), sigma2)


def generate_family(family: str, d: int, size: int, sigma2: float, seed: int) -> SymmetricKernel:
    """The named family's kernel; `size` is N, or the pair count m of
    disjoint_pairs, and single_pair ignores it.  The order, the dimension
    and the family's entry count (N(N-1)/2 for constant, m for
    disjoint_pairs, N-d+1 for walsh) are checked before any array is built."""
    _require_positive_sigma2(sigma2)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if family in ("single_pair", "constant", "disjoint_pairs") and d != 2:
        raise ValidationError(f"{family} family requires d = 2")
    check_order(d)
    check_dimension({"disjoint_pairs": 2 * size, "single_pair": 2}.get(family, size))
    if family == "single_pair":
        return single_pair(sigma2)
    if family == "constant":
        return constant_kernel(size, sigma2)
    if family == "disjoint_pairs":
        return disjoint_pairs(size, sigma2)
    if family == "walsh":
        return walsh_kernel(d, size, sigma2)
    if family == "random_sparse":
        return random_sparse_kernel(d, size, seed=seed, sigma2=sigma2)
    raise ValidationError(f"unknown family {family!r}; know {FAMILY_TAGS}")


# ---------------------------------------------------------------------------
# Kernel file format
# ---------------------------------------------------------------------------

KERNEL_MAGIC = "artifact-kernel v1"


# records formatted, encoded and written at once
WRITE_BLOCK = 1 << 16


def _text_blocks(f: SymmetricKernel):
    """The canonical text form, a header and then one `i1 ... id value`
    record per entry, in pieces: the header with the first WRITE_BLOCK
    records, then the next WRITE_BLOCK records at a time.

    Indices are written with str() and values with repr(), which round-trips
    doubles exactly, and records are sorted, so write -> read -> write is
    byte identical.  C-level loops build each block's records: `np.unique`
    finds its distinct values and the indices it uses, each of these gets
    one str() or repr(), an object-array gather puts the texts back in
    record order and `" ".join` is mapped over the zipped columns.  No table
    spans range(N), which may hold 2^32 indices.
    """
    head = f"{KERNEL_MAGIC}\nd {f.d}\nN {f.N}\n"
    if f.entry_count == 0:
        yield head
    for lo in range(0, f.entry_count, WRITE_BLOCK):
        index = f.index_array[lo : lo + WRITE_BLOCK]
        used, at = np.unique(index, return_inverse=True)
        names = np.array([str(i) for i in (used + 1).tolist()], dtype=object)
        names = names[at.reshape(index.shape)]
        distinct, at = np.unique(f.value_array[lo : lo + WRITE_BLOCK], return_inverse=True)
        texts = np.array([repr(v) for v in distinct.tolist()], dtype=object)[at]
        yield head + "\n".join(map(" ".join, zip(*names.T, texts))) + "\n"
        head = ""


def write_kernel(f: SymmetricKernel, path) -> None:
    """Write the canonical text form of f to `path` as UTF-8, one block of
    records at a time, so memory does not grow with the file.  The header
    and the first block are formatted before the file is opened."""
    blocks = (text.encode("utf-8") for text in _text_blocks(f))
    first = next(blocks)
    with open(path, "wb") as fh:
        fh.write(first)
        fh.writelines(blocks)


def read_kernel(path) -> SymmetricKernel:
    """The kernel in a kernel file.  Lines end where `str.splitlines` ends
    them and blank ones are skipped; after the three header lines, each
    record is d indices and a value separated by whitespace, and
    `np.loadtxt` parses the records as the file is read."""
    with reading(path), open(path, encoding="utf-8") as fh:
        lines = (ln for text in fh for ln in text.splitlines() if ln and not ln.isspace())
        header = list(itertools.islice(lines, 3))
        if not header or header[0].strip() != KERNEL_MAGIC:
            raise ValidationError(f"not a kernel file (expected header {KERNEL_MAGIC!r})")
        try:
            d = int(header[1].split()[1])
            N = int(header[2].split()[1])
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"malformed kernel header: {exc}") from None
        check_order(d)  # loadtxt sets up every field of a record: d must be small
        first = next(lines, None)  # on no records loadtxt only warns
        if first is None:
            raise ValidationError(f"kernel file {path} has no records")
        dtype = [("i", np.int64, (d,)), ("v", np.float64)]
        try:
            records = np.loadtxt(itertools.chain([first], lines), dtype, comments=None, ndmin=1)
        except UnicodeDecodeError:  # a ValueError, left for the `with` to name
            raise
        except ValueError:
            raise ValidationError(_malformed_record(fh, dtype)) from None
    return kernel_from_arrays(d, N, records["i"], records["v"])


def _malformed_record(fh, dtype) -> str:
    """The message for the first record of an open kernel file that
    `np.loadtxt` rejects, quoting it with its file line (from 1, blank lines
    counted, and lines split as `read_kernel` splits them), which numpy's own
    row numbers are not: the file is read again from its start."""
    fh.seek(0)
    lines = enumerate((ln for text in fh for ln in text.splitlines()), 1)
    lines = ((no, ln) for no, ln in lines if ln and not ln.isspace())
    for no, ln in itertools.islice(lines, 3, None):  # past the header
        try:
            np.loadtxt([ln], dtype, comments=None, ndmin=1)
        except ValueError as exc:
            reason = str(exc).partition(" at row")[0]  # numpy's record count
            return f"malformed kernel record {ln!r} at line {no}: {reason}"
    return "malformed kernel record"
