"""Contractions of a kernel with itself, their norms, influences, and the
chi-square defect statistic.

The rank-r contraction pairs r coordinates of two copies of f:

    (f *_r f)(j_1, ..., j_{2d-2r})
        = sum over a in [N]^r of f(a, j_1, ..., j_{d-r}) * f(a, j_{d-r+1}, ...)

r = d collapses to the squared norm ||f||_d^2, r = 0 is the tensor product.
The result is generally neither symmetric nor vanishing on diagonals.

Norms come in two flavors:

* `contraction_norm` uses the Gram identity
      ||f *_r f||^2 = sum_{a,b in [N]^r} <f(a,.), f(b,.)>^2
  on the slice matrix S (complement (d-r)-subsets by r-subsets), never
  materializing the output.  scipy's sparse product S^T S costs
  sum_k nnz(row k of S)^2 products and walks them twice, the first time
  only counting; when S is at least half full and S^T S fits the cap, the
  same stored values come from the dense product S^T D instead
  (`reductions.gram_values`), with the same bits.
* the symmetrized norm ||sym(f *_r f)|| (`symmetrized_norm`) holds the
  contraction and one leaf (there is no Gram shortcut after averaging over
  coordinate permutations, except for output arity 2 where the contraction
  is already symmetric).  `_symmetrized_slabs` adds, at every entry, all
  (2d-2r)! transposed values in permutation order, one cache-sized slab of
  the output at a time.  f *_r f is often bitwise symmetric within each
  half of its axes and under swapping the halves, so most transposes
  repeat (10 distinct of the 720 at arity 6 when all these symmetries
  hold).  Per slab it holds the output slab and one copy of each of the
  first _MAX_HELD reused distinct transposes, each added wherever its
  permutations fall; the rest are added from strided views.  The sum keeps
  every bit of the plain loop over strided transposes.  Each slab is
  squared where it lies and streamed into `reductions.streamed_sum`.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, reductions
from .errors import CapacityError, ValidationError, check_degrees
from .kernels import SymmetricKernel


@dataclass(frozen=True)
class ContractionTensor:
    """Materialized contraction, dense over [N]^arity."""

    arity: int
    N: int
    values: np.ndarray

    def frobenius_norm(self) -> float:
        return math.sqrt(reductions.sum_squares(self.values))


def _check_rank(f: SymmetricKernel, r: int) -> int:
    if int(r) != r or not 0 <= r <= f.d:
        raise ValidationError(f"contraction rank {r} outside 0..{f.d}")
    return int(r)


def contract(f: SymmetricKernel, r: int) -> ContractionTensor:
    """Materialize f *_r f as a dense tensor on [N]^{2d-2r}; raises
    CapacityError past kernels.MATERIALIZATION_CAP values."""
    r = _check_rank(f, r)
    if r == f.d:
        return ContractionTensor(arity=0, N=f.N, values=np.array(kernels.squared_norm(f)))
    return _dense_contraction(f, r)[0]


def _dense_contraction(f: SymmetricKernel, r: int) -> tuple:
    """(f *_r f, f's dense tensor) for r < d, as `contract` raises past the cap."""
    out_arity = 2 * f.d - 2 * r
    need = max(f.N ** f.d, f.N ** out_arity)
    if need > kernels.MATERIALIZATION_CAP:
        raise CapacityError(f"contraction d={f.d}, r={r}, N={f.N} needs {need} values, "
                            f"cap is {kernels.MATERIALIZATION_CAP}")
    dense = kernels.dense_tensor(f)
    M = dense.reshape(f.N ** r, f.N ** (f.d - r))
    out = reductions.gram(M).reshape((f.N,) * out_arity)
    return ContractionTensor(arity=out_arity, N=f.N, values=out), dense


def _first_seen_ids(rows: np.ndarray) -> tuple:
    """(id of each row, distinct count), rows numbered by first occurrence."""
    order = np.lexsort(rows.T[::-1])  # stable: a group's first position leads it
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[starts]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids, len(first)


def _slice_matrix(f: SymmetricKernel, r: int):
    """Sparse matrix S over (complement (d-r)-subset, r-subset) -> value, rows
    and columns numbered by first occurrence in canonical entry order."""
    import scipy.sparse  # here, not at the top: kernel commands never load scipy
    subsets = list(itertools.combinations(range(f.d), r))
    rest = [[k for k in range(f.d) if k not in s] for s in subsets]
    row_ids, n_rows = _first_seen_ids(f.index_array[:, rest].reshape(-1, f.d - r))
    col_ids, n_cols = _first_seen_ids(f.index_array[:, subsets].reshape(-1, r))
    vals = np.repeat(f.value_array, len(subsets))
    return scipy.sparse.coo_matrix((vals, (row_ids, col_ids)), shape=(n_rows, n_cols)).tocsr()


def contraction_norm(f: SymmetricKernel, r: int) -> float:
    """||f *_r f||_{2d-2r} via the Gram identity, without materialization.

    Over unordered r-subsets A, B with slice vectors S_A, S_B (indexed by
    unordered complements), the ordered-tuple sums factor as

        ||f *_r f||^2 = r!^2 (d-r)!^2 * sum_{A,B} <S_A, S_B>^2,

    i.e. r! (d-r)! times the Frobenius norm of the slice Gram matrix.  Its
    stored values come from scipy's sparse product, or from a dense array
    when the slice matrix is at least half full and the Gram matrix holds
    at most kernels.MATERIALIZATION_CAP values; both give the same values
    in the same order, so the norm has the same bits either way.
    """
    r = _check_rank(f, r)
    if r == f.d or r == 0:
        return kernels.squared_norm(f)
    if f.entry_count == 0:
        return 0.0
    gram_sq = reductions.sum_squares(
        reductions.gram_values(_slice_matrix(f, r), kernels.MATERIALIZATION_CAP))
    return math.factorial(r) * math.factorial(f.d - r) * math.sqrt(gram_sq)


# _symmetrized_slabs works through its output in slabs of about this many
# values, so that the slab and the transposes it holds stay in cache while
# every permutation is added in turn
_SLAB_VALUES = 1 << 14
# at most this many transpose classes are copied per slab (4 MB at most);
# any other class is added from its strided view
_MAX_HELD = 32


def _symmetry_generators(arity: int) -> list:
    """Generators of the symmetries f *_r f can have: the adjacent swaps
    within each half of the axes and, at even arity, the swap of the halves."""
    half = arity // 2
    gens = []
    for i in (*range(half - 1), *range(half, arity - 1)):
        g = list(range(arity))
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    if arity % 2 == 0:
        gens.append(tuple(range(half, arity)) + tuple(range(half)))
    return gens


def _transpose_classes(values: np.ndarray) -> tuple:
    """(the axis permutations in itertools order as rows, for each the
    position of the first permutation whose transpose of values is bitwise
    the same).

    Only generators under which values is unchanged are used, so transposes
    merge where equality holds bitwise and nowhere else.  array_equal takes
    -0.0 == 0.0; that is harmless here, since a sum started at +0.0 never
    holds -0.0 and adding a zero of either sign to it gives the same bits.
    """
    arity = values.ndim
    perms = np.array(list(itertools.permutations(range(arity))), dtype=np.int64)
    digits = arity ** np.arange(arity - 1, -1, -1)
    codes = perms @ digits  # ascending: itertools lists permutations in lexicographic order
    # transpose(values, p) equals transpose(transpose(values, g), p), which is
    # transpose(values, g[p]); each move maps the position of p to that of g[p]
    moves = [np.searchsorted(codes, np.array(g)[perms] @ digits)
             for g in _symmetry_generators(arity)
             if np.array_equal(np.transpose(values, g), values)]
    first = np.arange(len(perms))
    while True:  # each generator is an involution: spread the least position over its orbit
        spread = first
        for move in moves:
            spread = np.minimum(spread, spread[move])
        if np.array_equal(spread, first):
            return perms, first.tolist()
        first = spread


def _slabs(shape: tuple):
    """Index tuples that cut a C-ordered array of this shape into contiguous
    runs of whole trailing rows, about _SLAB_VALUES values each."""
    axis, inner = len(shape) - 1, 1
    while axis > 0 and inner * shape[axis] <= _SLAB_VALUES:
        inner *= shape[axis]
        axis -= 1
    step = max(1, _SLAB_VALUES // inner)
    for lead in itertools.product(*map(range, shape[:axis])):
        for lo in range(0, shape[axis], step):
            yield lead + (slice(lo, lo + step),)


def _symmetrized_slabs(T: ContractionTensor):
    """(index, values) of sym(T) slab by slab in C order: `values` is a new
    array holding sym(T)[index], the average over all coordinate
    permutations (a scalar T counts as one value).

    Every entry adds its (arity)! transposed values one by one, starting at
    0.0 and in itertools.permutations order, then divides by (arity)!.
    Transposes that are bitwise equal (found from the symmetries T's values
    have) form a class.  The first _MAX_HELD non-identity classes used more
    than once, in order of first use, are copied once per slab and the copy
    is added for each member; every other class is added from its strided
    view.  Either way each slab is bitwise that of adding every strided
    transpose in turn.
    """
    values = np.atleast_1d(T.values)
    perms, first = _transpose_classes(values)
    uses = collections.Counter(first)  # classes in order of first use
    copied = [c for c, n in uses.items() if c and n > 1][:_MAX_HELD]
    views = {c: np.transpose(values, perms[c]) for c in uses}
    for slab in _slabs(values.shape):
        parts = {c: view[slab] for c, view in views.items()}
        for c in copied:
            parts[c] = parts[c].copy()
        out = np.zeros(parts[0].shape)
        for c in first:
            out += parts[c]
        out /= math.factorial(values.ndim)
        yield slab, out


def symmetrized_norm(T: ContractionTensor, minus=None) -> float:
    """||sym(T)||, or ||sym(T) - c F|| when minus = (c, F) with F an array
    of T's shape, over all ordered tuples.

    sym(T) is never held whole: each slab of it is squared where it lies
    and streamed into reductions.streamed_sum, which gives the bits of
    numpy's sum over the full array of squares.
    """
    def squares():
        for slab, values in _symmetrized_slabs(T):
            if minus is not None:
                values -= minus[0] * minus[1][slab]
            yield np.square(values, out=values).reshape(-1)
    return math.sqrt(reductions.streamed_sum(squares(), T.values.size))


class ChaosNorms:
    """The Wiener-chaos norms of one kernel f, each computed on its first
    request and kept: Gram norms ||f *_r f||, symmetrized norms
    ||sym(f *_r f)|| and the chi-square defect."""

    def __init__(self, f: SymmetricKernel):
        self.f, self._memo = f, {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def gram(self, r: int) -> float:
        """||f *_r f|| by the Gram identity (no cap)."""
        return self._get(("gram", r), lambda: contraction_norm(self.f, r))

    def exact_symmetrized(self, r: int) -> float:
        """||sym(f *_r f)||; raises CapacityError past the cap."""
        r = _check_rank(self.f, r)
        if r >= self.f.d - 1:
            return self.gram(r)
        return self._get(("sym", r), lambda: symmetrized_norm(contract(self.f, r)))

    def rank_sum(self, ranks, weight, acc: float = 0.0, exact: bool = False) -> tuple:
        """(acc + sum over ranks of weight(r) * ||sym(f *_r f)||^2, exact),
        added one rank after another in the order given.  With exact=True a
        norm past the cap raises CapacityError; otherwise its Gram norm
        stands in and exact is False."""
        all_exact = True
        for r in ranks:
            try:
                value = self.exact_symmetrized(r)
            except CapacityError:
                if exact:
                    raise
                value, all_exact = self.gram(r), False
            acc += weight(r) * value ** 2
        return acc, all_exact

    def defect(self) -> float:
        """chi_square_defect(f); raises CapacityError past the cap."""
        return self._get("defect", lambda: chi_square_defect(self.f))


def chaos_norms(f) -> ChaosNorms:
    """f when it already is a ChaosNorms record, else f's record."""
    return f if isinstance(f, ChaosNorms) else ChaosNorms(f)


def influence_profile(f: SymmetricKernel) -> np.ndarray:
    """Influence of each index i (an (N,) array): sum of squared canonical
    entries containing i.

    Equals (d-1)!^{-1} times the ordered-tuple sum of f^2 over tuples whose
    first coordinate is i.  The influences sum to ||f||_d^2 / (d-1)!.
    """
    squares = np.repeat(f.value_array * f.value_array, f.d)
    # bincount adds in entry order, one index at a time
    return np.bincount(f.index_array.ravel(), weights=squares, minlength=f.N)


def max_influence(f: SymmetricKernel) -> float:
    return float(influence_profile(f).max())


def check_chi_square(d: int, nu=None, f: SymmetricKernel | None = None) -> None:
    """The preconditions of every chi-square quantity: nu (when given) a
    positive integer; the order d even and >= 2; f (when given) normalized
    to E[Q^2] = 2 nu.  Each failure is a ValidationError."""
    if nu is not None:
        check_degrees(nu)
    if d % 2 != 0 or d < 2:
        raise ValidationError(f"chi-square approximation needs even order >= 2, got d={d}")
    if f is not None:
        kernels.require_second_moment(f, 2.0 * nu)


def chi_square_match_constant(d: int) -> float:
    """The constant c_d = 4 ((d/2)!)^3 / (d!)^2 in the chi-square criterion."""
    check_chi_square(d)
    return 4.0 * math.factorial(d // 2) ** 3 / math.factorial(d) ** 2


def chi_square_defect(f: SymmetricKernel) -> float:
    """|| sym(f *_{d/2} f) - c_d * f ||_d over all ordered tuples of [N]^d.

    The symmetrized half-contraction carries diagonal mass; f is extended by
    zero there, so the defect norm runs over the full cube.
    """
    c_d = chi_square_match_constant(f.d)  # rejects an odd order
    T, F = _dense_contraction(f, f.d // 2)
    return symmetrized_norm(T, minus=(c_d, F))


def crux_gap(f: SymmetricKernel) -> tuple:
    """(||f *_{d-1} f||_2^2, ((d-1)! * max influence)^2); first >= second always.

    The squared rank-(d-1) contraction norm dominates the sum of squared
    diagonal entries, whose maximum is ((d-1)! * max_i Inf_i)^2.
    """
    if f.d < 2:
        raise ValidationError(f"crux gap needs d >= 2, got d={f.d}")
    lhs = contraction_norm(f, f.d - 1) ** 2
    rhs = (math.factorial(f.d - 1) * max_influence(f)) ** 2
    return lhs, rhs
