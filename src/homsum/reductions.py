"""The reductions behind every product and norm that reaches a report.

Squared norms and exact moments (`dot`), the values of a homogeneous sum
over a block of input rows (`row_dots`, `row_quadratic_forms`),
contraction Gram matrices (`gram`), the stored values of sparse Gram
matrices (`gram_values`), empirical covariances (`covariance`), the
Frobenius norms taken from contractions (`sum_squares`) and the sums of
squares streamed from symmetrized contractions (`streamed_sum`) are
computed here and nowhere else.  The dense products go to BLAS, which
picks the order of its additions by its build, its CPU kernel and its
thread count, so the last bits of these numbers follow those too.  Each
function but `gram_values` and `streamed_sum` is the plain numpy
expression it names; `gram_values` gives the bits of scipy's sparse
product, from that product or from a dense array, and `streamed_sum` the
bits of np.sum over values it never holds all at once.  No other module
of the package calls `@`, `dot`, `matmul` or `einsum` of its own
(`tests/test_reductions.py` scans for them).
"""

from __future__ import annotations

import numpy as np


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i (BLAS dot)."""
    return float(np.dot(a, b))


def row_dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dot of each row with v (BLAS GEMV)."""
    return rows @ v


def row_quadratic_forms(rows: np.ndarray, F: np.ndarray) -> np.ndarray:
    """sum_{i,j} F[i,j] x_i x_j for each row x (one BLAS GEMM, then a row sum)."""
    out = rows @ F
    out *= rows
    return out.sum(axis=1)


def gram(M):
    """M^T M of a dense array (BLAS GEMM) or of a scipy.sparse matrix."""
    return M.T @ M


def gram_values(S, cap: int) -> np.ndarray:
    """The values scipy's sparse product S^T S stores, in its storage order,
    for a CSR matrix S with sorted column indices.

    The sparse product walks every pair of nonzeros in each row of S twice,
    sum_k nnz(row k)^2 products per walk, the first walk only counting.
    When S is at least half full and S^T S has at most `cap` values, the
    same values come from a dense array instead (`_dense_gram_values`).
    """
    rows, cols = S.shape
    if 2 * S.nnz >= rows * cols and cols * cols <= cap:
        return _dense_gram_values(S)
    return gram(S).data


# the dense Gram values are put in order in row blocks of about this many
_ORDER_BLOCK = 1 << 16


def _dense_gram_values(S) -> np.ndarray:
    """gram_values of S from G = S^T D with D = S.toarray(), bit for bit.

    scipy's compressed-times-dense loop adds S[k,i] D[k,j] to G[i,j] over
    ascending k, as the sparse product adds S[k,i] S[k,j]; the zeros of D
    add zeros, which change no sum that is not zero.  The sparse product
    stores row i's nonzero sums in descending order of (k, j), where k is
    the first row of S nonzero at both i and j: it meets column j first in
    that row, meets a row's columns in ascending order and lists the column
    met last first.  The ordered values are written over G row block by
    row block, behind the rows still unread.
    """
    n = S.shape[1]
    G = S.T @ S.toarray()
    first = _first_common_rows(S, G != 0)
    flat, stored = G.reshape(-1), 0
    step = max(1, _ORDER_BLOCK // n)
    for lo in range(0, n, step):
        # ascending (k, j) by a stable sort, then reversed
        order = np.argsort(first[lo:lo + step], axis=1, kind="stable")[:, ::-1]
        values = np.take_along_axis(G[lo:lo + step], order, axis=1)
        values = values[values != 0]
        flat[stored:stored + values.size] = values
        stored += values.size
    return flat[:stored]


def _first_common_rows(S, wanted: np.ndarray) -> np.ndarray:
    """(cols, cols) array holding, wherever `wanted` is true, the first row
    of S nonzero at both the row and the column index.

    The rows of S are walked upward, clearing `wanted` where a row is
    found, until it is empty: a few rows on a full support, each costing
    cols^2.
    """
    n = S.shape[1]
    first = np.zeros((n, n), dtype=np.int32 if S.shape[0] < 2**31 else np.int64)
    k = 0
    while wanted.any():
        here = np.zeros(n, dtype=bool)
        here[S.indices[S.indptr[k]:S.indptr[k + 1]]] = True
        met = np.logical_and.outer(here, here)
        met &= wanted
        np.copyto(first, k, where=met)
        wanted ^= met
        k += 1
    return first


def covariance(S: np.ndarray) -> np.ndarray:
    """S^T S / n over the n rows of S: the empirical second moments of its
    columns (BLAS GEMM)."""
    return S.T @ S / len(S)


def sum_squares(x: np.ndarray) -> float:
    """sum of x^2 over all entries (numpy's pairwise sum)."""
    return float((x ** 2).sum())


# streamed_sum splits its run down to parts of at most this many values
_LEAF = 1 << 16


def streamed_sum(chunks, n: int) -> float:
    """np.sum over the n float64 values that the 1-d arrays `chunks` yield
    in turn, bit for bit, holding at most 2^16 of them at a time.

    numpy's pairwise sum of a contiguous run of more than 128 values adds
    the sum of a first part (`_first_part`) to the sum of the rest.  The
    run is split the same way here until a part holds at most 2^16 values;
    each part is copied from the chunks into one reused buffer and summed
    there by np.sum, and the parts' sums are added up the same tree.  The
    last addition of 0.0 is np.sum's own start value.
    """
    sizes = _leaf_sizes(n, [])
    return 0.0 + _add_up_leaves(n, _leaf_sums(chunks, sizes, np.empty(max(sizes))))


def _leaf_sizes(n: int, sizes: list) -> list:
    """`sizes` extended by the sizes of the parts of a run of n values, in order."""
    if n <= _LEAF:
        sizes.append(n)
    else:
        first = _first_part(n)
        _leaf_sizes(first, sizes)
        _leaf_sizes(n - first, sizes)
    return sizes


def _leaf_sums(chunks, sizes: list, buffer: np.ndarray):
    """The np.sum of each part in turn, its values copied from the chunks
    into the front of `buffer`."""
    chunks, chunk = iter(chunks), buffer[:0]
    for size in sizes:
        filled = 0
        while filled < size:
            if not chunk.size:
                chunk = next(chunks)
            take = min(size - filled, chunk.size)
            buffer[filled:filled + take] = chunk[:take]
            chunk, filled = chunk[take:], filled + take
        yield float(buffer[:size].sum())


def _add_up_leaves(n: int, leaf_sums) -> float:
    """The pairwise sum of a run of n values from its parts' sums, taken
    from `leaf_sums` in order."""
    if n <= _LEAF:
        return next(leaf_sums)
    first = _first_part(n)
    return _add_up_leaves(first, leaf_sums) + _add_up_leaves(n - first, leaf_sums)


def _first_part(n: int) -> int:
    """The size of the first part numpy's pairwise sum splits n values into:
    the largest multiple of 8 at most n / 2."""
    return n // 2 - n // 2 % 8
