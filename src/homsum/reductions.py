"""The reductions behind every product and norm that reaches a report.

Squared norms and exact moments (`dot`), the values of a homogeneous sum
over a block of input rows (`row_dots`, `row_quadratic_forms`),
contraction Gram matrices (`gram`), empirical covariances (`covariance`)
and the Frobenius norms taken from contractions (`sum_squares`) are
computed here and nowhere else.  The dense products go to BLAS, which
picks the order of its additions by its build, its CPU kernel and its
thread count, so the last bits of these numbers follow those too.  Each
function is the plain numpy expression it names, and no other module of
the package calls `@`, `dot`, `matmul` or `einsum` of its own
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


def covariance(S: np.ndarray) -> np.ndarray:
    """S^T S / n over the n rows of S: the empirical second moments of its
    columns (BLAS GEMM)."""
    return S.T @ S / len(S)


def sum_squares(x: np.ndarray) -> float:
    """sum of x^2 over all entries (numpy's pairwise sum)."""
    return float((x ** 2).sum())
