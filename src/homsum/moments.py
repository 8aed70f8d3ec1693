"""Exact and reference moment computations.

Covers probabilists' Hermite polynomials, centered chi-square target
moments, Gaussian-input moments of the multilinear form (second and cross
moments in closed form, the fourth moment from symmetrized contraction
norms), an exact sign-enumeration oracle for Rademacher inputs, the
hypercontractive moment bound, and the moment-transfer bound between input
laws with matching second moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contractions, kernels, simulate
from .bounds import EXACT, MONTE_CARLO
from .errors import (
    EnumerationTooLarge,
    InvalidDegrees,
    ParameterOutOfRange,
)
from .kernels import SymmetricKernel

ENUMERATION_MAX_N = 22


def hermite(q: int, x):
    """Probabilists' Hermite polynomial H_q(x).

    H_0 = 1, H_1 = x, and H_{q+1}(x) = x H_q(x) - q H_{q-1}(x) (the
    recurrence generated by f -> x f - f').  Accepts scalars or arrays.
    """
    if int(q) != q or q < 0:
        raise ParameterOutOfRange(f"Hermite degree must be a nonnegative integer, got {q}")
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if q == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def chi_square_moments(nu: int) -> tuple:
    """(E Z^2, E Z^3, E Z^4) for the centered chi-square with nu degrees."""
    if int(nu) != nu or nu < 1:
        raise InvalidDegrees(f"degrees of freedom must be a positive integer, got {nu}")
    nu = int(nu)
    return 2.0 * nu, 8.0 * nu, 12.0 * nu ** 2 + 48.0 * nu


def gaussian_second_moment(f: SymmetricKernel) -> float:
    """E[Q_d(G)^2] = d! ||f||_d^2 (holds for any unit-variance inputs)."""
    return kernels.second_moment(f)


def gaussian_cross_moment(f: SymmetricKernel, g: SymmetricKernel) -> float:
    """E[Q(f) Q(g)]: zero across different orders, else d! times the
    ordered-tuple inner product of the kernels."""
    if f.d != g.d:
        return 0.0
    dfact = math.factorial(f.d)
    _, fi, gi = np.intersect1d(
        kernels.row_keys(f.index_array), kernels.row_keys(g.index_array),
        assume_unique=True, return_indices=True,
    )
    order = np.argsort(fi)  # shared tuples in canonical order, summed one by one
    products = f.value_array[fi[order]] * g.value_array[gi[order]]
    acc = float(np.cumsum(products)[-1]) if products.size else 0.0
    return dfact * dfact * acc


def gaussian_fourth_moment(
    f, cap: int = contractions.DEFAULT_MATERIALIZATION_CAP
) -> float:
    """E[Q_d(G)^4] for a kernel with E[Q^2] = 1, from contraction norms:

        3 + 3d * sum_{r=1}^{d-1} r!(r-1)! C(d,r)^2 C(d-1,r-1)^2 (2d-2r)!
                 * || sym(f *_r f) ||^2.

    Exact; always >= 3, with equality only when all contractions vanish.
    f is a kernel or its contractions.ChaosNorms record; a symmetrized norm
    past the cap raises MaterializationTooLarge.
    """
    norms = contractions.chaos_norms(f, cap)
    kernels.require_second_moment(norms.f, 1.0)
    d = norms.f.d
    acc = 0.0
    for r in range(1, d):
        acc += (
            math.factorial(r)
            * math.factorial(r - 1)
            * math.comb(d, r) ** 2
            * math.comb(d - 1, r - 1) ** 2
            * math.factorial(2 * d - 2 * r)
            * norms.exact_symmetrized(r) ** 2
        )
    return 3.0 + 3.0 * d * acc


def gaussian_chi_square_combination(
    f, nu: int, cap: int = contractions.DEFAULT_MATERIALIZATION_CAP
) -> float:
    """E[Q^4(G)] - 12 E[Q^3(G)] for an even-order kernel with E[Q^2] = 2 nu,
    exactly from contraction norms:

        12 nu^2 - 48 nu
        + 24 d! || f - (1/c_d) sym(f *_{d/2} f) ||_d^2
        + 3 d sum_{r != d/2} r!(r-1)! C(d,r)^2 C(d-1,r-1)^2 (2d-2r)!
              || sym(f *_r f) ||^2.

    This is the observable combination consumed by the chi-square moment
    statistic; the third moment alone has no closed contraction form.  f is
    a kernel or its contractions.ChaosNorms record.
    """
    norms = contractions.chaos_norms(f, cap)
    d = norms.f.d
    if d % 2 != 0:
        raise ParameterOutOfRange(f"needs even order, got d={d}")
    if int(nu) != nu or nu < 1:
        raise InvalidDegrees(f"degrees of freedom must be a positive integer, got {nu}")
    kernels.require_second_moment(norms.f, 2.0 * nu)
    c_d = contractions.chi_square_match_constant(d)
    acc = 24.0 * math.factorial(d) * (norms.defect() / c_d) ** 2
    for r in range(1, d):
        if r == d // 2:
            continue
        acc += (
            3.0
            * d
            * math.factorial(r)
            * math.factorial(r - 1)
            * math.comb(d, r) ** 2
            * math.comb(d - 1, r - 1) ** 2
            * math.factorial(2 * d - 2 * r)
            * norms.exact_symmetrized(r) ** 2
        )
    return 12.0 * nu ** 2 - 48.0 * nu + acc


def estimate_moments(f, law, config, need_third: bool = False, summary=None) -> tuple:
    """(E Q^3, E Q^4, exactness, standard error) under the input law: 2^N
    enumeration for Rademacher inputs with N <= 22, the contraction identity
    for Gaussian inputs unless the third moment is needed (E Q^3 is then
    nan), else Monte Carlo from `summary`, drawn under `config` if not given.
    f is a kernel or its contractions.ChaosNorms record."""
    norms = contractions.chaos_norms(f)
    f = norms.f
    if law.tag == "rademacher" and f.N <= ENUMERATION_MAX_N:
        dist = exact_rademacher_distribution(f)
        return dist.moment(3), dist.moment(4), EXACT, None
    if law.tag == "gaussian" and not need_third:
        return float("nan"), gaussian_fourth_moment(norms), EXACT, None
    if summary is None:
        summary = simulate.sample_sums(f, law, config)
    return summary.moment(3), summary.moment(4), MONTE_CARLO, summary.standard_error(4)


@dataclass(frozen=True)
class ExactDistribution:
    """Finite law as sorted atoms with probabilities summing to 1."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        p = np.asarray(self.probabilities, dtype=np.float64)
        if v.shape != p.shape or v.ndim != 1:
            raise ParameterOutOfRange("atoms and probabilities must be matching 1-d arrays")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ParameterOutOfRange("probabilities must be nonnegative and sum to 1")
        if np.any(np.diff(v) < 0):
            raise ParameterOutOfRange("atom values must be sorted ascending")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    def moment(self, k: int) -> float:
        return float(np.dot(self.probabilities, self.values ** k))

    def abs_moment(self, k: float) -> float:
        return float(np.dot(self.probabilities, np.abs(self.values) ** k))

    def cdf(self, x: float) -> float:
        return float(self.probabilities[self.values <= x].sum())


def exact_rademacher_distribution(f: SymmetricKernel) -> ExactDistribution:
    """Exact law of Q_d(N, f, eps) for i.i.d. signs, by 2^N enumeration.

    Each entry contributes d! * value * (-1)^{popcount(pattern & mask)};
    the traversal order is fixed, so equal sign configurations produce
    bitwise-equal atoms and collapse under exact uniqueness.
    """
    if f.N > ENUMERATION_MAX_N:
        raise EnumerationTooLarge(
            f"exact enumeration needs N <= {ENUMERATION_MAX_N}, got N={f.N}"
        )
    n_patterns = 1 << f.N
    codes = np.arange(n_patterns, dtype=np.uint64)
    q = np.zeros(n_patterns)
    dfact = float(math.factorial(f.d))
    masks = (np.uint64(1) << f.index_array.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    for mask, v in zip(masks, f.value_array.tolist()):
        parity = (np.bitwise_count(codes & mask) & np.uint64(1)).astype(np.float64)
        q += (dfact * v) * (1.0 - 2.0 * parity)
    atoms, counts = np.unique(q, return_counts=True)
    return ExactDistribution(values=atoms, probabilities=counts / n_patterns)


def hypercontractivity_check(
    moment_q: float, moment_2: float, q: float, d: int, gamma: float
) -> tuple:
    """Check E|Q|^q <= gamma^d (2 sqrt(q-1))^{qd} E[Q^2]^{q/2}.

    Returns (ok, slack) with slack = bound - moment_q; a genuine violation
    (beyond the caller's statistical error) indicates an implementation bug
    upstream, not a property of the inputs.
    """
    if q < 2:
        raise ParameterOutOfRange(f"hypercontractivity check needs q >= 2, got {q}")
    bound = gamma ** d * (2.0 * math.sqrt(q - 1.0)) ** (q * d) * moment_2 ** (q / 2.0)
    return moment_q <= bound, bound - moment_q


def moment_transfer_bound(
    d: int, l: int, m: int, alpha: float, M: float, max_inf: float
) -> float:
    """Bound on |E Q_d(X)^l - E Q_d(Y)^l| for input laws matching moments up
    to order k = 2, both with m-th absolute moments <= alpha:

        c * M^{l-1} * max(max_inf^{1/2}, max_inf^{l/2-1}),
        c = 2^{l+1} (d-1)!^{-1} alpha^{dl/m} (2 sqrt(l-1))^{(2d-1) l} d!^{l-1}.
    """
    k = 2
    if m <= k:
        raise ParameterOutOfRange(f"need m > {k}, got m={m}")
    if not k + 1 <= l <= m:
        raise ParameterOutOfRange(f"need {k + 1} <= l <= m, got l={l}")
    if alpha < 1 or M < 1:
        raise ParameterOutOfRange(f"need alpha >= 1 and M >= 1, got alpha={alpha}, M={M}")
    if not 0.0 <= max_inf <= 1.0:
        raise ParameterOutOfRange(f"need max influence in [0, 1], got {max_inf}")
    c = (
        2.0 ** (l + 1)
        / math.factorial(d - 1)
        * alpha ** (d * l / m)
        * (2.0 * math.sqrt(l - 1.0)) ** ((2 * d - 1) * l)
        * math.factorial(d) ** (l - 1)
    )
    return c * M ** (l - k + 1) * max(max_inf ** ((k - 1) / 2.0), max_inf ** (l / 2.0 - 1.0))
