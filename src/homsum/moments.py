"""Exact and reference moment computations.

Covers Gaussian-input moments of the multilinear form (the second moment in
closed form, the fourth moment and the chi-square combination
E Q^4 - 12 E Q^3 from symmetrized contraction norms), the dispatcher that
picks exact or Monte Carlo moments for an input law, an exact
sign-enumeration oracle for Rademacher inputs, and the hypercontractive
moment check.

The enumeration splits each sign pattern into its low 12 bits and its high
bits and fills the 2^N sums in cache-sized chunks of outer products of the
two halves' signs: low-bit signs from a table with one row per distinct low
mask, high-bit signs per chunk.  Entries are added in kernel order, so every
atom is bit for bit the sum one popcount pass per entry would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contractions, kernels, reductions, simulate
from .bounds import EXACT, MONTE_CARLO
from .errors import CapacityError, ValidationError
from .kernels import SymmetricKernel

ENUMERATION_MAX_N = 22
_LOW_BITS = 12  # pattern bits held by the columns of the enumeration
_CHUNK_VALUES = 1 << 15  # sums filled per chunk of the enumeration


def gaussian_second_moment(f: SymmetricKernel) -> float:
    """E[Q_d(G)^2] = d! ||f||_d^2 (holds for any unit-variance inputs)."""
    return kernels.second_moment(f)


def gaussian_fourth_moment(f) -> float:
    """E[Q_d(G)^4] for a kernel with E[Q^2] = 1, from contraction norms:

        3 + 3d * sum_{r=1}^{d-1} r!(r-1)! C(d,r)^2 C(d-1,r-1)^2 (2d-2r)!
                 * || sym(f *_r f) ||^2.

    Exact; always >= 3, with equality only when all contractions vanish.
    f is a kernel or its contractions.ChaosNorms record; a symmetrized norm
    past the cap raises CapacityError.
    """
    norms = contractions.chaos_norms(f)
    kernels.require_second_moment(norms.f, 1.0)
    d = norms.f.d
    acc, _ = norms.rank_sum(range(1, d), lambda r: (
        math.factorial(r)
        * math.factorial(r - 1)
        * math.comb(d, r) ** 2
        * math.comb(d - 1, r - 1) ** 2
        * math.factorial(2 * d - 2 * r)
    ), exact=True)
    return 3.0 + 3.0 * d * acc


def gaussian_chi_square_combination(f, nu: int) -> float:
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
    norms = contractions.chaos_norms(f)
    d = norms.f.d
    contractions.check_chi_square(d, nu, norms.f)
    c_d = contractions.chi_square_match_constant(d)
    acc, _ = norms.rank_sum([r for r in range(1, d) if r != d // 2], lambda r: (
        3.0
        * d
        * math.factorial(r)
        * math.factorial(r - 1)
        * math.comb(d, r) ** 2
        * math.comb(d - 1, r - 1) ** 2
        * math.factorial(2 * d - 2 * r)
    ), acc=24.0 * math.factorial(d) * (norms.defect() / c_d) ** 2, exact=True)
    return 12.0 * nu ** 2 - 48.0 * nu + acc


def estimate_moments(f, law, config, need_third: bool = False, summary=None) -> tuple:
    """(E Q^3, E Q^4, exactness, standard error) under the input law: 2^N
    enumeration for Rademacher inputs with N <= 22, the contraction identity
    for Gaussian inputs unless the third moment is needed (E Q^3 is then
    nan) or a contraction is past the cap, else Monte Carlo from `summary`,
    drawn under `config` if not given.  f is a kernel or its
    contractions.ChaosNorms record."""
    norms = contractions.chaos_norms(f)
    f = norms.f
    if law.tag == "rademacher" and f.N <= ENUMERATION_MAX_N:
        dist = exact_rademacher_distribution(f)
        return dist.moment(3), dist.moment(4), EXACT, None
    if law.tag == "gaussian" and not need_third:
        try:
            return float("nan"), gaussian_fourth_moment(norms), EXACT, None
        except CapacityError:
            pass  # sampled below, like any other law
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
            raise ValidationError("atoms and probabilities must be matching 1-d arrays")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError("probabilities must be nonnegative and sum to 1")
        if np.any(np.diff(v) < 0):
            raise ValidationError("atom values must be sorted ascending")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    def moment(self, k: int) -> float:
        return reductions.dot(self.probabilities, self.values ** k)

    def abs_moment(self, k: float) -> float:
        return reductions.dot(self.probabilities, np.abs(self.values) ** k)


def exact_rademacher_distribution(f: SymmetricKernel) -> ExactDistribution:
    """Exact law of Q_d(N, f, eps) for i.i.d. signs, by 2^N enumeration.

    Each entry contributes c = d! * value times (-1)^{popcount(pattern & mask)}.
    A pattern p splits into its low L = min(N, 12) bits and its high N - L
    bits, so that sign is s_hi(p_hi) * s_lo(p_lo).  The sums are held as a
    (2^(N-L), 2^L) array and filled in chunks of rows holding about 2^15
    values: for each entry in kernel order, the chunk gets the outer product
    (c * s_hi[rows]) x s_lo.  Entries go in groups of 8 * 2^(N-L), so a
    group's s_lo table takes no more bytes than the sums.  Every added term
    is exactly +c or -c and each pattern receives its terms in kernel order,
    so equal sign configurations produce bitwise-equal atoms, which collapse
    under exact uniqueness.
    """
    if f.N > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exact enumeration needs N <= {ENUMERATION_MAX_N}, got N={f.N}"
        )
    q = _rademacher_sums(f).reshape(-1)
    q.sort()  # q is private to this call: sort in place, no flattened copy
    patterns = q.size
    # starts[k]: an atom starts at sorted pattern k; the extra last True
    # closes the last atom
    starts = np.empty(patterns + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(q[1:], q[:-1], out=starts[1:-1])
    values = q[starts[:-1]]
    del q  # the 2^N sums go before the counts are built
    probabilities = np.diff(np.flatnonzero(starts)) / patterns
    return ExactDistribution(values=values, probabilities=probabilities)


def _rademacher_sums(f: SymmetricKernel) -> np.ndarray:
    """Q at every sign pattern, as a (2^(N-L), 2^L) array; row h, column l
    holds pattern (h << L) | l."""
    low = min(f.N, _LOW_BITS)
    q = np.zeros((1 << (f.N - low), 1 << low))
    masks = (np.uint64(1) << f.index_array.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    coefficients = float(math.factorial(f.d)) * f.value_array
    group = 8 * q.shape[0]
    for first in range(0, len(masks), group):
        _add_entries(q, masks[first:first + group], coefficients[first:first + group], low)
    return q


def _add_entries(q: np.ndarray, masks: np.ndarray, coefficients: np.ndarray, low: int) -> None:
    """Add coefficients[k] * (-1)^popcount(pattern & masks[k]) to q at every
    pattern, chunk of rows by chunk, entry by entry in order."""
    n_hi, n_lo = q.shape
    lo_masks, lo_ids = np.unique(masks & np.uint64(n_lo - 1), return_inverse=True)
    lo_codes = np.arange(n_lo, dtype=np.uint64)
    lo_signs = np.empty((lo_masks.size, n_lo), dtype=np.int8)  # one row per distinct low mask
    for row, mask in zip(lo_signs, lo_masks):
        row[:] = _signs(lo_codes, mask)
    lo_rows = [lo_signs[i] for i in lo_ids]
    hi_masks = (masks >> np.uint64(low))[:, None]
    rows = min(n_hi, _CHUNK_VALUES >> low)
    term = np.empty((rows, n_lo))
    for start in range(0, n_hi, rows):
        hi_codes = np.arange(start, start + rows, dtype=np.uint64)
        scaled = (coefficients[:, None] * _signs(hi_codes, hi_masks))[:, :, None]
        chunk = q[start:start + rows]
        for column, lo_row in zip(scaled, lo_rows):
            np.multiply(column, lo_row, out=term)
            chunk += term


def _signs(codes: np.ndarray, masks) -> np.ndarray:
    """(-1)^popcount(codes & masks) as float64, broadcasting codes against masks."""
    return 1.0 - 2.0 * (np.bitwise_count(codes & masks) & np.uint8(1))


def hypercontractivity_check(
    moment_q: float, moment_2: float, q: float, d: int, gamma: float
) -> tuple:
    """Check E|Q|^q <= gamma^d (2 sqrt(q-1))^{qd} E[Q^2]^{q/2}.

    Returns (ok, slack) with slack = bound - moment_q; a genuine violation
    (beyond the caller's statistical error) indicates an implementation bug
    upstream, not a property of the inputs.
    """
    if q < 2:
        raise ValidationError(f"hypercontractivity check needs q >= 2, got {q}")
    bound = gamma ** d * (2.0 * math.sqrt(q - 1.0)) ** (q * d) * moment_2 ** (q / 2.0)
    return moment_q <= bound, bound - moment_q
