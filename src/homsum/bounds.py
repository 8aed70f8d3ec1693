"""Explicit approximation bounds for homogeneous sums.

Univariate normal: the contraction statistic t1 with its smooth-test
constant c_star, the fourth-moment statistic t2 (t1 <= t2), the full
smooth-test bound combining the invariance term with the Gaussian-chaos
term, and the Wasserstein bound with its applicability threshold.

Chi-square: t3/t4 for even order and the corresponding smooth-test bound
with the max(sqrt(2 pi / nu), 1/nu + 2/nu^2) prefactor.

Multivariate: the pairwise contraction statistic delta_ij and the
smooth-test bound over vectors of sums.

All bounds are plain floats assembled into BoundReport records whose totals
recompute exactly from their serialized components.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import contractions, kernels
from .errors import ValidationError
from .kernels import SymmetricKernel

EXACT = "exact"
UPPER_BOUND = "upper-bound"
MONTE_CARLO = "monte-carlo"
UNAVAILABLE = "unavailable:capacity"  # a statistic that needs a contraction past the cap


@dataclass(frozen=True)
class TestFunctionBudget:
    """Derivative budget of the test function: a = |phi'(0)|, b = |phi''(0)|,
    b3 = sup |phi'''|; b2m/b3m are the multivariate sup norms under the
    multi-index normalization."""

    a: float = 0.0
    b: float = 0.0
    b3: float = 0.0
    b2m: float = 0.0
    b3m: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "b3", "b2m", "b3m"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails
                raise ValidationError(f"budget field {name} must be finite and >= 0")


@dataclass(frozen=True)
class MomentProfile:
    """Uniform input-moment bounds: beta3 >= sup E|X_i|^3, beta4 >= sup E X_i^4."""

    beta3: float
    beta4: float

    def __post_init__(self):
        if not (1.0 <= self.beta3 < math.inf and 1.0 <= self.beta4 < math.inf):  # NaN fails
            raise ValidationError(
                "unit-variance laws force finite beta3 >= 1 and beta4 >= 1, got "
                f"beta3={self.beta3}, beta4={self.beta4}"
            )

    @classmethod
    def of_law(cls, law) -> MomentProfile:
        """The exact profile of a `simulate.DistributionSpec`."""
        return cls(beta3=law.abs_moment3, beta4=law.moment4)

    @property
    def alpha(self) -> float:
        return max(3.0, self.beta4)


@dataclass
class BoundReport:
    """Evaluated bound with its named components.

    `components` carries plain floats under stable names; `recompute_total`
    reassembles the headline bound from them, and serialization preserves
    doubles exactly, so totals are reproducible from a written report.
    """

    kind: str
    components: dict
    exactness: dict = field(default_factory=dict)
    total: float = float("nan")
    applicable: bool = True
    delta: np.ndarray | None = None
    mc_standard_error: float | None = None

    def recompute_total(self) -> float:
        c = self.components
        if self.kind in ("normal", "chi2"):
            scale = c["c_star"] if self.kind == "normal" else c["prefactor"]
            factor = math.sqrt((c["d"] - 1) / (3.0 * c["d"]))
            return c["invariance"] + scale * factor * (c["moment_term"] + c["influence_term"])
        if self.kind == "wasserstein":
            if not self.applicable:
                return float("nan")
            return 4.0 * (c["b1"] + c["b2"]) ** (1.0 / 3.0)
        if self.kind == "multivariate":
            return c["b2m"] * c["delta_total"] + c["b3m"] * c["mixing_term"]
        raise ValidationError(f"unknown report kind {self.kind!r}")


def _assembled(bound):
    """Each bound's report is finished here: its total is recomputed from its
    components, and a term that overflows, or a component or total that is
    not finite (bar the nan total of an inapplicable Wasserstein bound),
    raises ValidationError naming the moment profile, the test-function
    budget when the bound takes one, and the order."""

    @functools.wraps(bound)
    def assembled(f, profile: MomentProfile, *args, **kwargs) -> BoundReport:
        try:
            report = bound(f, profile, *args, **kwargs)
            report.total = report.recompute_total()
            values = [*report.components.values(), report.total if report.applicable else 0.0]
        except OverflowError:
            values = [math.inf]
        if not all(map(math.isfinite, values)):
            d = f.d if isinstance(f, SymmetricKernel) else ",".join(str(g.d) for g in f)
            budget = "".join(f" and the budget {a}" for a in (*args, *kwargs.values())
                             if isinstance(a, TestFunctionBudget))
            raise ValidationError(
                f"{bound.__name__} overflows or is not finite for the moment profile "
                f"beta3={profile.beta3!r}, beta4={profile.beta4!r}{budget} at d={d}")
        return report

    return assembled


# ---------------------------------------------------------------------------
# Univariate normal approximation
# ---------------------------------------------------------------------------

def c_star(budget: TestFunctionBudget, d: int) -> float:
    """Smooth-test constant:

        4 sqrt(2) (1 + 5^{3d/2})
          * max(1.5 b + (b3/3)(2 sqrt(2)/sqrt(pi)), 2 a + b3/3).
    """
    kernels.check_order(d)
    inner = max(
        1.5 * budget.b + (budget.b3 / 3.0) * (2.0 * math.sqrt(2.0) / math.sqrt(math.pi)),
        2.0 * budget.a + budget.b3 / 3.0,
    )
    return 4.0 * math.sqrt(2.0) * (1.0 + 5.0 ** (1.5 * d)) * inner


def _contraction_sum(norms, ranks) -> tuple:
    """(d^2 sum_{r in ranks} (r-1)!^2 C(d-1,r-1)^4 (2d-2r)! ||sym(f *_r f)||^2,
    exactness); past the cap the Gram norm, an upper bound, stands in for
    the symmetrized norm and the sum is flagged "upper-bound"."""
    d = norms.f.d
    acc, exact = norms.rank_sum(ranks, lambda r: (
        math.factorial(r - 1) ** 2 * math.comb(d - 1, r - 1) ** 4 * math.factorial(2 * d - 2 * r)
    ))
    return d ** 2 * acc, EXACT if exact else UPPER_BOUND


def t1(f) -> tuple:
    """Contraction statistic for the normal approximation of a unit-variance
    kernel:

        sqrt(d^2 sum_{r=1}^{d-1} (r-1)!^2 C(d-1,r-1)^4 (2d-2r)!
             || sym(f *_r f) ||^2).

    Returns (value, exactness); when a symmetrized norm cannot be
    materialized its unsymmetrized upper bound is substituted and the
    result is flagged "upper-bound" (still a valid bound).  f is a kernel
    or its contractions.ChaosNorms record.
    """
    norms = contractions.chaos_norms(f)
    f = norms.f
    if f.d < 2:
        raise ValidationError(f"t1 needs d >= 2, got d={f.d}")
    kernels.require_second_moment(f, 1.0)
    value, exactness = _contraction_sum(norms, range(1, f.d))
    return math.sqrt(value), exactness


def t2(f: SymmetricKernel, fourth_moment: float) -> float:
    """Fourth-moment statistic sqrt(((d-1)/(3d)) |E F^4 - 3|); >= t1 when the
    fourth moment is the exact Gaussian-input value."""
    if f.d < 2:
        raise ValidationError(f"t2 needs d >= 2, got d={f.d}")
    kernels.require_second_moment(f, 1.0)
    return math.sqrt((f.d - 1) / (3.0 * f.d) * abs(fourth_moment - 3.0))


def _invariance_term(d: int, beta: float, b3: float, max_inf: float) -> float:
    """b3 * (30 beta)^d * d! * sqrt(max influence)."""
    return b3 * (30.0 * beta) ** d * math.factorial(d) * math.sqrt(max_inf)


def _influence_term_normal(d: int, alpha: float, max_inf: float) -> float:
    return (
        4.0
        * math.sqrt(2.0)
        * 144.0 ** (d - 0.5)
        * alpha ** (d / 2.0)
        * math.sqrt(d)
        * math.factorial(d)
        * max_inf ** 0.25
    )


@_assembled
def normal_smooth_bound(
    f: SymmetricKernel,
    profile: MomentProfile,
    budget: TestFunctionBudget,
    eq4x: float,
    eq4x_exactness: str = EXACT,
    eq4x_se: float | None = None,
) -> BoundReport:
    """Smooth-test distance to the standard normal for unit-variance kernels:

        invariance + c_star * sqrt((d-1)/(3d)) * (moment_term + influence_term)

    with invariance = b3 (30 beta4)^d d! sqrt(max Inf), moment_term =
    sqrt(|E Q^4 - 3|), and the influence_term carrying the alpha^{d/2}
    (max Inf)^{1/4} correction.  eq4x is supplied by the caller (exact
    enumeration, the Gaussian contraction identity, or Monte Carlo with a
    standard error).
    """
    kernels.require_second_moment(f, 1.0)
    max_inf = contractions.max_influence(f)
    return BoundReport(
        kind="normal",
        components={
            "d": float(f.d),
            "c_star": c_star(budget, f.d),
            "invariance": _invariance_term(f.d, profile.beta4, budget.b3, max_inf),
            "moment_term": math.sqrt(abs(eq4x - 3.0)),
            "influence_term": _influence_term_normal(f.d, profile.alpha, max_inf),
            "eq4x": eq4x,
            "max_influence": max_inf,
        },
        exactness={"eq4x": eq4x_exactness},
        mc_standard_error=eq4x_se,
    )


@_assembled
def wasserstein_bound(
    f: SymmetricKernel,
    profile: MomentProfile,
    eq4x: float,
    eq4x_exactness: str = EXACT,
    eq4x_se: float | None = None,
) -> BoundReport:
    """Wasserstein distance to the standard normal: 4 (B1 + B2)^{1/3},
    valid only when B1 + B2 <= 3/(4 sqrt(2)); otherwise the report is
    marked inapplicable and carries no number."""
    kernels.require_second_moment(f, 1.0)
    max_inf = contractions.max_influence(f)
    b1 = _invariance_term(f.d, profile.beta4, 2.0, max_inf)
    factor = math.sqrt((f.d - 1) / (3.0 * f.d)) if f.d > 1 else 0.0
    b2 = (
        12.0
        * math.sqrt(2.0)
        * (1.0 + 5.0 ** (1.5 * f.d))
        * factor
        * (math.sqrt(abs(eq4x - 3.0)) + _influence_term_normal(f.d, profile.alpha, max_inf))
    )
    threshold = 3.0 / (4.0 * math.sqrt(2.0))
    applicable = b1 + b2 <= threshold
    return BoundReport(
        kind="wasserstein",
        components={"d": float(f.d), "b1": b1, "b2": b2, "threshold": threshold},
        exactness={"eq4x": eq4x_exactness},
        applicable=applicable,
        mc_standard_error=eq4x_se,
    )


# ---------------------------------------------------------------------------
# Chi-square approximation
# ---------------------------------------------------------------------------

def t3(f, nu: int) -> tuple:
    """Chi-square contraction statistic for a kernel with E[Q^2] = 2 nu:

        [ 4 d! || f - (1/c_d) sym(f *_{d/2} f) ||_d^2
          + d^2 sum_{r != d/2} (r-1)!^2 C(d-1,r-1)^4 (2d-2r)!
                || sym(f *_r f) ||^2 ]^{1/2}

    with c_d = 4 ((d/2)!)^3 / (d!)^2.  Returns (value, exactness); the
    critical d/2 term always requires materialization.  f is a kernel or
    its contractions.ChaosNorms record.
    """
    norms = contractions.chaos_norms(f)
    f = norms.f
    contractions.check_chi_square(f.d, nu, f)
    c_d = contractions.chi_square_match_constant(f.d)
    first = 4.0 * math.factorial(f.d) * (norms.defect() / c_d) ** 2
    rest, exactness = _contraction_sum(norms, [r for r in range(1, f.d) if r != f.d // 2])
    return math.sqrt(first + rest), exactness


def t4(eq3: float, eq4: float, nu: int, d: int) -> float:
    """Chi-square moment statistic
    sqrt(((d-1)/(3d)) |E F^4 - 12 E F^3 - 12 nu^2 + 48 nu|); >= t3 with
    exact Gaussian-input moments."""
    contractions.check_chi_square(d, nu)
    return math.sqrt((d - 1) / (3.0 * d) * abs(eq4 - 12.0 * eq3 - 12.0 * nu ** 2 + 48.0 * nu))


def chi2_prefactor(nu: int) -> float:
    return max(math.sqrt(2.0 * math.pi / nu), 1.0 / nu + 2.0 / nu ** 2)


@_assembled
def chi_square_smooth_bound(
    f: SymmetricKernel,
    profile: MomentProfile,
    budget: TestFunctionBudget,
    nu: int,
    eq3x: float,
    eq4x: float,
    moments_exactness: str = EXACT,
    moments_se: float | None = None,
) -> BoundReport:
    """Smooth-test distance to the centered chi-square (nu degrees) for
    kernels with E[Q^2] = 2 nu; the test function additionally satisfies
    sup|phi| <= 1 and sup|phi'| <= 1 (recorded, not enforced here):

        invariance
        + max(sqrt(2 pi/nu), 1/nu + 2/nu^2) * sqrt((d-1)/(3d))
          * (moment_term + influence_term).
    """
    contractions.check_chi_square(f.d, nu, f)
    max_inf = contractions.max_influence(f)
    influence_term = (
        4.0
        * math.sqrt(f.d)
        * math.factorial(f.d)
        * (
            math.sqrt(2.0) * 144.0 ** (f.d - 0.5) * profile.alpha ** (f.d / 2.0)
            + math.sqrt(nu)
            * (2.0 * math.sqrt(2.0)) ** (3.0 * (2 * f.d - 1) / 2.0)
            * profile.alpha ** (1.5 * f.d)
        )
        * max_inf ** 0.25
    )
    return BoundReport(
        kind="chi2",
        components={
            "d": float(f.d),
            "nu": float(nu),
            "prefactor": chi2_prefactor(nu),
            "invariance": _invariance_term(f.d, profile.beta4, budget.b3, max_inf),
            "moment_term": math.sqrt(abs(eq4x - 12.0 * eq3x - 12.0 * nu ** 2 + 48.0 * nu)),
            "influence_term": influence_term,
            "eq3x": eq3x,
            "eq4x": eq4x,
            "max_influence": max_inf,
        },
        exactness={"moments": moments_exactness},
        mc_standard_error=moments_se,
    )


# ---------------------------------------------------------------------------
# Multivariate bounds
# ---------------------------------------------------------------------------

def delta_ij(f_i, f_j) -> float:
    """Pairwise contraction statistic for vectors of unit-variance sums
    (requires d_i <= d_j):

        (d_j/sqrt(2)) sum_{r=1}^{d_i-1} (r-1)! C(d_i-1,r-1) C(d_j-1,r-1)
            sqrt((d_i+d_j-2r)!) (||f_i *_{d_i-r} f_i||_{2r}
                                 + ||f_j *_{d_j-r} f_j||_{2r})
        + [d_i < d_j] sqrt(d_j! C(d_j,d_i) ||f_j *_{d_j-d_i} f_j||_{2 d_i}).

    Each argument is a kernel or its contractions.ChaosNorms record.
    """
    n_i, n_j = contractions.chaos_norms(f_i), contractions.chaos_norms(f_j)
    di, dj = n_i.f.d, n_j.f.d
    if di > dj:
        raise ValidationError(f"need d_i <= d_j, got d_i={di}, d_j={dj}")
    kernels.require_second_moment(n_i.f, 1.0)
    kernels.require_second_moment(n_j.f, 1.0)
    acc = 0.0
    for r in range(1, di):
        acc += (
            math.factorial(r - 1)
            * math.comb(di - 1, r - 1)
            * math.comb(dj - 1, r - 1)
            * math.sqrt(math.factorial(di + dj - 2 * r))
            * (n_i.gram(di - r) + n_j.gram(dj - r))
        )
    total = dj / math.sqrt(2.0) * acc
    if di < dj:
        total += math.sqrt(math.factorial(dj) * math.comb(dj, di) * n_j.gram(dj - di))
    return total


def delta_matrix(kernel_list) -> np.ndarray:
    """Symmetric matrix of delta_ij over kernels (or their ChaosNorms
    records), reading one record per kernel."""
    norms = [contractions.chaos_norms(f) for f in kernel_list]
    m = len(norms)
    delta = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            a, b = norms[i], norms[j]
            if a.f.d > b.f.d:
                a, b = b, a
            delta[i, j] = delta[j, i] = delta_ij(a, b)
    return delta


@_assembled
def multivariate_smooth_bound(
    kernel_list, profile: MomentProfile, budget: TestFunctionBudget
) -> BoundReport:
    """Smooth-test distance between a vector of unit-variance sums and the
    Gaussian vector with the matching covariance:

        b2m * (sum_i Delta_ii + 2 sum_{i<j} Delta_ij)
        + C * b3m * (beta3 + sqrt(8/pi))
            * [sum_j (16 sqrt(2) beta3)^{(d_j-1)/3} d_j!]^3
            * sqrt(max_j max_i Inf_i(f_j)),

    with C = sum_i max_j Inf_i(f_j).
    """
    if not kernel_list:
        raise ValidationError("need at least one kernel")
    delta = delta_matrix(kernel_list)  # delta_ij checks each kernel's order and variance
    delta_total = float(np.trace(delta) + 2.0 * np.triu(delta, k=1).sum())
    n_max = max(f.N for f in kernel_list)
    stacked = np.zeros((len(kernel_list), n_max))
    for j, f in enumerate(kernel_list):
        stacked[j, : f.N] = contractions.influence_profile(f)
    per_index_max = stacked.max(axis=0)
    c_sum, max_max_inf = float(per_index_max.sum()), float(per_index_max.max())
    cube = sum(
        (16.0 * math.sqrt(2.0) * profile.beta3) ** ((f.d - 1) / 3.0) * math.factorial(f.d)
        for f in kernel_list
    )
    mixing = c_sum * (profile.beta3 + math.sqrt(8.0 / math.pi)) * cube ** 3 * math.sqrt(max_max_inf)
    components = {
        "m": float(len(kernel_list)),
        "b2m": budget.b2m,
        "b3m": budget.b3m,
        "delta_total": delta_total,
        "c_influence_sum": c_sum,
        "max_max_influence": max_max_inf,
        "mixing_term": mixing,
    }
    return BoundReport(kind="multivariate", components=components, delta=delta)
