"""Convergence criteria evaluated on kernel sequences: the fourth-moment
and chi-square sweeps, the de Jong assumption report for one kernel, and
empirical universality experiments across input laws.

A sweep runs a named family over increasing sizes, records the criterion
statistics at every point (fourth moment, contraction norms, chi-square
defect, maximal influence, empirical Kolmogorov distances), and reduces
each statistic series to a trend verdict.  Convergence over a finite sweep
is operationalized as: strictly decreasing up to an absolute tolerance,
with the terminal value below a threshold (for universality: terminal
distances that agree across laws).  Verdicts are pure functions of the
recorded statistics.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field

from . import bounds, contractions, kernels, moments, simulate
from .errors import ValidationError
from .kernels import SymmetricKernel

TREND_TOLERANCE = 1e-9
TERMINAL_THRESHOLD = 0.05

DECREASING = "decreasing"
STAGNANT = "stagnant"


def _typed(value, hint, key: str):
    """`value` as a spec field annotated `hint` (int, str, or a tuple of
    either, which takes one value or a list), else a ValidationError."""
    if typing.get_origin(hint) is tuple:
        items = value if isinstance(value, list) else [value]
        return tuple(_typed(v, typing.get_args(hint)[0], key) for v in items)
    if hint is str and isinstance(value, str):
        return value
    try:
        # bool subclasses int, but `true` is no integer
        if hint is int and not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if hint is int else "text"
    raise ValidationError(f"diagnose spec field {key!r} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SequenceSpec:
    """A diagnose run: its kind, and a family swept over strictly increasing
    sizes with the laws and sampling configuration used for the empirical
    statistics.  The defaults here are the defaults of a spec file."""

    kind: str = "universality"  # a key of REPORTS
    family: str = "disjoint_pairs"
    d: int = 2
    sweep: tuple[int, ...] = ()
    target: str = "normal"  # "normal" | "chi2"
    nu: int = 1
    laws: tuple[str, ...] = ("gaussian",)
    n: int = 10_000
    seed: int = 0
    workers: int = 1
    batch_size: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "sweep", tuple(int(s) for s in self.sweep))
        object.__setattr__(self, "laws", tuple(self.laws))
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])) or not self.sweep:
            raise ValidationError(f"sweep must be nonempty strictly increasing, got {self.sweep}")
        if self.target not in ("normal", "chi2"):
            raise ValidationError(f"target must be 'normal' or 'chi2', got {self.target!r}")
        if self.target == "chi2":
            contractions.check_chi_square(self.d, self.nu)
        # every kind, sampling or not, checks the sampling fields and the last cell's seed
        simulate.SampleConfig(
            n=self.n, seed=self.seed, workers=self.workers, batch_size=self.batch_size
        )
        self.sample_config(len(self.sweep) - 1, len(self.laws) - 1)
        if self.kind not in REPORTS:
            raise ValidationError(f"unknown diagnose kind {self.kind!r}")
        if self.kind == "de_jong" and len(self.laws) > 1:
            # it samples one law: the others would be named in the manifest, never used
            raise ValidationError(f"de_jong takes one law, got {', '.join(self.laws)}")

    @classmethod
    def from_section(cls, section: dict, workers: int | None = None) -> SequenceSpec:
        """The spec of a diagnose file's [sequence] section.  Its keys are the
        field names (`batch` for batch_size), each value of its field's type;
        an unknown key is an error.  `workers`, when given, replaces the
        section's."""
        if workers is not None:
            section = {**section, "workers": workers}
        hints = typing.get_type_hints(cls)
        names = {("batch" if name == "batch_size" else name): name for name in hints}
        unknown = [key for key in section if key not in names]
        if unknown:
            raise ValidationError(f"unknown diagnose spec key {', '.join(map(repr, unknown))}"
                                  f" (known: {', '.join(names)})")
        spec = cls(**{names[k]: _typed(v, hints[names[k]], k) for k, v in section.items()})
        spec._require_read_by_kind(section)
        return spec

    def _require_read_by_kind(self, keys) -> None:
        """Raise when one of the given keys is one the spec's kind does not
        read: a `target` other than its own, `nu` off a chi-square target,
        or `laws`, `n` or `batch` where nothing is sampled.  Every kind reads
        `seed` and `workers`."""
        targets = {"universality": ("normal", "chi2"), "chi_square": ("chi2",)}
        targets = targets.get(self.kind, ("normal",))
        if "target" in keys and self.target not in targets:
            raise ValidationError(f"diagnose kind {self.kind} takes target "
                                  f"{' or '.join(targets)}, got {self.target!r}")
        chi2 = self.kind == "chi_square" or self.kind == "universality" and self.target == "chi2"
        sampled = self.kind in ("universality", "de_jong")
        unread = [k for k in keys if k == "nu" and not chi2
                  or k in ("laws", "n", "batch") and not sampled]
        if unread:
            at = f" at target {self.target}" if self.kind == "universality" else ""
            raise ValidationError(f"diagnose kind {self.kind} does not read "
                                  f"{', '.join(map(repr, unread))}{at}")

    def kernel_at(self, size: int) -> SymmetricKernel:
        sigma2 = 2.0 * self.nu if self.target == "chi2" else 1.0
        return kernels.generate_family(self.family, self.d, size, sigma2, self.seed)

    def sample_config(self, point_index: int, law_index: int = 0) -> simulate.SampleConfig:
        # distinct master seed per (point, law) cell; up to 16 laws keep stride 16
        offset = 1 + point_index * max(16, len(self.laws)) + law_index
        return simulate.SampleConfig(
            n=self.n, seed=self.seed + 7919 * offset, workers=self.workers,
            batch_size=self.batch_size,
        )


@dataclass
class VerdictReport:
    """Per-point statistics with trend verdicts.

    `trends` maps each tracked statistic to decreasing/stagnant; `verdict`
    is the conjunction over `statistics_used` and the sweep's terminal
    condition (None for a single-point sweep, where no trend exists).
    """

    kind: str
    points: list
    trends: dict = field(default_factory=dict)
    verdict: bool | None = None
    statistics_used: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # the verdict rule's constants, written into every report (not fields)
    tolerance = TREND_TOLERANCE
    threshold = TERMINAL_THRESHOLD


def trend_of(series) -> str:
    """Noise-tolerant strict decrease: every step may rise by at most
    TREND_TOLERANCE and the last value sits below the first by more than it."""
    if all(b < a + TREND_TOLERANCE for a, b in zip(series, series[1:])) and (
        series[-1] < series[0] - TREND_TOLERANCE
    ):
        return DECREASING
    return STAGNANT


def assess(points, statistic_names, terminal_ok=None) -> tuple:
    """(trends, verdict): every named statistic must be decreasing, and the
    sweep must end well: `terminal_ok` when given, otherwise every statistic
    ending below TERMINAL_THRESHOLD.  A single point yields no verdict."""
    if len(points) < 2:
        return {}, None
    trends = {name: trend_of([p[name] for p in points]) for name in statistic_names}
    if terminal_ok is None:
        terminal_ok = all(points[-1][name] < TERMINAL_THRESHOLD for name in statistic_names)
    return trends, terminal_ok and all(t == DECREASING for t in trends.values())


def _sweep(kind: str, spec: SequenceSpec, point_stats, terminal=None) -> VerdictReport:
    """Point i holds its size and `point_stats(i, f)` for its kernel f =
    spec.kernel_at(size); `assess` judges every statistic, with
    `terminal(last point)`, when given, as the sweep's (terminal_ok, notes)."""
    points = [{"size": float(size), **point_stats(i, spec.kernel_at(size))}
              for i, size in enumerate(spec.sweep)]
    tracked = [k for k in points[0] if k != "size"]
    terminal_ok, notes = terminal(points[-1]) if terminal else (None, [])
    trends, verdict = assess(points, tracked, terminal_ok)
    return VerdictReport(kind=kind, points=points, trends=trends, verdict=verdict,
                         statistics_used=tracked, notes=notes)


def _norm_stats(norms: contractions.ChaosNorms, skip: int | None = None) -> dict:
    """{contraction_norm_r<r>: ||f *_r f||} for r = 1..d-1 other than `skip`."""
    return {f"contraction_norm_r{r}": norms.gram(r) for r in range(1, norms.f.d) if r != skip}


def _criterion_sweep(kind: str, spec: SequenceSpec, sigma2: float, point_stats) -> VerdictReport:
    """Sweep report tracking every statistic of `point_stats(norms)`, where
    norms is the ChaosNorms record of the kernel normalized to E[Q^2] = sigma2."""
    return _sweep(kind, spec, lambda _, f: point_stats(
        contractions.ChaosNorms(kernels.normalize_to_variance(f, sigma2))))


def fourth_moment_diagnostic(spec: SequenceSpec) -> VerdictReport:
    """Normal-target criterion statistics along the sweep: fourth-moment gap
    |E Q^4 - 3| under Gaussian inputs (exact), every contraction norm, and
    the maximal influence; positive verdict iff all of them decrease to
    below the threshold."""
    return _criterion_sweep("fourth_moment", spec, 1.0, lambda norms: {
        "max_influence": contractions.max_influence(norms.f),
        **_norm_stats(norms),
        "fourth_moment_gap": abs(moments.gaussian_fourth_moment(norms) - 3.0),
    })


def chi_square_diagnostic(spec: SequenceSpec) -> VerdictReport:
    """Chi-square-target criterion statistics: the defect
    ||sym(f *_{d/2} f) - c_d f||_d and the off-critical contraction norms,
    for kernels normalized to E[Q^2] = 2 spec.nu."""
    contractions.check_chi_square(spec.d, spec.nu)
    return _criterion_sweep("chi_square", spec, 2.0 * spec.nu, lambda norms: {
        "chi_square_defect": norms.defect(), **_norm_stats(norms, skip=spec.d // 2),
    })


def de_jong_report(
    f: SymmetricKernel,
    dist: simulate.DistributionSpec,
    config: simulate.SampleConfig,
) -> VerdictReport:
    """Assumption statistics of the two-condition normality criterion for one
    unit-variance kernel: the fourth moment under `dist` (exact where an
    oracle applies, Monte Carlo otherwise), the maximal influence, the
    empirical Kolmogorov distance to the standard normal, and the assembled
    smooth-test bound (test-function budget b3 = 1)."""
    f = kernels.normalize_to_variance(f, 1.0)
    summary = simulate.sample_sums(f, dist, config)
    _, eq4, eq4_exact, eq4_se = moments.estimate_moments(f, dist, config, summary=summary)
    max_inf = contractions.max_influence(f)
    report = bounds.normal_smooth_bound(
        f, bounds.MomentProfile.of_law(dist), bounds.TestFunctionBudget(b3=1.0),
        eq4, eq4_exact, eq4_se,
    )
    stats = {
        "fourth_moment_gap": abs(eq4 - 3.0),
        "fourth_moment_empirical": summary.moment(4),
        "fourth_moment_empirical_se": summary.standard_error(4),
        "max_influence": max_inf,
        "ks_normal": simulate.ks_normal(summary),
        "smooth_bound_total": report.total,
    }
    if eq4_se is not None:
        stats["fourth_moment_se"] = eq4_se
    notes = []
    if max_inf >= TERMINAL_THRESHOLD:
        notes.append(f"influence assumption fails: max influence {max_inf!r} >= {TERMINAL_THRESHOLD}")
    # a sampled moment only fails the check beyond its statistical error
    gap_allowance = TERMINAL_THRESHOLD + (5.0 * eq4_se if eq4_se is not None else 0.0)
    if abs(eq4 - 3.0) >= gap_allowance:
        notes.append(f"fourth-moment assumption fails: |E Q^4 - 3| = {abs(eq4 - 3.0)!r}")
    return VerdictReport(
        kind="de_jong",
        points=[stats],
        verdict=not notes,
        statistics_used=["fourth_moment_gap", "max_influence"],
        notes=notes,
    )


def universality_experiment(spec: SequenceSpec) -> VerdictReport:
    """Empirical universality check: for every listed law, the Kolmogorov
    distance to the target must decrease along the sweep, and the terminal
    distances must agree across laws within 3x the DKW band.  Needs at
    least two distinct laws to compare."""
    laws = [simulate.get_law(name) for name in spec.laws]
    if len({law.name for law in laws}) < max(2, len(laws)):
        # a repeated law's cells would overwrite each other: it would be compared with itself
        raise ValidationError("universality experiment needs two or more distinct laws, got "
                              + ", ".join(spec.laws))
    ks = (functools.partial(simulate.ks_chi2, nu=spec.nu) if spec.target == "chi2"
          else simulate.ks_normal)

    def agreement(last):
        ks_last = [v for k, v in last.items() if k != "size"]
        spread, band = max(ks_last) - min(ks_last), 3.0 * simulate.dkw_epsilon(spec.n)
        return spread <= band, [f"terminal spread {spread!r} vs 3*DKW band {band!r}"]

    return _sweep("universality", spec, lambda i, f: {
        f"ks_{law.name}": ks(simulate.sample_sums(f, law, spec.sample_config(i, li)))
        for li, law in enumerate(laws)
    }, agreement)


REPORTS = {
    "universality": universality_experiment,
    "fourth_moment": fourth_moment_diagnostic,
    "chi_square": chi_square_diagnostic,
    "de_jong": lambda spec: de_jong_report(
        spec.kernel_at(spec.sweep[-1]), simulate.get_law(spec.laws[0]),
        spec.sample_config(len(spec.sweep) - 1),
    ),
}


def run(spec: SequenceSpec) -> VerdictReport:
    """The report of the spec's kind."""
    return REPORTS[spec.kind](spec)
