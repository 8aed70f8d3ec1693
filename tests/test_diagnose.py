import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from homsum import diagnose, kernels, reportio, simulate
from homsum.errors import ValidationError


class TestTrendLogic:
    def test_decreasing(self):
        assert diagnose.trend_of([3.0, 2.0, 1.0]) == diagnose.DECREASING

    def test_constant_is_stagnant(self):
        assert diagnose.trend_of([0.25, 0.25, 0.25]) == diagnose.STAGNANT

    def test_noise_within_tolerance_still_decreasing(self):
        assert diagnose.trend_of([1.0, 0.5 + 5e-10, 0.5, 0.2]) == diagnose.DECREASING

    def test_increase_beyond_tolerance_stagnant(self):
        assert diagnose.trend_of([1.0, 1.5, 0.4]) == diagnose.STAGNANT

    def test_verdict_pure_function_of_points(self):
        points = [{"a": 1.0, "b": 0.2}, {"a": 0.5, "b": 0.2}, {"a": 0.01, "b": 0.2}]
        trends, verdict = diagnose.assess(points, ["a", "b"])
        trends2, verdict2 = diagnose.assess(
            [dict(p) for p in points], ["a", "b"]
        )
        assert (trends, verdict) == (trends2, verdict2)
        assert trends["a"] == diagnose.DECREASING
        assert trends["b"] == diagnose.STAGNANT
        assert verdict is False

    def test_terminal_ok_replaces_the_threshold(self):
        above = [{"a": 1.0}, {"a": 0.5}]  # decreasing, ends above TERMINAL_THRESHOLD
        below = [{"a": 1.0}, {"a": 0.01}]
        assert diagnose.assess(above, ["a"])[1] is False
        assert diagnose.assess(above, ["a"], terminal_ok=True)[1] is True
        assert diagnose.assess(below, ["a"])[1] is True
        assert diagnose.assess(below, ["a"], terminal_ok=False)[1] is False
        assert diagnose.assess([{"a": 0.6}, {"a": 0.6}], ["a"], terminal_ok=True)[1] is False


def series(report, name: str) -> list:
    return [p[name] for p in report.points]


class TestSequenceSpec:
    def test_from_section_maps_keys_and_fills_defaults(self):
        spec = diagnose.SequenceSpec.from_section(
            {"kind": "de_jong", "sweep": 8, "batch": 7.0, "workers": 3}, workers=2
        )
        assert spec == diagnose.SequenceSpec(kind="de_jong", sweep=(8,), batch_size=7, workers=2)

    @pytest.mark.parametrize("section", [
        {"kind": "universality", "target": "chi2", "nu": 2, "laws": ["gaussian", "uniform"],
         "n": 200, "batch": 50},
        {"kind": "universality", "target": "normal", "laws": ["gaussian", "uniform"]},
        {"kind": "chi_square", "target": "chi2", "nu": 2},
        {"kind": "de_jong", "target": "normal", "laws": "uniform", "n": 200, "batch": 7},
        {"kind": "fourth_moment", "target": "normal"},
    ], ids=["universality_chi2", "universality_normal", "chi_square", "de_jong",
            "fourth_moment"])
    def test_from_section_takes_each_key_its_kind_reads(self, section):
        # seed and workers apply to every kind
        spec = diagnose.SequenceSpec.from_section(
            {**section, "sweep": [10, 20], "seed": 3, "workers": 2})
        assert (spec.kind, spec.seed, spec.workers) == (section["kind"], 3, 2)

    def test_unknown_kind_rejected_when_built(self):
        with pytest.raises(ValidationError, match="unknown diagnose kind 'bogus'"):
            diagnose.SequenceSpec(kind="bogus", sweep=(4, 8))

    def test_readme_spec_example_and_key_table(self):
        # the README's example must parse, and its key table must give each default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```\n" + reportio.DIAGNOSE_MAGIC + "\n", 1)[1].split("```", 1)[0]
        sections = reportio.parse_sections(reportio.DIAGNOSE_MAGIC + "\n" + example,
                                           reportio.DIAGNOSE_MAGIC)
        spec = diagnose.SequenceSpec.from_section(dict(sections)["sequence"])
        assert (spec.kind, spec.sweep) == ("universality", (100, 1000, 10000))
        for f in dataclasses.fields(diagnose.SequenceSpec):
            key = "batch" if f.name == "batch_size" else f.name
            default = f"`{reportio.format_value(f.default)}`" if f.default != () else "none"
            assert f"| `{key}` | {default} |" in readme, key

    def test_sweep_must_increase(self):
        with pytest.raises(ValidationError):
            diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(10, 10))
        with pytest.raises(ValidationError):
            diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=())

    def test_chi2_needs_valid_nu(self):
        with pytest.raises(ValidationError, match="degrees of freedom must be a positive integer, got 0"):
            diagnose.SequenceSpec(family="constant", d=2, sweep=(10, 20), target="chi2", nu=0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_chi2_needs_even_order(self, d):
        with pytest.raises(ValidationError, match=f"needs even order >= 2, got d={d}$"):
            diagnose.SequenceSpec(family="walsh", d=d, sweep=(5, 9), target="chi2")

    def test_kernel_at_normalizes_to_target(self):
        spec = diagnose.SequenceSpec(family="constant", d=2, sweep=(10, 20), target="chi2", nu=2)
        f = spec.kernel_at(10)
        assert kernels.second_moment(f) == pytest.approx(4.0, rel=1e-12)

    def test_cell_seeds_distinct_with_many_laws(self):
        laws = tuple(f"two_point:{k / 20}" for k in range(1, 18))  # 17 laws
        spec = diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(4, 8), laws=laws)
        seeds = [spec.sample_config(p, k).seed for p in range(2) for k in range(len(laws))]
        assert len(set(seeds)) == len(seeds)
        # up to 16 laws the stride stays 16, so existing seeds do not move
        few = diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(4, 8), laws=laws[:16])
        assert few.sample_config(1, 0).seed == 7919 * 17

    def test_last_cell_seed_must_fit_64_bits(self):
        # two sizes and two laws: the last cell's seed is seed + 7919 * 18
        body = dict(family="disjoint_pairs", d=2, sweep=(4, 8), laws=("gaussian", "uniform"))
        top = 2**64 - 1 - 7919 * 18
        assert diagnose.SequenceSpec(**body, seed=top).sample_config(1, 1).seed == 2**64 - 1
        with pytest.raises(ValidationError, match=r"seed=18446744073709551616.*seed < 2\*\*64"):
            diagnose.SequenceSpec(**body, seed=top + 1)


class TestFourthMomentDiagnostic:
    def test_disjoint_pairs_positive(self):
        spec = diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(10, 100, 1000))
        report = diagnose.fourth_moment_diagnostic(spec)
        gaps = series(report, "fourth_moment_gap")
        np.testing.assert_allclose(gaps, [6 / 10, 6 / 100, 6 / 1000], rtol=1e-10)
        np.testing.assert_allclose(
            series(report, "contraction_norm_r1"),
            [1 / math.sqrt(80), 1 / math.sqrt(800), 1 / math.sqrt(8000)],
            rtol=1e-12,
        )
        assert report.verdict is True

    def test_walsh_negative_with_influence_flagged(self):
        spec = diagnose.SequenceSpec(family="walsh", d=2, sweep=(10, 100, 1000))
        report = diagnose.fourth_moment_diagnostic(spec)
        assert report.verdict is False
        assert report.trends["max_influence"] == diagnose.STAGNANT
        np.testing.assert_allclose(series(report, "max_influence"), 0.25, rtol=1e-12)

    def test_single_point_has_no_verdict(self):
        spec = diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(50,))
        report = diagnose.fourth_moment_diagnostic(spec)
        assert report.verdict is None
        assert report.points[0]["max_influence"] == pytest.approx(1 / 200, rel=1e-12)

    @pytest.mark.parametrize("family,d", [("disjoint_pairs", 2), ("walsh", 2), ("walsh", 3)])
    def test_contraction_dominates_influence_at_every_point(self, family, d):
        # the reported statistics respect the contraction-vs-influence chain
        spec = diagnose.SequenceSpec(family=family, d=d, sweep=(8, 16, 32))
        report = diagnose.fourth_moment_diagnostic(spec)
        for point in report.points:
            lhs = point[f"contraction_norm_r{d - 1}"] ** 2
            rhs = (math.factorial(d - 1) * point["max_influence"]) ** 2
            assert lhs >= rhs - 1e-12


class TestChiSquareDiagnostic:
    def test_constant_kernel_positive(self):
        # the defect is ~ N^{-1/2}: 0.045 at N = 500, below the 0.05 threshold
        spec = diagnose.SequenceSpec(
            family="constant", d=2, sweep=(10, 50, 500), target="chi2", nu=1
        )
        report = diagnose.chi_square_diagnostic(spec)
        defects = series(report, "chi_square_defect")
        assert defects[0] > defects[1] > defects[2]
        for N, defect in zip((10, 50, 500), defects):
            assert defect <= 1.5 / math.sqrt(N)
        assert defects[2] < diagnose.TERMINAL_THRESHOLD
        assert report.verdict is True

    def test_disjoint_pairs_negative(self):
        # Gaussian limit, not chi-square: the defect stalls near 1
        spec = diagnose.SequenceSpec(
            family="disjoint_pairs", d=2, sweep=(10, 40, 160), target="chi2", nu=1
        )
        report = diagnose.chi_square_diagnostic(spec)
        assert report.verdict is False
        assert min(series(report, "chi_square_defect")) > 0.9

    def test_odd_order_rejected(self):
        spec = diagnose.SequenceSpec(family="walsh", d=3, sweep=(5, 9), target="normal")
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            diagnose.chi_square_diagnostic(spec)


class TestDeJongReport:
    def test_disjoint_pairs_assumptions_hold(self):
        f = kernels.disjoint_pairs(1000)
        report = diagnose.de_jong_report(
            f, simulate.get_law("uniform"), simulate.SampleConfig(n=20_000, seed=5, workers=2)
        )
        stats = report.points[0]
        assert report.verdict is True
        assert stats["max_influence"] == pytest.approx(1 / 4000, rel=1e-12)
        # sampled moment: small up to its statistical error (true gap 0.24/m)
        assert stats["fourth_moment_gap"] < 0.05 + 5 * stats["fourth_moment_se"]
        assert stats["ks_normal"] < 0.02

    def test_single_pair_flagged(self):
        f = kernels.single_pair()
        report = diagnose.de_jong_report(
            f, simulate.get_law("rademacher"), simulate.SampleConfig(n=2000, seed=5)
        )
        assert report.verdict is False
        assert any("influence" in note for note in report.notes)
        assert report.points[0]["max_influence"] == pytest.approx(0.25, rel=1e-12)

    def test_gaussian_inputs_use_exact_fourth_moment(self):
        f = kernels.disjoint_pairs(20)
        report = diagnose.de_jong_report(
            f, simulate.get_law("gaussian"), simulate.SampleConfig(n=1000, seed=5)
        )
        assert report.points[0]["fourth_moment_gap"] == pytest.approx(6 / 20, rel=1e-12)

    def test_gaussian_empirical_moment_within_5_se_of_exact(self):
        f = kernels.disjoint_pairs(25)
        report = diagnose.de_jong_report(
            f, simulate.get_law("gaussian"), simulate.SampleConfig(n=60_000, seed=6, workers=2)
        )
        stats = report.points[0]
        exact = 3 + 6 / 25
        assert abs(stats["fourth_moment_empirical"] - exact) <= 5 * stats["fourth_moment_empirical_se"]


class TestUniversality:
    def test_needs_two_laws(self):
        spec = diagnose.SequenceSpec(family="disjoint_pairs", d=2, sweep=(10, 20),
                                     laws=("gaussian",))
        with pytest.raises(ValidationError):
            diagnose.universality_experiment(spec)

    def test_disjoint_pairs_positive_small_scale(self):
        # laws picked so the true distance stays above the sampling noise
        # floor at every sweep point (lattice and skewed inputs ~ m^{-1/2})
        spec = diagnose.SequenceSpec(
            family="disjoint_pairs", d=2, sweep=(4, 32, 256),
            laws=("rademacher", "shifted_exponential"), n=20_000, seed=2, workers=2,
        )
        report = diagnose.universality_experiment(spec)
        assert report.verdict is True
        for law in ("rademacher", "shifted_exponential"):
            ks = series(report, f"ks_{law}")
            assert ks[-1] < ks[0]

    def test_walsh_negative(self):
        spec = diagnose.SequenceSpec(
            family="walsh", d=2, sweep=(50, 400, 3200),
            laws=("gaussian", "rademacher"), n=20_000, seed=3, workers=2,
        )
        report = diagnose.universality_experiment(spec)
        assert report.verdict is False
        # the sign-input distance vanishes, the gaussian-input one stalls high
        assert report.points[-1]["ks_rademacher"] < 0.02
        assert report.points[-1]["ks_gaussian"] > 0.05
