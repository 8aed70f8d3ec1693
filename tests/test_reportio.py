import math

import numpy as np
import pytest

from homsum import bounds, kernels, reportio
from homsum.errors import ValidationError


class TestValues:
    @pytest.mark.parametrize(
        "value", [0, -3, 17, 0.5, -1.0 / 3.0, math.pi, 1e-300, True, False, None, "gaussian"]
    )
    def test_scalar_round_trip(self, value):
        assert reportio.parse_value(reportio.format_value(value)) == value

    def test_float_round_trip_is_exact(self):
        for x in np.random.default_rng(5).standard_normal(200):
            assert reportio.parse_value(reportio.format_value(float(x))) == float(x)

    def test_list_round_trip(self):
        vals = [1, 2.5, "abc"]
        assert reportio.parse_value(reportio.format_value(vals)) == vals


class TestSections:
    def test_round_trip(self):
        sections = [
            ("manifest", {"command": "simulate", "seed": 42, "param.law": "gaussian"}),
            ("summary", {"moment1": 0.1234567890123456, "n": 100}),
        ]
        text = reportio.format_sections(reportio.REPORT_MAGIC, sections)
        parsed = reportio.parse_sections(text, reportio.REPORT_MAGIC)
        assert parsed == sections

    def test_deterministic_bytes(self):
        sections = [("a", {"x": 1.5, "y": "z"})]
        t1 = reportio.format_sections(reportio.REPORT_MAGIC, sections)
        t2 = reportio.format_sections(reportio.REPORT_MAGIC, [("a", {"x": 1.5, "y": "z"})])
        assert t1 == t2

    def test_bad_magic(self):
        with pytest.raises(ValidationError):
            reportio.parse_sections("wrong\n[a]\nx = 1\n", reportio.REPORT_MAGIC)

    def test_malformed_line(self):
        with pytest.raises(ValidationError):
            reportio.parse_sections(
                reportio.REPORT_MAGIC + "\n[a]\nnot a pair\n", reportio.REPORT_MAGIC
            )


class TestManifest:
    def test_serialization_excludes_timestamp(self):
        section = reportio.manifest_section("simulate", {"law": "gaussian", "n": 10}, seed=1)
        assert "created_at" not in section
        assert section["command"] == "simulate"
        assert section["param.law"] == "gaussian"

    def test_identical_manifests_identical_bytes(self):
        a = reportio.manifest_section("x", {"p": 1}, seed=2)
        b = reportio.manifest_section("x", {"p": 1}, seed=2)
        ta = reportio.format_sections(reportio.REPORT_MAGIC, [("manifest", a)])
        tb = reportio.format_sections(reportio.REPORT_MAGIC, [("manifest", b)])
        assert ta == tb


class TestBoundReportSerialization:
    def test_total_recomputes_from_parsed_components(self):
        f = kernels.disjoint_pairs(25)
        profile = bounds.MomentProfile(beta3=1.0, beta4=1.0)
        report = bounds.normal_smooth_bound(
            f, profile, bounds.TestFunctionBudget(b3=1.0), eq4x=3.24
        )
        text = reportio.format_sections(
            reportio.REPORT_MAGIC, [("bound", reportio.bound_report_section(report))]
        )
        [(_, parsed)] = reportio.parse_sections(text, reportio.REPORT_MAGIC)
        rebuilt = bounds.BoundReport(
            kind=parsed["kind"],
            components={k: parsed[k] for k in report.components},
            applicable=parsed["applicable"],
        )
        assert rebuilt.recompute_total() == parsed["total"]

    def test_delta_matrix_round_trips(self):
        f = kernels.disjoint_pairs(9)
        profile = bounds.MomentProfile(beta3=1.0, beta4=1.0)
        report = bounds.multivariate_smooth_bound(
            [f, f], profile, bounds.TestFunctionBudget(b2m=1.0, b3m=1.0)
        )
        section = reportio.bound_report_section(report)
        text = reportio.format_sections(reportio.REPORT_MAGIC, [("bound", section)])
        [(_, parsed)] = reportio.parse_sections(text, reportio.REPORT_MAGIC)
        for i in range(2):
            np.testing.assert_array_equal(parsed[f"delta.{i}"], report.delta[i])
