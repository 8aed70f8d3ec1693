"""Line-based structured text format for reports and sweep specs.

A document is a magic line, then `[section]` headers with `key = value`
lines.  Scalars serialize deterministically (floats via repr, which
round-trips doubles exactly), sections and keys keep their insertion
order, and nothing environment-dependent is ever written, so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .errors import ValidationError

REPORT_MAGIC = "artifact-report v1"
DIAGNOSE_MAGIC = "artifact-diagnose v1"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return ",".join(format_value(x) for x in v)
    return str(v)


def parse_value(s: str):
    s = s.strip()
    if "," in s:
        return [parse_value(p) for p in s.split(",")]
    if s == "true":
        return True
    if s == "false":
        return False
    if s == "none":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def format_sections(magic: str, sections) -> str:
    """sections: iterable of (name, mapping)."""
    lines = [magic]
    for name, mapping in sections:
        lines.append(f"[{name}]")
        for k, v in mapping.items():
            lines.append(f"{k} = {format_value(v)}")
    return "\n".join(lines) + "\n"


def parse_sections(text: str, magic: str):
    """-> list of (name, dict); tolerates blank lines."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0] != magic:
        raise ValidationError(f"expected header {magic!r}")
    sections = []
    current = None
    for ln in lines[1:]:
        if ln.startswith("[") and ln.endswith("]"):
            current = (ln[1:-1], {})
            sections.append(current)
        else:
            if current is None or " = " not in ln:
                raise ValidationError(f"malformed line {ln!r}")
            k, v = ln.split(" = ", 1)
            current[1][k] = parse_value(v)
    return sections


def manifest_section(command: str, params: dict, seed: int | None = None) -> dict:
    """The [manifest] section: provenance of a CLI run.  Only semantic
    parameters are serialized: worker counts and output paths are execution
    details that must not change report bytes, and no wall-clock time is
    recorded."""
    out = {"command": command, "version": __version__}
    if seed is not None:
        out["seed"] = seed
    for k in sorted(params):
        out[f"param.{k}"] = params[k]
    return out


def matrix_items(prefix: str, mat: np.ndarray) -> dict:
    return {f"{prefix}.{i}": list(row) for i, row in enumerate(np.atleast_2d(mat))}


def bound_report_section(report) -> dict:
    out = {"kind": report.kind, "applicable": report.applicable}
    for name in sorted(report.components):
        out[name] = report.components[name]
    for name in sorted(report.exactness):
        out[f"{name}_exactness"] = report.exactness[name]
    if report.mc_standard_error is not None:
        out["mc_standard_error"] = report.mc_standard_error
    if report.delta is not None:
        out.update(matrix_items("delta", report.delta))
    out["total"] = report.total
    return out


def summary_section(summary, extra: dict) -> dict:
    out = {"law": summary.law, "n": summary.n, "seed": summary.seed}
    for k in range(1, 5):
        out[f"moment{k}"] = summary.moment(k)
        out[f"se{k}"] = summary.standard_error(k)
    out.update(extra)
    return out


def verdict_sections(report) -> list:
    head = {
        "kind": report.kind,
        "verdict": report.verdict,
        "tolerance": report.tolerance,
        "threshold": report.threshold,
        "statistics": list(report.statistics_used),
    }
    for name in sorted(report.trends):
        head[f"trend.{name}"] = report.trends[name]
    for i, note in enumerate(report.notes):
        head[f"note.{i}"] = note
    sections = [("verdict", head)]
    for i, point in enumerate(report.points):
        sections.append((f"point.{i}", {k: point[k] for k in point}))
    return sections
