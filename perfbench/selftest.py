"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

For each workload at toy sizes it runs every command, then:
* every report passes its check;
* every value a check verified, once perturbed past the check's tolerance,
  makes that check fail;
* a traced one-worker pass writes the same report bytes as the untraced
  pass at the workload's own worker count;
* BENCHMARK.json names exactly the workloads and per-layer metrics that
  the benchmark produces.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def perturbed(kind: str, want, tol: float) -> str:
    """A raw value that the comparison (kind, want, tol) must reject."""
    if kind == "equal":
        if want in ("true", "false"):
            return "false" if want == "true" else "true"
        return str(int(want) + 1) if want.isdigit() else want + "x"
    if kind == "within":
        return repr(want + 3.0 * tol + 1e-12 * abs(want))
    step = 1e-8 * abs(want) + 1e-12
    return repr(want + step if kind == "at_most" else want - step)


def mutation_misses(cmd, text: str) -> tuple:
    """(number of verified values, those whose perturbation went unnoticed)."""
    base = checks.check_report(cmd, text, ".")
    misses = []
    for kind, section, key, want, tol in base.verified:
        c = checks.Checker(checks.parse_report(text))
        c.set_raw(section, key, perturbed(kind, want, tol))
        checks.CHECKS[cmd.check](c, cmd.facts, list(cmd.argv), ".")
        if not c.failures:
            misses.append(f"[{section}] {key}")
    return len(base.verified), misses


def run_commands(main, wl) -> dict:
    out = {}
    for cmd in wl.commands:
        path = f"{cmd.name}.rep"
        rc = main([*cmd.argv, "--out", path])
        with open(path) as fh:
            out[cmd.name] = (rc, fh.read())
    return out


def main() -> int:
    from homsum import cli

    problems = []
    work = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    for name in workloads.WORKLOAD_NAMES:
        wl = workloads.build(name, seed=3, small=True)
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.write_inputs(wl, ".", cli.main)
            reports = run_commands(cli.main, wl)
            t = tracer.Tracer()
            t.install()
            try:
                traced = run_commands(cli.main, workloads.build(name, seed=3, small=True, workers=1))
            finally:
                t.uninstall()
        if not t.start:
            problems.append(f"{name}: the tracer recorded no spans")
        for cmd in wl.commands:
            rc, text = reports[cmd.name]
            if rc != 0:
                problems.append(f"{name}/{cmd.name}: exit code {rc}")
                continue
            if traced[cmd.name] != reports[cmd.name]:
                problems.append(f"{name}/{cmd.name}: traced one-worker report differs")
            failures = checks.check_report(cmd, text, ".").failures
            if failures:
                problems.append(f"{name}/{cmd.name}: check fails on a correct report: {failures[:3]}")
                continue
            count, misses = mutation_misses(cmd, text)
            print(f"{name}/{cmd.name}: {count} values checked, {count - len(misses)} perturbations caught")
            if misses:
                problems.append(f"{name}/{cmd.name}: perturbation not caught for {misses}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOAD_NAMES")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != run.UNITS:
        problems.append("BENCHMARK.json per_layer metrics differ from run.UNITS")
    traced_names = set(tracer.layer_metrics(tracer.Spans([t]), tracer.Spans([t]), 1))
    if not traced_names <= set(run.UNITS):
        problems.append(f"layer metrics without a unit: {sorted(traced_names - set(run.UNITS))}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
