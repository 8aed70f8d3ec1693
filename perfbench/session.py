"""The workload process: runs one workload's commands in-process through
`homsum.cli.main`, times them, checks every report, and prints one JSON
line for run.py.

Timed mode (--trace 0): one warm-up pass at the workload's worker count,
whose reports are checked by checks.py, then timed passes until --seconds
have been spent in them.  Every later report must equal the warm-up report
byte for byte.

Traced mode (--trace 1): a warm-up pass and a timed pass at the workload's
worker count, a traced set-up, then pairs of one-worker passes, one
untraced and one traced, until --seconds have been spent in the pairs.  Reports of every pass must
equal the warm-up reports byte for byte, which covers both the --workers
invariance and the rule that tracing changes nothing.

Start it with BLAS pinned to one thread and `src` on PYTHONPATH, as
run.py does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Session:
    def __init__(self, name: str, seed: int, directory: str):
        from homsum import cli

        self.cli = cli
        self.name, self.seed = name, seed
        os.chdir(directory)  # reports name their inputs by these relative paths
        self.workload = workloads.build(name, seed)
        self.reference: dict = {}  # command name -> report bytes of the warm-up pass
        self.verdicts: dict = {}  # (command name, report bytes) -> list of failures
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_pass(self, workers: int | None = None) -> dict:
        """Run every command once; returns {command: seconds} and counts
        each command as failed on a nonzero exit, a failed check, or a
        report that differs from the warm-up report."""
        wl = workloads.build(self.name, self.seed, workers=workers) if workers else self.workload
        times = {}
        for cmd in wl.commands:
            out = f"{cmd.name}.rep"
            if os.path.exists(out):
                os.remove(out)
            argv = [*cmd.argv, "--out", out]
            gc.collect()  # every command starts from the same collector state
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                times[cmd.name] = time.perf_counter() - t0
            self.attempted += 1
            problems = [f"exit code {rc}"] if rc != 0 else self._judge(cmd, out)
            if problems:
                self.failed += 1
                self.failures.append(f"{cmd.name}: " + "; ".join(problems[:3]))
        return times

    def _judge(self, cmd, out: str) -> list:
        with open(out, "rb") as fh:
            data = fh.read()
        ref = self.reference.setdefault(cmd.name, data)
        if data != ref:
            return ["report differs from the warm-up report"]
        key = (cmd.name, data)
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_report(cmd, data.decode(), ".").failures
        return self.verdicts[key]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (the sampling workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed(s: Session, seconds: float) -> dict:
    s.run_pass()
    passes = []
    while sum(sum(p.values()) for p in passes) < seconds or len(passes) < 2:
        passes.append(s.run_pass())
    return {
        "pass_s": [sum(p.values()) for p in passes],
        "command_s": {c: statistics.median(p[c] for p in passes) for c in passes[0]},
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(s: Session, seconds: float) -> dict:
    s.run_pass()
    multi = s.run_pass()
    setup_tracer = tracer.Tracer()
    setup_tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.write_inputs(s.workload, "traced_setup", s.cli.main)
    finally:
        setup_tracer.uninstall()
    pass_tracer = tracer.Tracer()
    plain, traced_s, one = [], [], None
    while sum(plain) + sum(traced_s) < seconds or not plain:
        one = s.run_pass(workers=1)
        plain.append(sum(one.values()))
        pass_tracer.install()
        try:
            traced_s.append(sum(s.run_pass(workers=1).values()))
        finally:
            pass_tracer.uninstall()
    pass_tracer.save("trace.npz")
    metrics = tracer.layer_metrics(tracer.Spans([pass_tracer]), tracer.Spans([setup_tracer]), len(traced_s))
    cmd = s.workload.sampling_command
    metrics["simulate.speedup_2_workers"] = one[cmd] / multi[cmd] if cmd else 0.0
    metrics.update(moment_paths(s))
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_s, plain))
    return {"layers": metrics}


def moment_paths(s: Session) -> dict:
    """How many bound reports took each moment path, read from the
    exactness label and the input law of each report."""
    counts = {"enumeration": 0, "contraction_identity": 0, "monte_carlo": 0}
    for data in s.reference.values():
        sections = checks.parse_report(data.decode())
        bound = sections.get("bound", {})
        label = bound.get("eq4x_exactness", bound.get("moments_exactness"))
        if label == "monte-carlo":
            counts["monte_carlo"] += 1
        elif label == "exact":
            law = sections["manifest"].get("param.law")
            counts["enumeration" if law == "rademacher" else "contraction_identity"] += 1
    return {f"moments.path.{k}": v for k, v in counts.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload's commands in this process.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    s = Session(args.workload, args.seed, os.path.abspath(args.dir))
    result = traced(s, args.seconds) if args.trace else timed(s, args.seconds)
    result.update(attempted=s.attempted, failed=s.failed, failures=s.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
