"""homsum benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a homsum checkout; the program is imported from
`src/`.  Each run sets up the workload's inputs SETUP_REPEATS times, each
time in a fresh interpreter (`workloads.py`: imports plus `homsum kernel
generate` and the diagnose spec files), and reports the median as
`setup_s`.  It then starts the workload process (`session.py`) with BLAS
pinned to one thread.  With --trace 0 the last line of output holds the
end-to-end metrics, with --trace 1 the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
TIMEOUT_S = 150  # the whole run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


# Fills the CPU time the workload leaves idle, at the lowest scheduling
# class, and exits when its parent is gone.
FILLER = """
import os, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    end = time.monotonic() + 0.05
    while time.monotonic() < end:
        pass
"""


def _start_fillers() -> list:
    """One idle-class busy loop per CPU beyond the first.  On a small virtual
    machine an idle vCPU lets the host run other guests on its hyperthread
    sibling, which slows single-threaded work by up to a third at random;
    keeping every vCPU busy makes that contention the same in every run."""
    return [subprocess.Popen([sys.executable, "-c", FILLER]) for _ in range(len(os.sched_getaffinity(0)) - 1)]


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one homsum benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        return _fail(f"unknown workload {args.workload!r}; know {', '.join(workloads.WORKLOAD_NAMES)}")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join("src", "homsum", "cli.py")):
        return _fail("no homsum sources under ./src; run from the root of a homsum checkout")

    fillers = _start_fillers()
    try:
        return _run(args)
    finally:
        for p in fillers:
            p.kill()
            p.wait()


def _run(args) -> int:
    deadline = time.monotonic() + TIMEOUT_S
    work = os.path.join(HERE, "out", args.workload)  # each run replaces the last one's files
    shutil.rmtree(work, ignore_errors=True)
    env = _env()
    setup_times, dirs = [], []
    for k in range(SETUP_REPEATS):
        d = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--dir", d],
            env=env, timeout=max(1.0, deadline - time.monotonic()),
        )
        setup_times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return _fail(f"set-up exited {proc.returncode}")
        dirs.append(d)
    names = sorted(os.listdir(dirs[0]))
    same_inputs = all(filecmp.cmpfiles(dirs[0], d, names, shallow=False)[0] == names for d in dirs[1:])
    for d in dirs[1:]:
        shutil.rmtree(d)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "session.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--dir", dirs[0], "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        return _fail(f"workload process exited {proc.returncode}")
    session = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in session["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    if not same_inputs:
        print("failed: set-up wrote different input files on repeat", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in session["layers"].items()}
    else:
        print(f"passes: {len(session['pass_s'])}, pass seconds: "
              + ", ".join(f"{t:.3f}" for t in session["pass_s"])
              + "; setup seconds: " + ", ".join(f"{t:.3f}" for t in setup_times))
        print("median command seconds: "
              + ", ".join(f"{c} {t:.3f}" for c, t in session["command_s"].items()))
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(session["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": session["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": same_inputs and session["failed"] == 0,
        "attempted": session["attempted"],
        "failed": session["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


UNITS = {
    "kernels.read_kernel.us_per_entry": "us",
    "kernels.generate_family.us_per_entry": "us",
    "kernels.normalize_to_variance.s": "s",
    "kernels.evaluate_sum_batch.sparse.ns_per_entry_row": "ns",
    "kernels.evaluate_sum_batch.dense.us_per_row": "us",
    "kernels.dense_tensor.builds": "count",
    "kernels.dense_tensor.s": "s",
    "simulate.draws": "count",
    "simulate.stream_setup.us_per_draw": "us",
    "simulate.law_sample.ns_per_value": "ns",
    "simulate.ks.ns_per_sample": "ns",
    "simulate.speedup_2_workers": "ratio",
    "contractions.contraction_norm.calls": "count",
    "contractions.contraction_norm.s": "s",
    "contractions.contract.ns_per_value": "ns",
    "contractions.symmetrize.calls": "count",
    "contractions.symmetrize.ns_per_value": "ns",
    "contractions.chi_square_defect.s": "s",
    "contractions.influence_profile.us_per_entry": "us",
    "moments.exact_rademacher_distribution.ns_per_entry_pattern": "ns",
    "moments.gaussian_fourth_moment.calls": "count",
    "moments.gaussian_fourth_moment.s": "s",
    "moments.path.enumeration": "count",
    "moments.path.contraction_identity": "count",
    "moments.path.monte_carlo": "count",
    "bounds.self_s": "s",
    "diagnose.self_s": "s",
    "reportio.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
