"""The benchmark's workloads: the input files each one writes and the fixed
list of `homsum` CLI commands it runs.

A workload is built from its seed alone.  The seed picks the random_sparse
supports and weights and the sampling seeds; sizes are fixed, so every seed
costs about the same work.  `small=True` gives the same commands at toy
sizes, which the self-test uses.

Run as a script, this module is the benchmark's set-up step: it imports
homsum and writes one workload's input files into a directory.

    python3 perfbench/workloads.py --workload narrow_mc --seed 7 --dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import dataclass, field

WORKLOAD_NAMES = ("narrow_mc", "wide_mc", "exact_chaos")


@dataclass(frozen=True)
class Command:
    """One CLI command.  `argv` omits `--out`; the report goes to `<name>.rep`.
    `check` names the function in checks.py that verifies the report, and
    `facts` carries what it needs to know about the inputs."""

    name: str
    argv: tuple
    check: str
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: tuple  # (file name, `kernel generate` arguments without --out)
    specs: tuple  # (file name, diagnose spec text)
    commands: tuple
    # the sampling command whose one- and two-worker times give the
    # simulate.speedup_2_workers metric; None when the workload never samples
    sampling_command: str | None


def _spec(kind: str, family: str, sweep, **extra) -> str:
    lines = [
        "artifact-diagnose v1",
        "[sequence]",
        f"kind = {kind}",
        f"family = {family}",
        "d = 2",
        "sweep = " + ",".join(str(s) for s in sweep),
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"


def _with_workers(argv, workers):
    return tuple(argv) + ("--workers", str(workers))


def narrow_mc(seed: int, small: bool = False, workers: int = 2) -> Workload:
    """Narrow sparse kernels, many draws: the cost is one Philox generator
    per draw, not the evaluation of the sum."""
    m, n_dp, n_rs, n_bound, n_chi2, n_univ = (
        (10, 3000, 2000, 3000, 3000, 1000) if small else (100, 80_000, 40_000, 40_000, 40_000, 8000)
    )
    n_rs_N, n_w = (12, 20) if small else (60, 200)
    sweep = (4, 16) if small else (4, 16, 64)
    laws = ("gaussian", "rademacher", "uniform", "shifted_exponential")
    w = workers
    return Workload(
        name="narrow_mc",
        kernels=(
            ("dp.kern", ("--family", "disjoint_pairs", "--m", str(m))),
            ("rs3.kern", ("--family", "random_sparse", "--d", "3", "-N", str(n_rs_N), "--seed", str(seed))),
            ("walsh2.kern", ("--family", "walsh", "--d", "2", "-N", str(n_w))),
        ),
        specs=(
            ("univ.spec", _spec("universality", "disjoint_pairs", sweep,
                                laws=",".join(laws), n=n_univ, seed=seed + 4)),
        ),
        commands=(
            Command("sim_dp", _with_workers(("simulate", "--kernel", "dp.kern", "--law", "uniform",
                                             "--n", str(n_dp), "--seed", str(seed)), w),
                    "simulate_disjoint_pairs", {"m": m, "law": "uniform"}),
            Command("sim_rs3", _with_workers(("simulate", "--kernel", "rs3.kern", "--law",
                                              "shifted_exponential", "--n", str(n_rs),
                                              "--seed", str(seed + 1)), w),
                    "simulate_unit_variance", {"law": "shifted_exponential"}),
            Command("bound_dp", _with_workers(("bound", "normal", "--kernel", "dp.kern", "--law", "uniform",
                                               "--n", str(n_bound), "--seed", str(seed + 2)), w),
                    "bound_normal_disjoint_pairs", {"m": m, "law": "uniform"}),
            Command("chi2_walsh", _with_workers(("bound", "chi2", "--nu", "1", "--kernel", "walsh2.kern",
                                                 "--law", "two_point:0.3", "--n", str(n_chi2),
                                                 "--seed", str(seed + 3)), w),
                    "bound_chi2_walsh", {"N": n_w, "law": "two_point:0.3"}),
            Command("univ", ("diagnose", "--spec", "univ.spec", "--workers", str(w)),
                    "diagnose_universality", {"laws": laws, "sweep": sweep, "n": n_univ}),
        ),
        sampling_command="sim_dp",
    )


def wide_mc(seed: int, small: bool = False, workers: int = 2) -> Workload:
    """Wide kernels, few draws: the cost is sampling and evaluating each
    value, parsing a large kernel file and shipping it to the workers."""
    m, n_const, n_dp, n_const_draws, n_bound, n_univ = (
        (50, 30, 500, 500, 500, 300) if small else (10_000, 700, 4000, 6000, 2000, 2000)
    )
    sweep = (10, 50) if small else (1000, 10_000)
    laws = ("gaussian", "rademacher")
    w = workers
    return Workload(
        name="wide_mc",
        kernels=(
            ("dp.kern", ("--family", "disjoint_pairs", "--m", str(m))),
            ("const.kern", ("--family", "constant", "-N", str(n_const))),
        ),
        specs=(
            ("univ.spec", _spec("universality", "disjoint_pairs", sweep,
                                laws=",".join(laws), n=n_univ, seed=seed + 4)),
        ),
        commands=(
            Command("sim_dp", _with_workers(("simulate", "--kernel", "dp.kern", "--law", "gaussian",
                                             "--n", str(n_dp), "--seed", str(seed)), w),
                    "simulate_disjoint_pairs", {"m": m, "law": "gaussian"}),
            Command("sim_const", _with_workers(("simulate", "--kernel", "const.kern", "--law", "rademacher",
                                                "--n", str(n_const_draws), "--seed", str(seed + 1)), w),
                    "simulate_constant_rademacher", {"N": n_const}),
            Command("bound_dp", _with_workers(("bound", "normal", "--kernel", "dp.kern", "--law", "uniform",
                                               "--n", str(n_bound), "--seed", str(seed + 2)), w),
                    "bound_normal_disjoint_pairs", {"m": m, "law": "uniform"}),
            Command("univ", ("diagnose", "--spec", "univ.spec", "--workers", str(w)),
                    "diagnose_universality", {"laws": laws, "sweep": sweep, "n": n_univ}),
        ),
        sampling_command="sim_const",
    )


def exact_chaos(seed: int, small: bool = False, workers: int = 1) -> Workload:
    """No sampling: moments by 2^N enumeration or from the contraction
    identity, and contraction norms on dense supports.  `workers` is
    accepted for a uniform signature; no command here samples."""
    n_rs2, n_c, n_rs3, n_w4 = (10, 8, 10, 6) if small else (20, 18, 40, 8)
    fm_sweep = (10, 20, 40) if small else (100, 200, 500)
    cs_sweep = (10, 20) if small else (50, 250)
    return Workload(
        name="exact_chaos",
        kernels=(
            ("rs2.kern", ("--family", "random_sparse", "--d", "2", "-N", str(n_rs2), "--seed", str(seed))),
            ("const.kern", ("--family", "constant", "-N", str(n_c))),
            ("rs3.kern", ("--family", "random_sparse", "--d", "3", "-N", str(n_rs3), "--seed", str(seed + 1))),
            ("walsh4.kern", ("--family", "walsh", "--d", "4", "-N", str(n_w4))),
        ),
        specs=(
            ("fourth.spec", _spec("fourth_moment", "constant", fm_sweep, seed=seed)),
            ("chi2.spec", _spec("chi_square", "constant", cs_sweep, nu=1, seed=seed)),
        ),
        commands=(
            Command("normal_rs2", ("bound", "normal", "--kernel", "rs2.kern", "--law", "rademacher"),
                    "bound_normal_exact", {"kernel": "rs2.kern", "law": "rademacher"}),
            Command("chi2_const", ("bound", "chi2", "--kernel", "const.kern", "--law", "rademacher"),
                    "bound_chi2_constant_rademacher", {"N": n_c}),
            Command("normal_rs3", ("bound", "normal", "--kernel", "rs3.kern", "--law", "gaussian"),
                    "bound_normal_exact", {"kernel": "rs3.kern", "law": "gaussian"}),
            Command("normal_walsh4", ("bound", "normal", "--kernel", "walsh4.kern", "--law", "gaussian"),
                    "bound_normal_exact", {"kernel": "walsh4.kern", "law": "gaussian", "eq4x": 81.0}),
            Command("multi", ("bound", "multi", "--kernel", "rs3.kern", "--kernel", "walsh4.kern",
                              "--budget", "1,1"),
                    "bound_multi", {"kernels": ("rs3.kern", "walsh4.kern"), "law": "gaussian"}),
            Command("fourth", ("diagnose", "--spec", "fourth.spec"),
                    "diagnose_fourth_moment_constant", {"sweep": fm_sweep}),
            Command("chi2_sweep", ("diagnose", "--spec", "chi2.spec"),
                    "diagnose_chi_square_constant", {"sweep": cs_sweep}),
        ),
        sampling_command=None,
    )


BUILDERS = {"narrow_mc": narrow_mc, "wide_mc": wide_mc, "exact_chaos": exact_chaos}


def build(name: str, seed: int, small: bool = False, workers: int | None = None) -> Workload:
    """The named workload; `workers` overrides its worker count."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; know {', '.join(WORKLOAD_NAMES)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    kwargs = {"small": small}
    if workers is not None:
        kwargs["workers"] = workers
    return BUILDERS[name](seed, **kwargs)


def write_inputs(workload: Workload, directory: str, main) -> None:
    """Write the workload's kernel files with `homsum kernel generate`
    (through `main`, the CLI entry point) and its diagnose spec files."""
    os.makedirs(directory, exist_ok=True)
    for fname, args in workload.kernels:
        rc = main(["kernel", "generate", *args, "--out", os.path.join(directory, fname)])
        if rc != 0:
            raise RuntimeError(f"kernel generate {' '.join(args)} exited {rc}")
    for fname, text in workload.specs:
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(text)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    from homsum import cli

    with contextlib.redirect_stdout(io.StringIO()):  # `kernel generate` prints one line per file
        write_inputs(build(args.workload, args.seed), args.dir, cli.main)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
