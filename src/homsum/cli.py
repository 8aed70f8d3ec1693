"""Command-line surface: kernel generation and inspection, bound
evaluation, simulation, and diagnostics, each emitting a deterministic
report.

Exit codes: 0 success, 1 usage, 2 validation, 3 capacity.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bounds, contractions, diagnose, kernels, moments, reductions, reportio, simulate
from .errors import CapacityError, ValidationError, check_degrees, reading


class _UsageError(Exception):
    pass


# argparse takes a value starting with "-" for a value only when it is a plain
# negative decimal; no flag starts like -1e3, -.5, -1,3, -inf or -NaN
_NUMBER_LIKE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        if _NUMBER_LIKE.match(arg_string):
            return None  # a value, which reaches validation
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise _UsageError(message)


def _add_sampling_flags(p):
    p.add_argument("--law", default="gaussian")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--batch", type=int, default=1024)


def build_parser() -> _Parser:
    parser = _Parser(prog="homsum")
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel")
    ksub = k.add_subparsers(dest="action", required=True)
    kg = ksub.add_parser("generate")
    kg.add_argument("--family", required=True, choices=kernels.FAMILY_TAGS)
    kg.add_argument("--d", type=int, default=2)
    kg.add_argument("--m", type=int, help="pair count for disjoint_pairs")
    kg.add_argument("-N", type=int, help="dimension for constant/walsh/random_sparse")
    kg.add_argument("--sigma2", type=float, default=1.0)
    kg.add_argument("--seed", type=int, default=0)
    kg.add_argument("--out", required=True)
    ki = ksub.add_parser("inspect")
    ki.add_argument("--kernel", required=True)
    ki.add_argument("--out")
    kn = ksub.add_parser("normalize")
    kn.add_argument("--kernel", required=True)
    kn.add_argument("--sigma2", type=float, default=1.0)
    kn.add_argument("--out", required=True)

    b = sub.add_parser("bound")
    b.add_argument("kind", choices=("normal", "chi2", "wasserstein", "multi"))
    b.add_argument("--kernel", action="append", required=True)
    b.add_argument("--profile", help="beta3,beta4 (default: from --law)")
    b.add_argument("--budget", default="0,0,1", help="a,b,B3 (multi: b2m,b3m)")
    b.add_argument("--nu", type=int, default=1)
    b.add_argument("--out")
    _add_sampling_flags(b)

    s = sub.add_parser("simulate")
    s.add_argument("--kernel", action="append", required=True)
    s.add_argument("--nu", type=int, help="also report the centered chi-square distance")
    s.add_argument("--dump-samples")
    s.add_argument("--out")
    _add_sampling_flags(s)

    d = sub.add_parser("diagnose")
    d.add_argument("--spec", required=True)
    d.add_argument("--out")
    d.add_argument("--workers", type=int)
    return parser


def _emit(text: str, out_path) -> None:
    """Write a report to `out_path` as UTF-8, or to stdout.  The whole report
    is encoded before a byte is written, and before the file is opened: one
    that cannot be (it names a path that is not UTF-8) raises a
    ValidationError quoting its line, and creates no file."""
    try:
        if not out_path:
            sys.stdout.write(text)
            return
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text[text.rfind("\n", 0, exc.start) + 1 : text.find("\n", exc.start)]
        raise ValidationError(
            f"cannot write the report to {out_path or 'stdout'}: line {line!r} "
            f"cannot be encoded as {exc.encoding} ({exc.reason})"
        ) from None
    with open(out_path, "wb") as fh:
        fh.write(data)


def _parse_floats(s: str, count: int, what: str):
    try:
        values = [float(p) for p in s.split(",")]
    except ValueError:
        values = []  # a non-number or an empty field is reported like a wrong count
    if len(values) != count:
        raise ValidationError(f"{what} needs {count} comma-separated numbers, got {s!r}")
    return values


def _sampling_inputs(args) -> tuple:
    """(kernels, law, SampleConfig, manifest parameters) of a command that
    takes --kernel and the sampling flags."""
    kernel_list = [kernels.read_kernel(p) for p in args.kernel]
    law = simulate.get_law(args.law)
    config = simulate.SampleConfig(
        n=args.n, seed=args.seed, workers=args.workers, batch_size=args.batch
    )
    params = {
        "kernel": list(args.kernel) if len(args.kernel) > 1 else args.kernel[0],
        "law": args.law,
        "n": args.n,
    }
    return kernel_list, law, config, params


def cmd_kernel(args) -> list | None:
    if args.action == "generate":
        size = {"disjoint_pairs": args.m, "single_pair": 2}.get(args.family, args.N)
        if size is None:
            raise ValidationError(f"family {args.family} needs --m or -N")
        f = kernels.generate_family(args.family, args.d, size, args.sigma2, args.seed)
        kernels.write_kernel(f, args.out)
        print(f"wrote {args.out}: d={f.d} N={f.N} entries={f.entry_count}")
        return None  # a kernel file, no report
    if args.action == "normalize":
        f = kernels.normalize_to_variance(kernels.read_kernel(args.kernel), args.sigma2)
        kernels.write_kernel(f, args.out)
        print(f"wrote {args.out}: second moment {kernels.second_moment(f)!r}")
        return None
    f = kernels.read_kernel(args.kernel)
    prof = contractions.influence_profile(f)
    section = {
        "d": f.d,
        "N": f.N,
        "entries": f.entry_count,
        "squared_norm": kernels.squared_norm(f),
        "second_moment": kernels.second_moment(f),
        "max_influence": float(prof.max()),
        "min_influence": float(prof.min()),
        "influence_sum": float(prof.sum()),
    }
    return [("manifest", reportio.manifest_section("kernel-inspect", {"kernel": args.kernel})),
            ("kernel", section)]


def _attach_statistics(report, norms, kind, nu) -> None:
    """Add the contraction/moment statistics (and the total-variation bound
    2*t1) to a univariate bound report; a statistic that needs a contraction
    past the materialization cap is flagged unavailable:capacity instead."""
    f = norms.f
    if kind in ("normal", "wasserstein") and f.d >= 2:
        value, report.exactness["t1"] = bounds.t1(norms)
        report.components.update(t1=value, tv_bound=2.0 * value)
        try:
            report.components["t2"] = bounds.t2(f, moments.gaussian_fourth_moment(norms))
        except CapacityError:
            report.exactness["t2"] = bounds.UNAVAILABLE
    elif kind == "chi2":
        try:
            report.components["t3"], report.exactness["t3"] = bounds.t3(norms, nu)
        except CapacityError:
            report.exactness["t3"] = bounds.UNAVAILABLE
        try:
            # t4 from the exact fourth-minus-twelve-third combination
            comb = moments.gaussian_chi_square_combination(norms, nu)
            report.components["t4"] = bounds.t4(0.0, comb, nu, f.d)
        except CapacityError:
            report.exactness["t4"] = bounds.UNAVAILABLE


def cmd_bound(args) -> list:
    if args.kind != "multi" and len(args.kernel) > 1:
        raise ValidationError(f"bound {args.kind} takes one --kernel, got {len(args.kernel)}")
    kernel_list, law, config, params = _sampling_inputs(args)
    if args.profile:
        beta3, beta4 = _parse_floats(args.profile, 2, "--profile")
        profile = bounds.MomentProfile(beta3=beta3, beta4=beta4)
    else:
        profile = bounds.MomentProfile.of_law(law)
    params.update(kind=args.kind, profile=[profile.beta3, profile.beta4], budget=args.budget)
    if args.kind == "multi":
        b2m, b3m = _parse_floats(args.budget, 2, "--budget (multi)")
        budget = bounds.TestFunctionBudget(b2m=b2m, b3m=b3m)
        normalized = [kernels.normalize_to_variance(f, 1.0) for f in kernel_list]
        report = bounds.multivariate_smooth_bound(normalized, profile, budget)
    else:
        a, bb, b3 = _parse_floats(args.budget, 3, "--budget")
        budget = bounds.TestFunctionBudget(a=a, b=bb, b3=b3)
        chi2 = args.kind == "chi2"
        if chi2:
            check_degrees(args.nu)  # before 2 nu is used as the target second moment
        f = kernels.normalize_to_variance(kernel_list[0], 2.0 * args.nu if chi2 else 1.0)
        norms = contractions.ChaosNorms(f)
        eq3, eq4, exactness, se = moments.estimate_moments(norms, law, config, need_third=chi2)
        if chi2:
            params["nu"] = args.nu
            report = bounds.chi_square_smooth_bound(
                f, profile, budget, args.nu, eq3, eq4, exactness, se
            )
        elif args.kind == "normal":
            report = bounds.normal_smooth_bound(f, profile, budget, eq4, exactness, se)
        else:
            report = bounds.wasserstein_bound(f, profile, eq4, exactness, se)
        _attach_statistics(report, norms, args.kind, args.nu)
        if exactness == bounds.MONTE_CARLO:
            params["seed"] = args.seed
    return [("manifest", reportio.manifest_section(f"bound-{args.kind}", params, seed=args.seed)),
            ("bound", reportio.bound_report_section(report))]


def cmd_simulate(args) -> list:
    if args.nu is not None:
        check_degrees(args.nu)
        if len(args.kernel) > 1:
            raise ValidationError(f"simulate --nu takes one --kernel, got {len(args.kernel)}")
    kernel_list, law, config, params = _sampling_inputs(args)
    params["batch"] = args.batch
    if args.nu is not None:
        params["nu"] = args.nu
    sections = [("manifest", reportio.manifest_section("simulate", params, seed=args.seed))]
    raw = simulate.sample_vector_sums(kernel_list, law, config)
    m = len(kernel_list)
    if m > 1:
        head = {"law": law.name, "n": config.n, "seed": config.seed, "m": m}
        head.update(reportio.matrix_items("covariance", reductions.covariance(raw)))
        sections.append(("joint", head))
    for j in range(m):
        summary = simulate.SampleSummary(config.n, law.name, config.seed, raw[:, j])
        extra = {"ks_normal": simulate.ks_normal(summary)}
        if args.nu is not None:
            extra["ks_chi2"] = simulate.ks_chi2(summary, args.nu)
        name = f"marginal.{j}" if m > 1 else "summary"
        sections.append((name, reportio.summary_section(summary, extra)))
    if args.dump_samples:
        simulate.write_samples(args.dump_samples, raw)
    return sections


def cmd_diagnose(args) -> list:
    with reading(args.spec), open(args.spec, encoding="utf-8") as fh:
        seq = dict(reportio.parse_sections(fh.read(), reportio.DIAGNOSE_MAGIC)).get("sequence")
    if seq is None:
        raise ValidationError("diagnose spec needs a [sequence] section")
    spec = diagnose.SequenceSpec.from_section(seq, workers=args.workers)
    params = {k: seq[k] for k in sorted(seq) if k != "workers"}
    manifest = reportio.manifest_section("diagnose", params, seed=spec.seed)
    return [("manifest", manifest)] + reportio.verdict_sections(diagnose.run(spec))


# each command returns its report's sections, or None when it writes no report
COMMANDS = {"kernel": cmd_kernel, "bound": cmd_bound, "simulate": cmd_simulate,
            "diagnose": cmd_diagnose}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # every sampling call of the command shares one worker pool, shut
        # down before main returns on every path
        with simulate.worker_pool():
            args = parser.parse_args(argv)
            sections = COMMANDS[args.command](args)
            if sections is not None:
                _emit(reportio.format_sections(reportio.REPORT_MAGIC, sections), args.out)
            return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"capacity error: out of memory{detail}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
