import collections
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homsum
from homsum import cli, contractions, kernels, reportio, simulate


def run(args):
    return cli.main(args)


class TestKernelCommands:
    def test_generate_disjoint_pairs(self, tmp_path, capsys):
        out = tmp_path / "d.kern"
        assert run(["kernel", "generate", "--family", "disjoint_pairs", "--m", "100",
                    "--out", str(out)]) == 0
        f = kernels.read_kernel(out)
        assert f.entry_count == 100
        assert "entries=100" in capsys.readouterr().out

    def test_generate_requires_size(self, tmp_path):
        assert run(["kernel", "generate", "--family", "walsh", "--out",
                    str(tmp_path / "w.kern")]) == 2

    def test_generate_bad_size_is_validation_error(self, tmp_path):
        assert run(["kernel", "generate", "--family", "disjoint_pairs", "--m", "0",
                    "--out", str(tmp_path / "d.kern")]) == 2

    @pytest.mark.parametrize("family, size", [
        ("random_sparse", ["--d", "3", "-N", "8"]), ("constant", ["-N", "5"]),
    ])
    def test_generate_negative_seed_exit_2(self, tmp_path, capsys, family, size):
        out = tmp_path / "k.kern"
        assert run(["kernel", "generate", "--family", family, *size, "--seed", "-1",
                    "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_reports_norm(self, tmp_path):
        kern = tmp_path / "p2.kern"
        kernels.write_kernel(kernels.single_pair(), kern)
        report_path = tmp_path / "r.txt"
        assert run(["kernel", "inspect", "--kernel", str(kern), "--out", str(report_path)]) == 0
        sections = dict(reportio.parse_sections(report_path.read_text(), reportio.REPORT_MAGIC))
        assert sections["kernel"]["second_moment"] == 1.0
        assert sections["kernel"]["max_influence"] == 0.25

    def test_normalize(self, tmp_path):
        kern = tmp_path / "in.kern"
        kernels.write_kernel(kernels.disjoint_pairs(4, sigma2=3.0), kern)
        out = tmp_path / "out.kern"
        assert run(["kernel", "normalize", "--kernel", str(kern), "--sigma2", "1.0",
                    "--out", str(out)]) == 0
        assert kernels.second_moment(kernels.read_kernel(out)) == pytest.approx(1.0, rel=1e-12)

    # nan and inf got past a `<= 0` test and were blamed on the kernel entries;
    # argparse took -inf, -nan, -1e3 and -NaN (as -N aN) for flags and exited 1
    @pytest.mark.parametrize("sigma2", ["-1", "0", "nan", "inf", "-inf", "-nan", "-1e3", "-NaN"])
    @pytest.mark.parametrize("family, size", [
        ("constant", ["-N", "5"]), ("single_pair", []),
        ("disjoint_pairs", ["--m", "3"]), ("walsh", ["--d", "2", "-N", "5"]),
        ("random_sparse", ["--d", "2", "-N", "5"]),
    ])
    def test_generate_non_positive_sigma2_exit_2(self, tmp_path, capsys, family, size, sigma2):
        out = tmp_path / "k.kern"
        assert run(["kernel", "generate", "--family", family, *size, "--sigma2", sigma2,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: target second moment must be finite and positive, got {float(sigma2)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("sigma2", ["0", "nan", "inf", "-inf", "-nan", "-1e3"])
    def test_normalize_bad_sigma2_exit_2(self, tmp_path, capsys, sigma2):
        kern, out = tmp_path / "in.kern", tmp_path / "out.kern"
        kernels.write_kernel(kernels.walsh_kernel(2, 10), kern)
        assert run(["kernel", "normalize", "--kernel", str(kern), "--sigma2", sigma2,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: target second moment must be finite and positive, got {float(sigma2)}\n"
        )
        assert not out.exists()

    def test_generate_order_two_family_at_other_order_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.kern"
        assert run(["kernel", "generate", "--family", "single_pair", "--d", "5",
                    "--out", str(out)]) == 2
        assert "single_pair family requires d = 2" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_1(self):
        assert run(["kernel", "generate"]) == 1
        assert run(["bound", "sideways", "--kernel", "x"]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["kernel", "inspect", "--kernel", str(tmp_path / "nope.kern")]) == 2

    def test_non_finite_kernel_exit_2(self, tmp_path):
        kern = tmp_path / "nan.kern"
        kern.write_text("artifact-kernel v1\nd 2\nN 4\n1 2 0.5\n3 4 nan\n")
        assert run(["bound", "normal", "--kernel", str(kern), "--law", "rademacher",
                    "--out", str(tmp_path / "r.txt")]) == 2
        kern.write_text("artifact-kernel v1\nd 2\nN 4\n1 2 0.5\n3 4 inf\n")
        assert run(["kernel", "inspect", "--kernel", str(kern)]) == 2


class TestInputFileLimits:
    """Files that are not UTF-8, or kernels past the order limit, exit 2; a
    random_sparse support past the materialization cap exits 3."""

    @pytest.mark.parametrize("command", ["inspect", "bound", "diagnose", "inspect_past_8_kib"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin.txt"
        if command == "diagnose":
            path.write_bytes(f"{reportio.DIAGNOSE_MAGIC}\n[sequence]\n".encode() + b"kind = \xff\n")
            args = ["diagnose", "--spec", str(path)]
        else:
            records = b"1 2 0.5\xff\n"
            if command == "inspect_past_8_kib":
                # the header read decodes the first 8 KiB; the rest is decoded
                # while the records are parsed
                records = b"1 2 0.5\n" + b"\n" * 9000 + b"3 4 0.5\xff\n"
            path.write_bytes(b"artifact-kernel v1\nd 2\nN 4\n" + records)
            args = (["bound", "normal", "--law", "rademacher"] if command == "bound"
                    else ["kernel", "inspect"]) + ["--kernel", str(path)]
        assert run(args + ["--out", str(tmp_path / "r.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("d", [100, 171])  # d = 171: d! overflows a float
    @pytest.mark.parametrize("command", [["kernel", "inspect"], ["kernel", "normalize"],
                                         ["simulate", "--n", "10"]])
    def test_order_past_limit_exit_2(self, tmp_path, capsys, command, d):
        kern = tmp_path / "high.kern"
        kern.write_text(f"artifact-kernel v1\nd {d}\nN {d}\n"
                        + " ".join(map(str, range(1, d + 1))) + " 0.5\n")
        out = tmp_path / "out.txt"
        assert run(command + ["--kernel", str(kern), "--out", str(out)]) == 2
        assert f"order d must be an integer in 1..12, got {d}" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_order_past_limit_exit_2(self, tmp_path):
        out = tmp_path / "w.kern"
        assert run(["kernel", "generate", "--family", "walsh", "--d", "13", "-N", "20",
                    "--out", str(out)]) == 2
        assert not out.exists()

    # numpy cannot index an array this long: "array is too big" with exit 1,
    # or an OverflowError traceback, or (normalize) exit 0
    @pytest.mark.parametrize("N", ["4611686018427387904", "99999999999999999999"],
                             ids=["2_62", "past_2_64"])
    @pytest.mark.parametrize("command", [["kernel", "inspect"], ["kernel", "normalize"],
                                         ["bound", "normal", "--law", "rademacher"],
                                         ["bound", "multi", "--budget", "1,1"],
                                         ["simulate", "--n", "10"]],
                             ids=["inspect", "normalize", "bound_normal", "bound_multi", "simulate"])
    def test_dimension_past_limit_exit_2(self, tmp_path, capsys, command, N):
        kern = tmp_path / "wide.kern"
        kern.write_text(f"artifact-kernel v1\nd 2\nN {N}\n1 2 0.5\n")
        out = tmp_path / "out.txt"
        assert run(command + ["--kernel", str(kern), "--out", str(out)]) == 2
        assert f"dimension N must be at most 4294967296, got N={N}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, N", [
        (["--family", "disjoint_pairs", "--m", "99999999999999999999"], 2 * 99999999999999999999),
        (["--family", "disjoint_pairs", "--m", str(2**31 + 1)], 2**32 + 2),  # 2m past the limit
        (["--family", "constant", "-N", "99999999999999999999"], 99999999999999999999),
        (["--family", "walsh", "-N", "99999999999999999999"], 99999999999999999999),
        (["--family", "random_sparse", "-N", "99999999999999999999"], 99999999999999999999),
        # this one ran for minutes, growing its support set
        (["--family", "random_sparse", "-N", "4611686018427387904"], 4611686018427387904),
    ], ids=["disjoint_pairs", "disjoint_pairs_2m", "constant", "walsh", "random_sparse",
            "random_sparse_2_62"])
    def test_generate_dimension_past_limit_exit_2(self, tmp_path, capsys, flags, N):
        out = tmp_path / "g.kern"
        assert run(["kernel", "generate", *flags, "--out", str(out)]) == 2
        assert f"dimension N must be at most 4294967296, got N={N}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["generate", "diagnose_sweep"])
    def test_random_sparse_past_cap_exit_3(self, tmp_path, how):
        # within the dimension limit, random_sparse would sample 2N = 8.6e9
        # support tuples into a set; the child's address space is limited
        # so that a loop that did start fails fast, on another message
        if how == "generate":
            argv = ["kernel", "generate", "--family", "random_sparse", "--d", "2",
                    "-N", "4294967296"]
        else:
            spec = tmp_path / "spec.txt"
            spec.write_text(reportio.format_sections(reportio.DIAGNOSE_MAGIC, [("sequence", {
                "kind": "fourth_moment", "family": "random_sparse", "d": 2,
                "sweep": [4, 4294967296]})]))
            argv = ["diagnose", "--spec", str(spec)]
        out = tmp_path / "out.txt"
        done = _run_in_2_gib(argv + ["--out", str(out)])
        assert done.returncode == 3
        assert done.stderr == ("capacity error: random_sparse d=2, N=4294967296 samples "
                               "8589934592 entries, cap is 10000000\n")
        assert not out.exists()

    # Each family's order and entry count are checked before it builds an
    # array.  Before, constant -N 200000 exited 3 only when numpy failed to
    # allocate its 37.3 GiB (N, N) triangle mask; walsh --d 1000000 computed
    # 1000000! and ended in an OverflowError traceback (exit 1), and
    # random_sparse --d 1000000 ran for more than 30 s.  Children run in 2 GiB.
    @pytest.mark.parametrize("flags, code, message", [
        (["--family", "constant", "-N", "200000"], 3,
         "capacity error: constant family N=200000 has 19999900000 entries, cap is 10000000"),
        (["--family", "constant", "-N", "4473"], 3,
         "capacity error: constant family N=4473 has 10001628 entries, cap is 10000000"),
        (["--family", "disjoint_pairs", "--m", "400000000"], 3,
         "capacity error: disjoint_pairs m=400000000 has 400000000 entries, cap is 10000000"),
        (["--family", "walsh", "-N", "400000000"], 3,
         "capacity error: walsh family d=2, N=400000000 has 399999999 entries, cap is 10000000"),
        (["--family", "walsh", "--d", "1000000", "-N", "2000000"], 2,
         "error: order d must be an integer in 1..12, got 1000000"),
        (["--family", "random_sparse", "--d", "1000000", "-N", "2000000"], 2,
         "error: order d must be an integer in 1..12, got 1000000"),
    ], ids=["constant_200000", "constant_4473", "disjoint_pairs", "walsh", "walsh_order",
            "random_sparse_order"])
    def test_generate_family_checked_before_building(self, tmp_path, flags, code, message):
        out = tmp_path / "g.kern"
        done = _run_in_2_gib(["kernel", "generate", *flags, "--out", str(out)])
        assert (done.returncode, done.stderr) == (code, message + "\n")
        assert not out.exists()

    @pytest.mark.parametrize("how", ["generate", "diagnose_sweep"])
    @pytest.mark.parametrize("family, d, size, message", [
        ("constant", 2, 15, "constant family N=15 has 105 entries"),
        ("disjoint_pairs", 2, 101, "disjoint_pairs m=101 has 101 entries"),
        ("walsh", 3, 103, "walsh family d=3, N=103 has 101 entries"),
    ], ids=["constant", "disjoint_pairs", "walsh"])
    def test_family_past_patched_cap_exit_3(self, tmp_path, monkeypatch, capsys, how,
                                            family, d, size, message):
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 100)
        if how == "generate":
            flag = "--m" if family == "disjoint_pairs" else "-N"
            argv = ["kernel", "generate", "--family", family, "--d", str(d), flag, str(size)]
        else:
            spec = tmp_path / "spec.txt"
            spec.write_text(reportio.format_sections(reportio.DIAGNOSE_MAGIC, [("sequence", {
                "kind": "fourth_moment", "family": family, "d": d, "sweep": [size]})]))
            argv = ["diagnose", "--spec", str(spec)]
        out = tmp_path / "out.txt"
        assert run(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"capacity error: {message}, cap is 100\n"
        assert not out.exists()

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    @pytest.mark.parametrize("command", [["kernel", "inspect"],
                                         ["bound", "normal", "--law", "rademacher"],
                                         ["simulate", "--n", "10"]],
                             ids=["inspect", "bound_normal", "simulate"])
    def test_report_naming_a_non_utf8_path_exit_2(self, tmp_path, capsys, command, to_stdout):
        # a file name that is not UTF-8 reaches Python as surrogates, and the
        # report's manifest names the kernel by it; this was a traceback
        # (exit 1) that left an empty report.  The captured stdout, like
        # stdout in a UTF-8 locale, encodes strictly.
        kern = tmp_path / os.fsdecode(b"\xff.kern")
        kernels.write_kernel(kernels.disjoint_pairs(3), kern)
        out = tmp_path / "r.rep"
        assert run(command + ["--kernel", str(kern)] + ([] if to_stdout else ["--out", str(out)])) == 2
        line = f"param.kernel = {kern}"
        assert capsys.readouterr() == ("", (
            f"error: cannot write the report to {'stdout' if to_stdout else out}: line {line!r} "
            "cannot be encoded as utf-8 (surrogates not allowed)\n"))
        assert not out.exists()


def _run_in_2_gib(argv) -> subprocess.CompletedProcess:
    """`cli.main(argv)` in a child whose address space is limited to 2 GiB,
    so that a command that does start a huge allocation fails fast."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from homsum import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(homsum.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


class TestBoundCommands:
    def test_normal_bound_on_disjoint_pairs(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(100), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", "normal", "--kernel", str(kern), "--law", "rademacher",
                    "--budget", "0,0,1", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        bound = sections["bound"]
        assert bound["applicable"] is True
        assert bound["total"] > 0
        # N = 200 is beyond the enumeration cap, so the moment is sampled
        assert bound["eq4x_exactness"] == "monte-carlo"
        factor = math.sqrt((bound["d"] - 1) / (3 * bound["d"]))
        want = bound["invariance"] + bound["c_star"] * factor * (
            bound["moment_term"] + bound["influence_term"]
        )
        assert bound["total"] == want

    def test_normal_bound_carries_statistics(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(25), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", "normal", "--kernel", str(kern), "--law", "gaussian",
                    "--out", str(out)]) == 0
        bound = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))["bound"]
        assert bound["t1"] == pytest.approx(1 / 5, rel=1e-12)
        assert bound["tv_bound"] == pytest.approx(2 / 5, rel=1e-12)
        assert bound["t2"] == pytest.approx(1 / 5, rel=1e-12)
        assert bound["t1_exactness"] == "exact"
        assert bound["eq4x_exactness"] == "exact"  # gaussian law: contraction identity

    def test_chi2_bound_carries_statistics(self, tmp_path):
        kern = tmp_path / "c.kern"
        kernels.write_kernel(kernels.constant_kernel(40, sigma2=2.0), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", "chi2", "--kernel", str(kern), "--nu", "1", "--law", "gaussian",
                    "--n", "2000", "--seed", "3", "--out", str(out)]) == 0
        bound = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))["bound"]
        assert bound["t3"] <= bound["t4"] * (1 + 1e-10)
        assert bound["t3"] > 0

    def test_chi2_bound_odd_order_exit_2(self, tmp_path):
        kern = tmp_path / "k3.kern"
        kernels.write_kernel(kernels.walsh_kernel(3, 7), kern)
        assert run(["bound", "chi2", "--kernel", str(kern), "--nu", "1",
                    "--out", str(tmp_path / "r.txt")]) == 2

    @pytest.mark.parametrize("nu", ["0", "-1"])
    def test_chi2_bound_bad_nu_exit_2(self, tmp_path, capsys, nu):
        # 2 nu was taken as the target second moment first, and blamed for the error
        kern, out = tmp_path / "c.kern", tmp_path / "r.txt"
        kernels.write_kernel(kernels.constant_kernel(10, sigma2=2.0), kern)
        assert run(["bound", "chi2", "--kernel", str(kern), "--nu", nu, "--law", "gaussian",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: degrees of freedom must be a positive integer, got {nu}\n"
        )
        assert not out.exists()

    def test_multi_bound_emits_delta(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(100), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", "multi", "--kernel", str(kern), "--kernel", str(kern),
                    "--budget", "1,1", "--law", "rademacher", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        np.testing.assert_allclose(sections["bound"]["delta.0"], math.sqrt(2) / 10, rtol=1e-12)

    @pytest.mark.parametrize("kind, flags", [
        ("normal", ["--profile", "nan,nan"]),
        ("normal", ["--profile", "inf,inf"]),
        ("normal", ["--budget", "nan,0,1"]),
        ("normal", ["--budget", "a,0,1"]),
        # (30 beta4)^d overflowed with a traceback; the multi total was inf with exit 0
        ("normal", ["--profile", "1,1e200"]),
        ("wasserstein", ["--profile", "1,1e200"]),
        ("chi2", ["--profile", "1,1e200"]),
        ("normal", ["--law", "two_point:1e-200"]),
        ("multi", ["--profile", "1e300,1", "--budget", "1,1"]),
        # the message blamed only the moment profile
        ("normal", ["--law", "gaussian", "--budget", "0,0,1e308"]),
        # argparse took a value with a leading "-" and a comma for a flag and exited 1
        ("normal", ["--profile", "-1,3"]),
        ("normal", ["--budget", "-1,0,1"]),
    ], ids=["profile_nan", "profile_inf", "budget_nan", "budget_not_a_number",
            "normal_profile_overflows", "wasserstein_profile_overflows",
            "chi2_profile_overflows", "law_moments_overflow", "multi_mixing_term_overflows",
            "budget_overflows", "profile_negative", "budget_negative"])
    def test_non_finite_or_non_numeric_parameters_exit_2(self, tmp_path, capsys, kind, flags):
        kern, out = tmp_path / "d.kern", tmp_path / "r.txt"
        kernels.write_kernel(kernels.disjoint_pairs(10), kern)
        assert run(["bound", kind, "--kernel", str(kern), "--law", "rademacher",
                    "--n", "2000", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if flags[-2:] == ["--budget", "0,0,1e308"]:
            assert "b3=1e+308" in err  # the budget overflowed, not the Gaussian's profile
        assert not out.exists()

    # empty fields were dropped, so 1,,3 ran as 1,3
    @pytest.mark.parametrize("kind, flag, value, what", [
        ("normal", "--profile", "1,,3", "--profile needs 2"),
        ("normal", "--profile", ",1,3", "--profile needs 2"),
        ("normal", "--profile", "1,3,", "--profile needs 2"),
        ("normal", "--budget", "0,,0,1", "--budget needs 3"),
        ("multi", "--budget", "1,1,", "--budget (multi) needs 2"),
    ], ids=["profile_inner", "profile_leading", "profile_trailing", "budget_inner",
            "multi_budget_trailing"])
    def test_empty_comma_field_exit_2(self, tmp_path, capsys, kind, flag, value, what):
        kern, out = tmp_path / "d.kern", tmp_path / "r.txt"
        kernels.write_kernel(kernels.disjoint_pairs(10), kern)
        assert run(["bound", kind, "--kernel", str(kern), "--law", "rademacher",
                    flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {what} comma-separated numbers, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["normal", "chi2", "wasserstein"])
    def test_second_kernel_exit_2(self, tmp_path, capsys, kind):
        # only `bound multi` bounds several kernels
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", kind, "--kernel", str(kern), "--kernel", str(kern), "--law", "rademacher",
                    "--out", str(out)]) == 2
        assert f"bound {kind} takes one --kernel, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_kernel_exit_2(self, tmp_path):
        out = tmp_path / "r.txt"
        assert run(["bound", "normal", "--kernel", str(tmp_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_wasserstein_inapplicable_reported(self, tmp_path):
        kern = tmp_path / "p2.kern"
        kernels.write_kernel(kernels.single_pair(), kern)
        out = tmp_path / "r.txt"
        assert run(["bound", "wasserstein", "--kernel", str(kern), "--law", "gaussian",
                    "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert sections["bound"]["applicable"] is False


class TestCapacityFlags:
    """A statistic that needs a contraction past the materialization cap is
    flagged unavailable:capacity instead of vanishing from the report."""

    def _bound(self, tmp_path, generate, argv):
        kern, out = tmp_path / "k.kern", tmp_path / "r.txt"
        assert run(["kernel", "generate", *generate, "--out", str(kern)]) == 0
        assert run(["bound", *argv, "--kernel", str(kern), "--out", str(out)]) == 0
        return dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))["bound"]

    def test_t2_flagged_when_a_symmetrized_norm_is_past_the_cap(self, tmp_path):
        # rank 1 of d=5, N=8 needs 8^8 values; 2^8 sign patterns keep the
        # enumerated moments independent of the BLAS thread count
        bound = self._bound(tmp_path, ["--family", "random_sparse", "--d", "5", "-N", "8",
                                       "--seed", "1"], ["normal", "--law", "rademacher"])
        assert bound["t1_exactness"] == "upper-bound"
        assert bound["t2_exactness"] == "unavailable:capacity"
        assert "t2" not in bound
        assert bound["eq4x_exactness"] == "exact"

    @pytest.mark.parametrize("kind", ["normal", "wasserstein"])
    def test_gaussian_moment_past_the_cap_is_sampled(self, tmp_path, kind):
        # rank 1 of d=3, N=60 needs 60^4 values: the contraction identity
        # cannot give E Q^4, so it is drawn like that of any other law
        kern, out = tmp_path / "k.kern", tmp_path / "r.txt"
        assert run(["kernel", "generate", "--family", "random_sparse", "--d", "3", "-N", "60",
                    "--seed", "1", "--out", str(kern)]) == 0
        assert run(["bound", kind, "--kernel", str(kern), "--law", "gaussian", "--n", "2000",
                    "--seed", "4", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        bound = sections["bound"]
        assert bound["eq4x_exactness"] == "monte-carlo"
        assert bound["mc_standard_error"] > 0
        assert bound["t1_exactness"] == "upper-bound"
        assert bound["t2_exactness"] == "unavailable:capacity"
        assert sections["manifest"]["param.seed"] == 4

    def test_t3_t4_flagged_when_the_defect_is_past_the_cap(self, tmp_path):
        # the defect of d=4, N=60 needs 60^4 values
        bound = self._bound(tmp_path, ["--family", "walsh", "--d", "4", "-N", "60"],
                            ["chi2", "--law", "gaussian", "--n", "200", "--seed", "1"])
        assert bound["t3_exactness"] == bound["t4_exactness"] == "unavailable:capacity"
        assert "t3" not in bound and "t4" not in bound


def _count_calls(monkeypatch, module, names):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_each_norm_computed_once_per_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in (("w4.kern", ["--family", "walsh", "--d", "4", "-N", "6"]),
                       ("rs3.kern", ["--family", "random_sparse", "--d", "3", "-N", "12",
                                     "--seed", "5"])):
        assert run(["kernel", "generate", *argv, "--out", name]) == 0
    (tmp_path / "fm.txt").write_text(reportio.format_sections(reportio.DIAGNOSE_MAGIC, [(
        "sequence", {"kind": "fourth_moment", "family": "constant", "d": 2, "sweep": [10, 20, 30]},
    )]))
    calls = _count_calls(monkeypatch, contractions,
                         ("contract", "symmetrize", "contraction_norm", "chi_square_defect"))
    once_per_rank = {"contract": 2, "symmetrize": 2, "contraction_norm": 1}
    cases = [
        (["bound", "normal", "--kernel", "w4.kern", "--law", "gaussian"], once_per_rank),
        (["bound", "chi2", "--kernel", "w4.kern", "--law", "gaussian", "--n", "200"],
         {**once_per_rank, "chi_square_defect": 1}),
        (["bound", "multi", "--kernel", "rs3.kern", "--kernel", "w4.kern", "--budget", "1,1"],
         {"contraction_norm": 5}),
        (["diagnose", "--spec", "fm.txt"], {"contraction_norm": 3}),  # one per sweep point
    ]
    for argv, want in cases:
        calls.clear()
        assert run([*argv, "--out", "r.txt"]) == 0
        assert dict(calls) == want, argv


class TestSimulateCommand:
    def test_report_fields(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(20), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--law", "gaussian", "--n", "2000",
                    "--seed", "42", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert sections["summary"]["n"] == 2000
        assert 0 <= sections["summary"]["ks_normal"] <= 1

    def test_chi2_distance_with_nu(self, tmp_path):
        kern = tmp_path / "c.kern"
        kernels.write_kernel(kernels.constant_kernel(30, sigma2=2.0), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--law", "gaussian", "--n", "2000",
                    "--seed", "1", "--nu", "1", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert "ks_chi2" in sections["summary"]

    def test_bad_nu_exit_2_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before checking --nu")

        monkeypatch.setattr(simulate, "sample_vector_sums", no_sampling)
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--law", "rademacher", "--n", "100000",
                    "--nu", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_nu_with_two_kernels_exit_2(self, tmp_path, capsys):
        # a joint simulation computes no chi-square distance
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--kernel", str(kern), "--nu", "3",
                    "--n", "100", "--out", str(out)]) == 2
        assert "simulate --nu takes one --kernel, got 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["bound", "normal"]])
    def test_single_draw_exit_2(self, tmp_path, command):
        # one draw has no standard error; it used to be written as nan
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(command + ["--kernel", str(kern), "--law", "uniform", "--n", "1",
                              "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["bound", "normal"]])
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 5])
    def test_seed_past_64_bits_exit_2(self, tmp_path, capsys, command, seed):
        # Philox is keyed by 64 seed bits: 2^64 + 5 used to sample what 5 did
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(command + ["--kernel", str(kern), "--law", "uniform", "--n", "100",
                              "--seed", str(seed), "--out", str(out)]) == 2
        assert "0 <= seed < 2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_samples(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--n", "100", "--seed", str(2**64 - 1),
                    "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["bound", "normal"]])
    @pytest.mark.parametrize("n", [2**62, 10**20])
    def test_sample_count_past_numpy_exit_3(self, tmp_path, capsys, command, n):
        # numpy refused these arrays with a ValueError, which left a traceback
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(command + ["--kernel", str(kern), "--law", "uniform", "--n", str(n),
                              "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"capacity error: {n} x 1 sums need {8 * n} bytes, past numpy's largest array "
            f"of {np.iinfo(np.intp).max}\n"
        )
        assert not out.exists()

    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(simulate, "sample_vector_sums", no_memory)
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(kern), "--n", "100000000000",
                    "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "capacity error: out of memory: Unable to allocate 745. GiB for an array\n"
        )
        assert not out.exists()

    def test_dump_samples(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(5), kern)
        dump = tmp_path / "s.raw"
        assert run(["simulate", "--kernel", str(kern), "--n", "256", "--seed", "9",
                    "--dump-samples", str(dump), "--out", str(tmp_path / "r.txt")]) == 0
        samples = simulate.read_samples(dump)
        assert samples.size == 256

    def test_joint_simulation(self, tmp_path):
        a = tmp_path / "a.kern"
        b = tmp_path / "b.kern"
        kernels.write_kernel(kernels.disjoint_pairs(8), a)
        kernels.write_kernel(kernels.walsh_kernel(2, 16), b)
        out = tmp_path / "r.txt"
        assert run(["simulate", "--kernel", str(a), "--kernel", str(b), "--n", "500",
                    "--seed", "3", "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert sections["joint"]["m"] == 2
        assert "marginal.0" in sections and "marginal.1" in sections

    def test_byte_identical_across_workers(self, tmp_path):
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(30), kern)
        outs = []
        for w, name in ((1, "r1.txt"), (4, "r4.txt"), (8, "r8.txt")):
            path = tmp_path / name
            assert run(["simulate", "--kernel", str(kern), "--law", "uniform", "--n", "3000",
                        "--seed", "11", "--workers", str(w), "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestDiagnoseCommand:
    def _write_spec(self, path, body):
        path.write_text(reportio.format_sections(reportio.DIAGNOSE_MAGIC, [("sequence", body)]))

    def test_universality_positive(self, tmp_path):
        spec = tmp_path / "spec.txt"
        self._write_spec(spec, {
            "kind": "universality", "family": "disjoint_pairs", "d": 2,
            "sweep": [4, 64, 512], "laws": ["gaussian", "rademacher"],
            "n": 4000, "seed": 2,
        })
        out = tmp_path / "r.txt"
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert sections["verdict"]["verdict"] is True

    def test_walsh_negative_still_exit_0(self, tmp_path):
        spec = tmp_path / "spec.txt"
        self._write_spec(spec, {
            "kind": "fourth_moment", "family": "walsh", "d": 2, "sweep": [10, 50, 100],
        })
        out = tmp_path / "r.txt"
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 0
        sections = dict(reportio.parse_sections(out.read_text(), reportio.REPORT_MAGIC))
        assert sections["verdict"]["verdict"] is False

    def test_malformed_spec_exit_2(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("garbage\n")
        assert run(["diagnose", "--spec", str(spec)]) == 2

    _ODD_CHI2 = {"family": "walsh", "d": 3, "sweep": [5, 9], "target": "chi2",
                 "laws": ["gaussian", "rademacher"], "n": 2000}

    @pytest.mark.parametrize("body, message", [
        ({"kind": "fourth_moment", "family": "disjoint_pairs", "d": 2, "sweep": [100, 10]},
         "strictly increasing"),
        # an odd order has no chi-square limit: these exited 0, the first with verdict = true
        ({"kind": "universality", **_ODD_CHI2}, "even order"),
        ({"kind": "de_jong", **_ODD_CHI2}, "even order"),
        # unknown keys ran with their defaults: `law` computed under Gaussian
        # inputs while the manifest said param.law = rademacher
        ({"kind": "de_jong", "family": "disjoint_pairs", "d": 2, "sweep": [20], "n": 200,
          "law": "rademacher"}, "unknown diagnose spec key 'law'"),
        ({"kind": "fourth_moment", "family": "disjoint_pairs", "d": 2, "sweep": [10, 20],
          "threshold": 0.1}, "unknown diagnose spec key 'threshold'"),
        # it sampled laws[0] only, while the manifest named every law
        ({"kind": "de_jong", "family": "disjoint_pairs", "d": 2, "sweep": [20], "n": 200,
          "laws": ["gaussian", "rademacher"]}, "de_jong takes one law"),
        ({"kind": "fourth_moment", "family": "constant", "d": 2,
          "sweep": [4, 99999999999999999999]}, "dimension N must be at most 4294967296"),
        # a bool is an int to Python: seed = true ran with seed 1
        ({"kind": "fourth_moment", "family": "disjoint_pairs", "d": 2, "sweep": [10, 20],
          "seed": True}, "diagnose spec field 'seed' must be an integer, got True"),
    ], ids=["decreasing_sweep", "odd_order_chi2_universality", "odd_order_chi2_de_jong",
            "unknown_key_law", "unknown_key_threshold", "de_jong_two_laws",
            "sweep_past_dimension_limit", "seed_boolean"])
    def test_invalid_sequence_exit_2(self, tmp_path, capsys, body, message):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        self._write_spec(spec, body)
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("d", "x"), ("sweep", ["a", "b"])],
                             ids=["d_not_a_number", "sweep_not_numbers"])
    def test_non_integer_spec_field_exit_2(self, tmp_path, field, value):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        body = {"kind": "fourth_moment", "family": "disjoint_pairs", "d": 2, "sweep": [10, 20]}
        self._write_spec(spec, {**body, field: value})
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", ["laws", "family", "target", "kind"])
    def test_non_text_spec_field_exit_2(self, tmp_path, field):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        body = {"kind": "de_jong", "family": "disjoint_pairs", "d": 2, "sweep": [10, 20],
                "laws": "rademacher", "n": 200}
        self._write_spec(spec, {**body, field: 1})
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["fourth_moment", "chi_square"])
    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_workers_flag_exit_2_without_sampling(self, tmp_path, kind, workers):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        self._write_spec(spec, {"kind": kind, "family": "constant", "d": 2, "sweep": [10, 20]})
        argv = ["diagnose", "--spec", str(spec), "--workers", workers, "--out", str(out)]
        assert run(argv) == 2
        assert not out.exists()

    # the last cell of two sizes and one law samples with seed + 7919 * 17
    @pytest.mark.parametrize("field, value", [("n", 0), ("n", 1), ("batch", -1), ("seed", -5),
                                              ("workers", 0), ("seed", 2**64),
                                              ("seed", 2**64 - 7919 * 17)])
    def test_bad_sampling_field_exit_2_without_sampling(self, tmp_path, field, value):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        body = {"kind": "fourth_moment", "family": "constant", "d": 2, "sweep": [10, 20]}
        self._write_spec(spec, {**body, field: value})
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sample_count_past_numpy_exit_3(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        self._write_spec(spec, {"kind": "universality", "family": "disjoint_pairs", "d": 2,
                                "sweep": [4, 16], "laws": ["gaussian", "uniform"],
                                "n": 10**20})
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 3
        assert "past numpy's largest array" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("laws", [["gaussian", "gaussian"],
                                      ["two_point:0.3", "two_point:0.30"]],
                             ids=["same_name", "same_law"])
    def test_repeated_law_exit_2(self, tmp_path, laws):
        # the second law's cells used to overwrite the first's: a law was
        # compared with itself and the verdict came out true
        spec, out = tmp_path / "spec.txt", tmp_path / "r.txt"
        self._write_spec(spec, {"kind": "universality", "family": "disjoint_pairs", "d": 2,
                                "sweep": [4, 16], "laws": laws, "n": 200})
        assert run(["diagnose", "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()


class TestWorkerPool:
    """One worker pool per command, shared by its sampling calls and shut
    down before the command returns."""

    @staticmethod
    def _universality(tmp_path, sweep=(4, 16), laws=("gaussian", "uniform"), n=600, batch=50):
        spec = tmp_path / "spec.txt"
        spec.write_text(reportio.format_sections(reportio.DIAGNOSE_MAGIC, [("sequence", {
            "kind": "universality", "family": "disjoint_pairs", "d": 2, "sweep": list(sweep),
            "laws": list(laws), "n": n, "seed": 4, "batch": batch,
        })]))
        return ["diagnose", "--spec", str(spec)]

    def test_one_pool_for_every_universality_cell(self, tmp_path, monkeypatch, inline_pools):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        argv = self._universality(tmp_path) + ["--workers", "2", "--out", str(tmp_path / "r")]
        assert run(argv) == 0
        assert inline_pools == [2]  # 2 sizes x 2 laws: four pools, one per cell, before

    def test_workers_live_through_the_command_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        real = simulate._sample_matrix
        alive = []

        def sample_and_count(*args):
            out = real(*args)
            alive.append(len(multiprocessing.active_children()))
            return out

        monkeypatch.setattr(simulate, "_sample_matrix", sample_and_count)
        argv = self._universality(tmp_path) + ["--workers", "2", "--out", str(tmp_path / "r")]
        assert run(argv) == 0
        assert alive == [2, 2, 2, 2]
        assert multiprocessing.active_children() == []

    def test_workers_shut_down_when_a_later_call_runs_out_of_memory(self, tmp_path, monkeypatch,
                                                                   capsys):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        real = simulate._sample_matrix
        calls = []

        def second_call_fails(*args):
            calls.append(len(multiprocessing.active_children()))
            if len(calls) == 2:
                raise MemoryError("Unable to allocate 745. GiB for an array")
            return real(*args)

        monkeypatch.setattr(simulate, "_sample_matrix", second_call_fails)
        out = tmp_path / "r"
        assert run(self._universality(tmp_path) + ["--workers", "2", "--out", str(out)]) == 3
        assert calls == [0, 2]  # the first call's pool was running when the second failed
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err.startswith("capacity error: out of memory")
        assert not out.exists()

    def test_reports_byte_identical_across_workers_with_leftover_rows(self, tmp_path,
                                                                     monkeypatch):
        # --batch 7 leaves a short last block and rows past BLAS's groups
        # of 4; the universality pool serves four cells in turn
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        kern = tmp_path / "d.kern"
        kernels.write_kernel(kernels.disjoint_pairs(30), kern)
        commands = {
            "bound": ["bound", "normal", "--kernel", str(kern), "--law", "uniform",
                      "--n", "1501", "--seed", "5", "--batch", "7"],
            "diagnose": self._universality(tmp_path, n=1501, batch=7),
        }
        for name, argv in commands.items():
            reports = []
            for workers in ("1", "2", "4"):
                out = tmp_path / f"{name}{workers}.rep"
                assert run(argv + ["--workers", workers, "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1] == reports[2], name


GOLDEN_INPUTS = {
    "single_pair.kern": ["--family", "single_pair"],
    "c12.kern": ["--family", "constant", "-N", "12"],
    "dp8.kern": ["--family", "disjoint_pairs", "--m", "8"],
    "w3.kern": ["--family", "walsh", "--d", "3", "-N", "10"],
    "rs2.kern": ["--family", "random_sparse", "--d", "2", "-N", "12", "--seed", "3"],
    "rs3.kern": ["--family", "random_sparse", "--d", "3", "-N", "12", "--seed", "5"],
    "d.kern": ["--family", "disjoint_pairs", "--m", "50"],
    "w4.kern": ["--family", "walsh", "--d", "4", "-N", "6"],
    "c12_chi2.kern": ["--family", "constant", "-N", "12", "--sigma2", "2"],
}

GOLDEN_SPECS = {
    "sweep.txt": {"kind": "universality", "family": "disjoint_pairs", "d": 2,
                  "sweep": [4, 32], "laws": ["rademacher", "shifted_exponential"],
                  "n": 2000, "seed": 5},
    "fourth_rs3.txt": {"kind": "fourth_moment", "family": "random_sparse", "d": 3,
                       "sweep": [8, 10, 12], "seed": 3},
    "chi2_c.txt": {"kind": "chi_square", "family": "constant", "d": 2,
                   "sweep": [10, 20, 40], "nu": 1},
    "dejong_rad.txt": {"kind": "de_jong", "family": "disjoint_pairs", "d": 2, "sweep": [6],
                       "laws": ["rademacher"], "n": 2000, "seed": 4},
    "dejong_unif.txt": {"kind": "de_jong", "family": "walsh", "d": 2, "sweep": [12],
                        "laws": ["uniform"], "n": 2000, "seed": 6},
}

GOLDEN_COMMANDS = {
    "inspect.rep": ["kernel", "inspect", "--kernel", "rs2.kern"],
    "normalized.kern": ["kernel", "normalize", "--kernel", "rs3.kern", "--sigma2", "2.0"],
    "normal_rs2.rep": ["bound", "normal", "--kernel", "rs2.kern", "--law", "rademacher"],
    "normal_rs3.rep": ["bound", "normal", "--kernel", "rs3.kern", "--law", "gaussian"],
    "normal_w3.rep": ["bound", "normal", "--kernel", "w3.kern", "--law", "uniform",
                      "--n", "2000", "--seed", "4"],
    "chi2_c12.rep": ["bound", "chi2", "--kernel", "c12.kern", "--law", "rademacher"],
    "chi2_c12_mc.rep": ["bound", "chi2", "--kernel", "c12.kern", "--law", "gaussian",
                        "--n", "2000", "--seed", "7"],
    "multi_3.rep": ["bound", "multi", "--kernel", "rs3.kern", "--kernel", "w3.kern",
                    "--budget", "1,1"],
    "multi_2.rep": ["bound", "multi", "--kernel", "rs2.kern", "--kernel", "c12.kern",
                    "--kernel", "dp8.kern", "--budget", "1,1"],
    # the criterion-10 manifests of the acceptance suite, at one worker
    "c10_simulate.rep": ["simulate", "--kernel", "d.kern", "--law", "uniform",
                         "--n", "4000", "--seed", "77"],
    "c10_bound.rep": ["bound", "normal", "--kernel", "d.kern", "--law", "rademacher",
                      "--n", "4000", "--seed", "78", "--budget", "0,0,1"],
    "c10_diagnose.rep": ["diagnose", "--spec", "sweep.txt"],
    "normal_w4.rep": ["bound", "normal", "--kernel", "w4.kern", "--law", "gaussian"],
    "chi2_w4.rep": ["bound", "chi2", "--kernel", "w4.kern", "--law", "rademacher"],
    "wasserstein_rs3.rep": ["bound", "wasserstein", "--kernel", "rs3.kern", "--law", "gaussian"],
    "fourth_rs3.rep": ["diagnose", "--spec", "fourth_rs3.txt"],
    "chi2_c.rep": ["diagnose", "--spec", "chi2_c.txt"],
    "dejong_rad.rep": ["diagnose", "--spec", "dejong_rad.txt"],
    "dejong_unif.rep": ["diagnose", "--spec", "dejong_unif.txt"],
    "joint_simulate.rep": ["simulate", "--kernel", "w3.kern", "--kernel", "dp8.kern",
                           "--law", "uniform", "--n", "3001", "--seed", "4"],
    "chi2_simulate.rep": ["simulate", "--kernel", "c12_chi2.kern", "--law", "rademacher",
                          "--n", "3000", "--seed", "9", "--nu", "1",
                          "--dump-samples", "chi2_simulate.raw"],
}

# files the golden commands write besides their reports
GOLDEN_DUMPS = ("chi2_simulate.raw",)

# sha256 of each output (x86-64, numpy 2.4, OpenBLAS).  The first 19 were
# taken before kernels moved to array-only storage, the rest (w4.kern onward)
# before contraction norms were computed once per kernel, joint_simulate.rep
# before the joint samples lost their summary record, and the last three
# (c12_chi2.kern onward) while a single-kernel `simulate` still sampled
# through its own path; none of these changes may move a byte.
# Sizes stay small enough that no BLAS call splits across threads: at
# N = 16 the 2^N sign enumeration already gives thread-dependent moments.
GOLDEN_SHA256 = {
    "single_pair.kern": "1e1c4556202bae5d430f1316e17f1c0f9e865628c9b66a215dd6ab10ec519b0e",
    "c12.kern": "b8f2df5edbc6886175e03d8deba40fde2046cd28326a8c14a72b552100362985",
    "dp8.kern": "3694f329cdd8c76e03400c8c0d977698921065c025e7985f6c10372d8316ff52",
    "w3.kern": "f8e7d400a503731e50adec7ffcf17a69ed0c488b1ce223ba0193c11d8b8a95d4",
    "rs2.kern": "a688a69352b40133ab14b31bf4fd97e736d891c533078e83028259d35e5e11a5",
    "rs3.kern": "d5814ec911496d5b7172fe1e6fb658b6d1d627e907f318f87d9b4596943c8492",
    "d.kern": "e03ce3c544d206e0e04bb0a5cc37576e49cd0b4e600cc04f7d1787b540c03061",
    "w4.kern": "e231c56f1c1f53e3ffcb4e31e4f8fd041e5c76b67ba03e1a4be752191e6b77ca",
    "inspect.rep": "6177dbb8d7464378984b7dbaae92606c628f9852beaadece773c0f19ea0c3f14",
    "normalized.kern": "1481a193f38eec959a6d11c2d71931654d4825347c647846237a1ec18a71b407",
    "normal_rs2.rep": "501d26beb3faf3229d1de8df260ef4d1b3d143a9a5d6766c6d2dd47f02985a93",
    "normal_rs3.rep": "d67b12029eeb45b94bb566b0de4df8545b390d8275364e32ca8629679199efd8",
    "normal_w3.rep": "0eb87bb6d63a848a84e058d51eb98b10e8165d890d29b9edcc01f4606904bb91",
    "chi2_c12.rep": "20e40dd4a725e140bf397c2491bc1c05e477bd8586a034286cd2d1a92c06df62",
    "chi2_c12_mc.rep": "9f00740d8c693256f65bb037f1e7cf2eeee16b2232d9f515c752f6dd8694c7df",
    "multi_3.rep": "365df0bfcaa2e3308a5efeb17dc8aefec76d79f714ae5659a7e1b51a98b25c6a",
    "multi_2.rep": "2c7b01bbc6da663bf0ea6c2cb8e3d2c5da2c12765d3304cbb487201a93ab5be1",
    "c10_simulate.rep": "75eb36bc01359787f44831f81c7480b84eeb8af57237f6e9fc7a44349019b10e",
    "c10_bound.rep": "8e02adae2c009c02c76c412f64cf69f33616f2708cdae65ee271c8fe4e342e3a",
    "c10_diagnose.rep": "dd1096b6b891674e126b1101d9b5a5520b5cc317d7562a9249fe24db573a3f5d",
    "normal_w4.rep": "a43319dd40e47b90126037102a986d4a6be14b3db29f2d53ebe188e2a9959528",
    "chi2_w4.rep": "aaa48dea099c799a1ced9cdaa6f802459b63ea33b7c1b26b227bb52b89520206",
    "wasserstein_rs3.rep": "f4364a1bb5d9fcb56e4c0be7d10e0498b141528cace2b919219f63e104355507",
    "fourth_rs3.rep": "1b2ff86102aba4273c59a30772ce9b138dd0cbb0041280b9b0dcbae9dfb9b357",
    "chi2_c.rep": "eecba57cd543450f21e4b3beaff7d0635006d3f0d44f28bcf1031df99aaaab87",
    "dejong_rad.rep": "39c69edb15c010ae6b9229d55f52d247bbd3a4c1cbbd930afbcf948a267a5910",
    "dejong_unif.rep": "7bc5a51afa0fa48e719529fa0da6ec32852faa153b74ca4182fa367e452f1fc2",
    "joint_simulate.rep": "c080e21980e5333efdcb507c9b4e74c52e371b8b0e39677f9d915386d5232f13",
    "c12_chi2.kern": "d538d04f92a85b8b91c21cea60fb4d04a1bf4ffe0eac0046a0f0e784105136cd",
    "chi2_simulate.rep": "b33edf8930a9ad62bd29bb7dc9cf79af682bef93e76ead0bf52b6d32d6aa4ecc",
    "chi2_simulate.raw": "2fe92f6c24edb4a1a0858d6def394af3da1694aafcc481635a5f539327418bd6",
}


def _golden_argvs(directory: Path) -> list:
    """The golden commands in order, kernels first; writes the diagnose specs
    they read into `directory`."""
    for name, body in GOLDEN_SPECS.items():
        (directory / name).write_text(
            reportio.format_sections(reportio.DIAGNOSE_MAGIC, [("sequence", body)])
        )
    return [
        *(["kernel", "generate", *argv, "--out", name] for name, argv in GOLDEN_INPUTS.items()),
        *([*argv, "--out", name] for name, argv in GOLDEN_COMMANDS.items()),
    ]


def _golden_hashes(directory: Path) -> dict:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in [*GOLDEN_INPUTS, *GOLDEN_COMMANDS, *GOLDEN_DUMPS]
    }


def test_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # reports name their inputs by relative path
    for argv in _golden_argvs(tmp_path):
        assert run(argv) == 0, argv
    assert _golden_hashes(tmp_path) == GOLDEN_SHA256


def _blas_env(threads: int) -> dict:
    """This environment with `threads` OpenBLAS threads and homsum importable."""
    src = str(Path(homsum.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_output_bytes_pinned_at_one_blas_thread(tmp_path):
    # the same manifests in one fresh process, whose BLAS starts with one thread
    script = ("import json, sys\nfrom homsum import cli\n"
              "for argv in json.loads(sys.stdin.read()):\n"
              "    assert cli.main(argv) == 0, argv\n")
    subprocess.run([sys.executable, "-c", script], input=json.dumps(_golden_argvs(tmp_path)),
                   text=True, cwd=tmp_path, env=_blas_env(1), check=True, timeout=600)
    assert _golden_hashes(tmp_path) == GOLDEN_SHA256


# The two 2^N enumeration commands of the exact_chaos benchmark workload, at
# its sizes.  Above N = 16 the np.dot over the atoms in ExactDistribution.moment
# gives thread-dependent bits, so these run in a subprocess with one OpenBLAS
# thread.  Hashes taken before the enumeration was chunked into outer
# products of low-bit and high-bit signs; that change may not move a byte.
# The last two commands sample a kernel whose evaluation chunk (1000 rows) is
# shorter than the 1024-row block; each block is filled in slices of 65 rows,
# one of which straddles the chunk bound.  Their hashes were taken while a
# block was still filled whole.
ENUMERATION_COMMANDS = {
    "rs20.kern": ["kernel", "generate", "--family", "random_sparse", "--d", "2", "-N", "20",
                  "--seed", "7"],
    "c18.kern": ["kernel", "generate", "--family", "constant", "-N", "18"],
    "normal_rs20.rep": ["bound", "normal", "--kernel", "rs20.kern", "--law", "rademacher"],
    "chi2_c18.rep": ["bound", "chi2", "--kernel", "c18.kern", "--law", "rademacher"],
    "dp2000.kern": ["kernel", "generate", "--family", "disjoint_pairs", "--m", "2000"],
    "sim_dp2000.rep": ["simulate", "--kernel", "dp2000.kern", "--law", "uniform",
                       "--n", "2500", "--seed", "9"],
}

ENUMERATION_SHA256 = {
    "rs20.kern": "7e3398cfd850ab5afcfa7157235beb31bea84a0baa824cbacdd22d1f5a6c98fa",
    "c18.kern": "9aa66f121787674ee99667086e51192178ae0ea1c08f71d02a51c2bc7a7469dc",
    "normal_rs20.rep": "4ab5773ef9c318d268987bd79f366f2ef7a450b929e2626446f3e683a18c7244",
    "chi2_c18.rep": "6f76efe54fbdb477b374a4bbf089f7be2b8429d645bd65ac21a6d6a375031f16",
    "dp2000.kern": "5442a4116539aaec2f177ad086d944998b43e3efab7dedd830db9ae2d0a13ebd",
    "sim_dp2000.rep": "cf5d0e188785c9b1a5e0f18898a5f717d45b6e0cf5f974db73ecfa6128800b28",
}


def test_enumeration_report_bytes_pinned_at_one_blas_thread(tmp_path):
    env = _blas_env(1)
    for name, argv in ENUMERATION_COMMANDS.items():
        subprocess.run([sys.executable, "-m", "homsum.cli", *argv, "--out", name],
                       cwd=tmp_path, env=env, check=True, timeout=120)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ENUMERATION_COMMANDS
    }
    assert got == ENUMERATION_SHA256


# Kernel files of up to 244,650 records (the constant(700) files span four
# blocks of the writer), and one whose values print in exponent form.
# Hashes taken while each record was still formatted by its own
# `str.format` call; the block-wise writer may not move a byte.
KERNEL_FILE_COMMANDS = {
    "c700.kern": ["kernel", "generate", "--family", "constant", "-N", "700"],
    "dp10000.kern": ["kernel", "generate", "--family", "disjoint_pairs", "--m", "10000"],
    "w4_5000.kern": ["kernel", "generate", "--family", "walsh", "--d", "4", "-N", "5000"],
    "rs3_tiny.kern": ["kernel", "generate", "--family", "random_sparse", "--d", "3",
                      "-N", "60", "--sigma2", "1e-30"],
    "c700_s3.kern": ["kernel", "normalize", "--kernel", "c700.kern", "--sigma2", "3"],
}

KERNEL_FILE_SHA256 = {
    "c700.kern": "ac5bd2adbff651f488c175f486d463b2b6f0ea3d0439c3ae09896a98864e2351",
    "dp10000.kern": "77e97f043e5e431f0f0e356af0a18deae05c9b1b5a9fceb3724ee69439d5b046",
    "w4_5000.kern": "704efc2ad6e77edcce5c4223f89a8a4d16d6fbe9d1b7eb5503759a8298fe093a",
    "rs3_tiny.kern": "a4834081e743f962fd0d5478a197df7eb83beb36c4006ebec806d198abe418d2",
    "c700_s3.kern": "f13e8e23c91ac4c592aa904bef61ed43be2fac494a419f324f1acac65082cc64",
}


def test_kernel_file_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in KERNEL_FILE_COMMANDS.items():
        assert run([*argv, "--out", name]) == 0, argv
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in KERNEL_FILE_COMMANDS
    }
    assert got == KERNEL_FILE_SHA256


# Start-up: kernel commands never load scipy, and the commands that use it
# load it on first use.  The child runs each argv through cli.main and prints
# the scipy modules loaded after `import homsum.cli` and after each command.
_SCIPY_AFTER_EACH = (
    "import json, sys\n"
    "if sys.argv[1] == 'preload':\n"
    "    import scipy.sparse, scipy.special\n"
    "from homsum import cli\n"
    "def scipy_modules():\n"
    "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    "loaded = [scipy_modules()]\n"
    "for argv in json.loads(sys.stdin.read()):\n"
    "    assert cli.main(argv) == 0, argv\n"
    "    loaded.append(scipy_modules())\n"
    "print(json.dumps(loaded))\n"
)


def _scipy_after_each(directory: Path, argvs: list, preload: bool = False) -> list:
    directory.mkdir()
    done = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_EACH,
                           "preload" if preload else "lazy"],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          cwd=directory, env=_blas_env(1), check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_kernel_commands_load_no_scipy(tmp_path):
    loaded = _scipy_after_each(tmp_path / "run", [
        ["kernel", "generate", "--family", "random_sparse", "--d", "3", "-N", "40",
         "--out", "rs.kern"],
        ["kernel", "normalize", "--kernel", "rs.kern", "--sigma2", "2", "--out", "rs2.kern"],
        ["kernel", "inspect", "--kernel", "rs2.kern", "--out", "inspect.rep"],
    ])
    assert loaded == [[], [], [], []]


def test_scipy_loaded_on_first_use_keeps_report_bytes(tmp_path):
    argvs = [
        ["kernel", "generate", "--family", "constant", "-N", "30", "--sigma2", "2",
         "--out", "c.kern"],
        ["simulate", "--kernel", "c.kern", "--law", "rademacher", "--n", "2000", "--seed", "1",
         "--nu", "1", "--out", "sim.rep"],
        ["bound", "normal", "--kernel", "c.kern", "--law", "rademacher", "--n", "2000",
         "--seed", "1", "--out", "bound.rep"],
    ]
    lazy = _scipy_after_each(tmp_path / "lazy", argvs)
    assert lazy[:2] == [[], []]
    assert "scipy.special" in lazy[2] and "scipy.sparse" in lazy[3]
    preloaded = _scipy_after_each(tmp_path / "preload", argvs, preload=True)
    assert "scipy.sparse" in preloaded[0] and "scipy.special" in preloaded[0]
    for name in ["c.kern", "sim.rep", "bound.rep"]:
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "preload" / name).read_bytes()
