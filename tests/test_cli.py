import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcheb import ChebKind, InternalError, cli, cltstats, freegroup, symmetrized
from symcheb.chebyshev import orbit_rows
from symcheb.cli import run
from symcheb.laurent import format_exact, parse_exact

from oracles import coeffs_text, enumeration_text, fgcount_text, ratio_text, table_text

GOLDEN_DIR = Path(__file__).parent / "golden"
HUGE = "1" + "0" * 400  # beyond the float range
OVERFLOW_ARGVS = [
    ["clt", "--fg-r", HUGE, "--n", "4"],
    ["clt", "--c", HUGE, "--k", "1", "--n", "4"],
    ["clt", "--c", "3", "--k", HUGE, "--n", "4"],
]
FLOAT_JOINT_ARGVS = [  # marginals nonnegative, but a joint coefficient is negative
    (["clt", "--c", "1.1", "--k", "2", "--n", "3", "--mode", "float_normalized"],
     "domain error: coefficient at [-1, 0] is negative "
     "(-13941355462351795156307011975578610204523806851/"
     "182687704666362864775460604089535377456991567872); "
     "the coefficient distribution is undefined\n"),
    (["clt", "--c", "1.5", "--k", "3", "--n", "2,3", "--mode", "float_normalized"],
     "domain error: coefficient at [0, 0, 0] is negative (-1/4); "
     "the coefficient distribution is undefined\n"),
]
UNCERTIFIED_ARGVS = [  # 1 < c < k/sqrt(2k-1), beyond the rows that certify signs
    ["clt", "--c", "11/10", "--k", "2", "--n", "33,40", "--exact-ceiling", "40"],
    ["clt", "--c", "1.1", "--k", "2", "--n", "33,40", "--mode", "float_normalized"],
    ["clt", "--c", "11/10", "--k", "2", "--n", "40"],  # was refused by a default ceiling of 32
]
BUDGET_ARGVS = [  # row 20 is over a budget of 10 terms
    ["table", "--kind", "T", "--c", "2", "--n-max", "20"],
    ["coeffs", "--kind", "T", "--n", "20", "--c", "2"],
    ["fgcount", "--r", "2", "--n", "20"],
]
ARITY = "1" + "0" * 300  # fits a float, but no row in that many variables fits memory
HUGE_ARITY_ARGVS = [
    ["clt", "--c", "3", "--k", ARITY, "--n", "4"],
    ["positivity", "--kind", "T", "--n", "4", "--c", "2", "--k", ARITY],
    ["coeffs", "--kind", "U", "--n", "3", "--c", "2", "--k", ARITY],
    ["fgcount", "--r", ARITY, "--n", "4"],
]


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_text(argv):
    """(exit code, stdout, stderr) of one command, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = capture(capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "2"])
        assert code == 0 and out

    def test_negative_finding_is_success(self, capsys):
        code, out, _ = capture(
            capsys, ["positivity", "--kind", "T", "--n", "3", "--c", "11/10", "--k", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_nonnegative"] is False
        assert payload["witness"] == [-1, 0]
        assert payload["min_coefficient"] == "-1221/16000"

    def test_domain_error_exit_1(self, capsys):
        code, _, err = capture(capsys, ["clt", "--c", "1/2", "--k", "1", "--n", "4"])
        assert code == 1 and "domain error" in err

    def test_exact_c_above_one_that_rounds_to_one(self, capsys):
        # the exact moments exist here; only the float constants diverge
        c = "100000000000000000001/100000000000000000000"
        code, out, err = capture(capsys, ["clt", "--c", c, "--k", "1", "--n", "4"])
        assert (code, out) == (1, "")
        assert err == (
            f"domain error: c = {c} is above 1 but rounds to the float 1.0, "
            "where the float variance constants diverge\n"
        )
        assert cltstats.marginal_moments_exact(parse_exact(c), 1, [4])

    @pytest.mark.parametrize("c", ["1", "99999999999999999999/100000000000000000000", "1/2"])
    def test_exact_c_at_most_one_keeps_its_message(self, capsys, c):
        code, out, err = capture(capsys, ["clt", "--c", c, "--k", "1", "--n", "4"])
        value = 1.0 if c != "1/2" else 0.5
        assert (code, out, err) == (
            1, "", f"domain error: variance constant is defined for c > 1 only, got c = {value}\n"
        )

    def test_usage_error_exit_2_unknown_command(self, capsys):
        assert capture(capsys, ["bogus"])[0] == 2

    def test_usage_error_exit_2_bad_rational(self, capsys):
        assert capture(capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "1.5"])[0] == 2

    def test_usage_error_exit_2_decimal_c_in_exact_mode(self, capsys):
        code, _, err = capture(capsys, ["clt", "--c", "1.5", "--k", "1", "--n", "4"])
        assert code == 2 and "usage error" in err

    def test_decimal_c_allowed_in_float_mode(self, capsys):
        code, out, _ = capture(
            capsys,
            ["clt", "--c", "1.5", "--k", "1", "--n", "4", "--mode", "float_normalized"],
        )
        assert code == 0 and out.startswith("n,")

    def test_budget_error_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        code, _, err = capture(capsys, ["fgcount", "--r", "2", "--n", "5"])
        assert code == 3 and "resource error" in err

    @pytest.mark.parametrize("argv", HUGE_ARITY_ARGVS, ids=lambda argv: argv[0])
    def test_huge_arity_is_a_budget_error(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("resource error: row ") and err.count("\n") == 1

    def test_row_budget_error_names_the_count(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        argv = ["positivity", "--kind", "T", "--n", "3", "--c", "2", "--k", "2"]
        assert capture(capsys, argv) == (
            3,
            "",
            "resource error: row 3 of the recurrence has 16 terms, over the budget of 10 "
            "(raise SYMCHEB_ENUM_BUDGET)\n",
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", BUDGET_ARGVS, ids=lambda argv: argv[0])
    def test_budget_error_writes_nothing(self, capsys, monkeypatch, tmp_path, argv, fmt):
        # output is written as it is made, so every check must come first
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        code, out, err = capture(capsys, [*argv, "--format", fmt])
        assert (code, out) == (3, "")
        assert err.startswith("resource error: row 20 ") and err.count("\n") == 1
        target = tmp_path / "out.txt"
        assert capture(capsys, [*argv, "--format", fmt, "--out", str(target)]) == (3, "", err)
        assert not target.exists()

    def test_budget_error_writes_nothing_in_a_process(self):
        argv = [sys.executable, "-m", "symcheb", *BUDGET_ARGVS[0]]
        env = {**os.environ, "SYMCHEB_ENUM_BUDGET": "10", "PYTHONUNBUFFERED": "1"}
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("resource error: row 20 ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("family", [["--c", "2", "--k", "1"], ["--fg-r", "2"]], ids=["c", "fg"])
    def test_float_clt_is_finite_or_refused(self, capsys, monkeypatch, family):
        # float moments take O(log n) steps, so no step budget bounds them;
        # past the float range a row read inf or NaN, and n = 10^309 did not
        # convert to a float at all
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "1000")  # the budget plays no part
        argv = ["clt", *family, "--mode", "float_normalized", "--format", "json", "--n"]
        code, out, err = capture(capsys, [*argv, f"4,{10**9},{10**153}"])
        report = json.loads(out)
        assert (code, err) == (0, "")
        for row in report["rows"]:
            assert all(map(math.isfinite, (row["m2_over_n"], row["kurtosis"])))
        middle = report["rows"][1]  # m2/n -> lambda/t, the rederived constant, and kurtosis -> 3
        assert middle["m2_over_n"] == pytest.approx(report["sigma2_rederived"], rel=1e-12)
        assert middle["kurtosis"] == pytest.approx(3, rel=1e-8)
        for n in (10**154, 10**155, 10**309):
            message = f"domain error: the float moments at n = {n} are past the float range\n"
            assert capture(capsys, [*argv, f"4,{n}"]) == (1, "", message)

    @pytest.mark.parametrize("command", ["coeffs", "positivity"])
    def test_one_row_at_k1_checks_the_budget_first(self, capsys, monkeypatch, command):
        # the n/2 + 1 representatives of row n were listed before the budget
        # was checked, 88 MB at n = 2 * 10^6
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        argv = [command, "--kind", "T", "--n", str(2 * 10**6), "--c", "2"]
        tracemalloc.start()
        try:
            code, out, err = capture(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("resource error: row 2000000 ") and err.count("\n") == 1
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [["table", "--kind", "T", "--c", "2"],
         ["sign-survey", "--kind", "T", "--k", "1", "--c", "2"]],
        ids=["table", "sign-survey"],
    )
    def test_n_max_past_the_index_range_is_a_budget_error(self, capsys, argv):
        # len() of range(2^63 + 1) raised OverflowError, with a traceback
        code, out, err = capture(capsys, [*argv, "--n-max", str(2**63)])
        assert (code, out) == (3, "")
        assert err.startswith(f"resource error: row {2**63} ") and err.count("\n") == 1

    @pytest.mark.parametrize("c", ["2", "-2", "1/2"])
    @pytest.mark.parametrize("kind", ["T", "U"])
    def test_survey_is_refused_at_its_last_row(self, capsys, monkeypatch, kind, c):
        # the theorem reads no row of T at c > 0, and at k = 10^9 its n = 2
        # witness would be refused as "row 0 ... terms of 10^9 coordinates"
        monkeypatch.delenv("SYMCHEB_ENUM_BUDGET", raising=False)
        argv = ["sign-survey", "--kind", kind, "--k", str(10**9), "--n-max", "2", "--c", c]
        assert capture(capsys, argv) == (
            3,
            "",
            "resource error: row 2 of the recurrence has 2000000000000000001 terms, "
            "over the budget of 100000000 (raise SYMCHEB_ENUM_BUDGET)\n",
        )

    @pytest.mark.parametrize("k,code", [(10, 0), (10**7, 3), (10**30, 3)])
    @pytest.mark.parametrize("command", ["coeffs", "positivity"])
    def test_row_0_is_over_the_budget_past_its_arity(self, capsys, monkeypatch, command, k, code):
        # row 0 has one term at any k, but that term is a tuple of k zeros:
        # k = 10^7 built 80 MB, and k = 10^30 raised OverflowError
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "10")
        argv = [command, "--kind", "T", "--n", "0", "--c", "2", "--k", str(k)]
        message = (
            f"resource error: row 0 of the recurrence has terms of {k} coordinates, "
            "over the budget of 10 (raise SYMCHEB_ENUM_BUDGET)\n"
        )
        returned, _, err = capture(capsys, argv)
        assert (returned, err) == (code, message if code else "")

    @pytest.mark.parametrize(
        "c,k,budget",
        [(8 * 10**14, 10**30, None), (3, 10, "5"), ("101/100", 10**30, None)],
        ids=["k1e30", "k10_budget5", "below_c_k"],
    )
    @pytest.mark.parametrize("mode", ["exact", "float_normalized"])
    def test_n_2_witness_checks_the_budget(self, capsys, monkeypatch, mode, c, k, budget):
        # at c_k <= c < sqrt(k) the n = 2 witness is a tuple of k zeros:
        # k = 10^30 raised OverflowError, with a traceback
        if budget is None:
            monkeypatch.delenv("SYMCHEB_ENUM_BUDGET", raising=False)
        else:
            monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", budget)
        argv = ["clt", "--c", str(c), "--k", str(k), "--n", "2", "--mode", mode]
        assert capture(capsys, argv) == (
            3,
            "",
            f"resource error: row 0 of the recurrence has terms of {k} coordinates, "
            f"over the budget of {budget or 10**8} (raise SYMCHEB_ENUM_BUDGET)\n",
        )

    @pytest.mark.parametrize(
        "params,witness",
        [
            (["--c", "1941450686788301/1000000000000000", "--k", "7", "--n", "1,2,25"],
             "[0, 0, 0, 0, 0, 0, 0] is negative "
             "(-3230769230769234368929609533399/7000000000000000000000000000000)"),
            (["--c", "11/10", "--k", "2", "--n", "2,40", "--exact-ceiling", "40"],
             "[0, 0] is negative (-79/200)"),
        ],
        ids=["row_budget", "uncertified"],
    )
    @pytest.mark.parametrize("mode", ["exact", "float_normalized"])
    def test_n_2_witness_comes_first_below_c_k(self, capsys, params, witness, mode):
        # below c_k every list that holds n = 2 fails there, at c^2/k - 1 < 0,
        # but the row walk's budget for n = 25 (exit 3) or the uncertified
        # n = 40 was reported first
        assert capture(capsys, ["clt", *params, "--mode", mode]) == (
            1, "", f"domain error: coefficient at {witness}; "
            "the coefficient distribution is undefined\n",
        )

    def test_nonpositive_budget_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCHEB_ENUM_BUDGET", "-5")
        code, _, err = capture(capsys, ["fgcount", "--r", "2", "--n", "3"])
        assert (code, err) == (2, "usage error: the enumeration budget must be positive, got -5\n")

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = capture(
            capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "2", "--out", str(target)]
        )
        assert code == 2 and out == "" and not target.exists()
        assert err.startswith("usage error: cannot write --out") and err.count("\n") == 1

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def broken(*args):
            raise InternalError("routes disagree")

        monkeypatch.setattr(symmetrized, "_rows", broken)
        code, out, err = capture(capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "2"])
        assert (code, out, err) == (4, "", "internal error: routes disagree\n")

    def test_moment_identity_mismatch_exit_4(self, capsys, monkeypatch):
        original = cltstats._lucas

        def off_by_one(big_p, g, n):
            u, v = original(big_p, g, n)
            return u + 1, v

        monkeypatch.setattr(cltstats, "_lucas", off_by_one)
        code, out, err = capture(capsys, ["clt", "--c", "2", "--k", "1", "--n", "4"])
        assert (code, out) == (4, "")
        assert err == "internal error: moment identity mismatch at n = 4 for c = 2, k = 1\n"

    def test_joint_negative_keeps_witness_line(self, capsys):
        code, out, err = capture(capsys, ["clt", "--c", "11/10", "--k", "2", "--n", "3"])
        assert (code, out) == (1, "")
        assert err == (
            "domain error: coefficient at [-1, 0] is negative (-1221/16000); "
            "the coefficient distribution is undefined\n"
        )

    @pytest.mark.parametrize("argv", OVERFLOW_ARGVS)
    def test_float_overflow_is_one_line_domain_error(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error:") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["exact", "float_normalized"])
    def test_huge_c_keeps_finite_json_or_fails_in_one_line(self, capsys, mode):
        # c c - 1 overflowed above about 1.34e154: sigma2_rederived read 0.0
        # and, at c = 10^308, k = 1, sigma2_paper printed as Infinity
        for c, k, n, m2_over_n in ((10**200, 1, 2, 1.0), (10**308, 2, 4, 0.5)):
            argv = ["clt", "--c", str(c), "--k", str(k), "--n", str(n), "--format", "json"]
            code, out, err = capture(capsys, [*argv, "--mode", mode])
            assert (code, err) == (0, "")
            payload = json.loads(out, parse_constant=pytest.fail)
            assert (payload["sigma2_paper"], payload["sigma2_rederived"]) == (c / k * 2.0, 1 / k)
            (row,) = payload["rows"]
            assert float(Fraction(row["m2_over_n"])) == m2_over_n and row["dist_rederived"] == 0.0
        argv = ["clt", "--c", str(10**308), "--k", "1", "--n", "2", "--mode", mode]
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "domain error: the reported variance constant at c = 1e+308, k = 1 "
            "is too large for float arithmetic\n"
        )

    @pytest.mark.parametrize("c", ["nan", "1e400"])
    def test_non_finite_float_c_is_one_line_domain_error(self, capsys, c):
        argv = ["clt", "--c", c, "--k", "1", "--n", "4", "--mode", "float_normalized"]
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("domain error: c must be a finite number") and err.count("\n") == 1

    @pytest.mark.parametrize("ceiling", ["-5", "0"])
    def test_nonpositive_exact_ceiling_exit_2(self, capsys, ceiling):
        for params in (["--c", "2", "--k", "1"], ["--fg-r", "2", "--mode", "exact"]):
            argv = ["clt", *params, "--n", "4", "--exact-ceiling", ceiling]
            code, out, err = capture(capsys, argv)
            assert (code, out) == (2, "")
            assert err == (
                f"usage error: the exact-mode ceiling must be a positive integer, got {ceiling}\n"
            )

    def test_float_mode_rejects_what_exact_mode_rejects(self, capsys):
        argv = ["clt", "--k", "2", "--n", "4,8"]
        code_f, out_f, err_f = capture(capsys, argv + ["--c", "1.05", "--mode", "float_normalized"])
        code_e, _, err_e = capture(capsys, argv + ["--c", "21/20"])
        assert code_f == code_e == 1 and out_f == ""
        prefix = "domain error: coefficient at [-1, -1] is negative"
        assert err_f.startswith(prefix) and err_e.startswith(prefix)
        assert err_e == f"{prefix} (-122157/640000); the coefficient distribution is undefined\n"

    @pytest.mark.parametrize(
        "params,code,witness",
        [
            (["--c", "499999999999999997/300000000000000000", "--k", "5", "--n", "3"], 1,
             [-1, 0, 0, 0, 0]),
            (["--c", "199999999999999999/100000000000000000", "--k", "4", "--n", "2"], 1,
             [0, 0, 0, 0]),
            (["--c", "4100000000000000009/900000000000000000", "--k", "41", "--n", "3"], 0,
             None),
        ],
        ids=["below_c_5", "below_sqrt_4", "above_c_41"],
    )
    def test_both_modes_certify_at_the_c_given(self, capsys, params, code, witness):
        # float mode certified at the c of its float, on the other side of
        # c_k = k/sqrt(2k-1) or sqrt(k) from the p/q given, and so exited 0
        # on the first two and 1 on the third
        exact = capture(capsys, ["clt", *params])
        approx = capture(capsys, ["clt", *params, "--mode", "float_normalized"])
        assert (approx[0], approx[2]) == (exact[0], exact[2])
        assert exact[0] == code
        if witness is None:
            assert exact[2] == "" and approx[1] == exact[1]
        else:
            assert exact[2].startswith(f"domain error: coefficient at {witness} is negative")

    @pytest.mark.parametrize("argv,message", FLOAT_JOINT_ARGVS)
    def test_float_mode_certifies_joint_signs(self, capsys, argv, message):
        # float mode used to return numbers where exact mode gives the witness
        assert capture(capsys, argv) == (1, "", message)

    @pytest.mark.parametrize("argv", UNCERTIFIED_ARGVS, ids=["exact", "float", "exact_default"])
    def test_uncertified_signs_are_one_line_domain_error(self, capsys, argv):
        # these used to return rows that no sign check covered
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert "uncertified" in err and err.count("\n") == 1

    def test_default_ceiling_is_1024_for_every_k(self, capsys):
        # k = 2 used to take 32 as its default ceiling, although c = 2 >= c_2
        code, out, err = capture(capsys, ["clt", "--c", "2", "--k", "2", "--n", "64"])
        assert (code, err) == (0, "") and out.startswith("n,m2_over_n,") and out.count("\n") == 2
        code, out, err = capture(capsys, ["clt", "--c", "2", "--k", "2", "--n", "1025"])
        assert (code, out) == (2, "") and "exact-mode ceiling of 1024;" in err

    def test_theorem_certifies_beyond_the_rows(self, capsys):
        # c = 3/2 >= 2/sqrt(3): certified at every n without a row walk
        argv = ["clt", "--c", "3/2", "--k", "2", "--n", "33,40", "--exact-ceiling", "40"]
        assert capture(capsys, argv) == (
            0,
            "n,m2_over_n,kurtosis,max_offdiag,dist_paper,dist_rederived\n"
            "33,0.670820393,2.92320575,0,1.75623059,0\n"
            "40,0.670820393,2.93664474,0,1.75623059,0\n",
            "",
        )

    def test_clt_needs_parameters(self, capsys):
        assert capture(capsys, ["clt", "--n", "4"])[0] == 2

    def test_fg_r_conflicts_with_c(self, capsys):
        code, _, _ = capture(
            capsys, ["clt", "--fg-r", "2", "--c", "2", "--k", "1", "--n", "4"]
        )
        assert code == 2


class TestOutputs:
    def test_coeffs_json_example(self, capsys):
        _, out, _ = capture(
            capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "2", "--k", "1"]
        )
        assert json.loads(out) == {
            "kind": "T",
            "n": 2,
            "c": "2/1",
            "k": 1,
            "terms": [
                {"e": [-2], "coeff": "2/1"},
                {"e": [0], "coeff": "3/1"},
                {"e": [2], "coeff": "2/1"},
            ],
        }

    def test_coeffs_csv(self, capsys):
        _, out, _ = capture(
            capsys, ["coeffs", "--kind", "T", "--n", "2", "--c", "2", "--format", "csv"]
        )
        assert out == "e1,coeff\n-2,2/1\n0,3/1\n2,2/1\n"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["sign-survey", "--kind", "T", "--k", "2", "--n-max", "4", "--c", "11/10", "--c", "2"],
             "c,classification,witness_n,witness_e,witness_value\n"
             "11/10,MIXED,2,0;0,-79/200\n2/1,ALL_NONNEG,,,\n"),
            (["fgverify", "--r", "2", "--n", "3"],
             "status,total_formula,total_oracle,mismatch_classes\nMATCH,28,28,0\n"),
            (["positivity", "--kind", "T", "--n", "3", "--c", "11/10", "--k", "2"],
             "all_nonnegative,pattern_ok,min_coefficient,witness\nfalse,,-1221/16000,-1;0\n"),
        ],
        ids=["sign-survey", "fgverify", "positivity"],
    )
    def test_csv_text(self, capsys, argv, expected):
        assert capture(capsys, [*argv, "--format", "csv"]) == (0, expected, "")

    def test_table_csv_rows(self, capsys):
        _, out, _ = capture(
            capsys, ["table", "--kind", "U", "--c", "2", "--n-max", "2", "--format", "csv"]
        )
        lines = out.splitlines()
        assert lines[0] == "n,j,value"
        assert "1,-1,2/1" in lines and "2,0,7/1" in lines

    def test_fgverify_match(self, capsys):
        _, out, _ = capture(capsys, ["fgverify", "--r", "2", "--n", "2"])
        payload = json.loads(out)
        assert payload["status"] == "MATCH"
        assert payload["total_formula"] == 12 and payload["total_oracle"] == 12
        assert payload["mismatches"] == []

    def test_fgverify_lists_a_mismatch(self, capsys, monkeypatch):
        formula = freegroup.counts_by_formula

        def off_by_one(r, n):
            table = formula(r, n)
            return table._replace(counts={**table.counts, (2, 0): table.counts[(2, 0)] + 1})

        monkeypatch.setattr(freegroup, "counts_by_formula", off_by_one)
        # two of the package's own routes disagreeing is a defect: exit 4
        for fmt in ("json", "csv"):
            code, out, err = capture(capsys, ["fgverify", "--r", "2", "--n", "2", "--format", fmt])
            assert (code, out) == (4, "")
            assert err == (
                "internal error: 1 mismatched classes for r = 2, n = 2; "
                "the first, [2, 0], counts 2 by formula and 1 by enumeration\n"
            )

    def test_fgcount_paths_are_byte_identical(self, capsys):
        _, formula, _ = capture(capsys, ["fgcount", "--r", "2", "--n", "4"])
        assert formula == enumeration_text(2, 4, "json")

    def test_clt_csv_header_and_digits(self, capsys):
        _, out, _ = capture(capsys, ["clt", "--c", "2", "--k", "1", "--n", "2,4"])
        lines = out.splitlines()
        assert lines[0] == "n,m2_over_n,kurtosis,max_offdiag,dist_paper,dist_rederived"
        assert lines[1].startswith("2,1.14285714,")

    def test_clt_json_exact_rationals(self, capsys):
        _, out, _ = capture(
            capsys, ["clt", "--c", "2", "--k", "1", "--n", "4", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["rows"][0]["m2_over_n"] == "112/97"
        assert payload["sigma2_rederived"] == pytest.approx(1.1547005, abs=1e-6)

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "coeffs.json"
        code, out, _ = capture(
            capsys,
            ["coeffs", "--kind", "T", "--n", "2", "--c", "2", "--out", str(target)],
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 2


class TestDeterminism:
    COMMANDS = [
        ["coeffs", "--kind", "U", "--n", "5", "--c", "7/3", "--k", "2"],
        ["table", "--kind", "T", "--c", "3/2", "--n-max", "6"],
        ["positivity", "--kind", "T", "--n", "3", "--c", "11/10", "--k", "2"],
        ["sign-survey", "--kind", "T", "--k", "1", "--n-max", "12",
         "--c", "2", "--c", "-2", "--c", "1/2"],
        ["fgcount", "--r", "3", "--n", "4"],
        ["fgverify", "--r", "2", "--n", "3"],
        ["clt", "--c", "2", "--k", "1", "--n", "2,4,8,16"],
        ["clt", "--fg-r", "2", "--n", "16,64", "--mode", "float_normalized"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        first = capture(capsys, argv)
        second = capture(capsys, argv)
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("coeffs_T2_c2_k1.json", ["coeffs", "--kind", "T", "--n", "2", "--c", "2", "--k", "1"]),
            ("table_U_c2_n4.json", ["table", "--kind", "U", "--c", "2", "--n-max", "4"]),
            ("positivity_T3_c11-10_k2.json",
             ["positivity", "--kind", "T", "--n", "3", "--c", "11/10", "--k", "2"]),
            ("survey_T_k1_n12.json",
             ["sign-survey", "--kind", "T", "--k", "1", "--n-max", "12",
              "--c", "2", "--c", "-2", "--c", "1/2"]),
            ("fgcount_r2_n3.json", ["fgcount", "--r", "2", "--n", "3"]),
            ("fgverify_r2_n2.json", ["fgverify", "--r", "2", "--n", "2"]),
            ("clt_c2_k1_exact.csv", ["clt", "--c", "2", "--k", "1", "--n", "2,4,8,16,32"]),
            ("clt_fg_r2_float.csv",
             ["clt", "--fg-r", "2", "--n", "16,32,64", "--mode", "float_normalized"]),
            ("coeffs_T6_c7-5_k3.csv",
             ["coeffs", "--kind", "T", "--c", "7/5", "--k", "3", "--n", "6", "--format", "csv"]),
            ("fgcount_r4_n4.json", ["fgcount", "--r", "4", "--n", "4"]),
            ("positivity_T3_c11-10_k2.csv",
             ["positivity", "--kind", "T", "--n", "3", "--c", "11/10", "--k", "2",
              "--format", "csv"]),
            ("survey_T_k1_n12.csv",
             ["sign-survey", "--kind", "T", "--k", "1", "--n-max", "12",
              "--c", "2", "--c", "-2", "--c", "1/2", "--format", "csv"]),
            ("clt_c2_k1_exact.json",
             ["clt", "--c", "2", "--k", "1", "--n", "2,4,8,16,32", "--format", "json"]),
            ("clt_c2.5_k2_float.json",
             ["clt", "--c", "2.5", "--k", "2", "--n", "16,32", "--mode", "float_normalized",
              "--format", "json"]),
            # gcd(p, kq) > 1, where the kernel runs at c/k in lowest terms
            ("coeffs_U9_c8-3_k2.json",
             ["coeffs", "--kind", "U", "--c", "8/3", "--k", "2", "--n", "9", "--format", "json"]),
            ("survey_T_k3_n8.json",
             ["sign-survey", "--kind", "T", "--k", "3", "--n-max", "8",
              "--c", "3/2", "--c", "3", "--c", "9/4"]),
            ("positivity_T7_c6-5_k3.csv",
             ["positivity", "--kind", "T", "--c", "6/5", "--k", "3", "--n", "7",
              "--format", "csv"]),
            # below c_k: kernel rows walked, each checked against M0
            ("clt_c9-7_k3_exact.csv",
             ["clt", "--c", "9/7", "--k", "3", "--n", "4,8,16", "--format", "csv"]),
            ("clt_c3_k3_exact.json",
             ["clt", "--c", "3", "--k", "3", "--n", "2,4,8,16", "--format", "json"]),
            # a p/q in float mode below c_k: rows certified at 9/7 itself
            ("clt_c9-7_k3_float.json",
             ["clt", "--c", "9/7", "--k", "3", "--n", "4,8,16", "--mode", "float_normalized",
              "--format", "json"]),
        ],
    )
    def test_golden_files(self, capsys, name, argv):
        code, out, _ = capture(capsys, argv)
        assert code == 0
        expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert out == expected

    def test_refusal_with_a_common_factor(self, capsys):
        # c/k = 4/7 at c = 8/7, k = 2: the witness value is in lowest terms
        argv = ["clt", "--c", "8/7", "--k", "2", "--n", "3,5,7"]
        assert capture(capsys, argv) == (
            1, "", "domain error: coefficient at [-1, 0] is negative (-6/343); "
            "the coefficient distribution is undefined\n",
        )


@pytest.mark.parametrize(
    "value,text",
    [(True, "true"), (False, "false"), (None, ""), ([-1, 0, 2], "-1;0;2"),
     (Fraction(1, 3), "0.333333333"), (Fraction(0), "0"), (2.0**-60, "8.67361738e-19"),
     (7, "7"), ("-1221/16000", "-1221/16000")],
)
def test_csv_cell(value, text):
    # the one rule behind every clt, positivity and sign-survey CSV value
    assert cli._cell(value) == text


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "symcheb", "coeffs", "--kind", "T", "--n", "1", "--c", "3/2"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout)["terms"] == [
        {"e": [-1], "coeff": "3/4"},
        {"e": [1], "coeff": "3/4"},
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["clt", "--c", "2", "--k", "1", "--n", "4000", "--exact-ceiling", "4000", "--format", "json"],
        ["clt", "--fg-r", "100000", "--n", "1000", "--mode", "exact", "--format", "json"],
        ["coeffs", "--kind", "T", "--n", "300", "--c", "1/1000000000000000000000"],
        ["positivity", "--kind", "T", "--n", "300", "--c", "1/1000000000000000000000"],
        ["clt", "--c", "2", "--k", "1", "--n", "10000", "--exact-ceiling", "10000",
         "--format", "json"],
    ],
    ids=["clt_c", "clt_fg", "coeffs", "positivity", "clt_n10000"],
)
def test_exact_output_past_int_str_digit_limit(argv):
    # each output holds an integer longer than CPython's default int -> str
    # limit of 4300 digits
    result = subprocess.run(
        [sys.executable, "-m", "symcheb", *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert max(map(len, re.findall(r"\d+", result.stdout))) > 4300


@pytest.mark.parametrize(
    "params,message",
    [
        (["clt", "--k", "1", "--c", "1e308", "--n", "4", "--mode", "float_normalized"],
         "domain error: the reported variance constant at c = 1e+308, k = 1 "
         "is too large for float arithmetic\n"),
        (["clt", "--k", "2", "--c", "1.05", "--n", "4,8", "--mode", "float_normalized"],
         "domain error: coefficient at [-1, -1] is negative"),
        (["clt", "--c", "11/10", "--k", "2", "--n", "3"],
         "domain error: coefficient at [-1, 0] is negative (-1221/16000); "
         "the coefficient distribution is undefined\n"),
        (OVERFLOW_ARGVS[0], "domain error: r is too large for float arithmetic\n"),
        FLOAT_JOINT_ARGVS[0],
        (UNCERTIFIED_ARGVS[1], "uncertified"),
        (["clt", "--c", "6/5", "--k", "2", "--n", "2"],
         "domain error: coefficient at [0, 0] is negative (-7/25); "
         "the coefficient distribution is undefined\n"),
        (["clt", "--c", "100000000000000000001/100000000000000000000", "--k", "1", "--n", "4"],
         "rounds to the float 1.0, where the float variance constants diverge\n"),
    ],
)
def test_float_domain_checks_survive_optimized_python(params, message):
    result = subprocess.run(
        [sys.executable, "-O", "-m", "symcheb", *params], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert message in result.stderr and result.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--kind", "T", "--n", "3", "--c", "11/10"],
        ["coeffs", "--kind", "T", "--n", "40", "--c", "2", "--k", "2"],  # about 80 kB
        ["--help"],
    ],
    ids=["small", "several_buffers", "help"],
)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_failed_stdout_write_is_one_line_usage_error(argv, buffered):
    # this used to print a traceback and exit 1, the domain-error code (for
    # --help: exit 120 buffered, exit 0 with nothing written unbuffered); a
    # buffered small output fails only at the flush
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "symcheb", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    message = f"usage error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    assert (result.returncode, result.stderr) == (2, message)


# (option strings, dest, default, required, choices, metavar, action class, type)
# of every action per subcommand; --help wording varies across Python versions.
PARSER_STRUCTURE = {
    "coeffs": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--kind",), "kind", None, True, None, "T|U", "_StoreAction", "_parse_kind"),
        (("--n",), "n", None, True, None, None, "_StoreAction", "int"),
        (("--c",), "c", None, True, None, "p/q", "_StoreAction", "_parse_c"),
        (("--k",), "k", 1, False, None, None, "_StoreAction", "int"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "table": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--kind",), "kind", None, True, None, "T|U", "_StoreAction", "_parse_kind"),
        (("--c",), "c", None, True, None, "p/q", "_StoreAction", "_parse_c"),
        (("--n-max",), "n_max", None, True, None, None, "_StoreAction", "int"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "positivity": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--kind",), "kind", None, True, None, "T|U", "_StoreAction", "_parse_kind"),
        (("--n",), "n", None, True, None, None, "_StoreAction", "int"),
        (("--c",), "c", None, True, None, "p/q", "_StoreAction", "_parse_c"),
        (("--k",), "k", 1, False, None, None, "_StoreAction", "int"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "sign-survey": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--kind",), "kind", None, True, None, "T|U", "_StoreAction", "_parse_kind"),
        (("--k",), "k", 1, False, None, None, "_StoreAction", "int"),
        (("--n-max",), "n_max", None, True, None, None, "_StoreAction", "int"),
        (("--c",), "c", None, True, None, "p/q", "_AppendAction", "_parse_c"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "fgcount": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--r",), "r", None, True, None, None, "_StoreAction", "int"),
        (("--n",), "n", None, True, None, None, "_StoreAction", "int"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "fgverify": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--r",), "r", None, True, None, None, "_StoreAction", "int"),
        (("--n",), "n", None, True, None, None, "_StoreAction", "int"),
        (("--format",), "format", "json", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
    "clt": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction", None),
        (("--c",), "c", None, False, None, "p/q", "_StoreAction", None),
        (("--k",), "k", None, False, None, None, "_StoreAction", "int"),
        (("--fg-r",), "fg_r", None, False, None, None, "_StoreAction", "int"),
        (("--n",), "n", None, True, None, "N1,N2,...", "_StoreAction", "_parse_n_list"),
        (("--mode",), "mode", "exact", False, ("exact", "float_normalized"), None,
         "_StoreAction", None),
        (("--exact-ceiling",), "exact_ceiling", None, False, None, None, "_StoreAction", "int"),
        (("--format",), "format", "csv", False, ("json", "csv"), None, "_StoreAction", None),
        (("--out",), "out", None, False, None, "PATH", "_StoreAction", None),
    ],
}


def test_parser_structure_is_pinned():
    parser = cli._argparse_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    structure = {
        name: [
            (
                tuple(a.option_strings),
                a.dest,
                a.default,
                a.required,
                None if a.choices is None else tuple(a.choices),
                a.metavar,
                type(a).__name__,
                None if a.type is None else a.type.__name__,
            )
            for a in parser._actions
        ]
        for name, parser in sub.choices.items()
    }
    assert structure == PARSER_STRUCTURE


# A well-formed command line of each command: its required options, once.
WELL_FORMED = {
    "coeffs": ["--kind", "T", "--n", "3", "--c", "3/2"],
    "table": ["--kind", "U", "--c", "2", "--n-max", "4"],
    "positivity": ["--kind", "T", "--n", "3", "--c", "11/10"],
    "sign-survey": ["--kind", "T", "--n-max", "4", "--c", "2"],
    "fgcount": ["--r", "2", "--n", "3"],
    "fgverify": ["--r", "2", "--n", "2"],
    "clt": ["--n", "2,4"],
}
# values that each option's type and choices take
OPTION_VALUES = {
    "--kind": ["T", "U"], "--n": ["3"], "--c": ["3/2", "2"], "--k": ["2"], "--n-max": ["4"],
    "--r": ["2"], "--fg-r": ["3"], "--mode": ["exact", "float_normalized"],
    "--exact-ceiling": ["8"], "--format": ["json", "csv"], "--out": ["out.txt"],
}
# abbreviations, --opt=value, "--", help, negative and empty values, bad values
EDGE_TOKENS = ["--form", "--n", "--c=-1/2", "--format=csv", "--", "-h", "--help", "--bogus",
               "-1/2", "-3", "-1.5", "-.5", "-1/2/3", "-1,2", "", "X", "1.5", "3,,4", "xml",
               "bogus"]


@st.composite
def command_lines(draw):
    """A well-formed command line, or an unknown command, with a required
    option dropped, options of its command repeated or added, and edge
    tokens put in anywhere."""
    command = draw(st.sampled_from([*WELL_FORMED, "bogus"]))
    required = WELL_FORMED.get(command, ["--r", "2"])
    drop = 2 * draw(st.integers(0, len(required)))  # past the end: none dropped
    argv = [command, *required[:drop], *required[drop + 2 :]]
    options = list(cli._COMMANDS.get(command, (None, None, {"--r": {}}))[2])
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(options))
        values = st.sampled_from(OPTION_VALUES[option]) | st.sampled_from(EDGE_TOKENS)
        argv += [option, draw(values)]
    for _ in range(draw(st.integers(0, 1))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(EDGE_TOKENS)))
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
@example(["table", "--n", "4", "--kind", "U", "--c", "2"])
@example(["clt", "--c=-1/2", "--k", "1", "--n", "4"])
@example(["sign-survey", "--kind", "T", "--n-max", "4", "--c", "2", "--c", "3/2", "--c", "2"])
def test_reader_agrees_with_argparse(argv):
    # the option table's reader either declines or returns argparse's namespace
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli._argparse_parser().parse_args(argv))


@pytest.mark.parametrize("command", WELL_FORMED)
def test_reader_reads_well_formed_lines(command):
    argv = [command, *WELL_FORMED[command]]
    args = cli._read(argv)
    assert args is not None and vars(args) == vars(cli._argparse_parser().parse_args(argv))


# Every command that takes --c, with a negative p/q as its own argument.
NEGATIVE_C_ARGVS = [
    ["coeffs", "--kind", "T", "--n", "3", "--k", "2", "--c", "-1/2"],
    ["table", "--kind", "U", "--n-max", "4", "--c", "-5/3"],
    ["positivity", "--kind", "T", "--n", "3", "--k", "2", "--c", "-11/10"],
    ["sign-survey", "--kind", "T", "--n-max", "4", "--c", "-1/2", "--c", "3/2"],
    ["clt", "--k", "1", "--n", "4", "--c", "-3/2"],
]


def _attach_c(argv):
    """argv with each ``--c VALUE`` pair written as ``--c=VALUE``."""
    out = []
    for part in argv:
        if out and out[-1] == "--c":
            out[-1] = f"--c={part}"
        else:
            out.append(part)
    return out


@pytest.mark.parametrize("argv", NEGATIVE_C_ARGVS, ids=lambda argv: argv[0])
def test_negative_fraction_is_a_value_of_c(capsys, argv):
    # argparse used to take "-1/2" for an option: "expected one argument", exit 2
    assert cli._read(argv) is not None
    separate = capture(capsys, argv)
    assert separate == capture(capsys, _attach_c(argv))
    assert separate[0] == (1 if argv[0] == "clt" else 0)
    assert separate[1] or argv[0] == "clt"


USAGE_ERROR_ARGVS = [
    [],
    ["bogus"],
    ["coeffs"],
    ["coeffs", "--kind", "T", "--n", "two", "--c", "2"],
    ["coeffs", "--kind", "T", "--n", "2", "--c", "1.5"],
    ["fgcount", "--r", "2", "--n", "3", "--format", "xml"],
    ["fgcount", "--r", "2", "--n", "3", "--method", "oracle"],  # the option is gone
    ["clt", "--c", "2", "--k", "1", "--n", "4", "--extra"],
    ["clt", "--c", "2", "--k", "1", "--n", "3,,4"],  # an empty part used to be dropped
    ["clt", "--c", "2", "--k", "1", "--n", "3,"],
    ["clt", "--c", "2", "--k", "1", "--n", ","],
]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["coeffs", "--kind", "X", "--n", "2", "--c", "2"],
         "argument --kind: kind must be T or U, got 'X'"),
        (["clt", "--c", "2", "--k", "1", "--n", "1,x"],
         "argument --n: expected a comma-separated list of integers, got '1,x'"),
        (["coeffs", "--kind", "T", "--n", "2", "--c", "1.5"],
         "argument --c: not an exact rational (use p/q or an integer): '1.5'"),
        (["sign-survey", "--kind", "T", "--n-max", "2", "--c", "2", "--c", "1/0"],
         "argument --c: not an exact rational (use p/q or an integer): '1/0'"),
        (["clt", "--c", "abc", "--k", "1", "--n", "4", "--mode", "float_normalized"],
         "cannot parse c: 'abc'"),
        # exact-mode clt parses c as every other --c is parsed
        (["clt", "--c", "2/0", "--k", "1", "--n", "4"],
         "not an exact rational (use p/q or an integer): '2/0'"),
        (["clt", "--c", "1.5", "--k", "1", "--n", "4"],
         "not an exact rational (use p/q or an integer): '1.5'"),
        (["clt", "--c", "2", "--k", "1", "--n", "3,,4"],
         "argument --n: expected a comma-separated list of integers, got '3,,4'"),
    ],
    ids=["kind", "n_list", "c", "c_zero_denominator", "float_c", "clt_c_zero_denominator",
         "clt_decimal_c_in_exact_mode", "n_list_empty_part"],
)
def test_usage_error_keeps_the_package_message(capsys, argv, message):
    # argparse used to print "invalid _parse_kind value: 'X'", naming a
    # private function, for every option type
    assert capture(capsys, argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", USAGE_ERROR_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_is_one_line(capsys, argv):
    # argparse used to print its usage block and "symcheb: error: ..." on 2-3 lines
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_usage_error_is_one_line_in_a_process(flags):
    argv = ["coeffs", "--kind", "T", "--n", "2"]
    result = subprocess.run(
        [sys.executable, *flags, "-m", "symcheb", *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "usage error: the following arguments are required: --c\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("r,n", [("10", "10"), (ARITY, "4")], ids=["words", "row"])
def test_fgverify_refuses_before_counting_in_a_process(flags, r, n):
    # the word budget was checked only after the formula route had counted
    # every class: about 20 s at r = n = 10
    env = {**os.environ, "SYMCHEB_ENUM_BUDGET": "100000000"}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, *flags, "-m", "symcheb", "fgverify", "--r", r, "--n", n],
        capture_output=True, text=True, env=env,
    )
    assert time.perf_counter() - start < 5
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("resource error: ") and result.stderr.count("\n") == 1
    assert len(result.stderr) < 200


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize(
    "argv,size",
    [
        (["coeffs", "--kind", "T", "--n", "1", "--c", "2", "--k", "1200", "--format", "csv"],
         5_784_099),
        (["fgcount", "--r", "1200", "--n", "1"], 8_691_632),
    ],
    ids=["coeffs", "fgcount"],
)
def test_term_list_at_large_k_in_a_process(flags, argv, size):
    # the writer recursed once per coordinate: a RecursionError traceback, exit 1
    result = subprocess.run(
        [sys.executable, *flags, "-m", "symcheb", *argv], capture_output=True
    )
    assert (result.returncode, len(result.stdout), result.stderr) == (0, size, b"")


@pytest.mark.parametrize("argv", [["--help"], ["coeffs", "--help"]])
def test_help_is_unchanged(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['symcheb', *argv[:-1]])} [-h]")


class KernelCalled(Exception):
    pass


def no_kernel(*args):
    raise KernelCalled


K1_ROW_ARGVS = [
    ["coeffs", "--kind", "T", "--n", "40", "--c", "-7/5", "--k", "1"],
    ["coeffs", "--kind", "U", "--n", "33", "--c", "3/4", "--format", "csv"],
    ["positivity", "--kind", "U", "--n", "41", "--c", "0", "--k", "1"],
    ["positivity", "--kind", "T", "--n", "12", "--c", "11/10", "--format", "csv"],
]


@pytest.mark.parametrize("argv", K1_ROW_ARGVS)
def test_one_row_at_k1_skips_the_kernel(capsys, monkeypatch, argv):
    expected = capture(capsys, argv)
    monkeypatch.setattr(symmetrized, "orbit_rows", no_kernel)
    assert capture(capsys, argv) == expected and expected[0] == 0


def test_build_at_k1_skips_the_kernel(monkeypatch):
    spec = symmetrized.SymChebSpec(ChebKind.SECOND, 30, Fraction(-5, 3), 1)
    expected = symmetrized.build(spec)
    monkeypatch.setattr(symmetrized, "orbit_rows", no_kernel)
    assert symmetrized.build(spec) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--kind", "T", "--c", "3/2", "--n-max", "6"],
        ["sign-survey", "--kind", "U", "--k", "1", "--n-max", "6", "--c", "1/2"],
        ["coeffs", "--kind", "T", "--n", "6", "--c", "3/2", "--k", "2"],
        ["positivity", "--kind", "T", "--n", "6", "--c", "3/2", "--k", "2"],
    ],
    ids=["table", "sign-survey", "coeffs-k2", "positivity-k2"],
)
def test_every_row_and_k_above_1_keep_the_kernel(monkeypatch, argv):
    monkeypatch.setattr(symmetrized, "orbit_rows", no_kernel)
    with pytest.raises(KernelCalled):
        run(argv)


EXACT_C = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "-2"]).map(parse_exact),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.fractions(max_value=0, min_value=-3, max_denominator=9),  # c <= 0
    st.fractions(min_value=-1, max_value=1, max_denominator=9),  # |c| <= 1: cancelled zeros
)
KINDS = st.sampled_from(list(ChebKind))
FORMATS = st.sampled_from(["json", "csv"])


def _c_text(c):
    return f"{c.numerator}/{c.denominator}"


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


def run_to_both(argv, out_dir):
    """run_text(argv), once it has checked that --out writes the same text
    to a file, with nothing on standard output."""
    code, out, err = run_text(argv)
    target = out_dir / "out.txt"
    assert run_text([*argv, "--out", str(target)]) == (code, "", err)
    assert target.read_text(encoding="utf-8") == out
    return code, out, err


class TestOrbitWriter:
    """The command line writes term lists from the kernel's orbit
    representatives; the oracles write them term by term, as it once did."""

    @settings(max_examples=80, deadline=None)
    @given(kind=KINDS, c=EXACT_C, k=st.integers(1, 5), n=st.integers(0, 12), fmt=FORMATS)
    @example(kind=ChebKind.FIRST, c=parse_exact("0"), k=2, n=3, fmt="json")  # all-zero row
    @example(kind=ChebKind.SECOND, c=parse_exact("1"), k=3, n=0, fmt="csv")
    @example(kind=ChebKind.FIRST, c=parse_exact("-7/3"), k=4, n=5, fmt="json")
    @example(kind=ChebKind.FIRST, c=parse_exact("1/2"), k=5, n=12, fmt="csv")
    @example(kind=ChebKind.SECOND, c=parse_exact("-3/4"), k=5, n=11, fmt="json")
    @example(kind=ChebKind.FIRST, c=parse_exact("0"), k=1, n=12, fmt="csv")  # one term survives
    def test_coeffs_matches_the_term_by_term_route(self, out_dir, kind, c, k, n, fmt):
        argv = ["coeffs", "--kind", kind.value, "--n", str(n), "--c", _c_text(c),
                "--k", str(k), "--format", fmt]
        assert run_to_both(argv, out_dir) == (0, coeffs_text(kind, n, c, k, fmt), "")

    @settings(max_examples=40, deadline=None)
    @given(kind=KINDS, c=EXACT_C, n_max=st.integers(0, 9), fmt=FORMATS)
    @example(kind=ChebKind.FIRST, c=parse_exact("0"), n_max=5, fmt="json")
    @example(kind=ChebKind.SECOND, c=parse_exact("-1"), n_max=0, fmt="csv")
    def test_table_matches_the_term_by_term_route(self, kind, c, n_max, fmt):
        argv = ["table", "--kind", kind.value, "--c", _c_text(c), "--n-max", str(n_max),
                "--format", fmt]
        assert run_text(argv) == (0, table_text(kind, c, n_max, fmt), "")

    @settings(max_examples=40, deadline=None)
    @given(r=st.integers(2, 6), n=st.integers(1, 12), fmt=FORMATS)
    @example(r=5, n=4, fmt="json")
    @example(r=6, n=12, fmt="csv")
    @example(r=4, n=6, fmt="csv")  # the most words that are enumerated
    def test_fgcount_matches_the_table_route(self, out_dir, r, n, fmt):
        expected = fgcount_text(r, n, fmt)
        argv = ["fgcount", "--r", str(r), "--n", str(n), "--format", fmt]
        assert run_to_both(argv, out_dir) == (0, expected, "")
        if 2 * r * (2 * r - 1) ** (n - 1) <= 134_456:  # words enumerated; every r <= 4, n <= 6
            assert expected == enumeration_text(r, n, fmt)

    @pytest.mark.parametrize(
        "k,n",
        [(1200, 1), (12, 4), (10, 5)],
        ids=["k1200_n1", "k12_n4", "k10_n5"],
    )
    def test_long_zero_runs_match_the_term_by_term_route(self, k, n):
        # one level of recursion per coordinate raised RecursionError at
        # k = 1200; k = 10 and 12 walk zero runs longer than a shared block
        expected = coeffs_text(ChebKind.FIRST, n, parse_exact("3/2"), k, "csv")
        argv = ["coeffs", "--kind", "T", "--n", str(n), "--c", "3/2", "--k", str(k),
                "--format", "csv"]
        assert run_text(argv) == (0, expected, "")
        argv = ["fgcount", "--r", str(k), "--n", str(n), "--format", "json"]
        assert run_text(argv) == (0, fgcount_text(k, n, "json"), "")

    def test_k1_pieces_are_whole_terms(self):
        # ``_copy`` alone sizes the write batches: at k = 1 each piece is one
        # term, and the list writer puts the joint between pieces
        ((reps, row, _),) = symmetrized._rows(ChebKind.FIRST, parse_exact("11/10"), 1, [1200])
        pieces = list(cli._orbit_lines(reps, row, str, ("", ",", ",", "", "\n")))
        entries = {j: entry for (j,), entry in zip(reps, row)}
        assert pieces == [f"{x},{entries[abs(x)]}" for x in range(-1200, 1201, 2)]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_value_text_per_representative(self, capsys, monkeypatch, fmt):
        c = parse_exact("7/5")
        ((_, row, _),) = symmetrized._rows(ChebKind.FIRST, c, 3, [12])
        texts = count_texts(monkeypatch)
        format_exact, formatted = cli.format_exact, []
        monkeypatch.setattr(cli, "format_exact", lambda v: formatted.append(v) or format_exact(v))
        argv = ["coeffs", "--kind", "T", "--n", "12", "--c", "7/5", "--k", "3", "--format", fmt]
        code, out, _ = capture(capsys, argv)
        terms = len(json.loads(out)["terms"]) if fmt == "json" else out.count("\n") - 1
        assert (code, terms, len(texts)) == (0, 1469, 57)
        assert sum(map(bool, row)) == 57
        assert formatted == [c]  # the c head field only

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_value_text_per_entry_at_k1(self, capsys, monkeypatch, fmt):
        ((_, row, scale),) = symmetrized._rows(ChebKind.SECOND, parse_exact("-11/10"), 1, [151])
        texts = count_texts(monkeypatch)
        argv = ["coeffs", "--kind", "U", "--n", "151", "--c", "-11/10", "--format", fmt]
        code, out, _ = capture(capsys, argv)
        terms = len(json.loads(out)["terms"]) if fmt == "json" else out.count("\n") - 1
        assert (code, terms, len(texts)) == (0, 152, 76)
        assert texts == [(entry, scale) for entry in row]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_value_text_per_table_entry(self, capsys, monkeypatch, fmt):
        # one per nonzero kernel entry at j >= 0, mirrored to -j, and the zero
        rows = list(symmetrized._rows(ChebKind.FIRST, parse_exact("13/12"), 1, range(61)))
        nonzero = [(entry, scale) for _, row, scale in rows for entry in row if entry]
        texts = count_texts(monkeypatch)
        argv = ["table", "--kind", "T", "--c", "13/12", "--n-max", "60", "--format", fmt]
        assert capture(capsys, argv)[0] == 0
        assert (len(texts), len(nonzero)) == (962, 961)
        assert texts == [(0, 1), *nonzero]


def count_texts(monkeypatch):
    """The (entry, scale) of every value text that the command line makes."""
    made, texts = cli._ratio_text, []

    def counting(scale, base):
        text = made(scale, base)
        return lambda entry: texts.append((entry, scale)) or text(entry)

    monkeypatch.setattr(cli, "_ratio_text", counting)
    return texts


def check_texts(q0, kq, rows):
    """``cli._ratio_text`` over rows of (m, entries) at s = q0 kq^m, diffed
    against the one-gcd reference and format_exact."""
    for m, entries in rows:
        scale = q0 * kq**m
        text = cli._ratio_text(scale, q0 * kq)
        for entry in entries:
            expected = ratio_text(entry, scale)
            assert expected == format_exact(Fraction(entry, scale))
            assert text(entry) == expected


class TestRatioTexts:
    """The reduction rule of ``coeffs`` and ``table``, one path for every
    scale and base: a remainder by a part M of the scale, the full gcd only
    where a prime of M is saturated."""

    @settings(max_examples=300, deadline=None)
    @given(
        q0=st.sampled_from([1, 2]),
        kq=st.one_of(
            st.integers(1, 60),
            st.sampled_from([1, 15, 3**18, 2**29 + 11, 2**30, 1_000_000_000_007]),
        ),
        rows=st.lists(
            st.tuples(
                st.integers(0, 400),
                st.lists(
                    st.tuples(st.integers(-(10**250), 10**250), st.integers(0, 500)),
                    min_size=1, max_size=6,
                ),
            ),
            min_size=1, max_size=4,
        ),
    )
    @example(q0=2, kq=15, rows=[(60, [(7, 60), (-1, 3), (1, 0)])])  # q0 = 2, odd kq
    @example(q0=2, kq=1, rows=[(0, [(5, 0)]), (300, [(-4, 2)])])  # kq = 1
    @example(q0=1, kq=2, rows=[(0, [(0, 0), (3, 0)]), (200, [(3, 1)])])  # m = 0
    @example(q0=1, kq=1_000_000_000_007, rows=[(40, [(-9, 40), (9, 39)])])
    @example(q0=1, kq=10, rows=[(50, [(7, 20), (-7, 9), (7, 10)])])  # saturated
    @example(q0=2, kq=15, rows=[(3, [(1, 0), (4, 1), (-2, 3)])])  # M stops growing below 2^30
    @example(q0=1, kq=2 * 1_000_000_007, rows=[(30, [(3, 0), (-5, 1), (7, 2)])])  # b > 2^30
    def test_matches_the_one_gcd_reference(self, q0, kq, rows):
        # an entry is a unit times gcd(s, b^i), so it shares from none to
        # all of the scale, and often more of a prime than M holds; s stays
        # within 12,000 bits, and the text within str's default digit limit
        top, shared = 12_000 // (q0 * kq).bit_length(), []
        for m, entries in rows:
            m = min(m, top)
            parts = [math.gcd(q0 * kq**m, (q0 * kq) ** i) for _, i in entries]
            shared.append((m, [unit * part for (unit, _), part in zip(entries, parts)]))
        check_texts(q0, kq, shared)

    @pytest.mark.parametrize("n", [40, 100])
    @pytest.mark.parametrize("kind", list(ChebKind))
    def test_saturated_rows(self, kind, n):
        # every entry holds 3^n, all of the scale's 3s: past the word part
        # of a 160-bit scale at n = 100, so each takes the full gcd.  These
        # are the kernel rows of c = 3, k = 3 before c/k = 1 is reduced.
        q0 = 2 if kind is ChebKind.FIRST else 1
        *_, (_, row) = orbit_rows(3, 9, q0, 3, n)
        assert all(entry % 3**n == 0 for entry in row)
        ((_, reduced, scale),) = symmetrized._rows(kind, Fraction(3), 3, [n])
        assert scale * 3**n == q0 * 3**n
        assert reduced == [entry // 3**n for entry in row]
        check_texts(q0, 3, [(n, [entry for entry in row if entry])])

    def test_table_zero_text(self):
        # table writes the text of 0 over 1 at every j outside a row's support
        assert cli._ratio_text(1, 11 * 2)(0) == "0/1"
        assert format_exact(Fraction(0, 1)) == "0/1"

    def test_big_gcd_only_for_saturated_entries(self, monkeypatch):
        # a gcd of two ints past 64 bits is the quadratic step the rule avoids
        big = []

        class Math:
            @staticmethod
            def gcd(a, b):
                big.append(min(abs(a), abs(b)).bit_length() > 64)
                return math.gcd(a, b)

        monkeypatch.setattr(cli, "math", Math)
        ((_, row, scale),) = symmetrized._rows(ChebKind.FIRST, parse_exact("11/10"), 1, [150])
        assert scale == 2 * 10**150
        text = cli._ratio_text(scale, 20)
        for entry in row:
            text(entry)
        assert len(big) > len(row) and not any(big)
        # 20^6 < 2^30: 7 10^100 holds every 2 and 5 of M and more
        assert text(7 * 10**100) == f"7/{2 * 10**50}" and sum(big) == 1
        big.clear()
        text = cli._ratio_text(2 * 10**38, 20)  # 127 bits, reduced as any other scale
        assert text(3 * 10**40 + 1) == f"{3 * 10**40 + 1}/{2 * 10**38}" and not any(big)
        # a base b = 2 d over 2^30: M = b, and only an entry that d divides is saturated
        d = 1_000_000_007
        ((_, row, scale),) = symmetrized._rows(ChebKind.FIRST, Fraction(1, d), 1, [150])
        assert scale == 2 * d**150
        text = cli._ratio_text(scale, 2 * d)
        for entry in row:
            assert text(entry) == ratio_text(entry, scale)
        assert len(big) > len(row) and not any(big)
        assert text(5 * d**3) == f"5/{2 * d**147}" and sum(big) == 1


BATCH = 1 << 16
LARGE_OUTPUTS = {  # each more than one write batch, most many times more
    "table": (["table", "--kind", "T", "--c", "14/13", "--n-max", "150"],
              lambda fmt: table_text(ChebKind.FIRST, parse_exact("14/13"), 150, fmt)),
    "coeffs_k1": (["coeffs", "--kind", "U", "--n", "1500", "--c", "3/2"],
                  lambda fmt: coeffs_text(ChebKind.SECOND, 1500, parse_exact("3/2"), 1, fmt)),
    "coeffs_k3": (["coeffs", "--kind", "T", "--n", "20", "--c", "7/5", "--k", "3"],
                  lambda fmt: coeffs_text(ChebKind.FIRST, 20, parse_exact("7/5"), 3, fmt)),
    "fgcount": (["fgcount", "--r", "4", "--n", "10"], lambda fmt: fgcount_text(4, 10, fmt)),
}
TABLE_150 = ["table", "--kind", "T", "--c", "14/13", "--n-max", "150", "--format", "json"]


class TestStreamedOutput:
    """Output is written in batches of at least 64 KiB as it is made, never
    held whole."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", LARGE_OUTPUTS)
    def test_batches_join_to_the_oracle_text(self, tmp_path, name, fmt):
        argv, oracle = LARGE_OUTPUTS[name]
        argv, expected = [*argv, "--format", fmt], oracle(fmt)
        assert len(expected) > BATCH
        assert run_text(argv) == (0, expected, "")
        target = tmp_path / "out.txt"
        assert run_text([*argv, "--out", str(target)]) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected

    def test_peak_memory_is_a_fraction_of_the_output(self, tmp_path):
        # holding the whole 2.8 MB document, and its copies, peaked at about 2x
        target = tmp_path / "table.json"
        tracemalloc.start()
        try:
            code = run([*TABLE_150, "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert (code, size) == (0, 2835291)
        assert peak < size / 2

    @pytest.mark.parametrize(
        "argv,size,share",
        [
            (["coeffs", "--kind", "T", "--c", "7/5", "--k", "3", "--n", "48", "--format", "json"],
             11_874_477, 1 / 2),
            (["coeffs", "--kind", "T", "--c", "7/5", "--k", "3", "--n", "48", "--format", "csv"],
             9_991_662, 1 / 2),
            (["fgcount", "--r", "5", "--n", "14"], 4_602_211, 1 / 2),
            # each zero level's blocks wait for its positive slice: about a
            # third of the document at large k, with the 128 KiB of batches
            (["coeffs", "--kind", "T", "--c", "2", "--k", "300", "--n", "1", "--format", "json"],
             556_555, 1),
            (["coeffs", "--kind", "T", "--c", "2", "--k", "60", "--n", "2", "--format", "json"],
             1_497_922, 1),
            # at k = 1 each text is held from -j to j, so about half the document
            (["coeffs", "--kind", "U", "--n", "3000", "--c", "3/2", "--k", "1",
              "--format", "json"], 8_678_749, 0.77),
            (["coeffs", "--kind", "T", "--n", "1500", "--c", "11/10", "--k", "1",
              "--format", "csv"], 4_851_593, 0.77),
        ],
        ids=["coeffs_json", "coeffs_csv", "fgcount", "coeffs_k300_n1", "coeffs_k60_n2",
             "coeffs_k1_json", "coeffs_k1_csv"],
    )
    def test_term_list_peak_is_a_fraction_of_the_output(self, tmp_path, argv, size, share):
        # a tuple per orbit member, sorted before the first byte, peaked at
        # 1.1 to 3.7 times the size of the document; a block nested in the
        # block of each zero coordinate, at 105 times it at k = 300, n = 1
        # and 19 times at k = 60, n = 2
        target = tmp_path / "terms.txt"
        tracemalloc.start()
        try:
            code = run([*argv, "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, target.stat().st_size) == (0, size)
        assert peak < size * share

    def test_stdout_is_written_in_batches(self):
        # one write per term or row would be one system call each when
        # standard output is unbuffered
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        coeffs_k1 = ["coeffs", "--kind", "T", "--n", "1200", "--c", "11/10", "--format", "json"]
        for argv, size in [(TABLE_150, 2835291), (coeffs_k1, 3131729)]:
            stdout = CountingStdout()
            with contextlib.redirect_stdout(stdout):
                assert run(argv) == 0
            assert len(stdout.getvalue()) == size
            assert stdout.writes <= size // BATCH + 2
