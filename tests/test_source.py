import ast
import contextlib
import importlib.util
import io
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symcheb import ChebKind

from oracles import table_text

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symcheb"
# Loaded only through `dataclasses`; importing them costs each CLI process
# tens of milliseconds of start-up.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _trees():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sources
    ]


def test_package_has_no_assert_statements():
    # `python -O` strips assert; checks the package relies on must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_row_source():
    # rows of c come from ``symmetrized._rows`` alone, the word counts from
    # ``freegroup._formula_row``: a second route, or a second map from c to
    # kernel integers, would call a row engine from somewhere else
    found = set()
    for path, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("univariate_row", "orbit_rows"):
                        found.add((path.stem, getattr(top, "name", None), name))
    assert found == {
        ("symmetrized", "_rows", "univariate_row"),
        ("symmetrized", "_rows", "orbit_rows"),
        ("freegroup", "_formula_row", "orbit_rows"),
    }


def test_enumeration_is_reached_only_by_fgverify():
    # brute-force enumeration is the independent check of the kernel's word
    # counts: the command line runs it only to diff the two, never to write
    # a term list
    found = set()
    for path, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "enumerate_counts":
                        found.add((path.stem, getattr(top, "name", None)))
    assert found == {("cli", "_cmd_fgverify")}


def test_one_term_list_route():
    # every term list is written by ``cli._orbit_lines`` through
    # ``cli._terms_text``: no command picks a second writer
    found = set()
    for path, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                if getattr(node, "id", getattr(node, "attr", None)) == "_orbit_lines":
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == {("cli", "_terms_text")}


def test_one_batcher():
    # write batches are sized by ``cli._copy`` alone: a writer that read
    # _BATCH too would join pieces that ``_copy`` then joins again
    found = set()
    for path, tree in _trees():
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name == "_BATCH" and isinstance(node.ctx, ast.Load):
                    found.add((path.stem, getattr(top, "name", None)))
    assert found == {("cli", "_copy")}


def test_one_budget_setting():
    # SYMCHEB_ENUM_BUDGET is the one way to set the enumeration budget: no
    # function takes it as an argument
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and node.arg == "budget"
    ]
    assert found == []


def test_one_term_writer():
    # term text is the command line's: the writer of coeffs and fgcount term
    # lists is defined in ``cli`` alone, and no other module imports it, so
    # ``chebyshev`` holds only arithmetic
    defined, imported = set(), set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") == "orbit_lines":
                defined.add((path.stem, node.name))
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name.lstrip("_") for alias in node.names}
                if "orbit_lines" in names:
                    imported.add((path.stem, node.module))
    assert (defined, imported) == ({("cli", "_orbit_lines")}, set())


def test_only_the_oracle_is_cached():
    # the kernel's orbit graph belongs to its walk and goes with it; the one
    # cache in ``chebyshev`` is the oracle's, whose statistics are read by
    # bench/child.py and test_records.py
    tree = next(tree for path, tree in _trees() if path.stem == "chebyshev")
    cached = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if "cache" in ast.unparse(decorator)
    }
    assert cached == {"cheb_coeffs"}


def test_package_does_not_import_dataclasses():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert found == []


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_cli_import_leaves_slow_modules_unloaded(flags):
    # only what the import itself loads counts, not what site start-up loaded
    code = (
        "import sys; before = set(sys.modules); import symcheb.cli; "
        f"print(','.join(m for m in {SLOW_IMPORTS!r} if m in set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_well_formed_command_lines_leave_argparse_unloaded(flags):
    # the option table reads them; argparse (and gettext with it) is built
    # only for a command line that the table declines, such as a bad value
    code = """
import contextlib, io, sys
before = set(sys.modules)
def loaded():
    print(",".join(m for m in ("argparse", "gettext") if m in set(sys.modules) - before))
import symcheb.cli
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    symcheb.cli.run(["coeffs", "--kind", "T", "--n", "4", "--c", "3/2", "--k", "2"])
    symcheb.cli.run(["clt", "--c", "2", "--k", "1", "--n", "4,8", "--mode", "float_normalized"])
loaded()
symcheb.cli.run(["coeffs", "--kind", "X", "--n", "4", "--c", "3/2"])
loaded()
"""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "\n\nargparse,gettext\n"
    assert result.stderr == "usage error: argument --kind: kind must be T or U, got 'X'\n"


# ``symcheb.__all__`` as written out when the package imported every module
PUBLIC_NAMES = [
    "ChebCoeffVector", "ChebKind", "ConvergenceReport", "ConvergenceRow", "DomainError",
    "HomologyCountTable", "InternalError", "LatticeDistribution", "LaurentPoly", "MomentReport",
    "PositivityReport", "ResourceBudgetError", "SignClass", "SurveyRow", "SurveyWitness",
    "SymChebSpec", "UnivariateCoeffTable", "UsageError", "Word", "build", "build_sequence",
    "char_fn", "cheb_coeffs", "coeff_formula_T", "convergence_report", "counts_by_formula",
    "distribution", "enumerate_counts", "eval_closed_T", "format_exact",
    "freegroup_convergence_report", "fullform_coeff", "homology_of", "inverse_letter",
    "is_cyclically_reduced", "moments", "parse_exact", "positivity_report", "sigma2_rederived",
    "sigma2_reported", "sign_survey", "total_count", "univariate_table",
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_package_names_load_lazily(flags):
    # ``import symcheb`` loads no submodule; each public name is the object
    # that the module defining it holds
    code = """
import sys
import symcheb
print(sorted(m for m in sys.modules if m.startswith("symcheb.")))
print(symcheb.__all__)
for name in symcheb.__all__:
    value = getattr(symcheb, name)
    home = value.__module__
    if not home.startswith("symcheb.") or getattr(sys.modules[home], name) is not value:
        print("not its module's:", name)
print(set(symcheb.__all__) <= set(dir(symcheb)))
try:
    symcheb.no_such_name
except AttributeError as exc:
    print(exc)
names = {}
exec("from symcheb import *", names)
print(sorted(names.keys() - {"__builtins__"}) == symcheb.__all__)
"""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        "[]", repr(PUBLIC_NAMES), "True", "module 'symcheb' has no attribute 'no_such_name'", "True"
    ]


# one command line per command, and the modules its process loads besides
# the package, chebyshev, cli, errors and laurent, which every command loads
STARTUP = {
    "coeffs": (["--kind", "T", "--n", "4", "--c", "3/2", "--k", "2"], {"symmetrized"}),
    "table": (["--kind", "U", "--c", "3/2", "--n-max", "4"], {"symmetrized"}),
    "positivity": (["--kind", "T", "--n", "4", "--c", "11/10", "--k", "2"], {"symmetrized"}),
    "sign-survey": (["--kind", "U", "--k", "2", "--n-max", "4", "--c", "3/2"], {"symmetrized"}),
    "fgcount": (["--r", "2", "--n", "4"], {"freegroup"}),
    "fgverify": (["--r", "2", "--n", "4"], {"freegroup"}),
    "clt": (["--c", "2", "--k", "1", "--n", "4,8"], {"cltstats", "freegroup", "symmetrized"}),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_each_command_loads_its_modules_before_its_op(flags):
    # tools/startup.py runs bench/child.py's main behind a wrapped
    # cli.build_parser, where the child starts the op clock: every module
    # the command runs is loaded by then, no other compute module at all,
    # and the op imports none
    path, _ = _tool("startup")
    argvs = [shlex.join([command, *options]) for command, (options, _) in STARTUP.items()]
    result = subprocess.run(
        [sys.executable, *flags, str(path), "--runs", "1", *argvs],
        capture_output=True, text=True, check=True,
    )
    header, *rows, summary = result.stdout.splitlines()
    assert header.split()[:4] == ["wall_s", "setup_s", "gc0", "gc_in_op"]
    assert len(rows) == len(STARTUP)
    common = {"chebyshev", "cli", "errors", "laurent"}
    for row, (command, (_, runs)) in zip(rows, STARTUP.items()):
        wall, setup, count, in_op, modules, late, name, *_ = row.split()
        assert 0 < float(setup) <= float(wall) and int(count) >= 0 and int(in_op) >= 0
        assert (name, modules, late) == (command, ",".join(sorted(common | runs)), "-")
    assert summary == "7 command lines, 0 with a module first imported in the op"


def test_clt_modes_are_the_cltstats_modes():
    # the option table writes them out, so that reading it needs no cltstats
    from symcheb import cli, cltstats

    mode = cli._COMMANDS["clt"][2]["--mode"]
    assert mode == {
        "choices": (cltstats.MODE_EXACT, cltstats.MODE_FLOAT), "default": cltstats.MODE_EXACT
    }


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="no int <-> str digit limit before Python 3.10.7",
)
def test_cli_run_leaves_int_digit_limit_alone():
    # only cli.main() lifts the limit, for the process it owns
    code = """
import contextlib, io, sys
before = sys.get_int_max_str_digits()
import symcheb.cli
with contextlib.redirect_stdout(io.StringIO()):
    symcheb.cli.run(["clt", "--c", "2", "--k", "1", "--n", "4", "--format", "json"])
print(before, sys.get_int_max_str_digits())
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = result.stdout.split()
    assert before == after


def _tool(name):
    path = PACKAGE.parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_code_lines_totals_are_the_sum_of_the_modules():
    path, tool = _tool("code_lines")
    result = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, check=True)
    header, *rows, total = [line.split() for line in result.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    assert [row[0] for row in rows] == sorted(p.name for p in PACKAGE.glob("*.py"))
    for name, lines, code in rows:
        source = (PACKAGE / name).read_text(encoding="utf-8")
        assert (int(lines), int(code)) == tool.counts(source)
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2))]


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    _, tool = _tool("code_lines")
    source = '"""Module\ndocstring."""\n\n# a comment\n\n   \n'
    assert tool.counts(source) == (6, 0)
    source += 'def f():\n    """Doc."""\n    return """not\na docstring"""  # end\n'
    assert tool.counts(source) == (10, 3)  # def, return and the string it returns


def _run_record(python="3.11.9", nproc=2):
    """A bench/run.py run record, cut to what the record builder reads and
    a little of what it drops."""
    metric = {"value": 0.07, "unit": "s", "samples": 39, "note": "median over ops"}
    return {
        "workload": "lattice_exact", "python": python, "nproc": nproc, "op_count": 39,
        "argv_sha256": "0123456789abcdef", "argv": [["coeffs"]], "attempted": 117,
        "failed": 0, "end_to_end": {"setup_s": metric}, "per_layer": {}, "ops": [{}],
    }


def test_bench_record_keeps_the_end_to_end_numbers():
    _, tool = _tool("bench_record")
    runs = {"lattice_exact": _run_record(), "float_limits": _run_record()}
    record = tool.bench_record(runs, 7, 30.0, {"head": "f" * 40, "dirty": False})
    assert record == {
        "python": "3.11.9", "nproc": 2, "seed": 7, "seconds": 30.0,
        "git": {"head": "f" * 40, "dirty": False},
        "workloads": {
            name: {
                "argv_sha256": "0123456789abcdef", "op_count": 39, "attempted": 117,
                "failed": 0,
                "end_to_end": {"setup_s": {"value": 0.07, "unit": "s", "samples": 39}},
            }
            for name in ("lattice_exact", "float_limits")
        },
    }
    assert list(record["workloads"]) == list(runs)
    assert tool.bench_record(runs, 7, 30.0, None)["git"] is None  # no git: no commit
    with pytest.raises(ValueError, match="disagree"):
        tool.bench_record({"a": _run_record(), "b": _run_record(nproc=4)}, 7, 30.0, None)


def _readme_blocks(language):
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_examples_run():
    from symcheb.cli import run

    (library,) = _readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library, "README.md", "exec"), {})
    assert out.getvalue() == (
        "LaurentPoly(arity=1, {[-2]: 2/1, [0]: 3/1, [2]: 2/1})\n448/97\n"
    )
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in _readme_blocks("")
        for line in block.splitlines()
        if line.startswith("symcheb ")
    ]
    assert len(commands) == 10
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert (argv, run(argv)) == (argv, 0)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_univariate_row_checks_each_division(flags):
    # a start that is not a^n leaves a remainder in some exact division
    code = """
from symcheb.chebyshev import _univariate_descent
from symcheb.errors import InternalError
try:
    _univariate_descent(3, 4, 2, 10, 3**10 + 1)
except InternalError as exc:
    print(exc)
"""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.startswith("inexact step at j = 8 of the k = 1 row n = 10 ")


def test_univariate_route_prints_the_same_bytes_optimized():
    argv = ["coeffs", "--kind", "U", "--n", "301", "--c", "-7/5", "--k", "1", "--format", "json"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "symcheb", *argv], capture_output=True, check=True
        )
        for flags in ([], ["-O"])
    )
    assert plain.stdout.startswith(b'{"kind": "U", "n": 301, ') and plain.stderr == b""
    assert (optimized.stdout, optimized.stderr) == (plain.stdout, plain.stderr)


def test_table_prints_the_same_bytes_optimized():
    # every row takes the word-sized reduction of ``cli._ratio_text``
    argv = ["table", "--kind", "U", "--c", "-7/5", "--n-max", "120", "--format", "json"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "symcheb", *argv], capture_output=True, check=True
        )
        for flags in ([], ["-O"])
    )
    expected = table_text(ChebKind.SECOND, Fraction(-7, 5), 120, "json")
    assert (plain.stdout, plain.stderr) == (expected.encode(), b"")
    assert (optimized.stdout, optimized.stderr) == (plain.stdout, plain.stderr)
