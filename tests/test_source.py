import ast
import subprocess
import sys
from pathlib import Path

import pytest

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
