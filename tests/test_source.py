import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symcheb"


def test_package_has_no_assert_statements():
    # `python -O` strips assert; checks the package relies on must raise
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
