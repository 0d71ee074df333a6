"""No module imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The package's __init__.py imports names only to re-export them.
SOURCES = sorted(p for p in (ROOT / "src" / "stpt").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the scope that imports them.

    A module-level import may be read anywhere in the module, and one inside a
    function only in that function.
    """
    found = []

    def check(scope: ast.AST) -> None:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, _SCOPES):
                check(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append((node.lineno, name))

    check(ast.parse(source))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def _own_nodes(scope: ast.AST):
    """Nodes under scope, entering no nested function but yielding it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_sees_module_and_function_scopes():
    source = (
        "import os\n"
        "from a import b, c as d\n"
        "def f():\n"
        "    from e import g\n"
        "    import h\n"
        "    return h\n"
        "def k():\n"
        "    return os.sep, d\n"
    )
    assert unused_imports(source) == ["line 2: b", "line 4: g"]
