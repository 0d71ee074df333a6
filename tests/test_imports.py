"""No module imports a name that it never uses, and no function in the package
takes a parameter that it never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "stpt").glob("*.py"))
# The package's __init__.py imports names only to re-export them.
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
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


def unread_parameters(source: str) -> list[str]:
    """Parameters, other than self and cls, that no read in their function's
    body names; a read in a nested function counts."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, _SCOPES):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(fn.lineno, fn.name, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return [f"line {line}: {name}({arg})" for line, name, arg in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


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


def test_unread_parameters_sees_nested_reads_and_skips_self():
    source = (
        "class A:\n"
        "    def m(self, x, *args, y=1, **kw):\n"
        "        def inner(z):\n"
        "            return x\n"
        "        x = kw\n"
        "        del y\n"
        "        return inner\n"
        "def f(a, /, b: int = 0):\n"
        "    return lambda: a\n"
    )
    assert unread_parameters(source) == ["line 2: m(args)", "line 2: m(y)", "line 3: inner(z)",
                                         "line 8: f(b)"]
