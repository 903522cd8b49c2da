"""Every module-level import is read somewhere in its module, and every
module-level private name of the package somewhere in the package.

No linter is a dependency of the project, so these walks are the check. The
import walk exempts ``from __future__`` imports and lines marked
``# noqa: F401``. The package itself binds only its submodules, so each
public name has one import path, its defining module.
"""

import ast
import types
from pathlib import Path

import pytest

import clickcz

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/clickcz").glob("*.py"))
MODULES = sorted(
    path
    for folder in ("src/clickcz", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression in ``source`` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_binds_only_its_submodules():
    names = {name for name in vars(clickcz) if not name.startswith("__")}
    assert names
    for name in names:
        value = getattr(clickcz, name)
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"clickcz.{name}", name


def test_walk_finds_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps\nx = dumps\n"
    assert unused_imports(source) == ["math (line 1)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` names that no other line of ``sources`` reads.

    ``sources`` maps a file name to its text. A read is a name or an
    attribute (``states._ket``) loaded on any line but the one that binds
    it; dunder names are exempt.
    """
    bound: list[tuple[str, str, int]] = []
    reads: dict[str, set[tuple[str, int]]] = {}
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    bound.append((name, file, node.lineno))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, set()).add((file, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.attr, set()).add((file, n.lineno))
    return [
        f"{name} ({file} line {line})"
        for name, file, line in bound
        if not reads.get(name, set()) - {(file, line)}
    ]


def test_no_unread_private_names():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_walk_finds_an_unread_private_name():
    sources = {
        "a.py": "_kept = 1\n_lost = 2\n_self = _self if 0 else 3\ndef _f():\n    return _kept\n",
        "b.py": "from a import _f\nimport a\nx = a._f\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["_lost (a.py line 2)", "_self (a.py line 3)"]
