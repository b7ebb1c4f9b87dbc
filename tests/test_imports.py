"""Every name a library module imports is used in that module, every
function the library defines is referenced somewhere, and every
module-level UPPER_CASE constant is read somewhere.

No linter is a test dependency, so this walks the sources with ``ast``.
A name counts as used when it is loaded anywhere in the module (string
annotations included, since ``from __future__ import annotations`` keeps
them as expressions) or re-exported through ``__all__``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "convexiq").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_no_unreferenced_functions():
    """A non-dunder function or method of the library that no name,
    attribute or string in the library or its tests mentions is dead.
    ``__init__.py`` only re-exports, so its ``__all__`` strings are not
    uses."""
    refs, defs = set(), []
    for path in [p for p in SRC if p.name != "__init__.py"] + TESTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
            elif path in SRC and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.name, node.lineno, node.name))
    assert [d for d in defs if not (d[2].startswith("__") and d[2].endswith("__"))
            and d[2] not in refs] == []


def test_no_unread_constants():
    """A module-level UPPER_CASE constant of the library that no name or
    attribute loads in the library or its tests is dead, as is one left
    behind by a deleted route."""
    reads, consts = set(), []
    for path in SRC + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        if path in SRC:
            for node in tree.body:
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign) else [])
                consts += [(path.name, node.lineno, t.id) for t in targets
                           if isinstance(t, ast.Name) and t.id.isupper()]
    assert [c for c in consts if c[2] not in reads] == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement names, and for ``from m import x``
    also ``m.x``, since x may be a submodule."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_only_bodies_reaches_qhull():
    """qhull is reached only through ``bodies``, so one wrapper around
    ``bodies.convex_hull`` sees every hull the library builds: no other
    library module imports ``scipy.spatial``."""
    importers = [path.name for path in SRC if path.name != "bodies.py" and any(
        name == "scipy.spatial" or name.startswith("scipy.spatial.")
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))))]
    assert importers == []


def test_every_exported_name_exists():
    """Every name in ``convexiq.__all__`` is an attribute of the package,
    so ``from convexiq import *`` runs; a deleted function left in
    ``__all__`` fails here."""
    import convexiq
    assert [name for name in convexiq.__all__ if not hasattr(convexiq, name)] == []
    assert len(set(convexiq.__all__)) == len(convexiq.__all__)
    namespace: dict = {}
    exec("from convexiq import *", namespace)
    assert set(convexiq.__all__) <= set(namespace)
