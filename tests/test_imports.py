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
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "convexiq").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# Public functions that no library module and no benchmark script calls,
# kept for the reason given.
UNCALLED_PUBLIC = {
    "support": "the basic body API: the support function in one direction",
    "translate_body": "the basic body API, beside scale_body",
    "project": "acceptance criterion 5: the coordinate projection kept in R^n",
    "cross_polytope_from_sections": "acceptance criterion 8's constructor",
    "segment_from_projections": "acceptance criterion 8's constructor",
    "inequality_status": "a catalog query: an inequality's proof status at (n, m)",
    "load_finding": "the reader of the finding/1 files the CLI writes",
}


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


def test_every_public_function_has_a_caller():
    """A public module-level function of the library that no library
    module (``__init__.py`` only re-exports) and no benchmark script
    mentions by name, attribute or string, outside its own body, is
    reached by tests alone: it is deleted, or kept in UNCALLED_PUBLIC with
    its reason.  An entry there that gains a caller leaves the table."""
    refs, public = set(), set()
    for path in [p for p in SRC if p.name != "__init__.py"] + BENCH:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if path in SRC and owner and not owner.startswith("_"):
                public.add(owner)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.value if isinstance(node, ast.Constant)
                        and isinstance(node.value, str) else None)
                if name is not None and name != owner:
                    refs.add(name)
    assert sorted(public - refs) == sorted(UNCALLED_PUBLIC)


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
    library module imports ``scipy.spatial``, and exactly one function of
    ``bodies`` calls ``ConvexHull``, so one guard sees every qhull call."""
    importers = [path.name for path in SRC if path.name != "bodies.py" and any(
        name == "scipy.spatial" or name.startswith("scipy.spatial.")
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))))]
    assert importers == []
    tree = ast.parse((ROOT / "src" / "convexiq" / "bodies.py").read_text(encoding="utf-8"))
    callers = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == "ConvexHull" for call in ast.walk(node))]
    assert callers == ["_qhull"]


class _AxisLoops(ast.NodeVisitor):
    """Lines of calls to ``vm_projection`` whose direction is a variable
    of an enclosing loop or comprehension."""

    def __init__(self):
        self.bound, self.lines = [], []

    def _visit_bound(self, node, targets):
        self.bound.append({n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)})
        self.generic_visit(node)
        self.bound.pop()

    def visit_For(self, node):
        self._visit_bound(node, [node.target])

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node):
        self._visit_bound(node, [g.target for g in node.generators])

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "vm_projection":
            axis = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "u"), None)
            if isinstance(axis, ast.Name) and any(axis.id in b for b in self.bound):
                self.lines.append(node.lineno)
        self.generic_visit(node)


def test_only_measures_loops_over_the_axes():
    """The n coordinate shadows or sections of one degree come from one
    call (``measures.vm_shadows``, ``vm_sections``): no library module
    but ``measures`` calls ``vm_projection`` with a loop or comprehension
    variable as the direction."""
    found = []
    for path in SRC:
        if path.name != "measures.py":
            visitor = _AxisLoops()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            found += [f"{path.name}:{line}" for line in visitor.lines]
    assert found == []


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


_ROLE_REF = re.compile(r":(func|class|meth|mod):`~?([^`]+)`")


def _docstring_references(tree: ast.Module):
    """(class, role, target) of every Sphinx reference in a docstring of
    the module, its classes and their functions, with the name of the
    enclosing class (None outside one)."""
    def walk(node, cls):
        doc = ast.get_docstring(node, clean=False) if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for role, target in _ROLE_REF.findall(doc or ""):
            yield cls, role, target
        for child in ast.iter_child_nodes(node):
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)
    return list(walk(tree, None))


def _lookup(root, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def test_docstring_references_resolve():
    """Every ``:func:``, ``:class:``, ``:meth:`` and ``:mod:`` reference in
    a library docstring names something that exists: looked up from the
    module's own namespace, from the package (``bodies.derived``, with or
    without a ``convexiq.`` prefix), or, for a ``:meth:``, from its
    enclosing class.  A deleted or renamed helper left in a docstring
    fails here."""
    import convexiq
    missing, count = [], 0
    for path in SRC:
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"convexiq.{path.stem}" if path.stem != "__init__"
                                         else "convexiq")
        for cls, role, target in _docstring_references(ast.parse(path.read_text(encoding="utf-8"))):
            count += 1
            name = target.removeprefix("convexiq.")
            roots = [module, convexiq] + ([getattr(module, cls)] if role == "meth" and cls else [])
            if not any(_lookup(root, name) for root in roots):
                missing.append(f"{path.name}: :{role}:`{target}`")
    assert missing == [] and count > 100
