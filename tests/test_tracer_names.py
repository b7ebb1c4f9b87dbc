"""The benchmark tracer wraps library functions by name and reads two
``QuadratureSpec`` fields, so a rename in the library breaks
``perfbench/run.py --trace 1``.  This reads the tracer's ``TRACED`` table
with ``ast`` (the tracer is neither imported nor changed) and checks that
every name it lists still exists.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from convexiq.quadrature import QuadratureSpec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_pairs() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return [tuple(ast.literal_eval(elt)) for elt in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_every_traced_name_is_a_library_function():
    pairs = _traced_pairs()
    assert pairs
    missing = [(module, name) for module, name in pairs
               if not inspect.isfunction(getattr(
                   importlib.import_module(f"convexiq.{module}"), name, None))]
    assert missing == []


def test_quadrature_spec_keeps_the_fields_the_tracer_reads():
    spec = QuadratureSpec()
    assert hasattr(spec, "target_error")
    assert hasattr(spec, "max_resolution")
