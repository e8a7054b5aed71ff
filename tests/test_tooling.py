"""perfbench/tracer.py wraps basinreach functions by module and name, so a
refactor that drops or renames one breaks the traced benchmark.  These
read the tracer's TARGETS table with ast, without importing the tracer."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [(modules[row.elts[0].id], row.elts[1].value) for row in table.elts]


def test_tracer_targets_exist():
    targets = tracer_targets()
    assert ("basinreach.reach", "_first_crossing_orbit") in targets
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
