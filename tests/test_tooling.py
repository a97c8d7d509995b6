"""The ragtrim names that perfbench's tracer patches still exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    """`perfbench/run.py --trace 1` replaces these attributes; a rename would drop their spans."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [spans] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "LAYER_SPANS"]
    names = [(module, attr) for module, attr, _, _ in spans]
    names.append(("ragtrim.predictor", "loss_and_grad"))
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert len(names) > 1 and missing == []
