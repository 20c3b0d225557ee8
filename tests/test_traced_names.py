"""The benchmark's tracer wraps named package objects; they must keep existing.

``perfbench/tracer.py`` lists, per module, the functions it wraps, the
classes whose construction it times and (dotted) the methods it replaces on
their class. Renaming one, or turning a function into a class, breaks traced
benchmark runs, so the names are checked here. The file is only parsed, never
imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            traced = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in traced.items() for name in names]
    raise AssertionError(f"no TRACED mapping in {TRACER}")


@pytest.mark.parametrize("layer, name", traced_names(), ids=lambda arg: arg)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"qtelegraph.{layer}")
    if "." in name:
        owner_name, attr = name.split(".")
        owner = getattr(module, owner_name)
        assert inspect.isclass(owner)
        assert inspect.isfunction(owner.__dict__.get(attr))
    elif name[0].isupper():
        assert inspect.isclass(getattr(module, name))
    else:
        assert inspect.isfunction(getattr(module, name))
