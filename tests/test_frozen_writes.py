"""Frozen objects are written only while they are built.

``object.__setattr__`` gets past a frozen dataclass's guard, so a method that
calls it can give a frozen object state that changes after construction. It
may appear only inside a ``__post_init__`` method, or in
``quantum._set_unit_trace_matrix``, which fills a ``DensityMatrix`` built
around a checked matrix. The sources are only parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qtelegraph").glob("*.py"))
ALLOWED = {"__post_init__": None, "_set_unit_trace_matrix": "quantum"}


def frozen_writes(source: str, module: str) -> list[str]:
    """The innermost function (``<module>`` at top level) of each read of
    ``object.__setattr__`` in ``source`` that ``ALLOWED`` does not permit."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and (function not in ALLOWED or ALLOWED[function] not in (None, module))
        ):
            found.append(f"{function} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_object_setattr_only_builds_objects(path):
    found = frozen_writes(path.read_text(encoding="utf-8"), path.stem)
    assert not found, f"{path.name} calls object.__setattr__ outside __post_init__: {found}"


def test_every_write_outside_construction_is_seen():
    assert {"protocol", "quantum"} <= {path.stem for path in SOURCES}
    method = "class A:\n    def read(self):\n        object.__setattr__(self, 'x', 1)\n"
    assert frozen_writes(method, "protocol") == ["read (line 3)"]
    nested = "class A:\n    def __post_init__(self):\n        def grow():\n            object.__setattr__(self, 'x', 1)\n"
    assert frozen_writes(nested, "protocol") == ["grow (line 4)"]
    alias = "write = object.__setattr__\n"
    assert frozen_writes(alias, "protocol") == ["<module> (line 1)"]
    helper = "def _set_unit_trace_matrix(rho, mat):\n    object.__setattr__(rho, 'matrix', mat)\n"
    assert frozen_writes(helper, "protocol") == ["_set_unit_trace_matrix (line 2)"]
    assert not frozen_writes(helper, "quantum")
    built = "class A:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"
    assert not frozen_writes(built, "protocol")
