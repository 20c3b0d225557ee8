"""Every private top-level name in the package must be read somewhere.

A module-level ``_name`` function, class or constant is reachable only from
inside ``src/qtelegraph``, so if no code there loads it apart from its own
definition, nothing uses it and it should go. The sources are only parsed,
never imported.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qtelegraph").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}


def top_level_definitions():
    """(module file, name, defining node) per top-level definition."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                yield module, name, node


def private_definitions():
    """(module file, name, defining node) per top-level private definition."""
    for module, name, node in top_level_definitions():
        if name.startswith("_") and not name.startswith("__"):
            yield module, name, node


def loads_outside(name, node):
    """Every load of ``name`` in src/ outside its defining node."""
    own = {id(inner) for inner in ast.walk(node)}
    return [
        inner
        for tree in TREES.values()
        for inner in ast.walk(tree)
        if id(inner) not in own
        and isinstance(inner, ast.Name)
        and inner.id == name
        and isinstance(inner.ctx, ast.Load)
    ]


@pytest.mark.parametrize(
    "module, name, node",
    [pytest.param(*case, id=f"{case[0]}:{case[1]}") for case in private_definitions()],
)
def test_private_name_is_loaded_outside_its_definition(module, name, node):
    assert loads_outside(name, node), f"{module}: {name} is defined but never loaded in src/"


def test_private_definitions_found():
    # The parse must see the package's private helpers at all.
    assert {"_BinSampler", "_fft_length", "_BLOCK_HITS"} <= {name for _, name, _ in private_definitions()}
