"""Every public top-level name and class member in the package must be read
by the package.

The public twin of ``test_private_names``: a module-level function, class or
constant without a leading underscore that no code in ``src/qtelegraph``
loads, apart from its own definition, is surface that only its callers
outside the package use. Each such name is on ``KEPT`` with the reason it
stays; any other must be used by the pipeline or go. The same holds for the
public methods, properties, fields and class constants of the classes
defined at the top level of ``src``, read as ``<anything>.<member>``: each
member no ``src`` code reads is on ``KEPT_MEMBERS``. An attribute read
counts whatever object it is read from, so a member that shares its name
with one that is read passes unread. The sources are only parsed, never
imported.
"""

import ast

import pytest

from oracles import loads_outside, source_trees, top_level_definitions

# (module file, name) -> why it stays although no code in src/ loads it.
KEPT = {
    ("device.py", "build_joint_state"): "perfbench's tracer times it (device.build_joint_state.s)",
    ("protocol.py", "sample_hits"): "perfbench's tracer times it (protocol.sample_hits.s)",
    ("protocol.py", "decide_bit"): "perfbench's tracer times it (protocol.decide_bit.*)",
    ("quantum.py", "normalize"): "acceptance test 6 imports it",
    ("quantum.py", "density_from_state"): "acceptance test 6 imports it",
    ("quantum.py", "partial_trace"): "acceptance test 6 imports it",
    ("quantum.py", "born_probabilities"): "acceptance test 6 imports it",
    ("relativity.py", "boost"): "acceptance test 4 imports it",
    ("relativity.py", "interval"): "acceptance test 4 imports it",
    ("nosignal.py", "plugin_mutual_information"): "acceptance test 2 imports it",
    ("nosignal.py", "eraser_decomposition_check"): "ROADMAP item 7 reports it in diagnostics.json",
}


def public_definitions():
    for module, name, node in top_level_definitions():
        if not name.startswith("_"):
            yield module, name, node


@pytest.mark.parametrize(
    "module, name, node",
    [pytest.param(*case, id=f"{case[0]}:{case[1]}") for case in public_definitions()],
)
def test_public_name_is_loaded_by_the_package_or_kept(module, name, node):
    loaded = bool(loads_outside(name, node))
    if (module, name) in KEPT:
        assert not loaded, f"{module}: {name} is loaded in src/ now; drop it from KEPT"
    else:
        assert loaded, f"{module}: {name} is loaded by no code in src/; use it or remove it"


def test_every_kept_name_is_defined():
    defined = {(module, name) for module, name, _ in public_definitions()}
    assert set(KEPT) <= defined


# (module file, class, member) -> why it stays although no code in src/ reads it.
KEPT_MEMBERS = {
    ("relativity.py", "ParadoxTrace", "legs"): "ROADMAP item 18 is to read it",
    ("device.py", "EraserConditionals", "prob_plus"): "the Born-weighted eraser identity test reads it",
    ("device.py", "EraserConditionals", "prob_minus"): "the Born-weighted eraser identity test reads it",
}


def public_members():
    """(module file, class, member, defining node) per public method,
    property, field or class constant of a top-level class."""
    for module, tree in source_trees().items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id] if isinstance(node.target, ast.Name) else []
                elif isinstance(node, ast.Assign):
                    names = [target.id for target in node.targets if isinstance(target, ast.Name)]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        yield module, cls.name, name, node


def attribute_reads_outside(name, node):
    """Every read of ``<anything>.name`` in src/ outside its defining node."""
    own = {id(inner) for inner in ast.walk(node)}
    return [
        inner
        for tree in source_trees().values()
        for inner in ast.walk(tree)
        if id(inner) not in own
        and isinstance(inner, ast.Attribute)
        and inner.attr == name
        and isinstance(inner.ctx, ast.Load)
    ]


@pytest.mark.parametrize(
    "module, cls, name, node",
    [pytest.param(*case, id=f"{case[0]}:{case[1]}.{case[2]}") for case in public_members()],
)
def test_public_member_is_read_by_the_package_or_kept(module, cls, name, node):
    read = bool(attribute_reads_outside(name, node))
    if (module, cls, name) in KEPT_MEMBERS:
        assert not read, f"{module}: {cls}.{name} is read in src/ now; drop it from KEPT_MEMBERS"
    else:
        assert read, f"{module}: {cls}.{name} is read by no code in src/; use it or remove it"


def test_every_kept_member_is_defined():
    defined = {(module, cls, name) for module, cls, name, _ in public_members()}
    assert set(KEPT_MEMBERS) <= defined


def test_members_found():
    # The parse must see methods, properties and fields at all.
    found = {(cls, name) for _, cls, name, _ in public_members()}
    assert {("ErrorLaw", "settled"), ("DeviceConfig", "span"), ("Coded", "codes"), ("ModelMode", "UNITARY_QM")} <= found
