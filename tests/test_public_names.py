"""Every public top-level name in the package must be read by the package.

The public twin of ``test_private_names``: a module-level function, class or
constant without a leading underscore that no code in ``src/qtelegraph``
loads, apart from its own definition, is surface that only its callers
outside the package use. Each such name is on ``KEPT`` with the reason it
stays; any other must be used by the pipeline or go. The sources are only
parsed, never imported.
"""

import pytest

from test_private_names import loads_outside, top_level_definitions

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
