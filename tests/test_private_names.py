"""Every private top-level name in the package must be read somewhere.

A module-level ``_name`` function, class or constant is reachable only from
inside ``src/qtelegraph``, so if no code there loads it apart from its own
definition, nothing uses it and it should go. The sources are only parsed,
never imported.
"""

import pytest

from oracles import loads_outside, top_level_definitions


def private_definitions():
    """(module file, name, defining node) per top-level private definition."""
    for module, name, node in top_level_definitions():
        if name.startswith("_") and not name.startswith("__"):
            yield module, name, node


@pytest.mark.parametrize(
    "module, name, node",
    [pytest.param(*case, id=f"{case[0]}:{case[1]}") for case in private_definitions()],
)
def test_private_name_is_loaded_outside_its_definition(module, name, node):
    assert loads_outside(name, node), f"{module}: {name} is defined but never loaded in src/"


def test_private_definitions_found():
    # The parse must see the package's private helpers at all.
    assert {"_BinSampler", "_fft_length", "_BLOCK_HITS"} <= {name for _, name, _ in private_definitions()}
