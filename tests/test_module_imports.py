"""No test module imports another.

The suite runs with ``--continue-on-collection-errors``, so a test module
that fails to collect is reported, but any module that imports it fails to
collect with it and silently takes its own tests along. Names that more than
one test module shares live in ``oracles.py``. The test sources are only
parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))
STEMS = {path.stem for path in TEST_MODULES}


def imported_test_modules(source: str) -> set[str]:
    """Each dotted name an import statement of ``source`` reads that names a
    test module; for ``from m import n`` that is m and m.n, since n may be a
    module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return {name for name in names if STEMS & set(name.split("."))}


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: path.name)
def test_imports_no_test_module(path):
    imported = imported_test_modules(path.read_text(encoding="utf-8"))
    assert not imported, f"{path.name} imports {sorted(imported)}; move what they share to oracles.py"


def test_every_form_of_import_is_seen():
    # The parse must see the suite's modules and each way to import one.
    assert {"test_protocol", "test_module_imports"} <= STEMS
    for source in (
        "import test_cli",
        "import tests.test_cli as cli_tests",
        "from test_cli import main",
        "from tests.test_cli import main",
        "from tests import test_cli",
        "from . import test_cli",
        "from .test_cli import main",
        "def f():\n    from test_cli import main",
    ):
        assert imported_test_modules(source), source
    assert not imported_test_modules("import oracles\nfrom oracles import stream\nfrom qtelegraph import cli")
