"""Rules on the package source itself, checked by parsing it.

Every error the library raises is an EtfkitError, so the CLI can turn it into
exit 2.  An assert statement vanishes under python -O, and an AssertionError
escapes that net, so neither may appear in src/etfkit.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "etfkit").glob("*.py"))


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_every_module_is_found():
    assert {"flatmat.py", "frames.py", "gf.py", "metrics.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
           if isinstance(node, ast.Assert)
           or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))]
    assert not bad, f"assert or raise AssertionError in the package source: {bad}"
