"""Guards on the library source that tests of behaviour cannot see."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tensorforge")
                 .glob("*.py"))


def _assertion_guards(tree):
    """Line numbers of ``assert`` statements and ``raise AssertionError``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assertion_guards(path):
    # python -O strips assert statements, and a bare AssertionError is no
    # TensorforgeError: guards raise typed errors such as CrossCheckFailed
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_assertion_guards(tree)) == []


def test_lint_sees_both_forms():
    source = "assert x\nraise AssertionError\nraise AssertionError('m')\n"
    assert list(_assertion_guards(ast.parse(source))) == [1, 2, 3]
