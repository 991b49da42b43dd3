"""No module but ``rdf`` asks whether a value is a ``str``.

``Iri`` and ``BlankNode`` are ``str`` subclasses, so ``isinstance(x, str)``
holds for them too, and a check that means "plain text" would silently
treat a term as text.  Code outside ``rdf`` tests for the term types instead.
"""

import ast

import pytest

from test_imports import PACKAGE


def str_checks(source: str) -> list[int]:
    """Lines of the ``isinstance`` calls whose class argument names ``str``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            if any(isinstance(name, ast.Name) and name.id == "str" for name in ast.walk(node.args[1])):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(path for path in PACKAGE.glob("*.py") if path.name != "rdf.py"), ids=lambda path: path.name)
def test_no_str_check_outside_rdf(path):
    assert str_checks(path.read_text(encoding="utf-8")) == []


def test_str_check_is_reported():
    source = "isinstance(x, Iri)\nisinstance(x, str)\nisinstance(x, (int, str))\nisinstance(x, str | None)\nstr(x)\n"
    assert str_checks(source) == [2, 3, 4]
