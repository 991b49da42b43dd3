"""No module but ``provenance`` reads the clock.

The tracker stamps every snapshot, so the rule that picks a record's time
lives in one place; a second ``datetime.now`` elsewhere would be a second
rule.
"""

import ast

import pytest

from test_imports import PACKAGE


def clock_reads(source: str) -> list[int]:
    """Lines of the calls of a ``now`` attribute of a name or attribute called ``datetime``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "now":
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id == "datetime") or (isinstance(owner, ast.Attribute) and owner.attr == "datetime"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(path for path in PACKAGE.glob("*.py") if path.name != "provenance.py"), ids=lambda path: path.name)
def test_no_clock_read_outside_provenance(path):
    assert clock_reads(path.read_text(encoding="utf-8")) == []


def test_provenance_reads_the_clock_once():
    assert len(clock_reads((PACKAGE / "provenance.py").read_text(encoding="utf-8"))) == 1


def test_clock_read_is_reported():
    source = "datetime.now(timezone.utc)\ndatetime.datetime.now()\nclock.now()\ndatetime.now\ndatetime.today()\n"
    assert clock_reads(source) == [1, 2]
