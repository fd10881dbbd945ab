"""The ``.evo`` files the project ships: their rules load, and ``evocat
fmt`` output is a fixed point."""

from pathlib import Path

import pytest

from evocat import parse, render
from evocat.engine import formulas_from
from evocat.tree import LEAF, SET

ROOT = Path(__file__).resolve().parents[1]
FILES = [
    ROOT / "src" / "evocat" / "stdlib.evo",
    *sorted((ROOT / "demos").glob("*.evo")),
    ROOT / "perfbench" / "cli_main.evo",
]


def rewrite_rules(root):
    """The ``rules`` of every set below ``root`` whose ``mode`` is 1."""
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.kind != SET:
            continue
        mode = node.child("mode")
        if mode is not None and mode.kind == LEAF and mode.value == 1:
            found.append(node.child("rules"))
        stack.extend(child for _, child in node.children)
    return found


def test_files_and_rule_sets_found():
    assert all(path.is_file() for path in FILES) and len(FILES) >= 4
    assert len(rewrite_rules(parse(FILES[0].read_text("utf-8")))) == 3  # gcd, div, deriv


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_rules_load_and_fmt_is_a_fixed_point(path):
    text = path.read_text("utf-8")
    tree = parse(text)
    for rules in rewrite_rules(tree):
        assert formulas_from(rules)
    once = render(tree)
    assert render(parse(once)) == once
