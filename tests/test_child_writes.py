"""Only ``tree.py`` writes a node's slots.

``run_sequential`` keeps the ``ip`` node its first write found, and ``call``
takes the ``result`` node from the frame record, as long as the frame's
child list is the same list.  Both rely on every write to a child list
going through ``tree.py``; that a node's ``value`` holds the payload its
``kind`` says relies on every write to those going through it too.  This
test reads the other modules' source and fails on any statement that
writes to a ``.children``, ``.kind``, ``.value``, ``.op`` or ``.frozen``
attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evocat"
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
SLOTS = {"kind", "value", "op", "frozen"}  # the slots besides ``children``


def _is_children(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.children``, or a slice or item of it."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "children"


def _is_slot(node: ast.AST) -> bool:
    """Whether writing ``node`` writes a node slot: ``x.children`` or a
    slice or item of it, or ``x.kind``, ``x.value``, ``x.op``, ``x.frozen``."""
    return _is_children(node) or isinstance(node, ast.Attribute) and node.attr in SLOTS


def _targets(node: ast.AST):
    """The targets a statement assigns or deletes, tuples and lists unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        work = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        work = [node.target]
    else:
        return
    while work:
        target = work.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            work.extend(target.elts)
        elif isinstance(target, ast.Starred):
            work.append(target.value)
        else:
            yield target


def slot_writes(source: str) -> list[int]:
    """The line numbers in ``source`` that write to a node slot attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if any(_is_slot(target) for target in _targets(node)) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and _is_children(node.func.value)
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source",
    [
        "n.children = []",
        "n.children[0] = x",
        "n.children[1:] = []",
        "a, n.children = b",
        "n.children: list = []",
        "n.children += [x]",
        "n.children[0] += x",
        "del n.children[0]",
        "del n.children",
        *(f"n.children.{name}()" for name in sorted(MUTATORS)),
        "n.child('a').children.append(x)",
        *(f"n.{slot} = x" for slot in sorted(SLOTS)),
        "n.value += 1",
        "a, n.kind = b",
        "n.op: str = x",
        "del n.frozen",
        "n.child('a').value = x",
    ],
)
def test_each_kind_of_write_is_found(source):
    assert slot_writes(source) == [1]


def test_reads_are_not_writes():
    source = "k = n.children\nk = n.children[0]\nn.children is k\nlen(n.children)\nn.swap_children(0, 1)\nk.append(1)"
    source += "\nk = n.value\nk = n.kind == LEAF\nn.frozen[0]\nf(n.op)\nn.values = x\nn.valuex = x"
    assert slot_writes(source) == []


def test_only_tree_writes_node_slots():
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tree.py" in files and len(files) >= 9
    assert slot_writes((PACKAGE / "tree.py").read_text("utf-8"))  # the check sees tree.py's own writes
    writers = {
        path.name: slot_writes(path.read_text("utf-8"))
        for path in files
        if path.name != "tree.py"
    }
    assert {name: lines for name, lines in writers.items() if lines} == {}
