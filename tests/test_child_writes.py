"""Only ``tree.py`` writes a node's slots, and only it reads ``children``.

``run_sequential`` keeps the ``ip`` node its first write found, and ``call``
takes the ``result`` node from the frame record, as long as the frame's
node list is the same list.  Both rely on every write to a node list
going through ``tree.py``; that a node's ``value`` holds the payload its
``kind`` says, and that ``labels`` runs parallel to ``nodes``, rely on
every write to those going through it too.  This test reads the other
modules' source and fails on any statement that writes to a ``.nodes``,
``.labels``, ``.children``, ``.kind``, ``.value``, ``.op`` or ``.frozen``
attribute, or to an item or slice of one of the three lists.

``children`` is a view of ``(label, node)`` pairs built on each read, for
callers outside the package.  No other module of the package reads it, so
the layout is ``tree.py``'s own decision and no hot path builds pairs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evocat"
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
LISTS = {"nodes", "labels", "children"}  # a node's lists, and the pair view of them
SLOTS = {"kind", "value", "op", "frozen"}  # the other slots


def _is_list(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.nodes``, ``x.labels`` or ``x.children``, or
    a slice or item of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in LISTS


def _is_slot(node: ast.AST) -> bool:
    """Whether writing ``node`` writes a node slot: one of the lists or a
    slice or item of it, or ``x.kind``, ``x.value``, ``x.op``, ``x.frozen``."""
    return _is_list(node) or isinstance(node, ast.Attribute) and node.attr in SLOTS


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
            and _is_list(node.func.value)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def children_reads(source: str) -> list[int]:
    """The line numbers in ``source`` that name a ``.children`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "children"
    )


@pytest.mark.parametrize(
    "source",
    [
        *(
            form.format(slot)
            for slot in sorted(LISTS)
            for form in [
                "n.{} = []",
                "n.{}[0] = x",
                "n.{}[1:] = []",
                "a, n.{} = b",
                "n.{}: list = []",
                "n.{} += [x]",
                "n.{}[0] += x",
                "del n.{}[0]",
                "del n.{}",
                *(f"n.{{}}.{name}()" for name in sorted(MUTATORS)),
                "n.child('a').{}.append(x)",
            ]
        ),
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
    source = "k = n.nodes\nk = n.labels[0]\nn.nodes is k\nlen(n.children)\nn.swap_children(0, 1)\nk.append(1)"
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


@pytest.mark.parametrize(
    "source, lines",
    [
        ("k = n.children", [1]),
        ("for a, b in n.children:\n    pass", [1]),
        ("f(len(x.child('a').children))\nk = n.children[0][1]", [1, 2]),
        ("k = n.nodes\nk = n.labels\nn.swap_children(0, 1)\nchildren = 1\nf(children=k)", []),
    ],
)
def test_each_read_of_the_pair_view_is_found(source, lines):
    assert children_reads(source) == lines


def test_only_tree_reads_the_pair_view():
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tree.py" in files and len(files) >= 9
    readers = {path.name: children_reads(path.read_text("utf-8")) for path in files if path.name != "tree.py"}
    assert {name: lines for name, lines in readers.items() if lines} == {}
