"""The machine's current speed, from a fixed reference job.

The host this benchmark was built on switches between a fast and a slow
speed about 1.6–1.9x apart. The switch comes from outside the process: a
pure-Python loop shows it too. It lasts from seconds to minutes, so raw
wall-clock figures of identical runs disagree by more than any useful bound.
The reference job here is sampled between ops. It copies and walks a small
tree of slotted Python objects: allocation, attribute access, recursion, the
same kind of work evocat does. It slows by the same factor as the
workloads: over both speeds, a rewrite op took 59–63 reference jobs, while
the op itself took 15–28 ms. The reference does not use evocat, so no
change to evocat can move it.

``scaled(seconds, ref)`` converts a time measured while the reference took
``ref`` seconds into the time it would have taken at ``NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

#: The reference job's time on the benchmark machine (2-vCPU Intel Xeon VM,
#: Python 3.11) at its fast speed; scaled times are quoted at this speed.
NOMINAL_S = 0.25e-3


class _Node:
    __slots__ = ("kind", "value", "children", "op")

    def __init__(self, kind, value=0, children=None, op=None):
        self.kind = kind
        self.value = value
        self.children = children if children is not None else []
        self.op = op


def _build(depth: int, value: int = 0) -> _Node:
    if depth == 0:
        return _Node("leaf", value)
    children = [(f"x{i}" if i else None, _build(depth - 1, value + i)) for i in range(3)]
    return _Node("set", 0, children, "sum" if depth % 2 else None)


def _copy(node: _Node) -> _Node:
    out = _Node(node.kind, node.value, op=node.op)
    out.children = [(label, _copy(child)) for label, child in node.children]
    return out


def _walk(node: _Node) -> int:
    if node.kind == "leaf":
        return node.value
    total = 0
    for label, child in node.children:
        if label is None or label.startswith("x"):
            total += _walk(child)
    return total


_TREE = _build(4)


def sample() -> float:
    """Seconds the reference job takes now."""
    start = perf_counter()
    _walk(_copy(_TREE))
    _walk(_copy(_TREE))
    return perf_counter() - start


def scaled(seconds: float, ref: float) -> float:
    return seconds * NOMINAL_S / ref
