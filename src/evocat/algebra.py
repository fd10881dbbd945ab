"""The machine's instruction set: operations on value trees.

Products and coproducts act on two set nodes (Cartesian pairs, disjoint
union with duplicates) or on two leaves (multiplication, addition).  The
coproduct of arrows is the conditional; naturals form a lattice under
min/max with truncated subtraction as supplement; booleans are the leaves
0 and 1.  ``select`` filters a set by a predicate term, the pullback-style
query operation.

All operations are pure: results are freshly built and never alias their
operands.
"""

from __future__ import annotations

from functools import partial

from .errors import (
    DivisionByZero,
    EvalError,
    MixedKinds,
    NotALeaf,
    NotASet,
    NotBoolean,
)
from .tree import LEAF, SET, VAR, Node, node_equal, rebuild


def _nat(node: Node, who: str) -> int:
    if node.kind != LEAF:
        raise NotALeaf(f"{who} needs natural-number leaves, got {node!r}")
    return node.value


def _bool(node: Node, who: str = "boolean operation") -> int:
    if node.kind != LEAF or node.value not in (0, 1):
        raise NotBoolean(f"{who} needs a boolean leaf (0 or 1), got {node!r}")
    return node.value


def product(a: Node, b: Node) -> Node:
    """Leaves multiply; sets make all pairs {fst snd}, labeled p0, p1, ..."""
    if a.kind == LEAF and b.kind == LEAF:
        return Node.leaf(a.value * b.value)
    if a.kind == SET and b.kind == SET:
        pairs = [pair(ca, cb) for _, ca in a.children for _, cb in b.children]
        return Node(SET, children=[(f"p{k}", p) for k, p in enumerate(pairs)])
    raise MixedKinds(f"product of {a!r} and {b!r}")


def coproduct(a: Node, b: Node) -> Node:
    """Leaves add; sets concatenate children, duplicates preserved."""
    if a.kind == LEAF and b.kind == LEAF:
        return Node.leaf(a.value + b.value)
    if a.kind == SET and b.kind == SET:
        kids = a.children + b.children
        return Node(SET, children=[(f"p{k}", c.copy()) for k, (_, c) in enumerate(kids)])
    raise MixedKinds(f"coproduct of {a!r} and {b!r}")


def pair(f: Node, g: Node) -> Node:
    return Node.set_node([("fst", f.copy()), ("snd", g.copy())])


def if_arrow(cond: Node, f: Node, g: Node) -> Node:
    """f when cond is true(1), g when false(0).

    This is the strict value-level form; the evaluator supplies the
    branches unevaluated and only evaluates the one selected.
    """
    return (f if _bool(cond, "if") else g).copy()


def nat_lattice(op: str, a: Node, b: Node) -> Node:
    x, y = _nat(a, op), _nat(b, op)
    if op == "min":
        return Node.leaf(min(x, y))
    if op == "max":
        return Node.leaf(max(x, y))
    if op == "monus":
        return Node.leaf(x - y if x >= y else 0)
    raise EvalError(f"unknown lattice operation {op!r}")


def remainder(a: Node, b: Node) -> Node:
    x, y = _nat(a, "rem"), _nat(b, "rem")
    if y == 0:
        raise DivisionByZero(f"rem({x}, 0)")
    return Node.leaf(x % y)


def bool_lattice(op: str, *args: Node) -> Node:
    if op == "not":
        (a,) = args
        return Node.leaf(1 - _bool(a, "not"))
    a, b = args
    x, y = _bool(a, op), _bool(b, op)
    if op == "and":
        return Node.leaf(x & y)
    if op == "or":
        return Node.leaf(x | y)
    if op == "implies":
        return Node.leaf((1 - x) | y)
    raise EvalError(f"unknown boolean operation {op!r}")


def nat_compare(op: str, a: Node, b: Node) -> Node:
    x, y = _nat(a, op), _nat(b, op)
    if op == "eq":
        return Node.leaf(int(x == y))
    if op == "le":
        return Node.leaf(int(x <= y))
    if op == "lt":
        return Node.leaf(int(x < y))
    raise EvalError(f"unknown comparison {op!r}")


def struct_eq(a: Node, b: Node) -> Node:
    """1 iff the trees are structurally equal (order-sensitive)."""
    return Node.leaf(int(node_equal(a, b)))


def select(m: Node, predicate: Node, ctx) -> Node:
    """Children of ``m`` for which the predicate holds, order and labels kept.

    The predicate is a term with at most one distinct variable; each child
    is substituted for that variable.  The child is also pushed as the
    innermost reference scope, so field access like ``[name]`` works on
    record children.  The predicate is evaluated strictly, also when the
    ``select`` was fired by the rewrite engine's lenient ready-term sweep
    (``evaluate`` is strict unless it is told otherwise): it must reduce
    to a boolean leaf.
    """
    from .evaluator import evaluate  # local import: select drives evaluation

    if m.kind != SET:
        raise NotASet(f"select needs a set, got {m!r}")
    names = _predicate_vars(predicate)
    if len(names) > 1:
        raise EvalError(f"select predicate uses several variables: {sorted(names)}")
    kept = []
    for label, child in m.children:
        # the predicate's one variable, if any, is every VAR node in it
        pred = rebuild(predicate, lambda n: child.copy() if n.kind == VAR else None)
        scope, ctx.scope = ctx.scope, (child, ctx.scope)
        try:
            result = evaluate(pred, ctx)
        finally:
            ctx.scope = scope
        if _bool(result, "select predicate"):
            kept.append((label, child.copy()))
    return Node(SET, children=kept)


def _predicate_vars(node: Node) -> set[str]:
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node.kind == VAR:
            names.add(node.var)
        elif node.kind == SET:
            if node.op is not None and node.op.startswith("$"):
                raise EvalError("function variables are not allowed in select predicates")
            stack.extend(child for _, child in node.children)
    return names


#: ops applied strictly to fully evaluated operands: identifier -> (arity, fn).
_EAGER_OPS = {
    "prod": (2, product), "sum": (2, coproduct), "pair": (2, pair),
    "rem": (2, remainder), "seteq": (2, struct_eq),
    "not": (1, partial(bool_lattice, "not")),
    **{op: (2, partial(nat_lattice, op)) for op in ("min", "max", "monus")},
    **{op: (2, partial(bool_lattice, op)) for op in ("and", "or", "implies")},
    **{op: (2, partial(nat_compare, op)) for op in ("eq", "le", "lt")},
}

#: Operation identifiers recognized by the evaluator (case-sensitive).
BUILTIN_OPS = frozenset(_EAGER_OPS) | {"if", "select"}


def apply_builtin(op: str, operands: list[Node]) -> Node:
    """Dispatch an eager built-in; ``if`` and ``select`` are not eager."""
    entry = _EAGER_OPS.get(op)
    if entry is None:
        raise EvalError(f"{op!r} is not an eager built-in")
    arity, fn = entry
    if len(operands) != arity:
        raise EvalError(f"{op} expects {arity} operands, got {len(operands)}")
    return fn(*operands)
