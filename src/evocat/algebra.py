"""The machine's instruction set: operations on value trees.

Products and coproducts act on two set nodes (Cartesian pairs, disjoint
union with duplicates) or on two leaves (multiplication, addition).  The
coproduct of arrows is the conditional; naturals form a lattice under
min/max with truncated subtraction as supplement; booleans are the leaves
0 and 1.  ``select`` filters a set by a predicate term, the pullback-style
query operation.

All operations are pure: results are freshly built, with ``new_atom``
and ``new_set``, and never alias their operands.  The eager operations are
one table, ``_EAGER_OPS``: each entry is the function that computes its
operation, and ``nat_lattice``, ``bool_lattice`` and ``nat_compare`` call
into it.
"""

from __future__ import annotations

from .errors import (
    DivisionByZero,
    EvalError,
    MixedKinds,
    NotALeaf,
    NotASet,
    NotBoolean,
)
from .tree import LEAF, SET, VAR, Node, new_atom, new_set, node_equal, pairs, rebuild


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
        return new_atom(LEAF, a.value * b.value)
    if a.kind == SET and b.kind == SET:
        pairs = [pair(ca, cb) for ca in a.nodes for cb in b.nodes]
        return new_set(pairs, [f"p{k}" for k in range(len(pairs))] or None, None)
    raise MixedKinds(f"product of {a!r} and {b!r}")


def coproduct(a: Node, b: Node) -> Node:
    """Leaves add; sets concatenate children, duplicates preserved."""
    if a.kind == LEAF and b.kind == LEAF:
        return new_atom(LEAF, a.value + b.value)
    if a.kind == SET and b.kind == SET:
        kids = [c.copy() for c in a.nodes + b.nodes]
        return new_set(kids, [f"p{k}" for k in range(len(kids))] or None, None)
    raise MixedKinds(f"coproduct of {a!r} and {b!r}")


def pair(f: Node, g: Node) -> Node:
    return new_set([f.copy(), g.copy()], ["fst", "snd"], None)


def nat_lattice(op: str, a: Node, b: Node) -> Node:
    """``min``, ``max`` or ``monus`` (truncated subtraction) of two naturals."""
    if op not in ("min", "max", "monus"):
        _nat(a, op), _nat(b, op)
        raise EvalError(f"unknown lattice operation {op!r}")
    return _EAGER_OPS[op][1](a, b)


def remainder(a: Node, b: Node) -> Node:
    x, y = _nat(a, "rem"), _nat(b, "rem")
    if y == 0:
        try:
            shown = str(x)
        except ValueError:  # more digits than this interpreter converts
            shown = repr(a)
        raise DivisionByZero(f"rem({shown}, 0)")
    return new_atom(LEAF, x % y)


def bool_lattice(op: str, *args: Node) -> Node:
    """``not`` of one boolean leaf, or ``and``, ``or`` or ``implies`` of two."""
    if op not in ("not", "and", "or", "implies"):
        a, b = args
        _bool(a, op), _bool(b, op)
        raise EvalError(f"unknown boolean operation {op!r}")
    return _EAGER_OPS[op][1](*args)


def nat_compare(op: str, a: Node, b: Node) -> Node:
    """``eq``, ``le`` or ``lt`` of two naturals, as a boolean leaf."""
    if op not in ("eq", "le", "lt"):
        _nat(a, op), _nat(b, op)
        raise EvalError(f"unknown comparison {op!r}")
    return _EAGER_OPS[op][1](a, b)


def struct_eq(a: Node, b: Node) -> Node:
    """1 iff the trees are structurally equal (order-sensitive)."""
    return new_atom(LEAF, int(node_equal(a, b)))


def select(m: Node, predicate: Node, ctx) -> Node:
    """Children of ``m`` for which the predicate holds, order and labels kept.

    The predicate is a term with at most one distinct variable; each child
    is substituted for that variable.  The child is also pushed as the
    innermost reference scope, so field access like ``[name]`` works on
    record children.  The predicate is run by ``evaluate``, also when the
    ``select`` was fired by the rewrite engine's ready-term ``sweep``,
    which never enters a predicate: it must reduce to a boolean leaf.
    """
    from .evaluator import evaluate  # local import: select drives evaluation

    if m.kind != SET:
        raise NotASet(f"select needs a set, got {m!r}")
    names = _predicate_vars(predicate)
    if len(names) > 1:
        raise EvalError(f"select predicate uses several variables: {sorted(names)}")
    kept, labels = [], []
    for label, child in pairs(m):
        # the predicate's one variable, if any, is every VAR node in it
        pred = rebuild(predicate, lambda n: child.copy() if n.kind == VAR else None)
        scope, ctx.scope = ctx.scope, (child, ctx.scope)
        try:
            result = evaluate(pred, ctx)
        finally:
            ctx.scope = scope
        if _bool(result, "select predicate"):
            kept.append(child.copy())
            labels.append(label)
    return new_set(kept, labels if labels.count(None) < len(labels) else None, None)


def _predicate_vars(node: Node) -> set[str]:
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node.kind == VAR:
            names.add(node.value)
        elif node.kind == SET:
            if node.op is not None and node.op.startswith("$"):
                raise EvalError("function variables are not allowed in select predicates")
            stack.extend(node.nodes)
    return names


#: ops applied strictly to fully evaluated operands: identifier -> (arity, fn).
_EAGER_OPS = {
    "prod": (2, product), "sum": (2, coproduct), "pair": (2, pair),
    "rem": (2, remainder), "seteq": (2, struct_eq),
    "not": (1, lambda a: new_atom(LEAF, 1 - _bool(a, "not"))),
    "min": (2, lambda a, b: new_atom(LEAF, min(_nat(a, "min"), _nat(b, "min")))),
    "max": (2, lambda a, b: new_atom(LEAF, max(_nat(a, "max"), _nat(b, "max")))),
    "monus": (2, lambda a, b: new_atom(LEAF, max(_nat(a, "monus") - _nat(b, "monus"), 0))),
    "and": (2, lambda a, b: new_atom(LEAF, _bool(a, "and") & _bool(b, "and"))),
    "or": (2, lambda a, b: new_atom(LEAF, _bool(a, "or") | _bool(b, "or"))),
    "implies": (2, lambda a, b: new_atom(LEAF, (1 - _bool(a, "implies")) | _bool(b, "implies"))),
    "eq": (2, lambda a, b: new_atom(LEAF, int(_nat(a, "eq") == _nat(b, "eq")))),
    "le": (2, lambda a, b: new_atom(LEAF, int(_nat(a, "le") <= _nat(b, "le")))),
    "lt": (2, lambda a, b: new_atom(LEAF, int(_nat(a, "lt") < _nat(b, "lt")))),
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
