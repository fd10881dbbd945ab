"""Shared test utilities: random generators and independent oracles.

Every oracle here recomputes expected values from scratch (plain Python
arithmetic, list scans, datetime) so the machine under test never checks
itself.
"""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import strategies as st

from evocat.tree import SET, VAR, Node, Path, rebuild

LABELS = [
    "a", "b", "c", "d", "e", "f", "g", "h", "k", "m",
    "n", "p", "q", "r", "s", "t", "u", "w", "x", "y",
]

EXPR_OPS = ["sum", "prod", "min", "max", "monus", "rem"]

#: the machine's transition kinds; each one costs one unit of fuel
TRANSITIONS = ("deref", "op", "instruction", "firing", "call")


def transitions(stats) -> int:
    """How many transitions the counter ``stats`` holds: the fuel they cost."""
    return sum(stats[kind] for kind in TRANSITIONS)


def leaf(v: int) -> Node:
    return Node.leaf(v)


def setn(*children: Node, op: Optional[str] = None, labels: Optional[list] = None) -> Node:
    if labels is None:
        labels = [None] * len(children)
    return Node.set_node(list(zip(labels, children)), op=op)


def preorder(node: Node):
    """Every node of a tree, in preorder."""
    work = [node]
    while work:
        node = work.pop()
        yield node
        work.extend(reversed([child for _, child in node.children]))


def node_ids(root: Node) -> set[int]:
    """Identities of every node in a tree, for checking that two trees share
    no nodes (both must stay alive while the sets are compared)."""
    ids, stack = set(), [root]
    while stack:
        node = stack.pop()
        ids.add(id(node))
        stack.extend(child for _, child in node.children)
    return ids


# --- a large plain state ------------------------------------------------------


def cli_state_text(records: int = 160, seed: int = 1) -> str:
    """A plain state shaped like the ``cli_state`` benchmark's 36 KB file:
    records holding a string, nested sets, a score and a ``sum`` term over
    a reference into another record."""
    rng = random.Random(seed)
    lines = []
    for r in range(records):
        name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
        lines.append(f'r{r} {{\n  name = "{name}"\n  tags {{')
        for t in range(3):
            k, lo, hi = rng.randint(100, 999), rng.randint(10, 99), rng.randint(100, 999)
            lines.append(f"    #{t} {{ k = {k} v {{ lo = {lo} hi = {hi} }} }}")
        lines.append(f"  }}\n  score = {rng.randint(1000, 9999)}")
        lines.append(f"  bonus : sum {{ #0 = [r{rng.randrange(records)}.score] #1 = {rng.randint(1, 9)} }}\n}}")
    return "\n".join(lines) + "\n"


# --- random value trees (no terms) -----------------------------------------


def gen_value_tree(rng: random.Random, depth: int = 4, fanout: int = 5) -> Node:
    if depth == 0 or rng.random() < 0.4:
        return Node.leaf(rng.randrange(100))
    node = Node.set_node()
    labels = rng.sample(LABELS, rng.randrange(fanout + 1))
    for label in labels:
        use_label = label if rng.random() < 0.7 else None
        node.add_child(use_label, gen_value_tree(rng, depth - 1, fanout))
    return node


# --- random trees for round-trip (all node kinds) ---------------------------


def gen_any_tree(rng: random.Random, depth: int = 6, fanout: int = 5) -> Node:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Node.leaf(rng.randrange(1000))
    if roll < 0.42:
        segs = tuple(
            rng.choice(LABELS) if rng.random() < 0.8 else rng.randrange(4)
            for _ in range(rng.randrange(1, 4))
        )
        return Node.ref_node(Path(segs))
    if roll < 0.48:
        return Node.var_node(rng.choice(LABELS).upper())
    op = None
    r = rng.random()
    if r < 0.25:
        op = rng.choice(EXPR_OPS)
    elif r < 0.3:
        op = "$" + rng.choice(LABELS)
    node = Node.set_node(op=op)
    labels = rng.sample(LABELS, rng.randrange(min(fanout, 5) + 1))
    for label in labels:
        use_label = label if rng.random() < 0.6 else None
        node.add_child(use_label, gen_any_tree(rng, depth - 1, fanout))
    return node


# --- arithmetic expression terms and their oracle ----------------------------


def gen_expr(rng: random.Random, depth: int) -> Node:
    if depth == 0 or rng.random() < 0.3:
        return Node.leaf(rng.randrange(12))
    op = rng.choice(EXPR_OPS)
    return setn(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1), op=op)


def expr_oracle(node: Node) -> int:
    """Independent recursive evaluator; raises ZeroDivisionError like a%0."""
    if node.kind == "leaf":
        return node.value
    args = [expr_oracle(child) for _, child in node.children]
    op = node.op
    if op == "sum":
        return args[0] + args[1]
    if op == "prod":
        return args[0] * args[1]
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "monus":
        return args[0] - args[1] if args[0] >= args[1] else 0
    if op == "rem":
        return args[0] % args[1]
    raise ValueError(op)


# --- Euclid with iteration count ---------------------------------------------


def euclid(a: int, b: int) -> tuple[int, int]:
    """(gcd, iterations of the swap-and-remainder step)."""
    steps = 0
    while b:
        a, b = b, a % b
        steps += 1
    return a, steps


# --- random paths -------------------------------------------------------------


def gen_label_path(rng: random.Random, max_len: int = 6) -> Path:
    return Path(tuple(rng.choice(LABELS) for _ in range(rng.randrange(max_len + 1))))


# --- polynomials for the derivative check -------------------------------------


def atom_x() -> Node:
    return Node.set_node(op="x")


def gen_poly_expr(rng: random.Random, depth: int) -> Node:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return atom_x() if rng.random() < 0.5 else Node.leaf(rng.randrange(6))
    op = "prod" if rng.random() < 0.5 else "sum"
    return setn(gen_poly_expr(rng, depth - 1), gen_poly_expr(rng, depth - 1), op=op)


def poly_coeffs(node: Node) -> list[int]:
    """Coefficient vector (ascending degree) of an expression over x."""
    if node.kind == "leaf":
        return [node.value]
    if node.op == "x":
        return [0, 1]
    if node.op in ("sum", "prod") and len(node.children) == 2:
        ca = poly_coeffs(node.children[0][1])
        cb = poly_coeffs(node.children[1][1])
        if node.op == "sum":
            out = [0] * max(len(ca), len(cb))
            for i, v in enumerate(ca):
                out[i] += v
            for i, v in enumerate(cb):
                out[i] += v
        else:
            out = [0] * (len(ca) + len(cb) - 1)
            for i, u in enumerate(ca):
                for j, v in enumerate(cb):
                    out[i + j] += u * v
        return out
    raise ValueError(f"not a polynomial expression: {node!r}")


def poly_derivative(coeffs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def normalize_coeffs(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# --- rewrite patterns and the subjects they match (hypothesis) -----------------

SCAN_LABELS = st.sampled_from([None, None, "a", "b"])
SCAN_OPS = st.sampled_from([None, "f", "g"])


def make_set(op, labelled):
    seen, children = set(), []
    for label, child in labelled:
        if label in seen:
            label = None
        seen.add(label)
        children.append((label, child))
    return Node(SET, op=op, children=children)


def make_instance(result):
    return Node.set_node(
        [("args", Node.set_node()), ("mode", leaf(1)), ("rules", Node.set_node()), ("result", result)]
    )


def apply_h(name):
    return Node(SET, op="$h", children=[(None, Node.var_node(name))])


LEAVES = st.one_of(st.integers(0, 2).map(leaf), st.sampled_from(["a", "b.a"]).map(Node.ref_node))
VARS = st.sampled_from(["X", "Y"]).map(Node.var_node)


@st.composite
def patterns(draw, depth=2):
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        return draw(st.one_of(VARS, LEAVES))
    if roll == 3:
        return apply_h("X")  # unbound unless X occurs beside it
    if roll == 4:
        return make_set(draw(SCAN_OPS), [(None, Node.var_node("X")), (None, apply_h("X"))])
    return make_set(draw(SCAN_OPS), draw(st.lists(st.tuples(SCAN_LABELS, patterns(depth - 1)), max_size=3)))


@st.composite
def shapes(draw, depth=4):
    """A subject shape: each variable in it is a slot for ``filled(lhs)``."""
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        return draw(st.one_of(LEAVES, VARS))
    if roll == 3:
        return make_instance(draw(shapes(depth - 1)))
    return make_set(draw(SCAN_OPS), draw(st.lists(st.tuples(SCAN_LABELS, shapes(depth - 1)), max_size=3)))


def filled(pattern):
    """A subject that ``pattern`` matches: each variable and each ``$h``
    application becomes the leaf 1."""
    return rebuild(pattern, lambda n: leaf(1) if n.kind == VAR or n.op == "$h" else None)
