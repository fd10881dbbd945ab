"""The generic matcher and the rewrite loop that sweeps and scans the whole
frame every round.

``match`` (with ``_walk`` and ``_abstract``), ``substitute`` and
``_collect_matches`` are the engine's as they were before formulas were
compiled, and ``run_rewrite`` is the engine's as it was before a round
could resume where the last round's one hit changed the tree, each kept
word for word.  Only the imports are new, and ``run_rewrite`` compiles its
own formula list with ``formulas_from``, where the engine's loop once
registered its run with the context.  ``test_rewrite_resume.py`` runs this
loop beside the engine: both must leave the same frame, stats, fuel, trace
and error.  ``test_formula_compile.py`` checks the compiled matcher and
right-side builder against ``match`` and ``substitute`` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from evocat.engine import RESERVED_FRAME_LABELS, Formula, formulas_from
from evocat.errors import EvalError, UnboundVariable
from evocat.evaluator import EvalContext, frame_of, sweep
from evocat.tree import HOLE, LEAF, REF, SET, VAR, Node, Path, Segment, node_equal, rebuild


@dataclass
class Abstraction:
    """A one-hole context: the body of a matched function variable."""

    body: Node

    def plug(self, argument: Node) -> Node:
        """A copy of the body with a copy of ``argument`` in every hole."""
        return rebuild(self.body, lambda n: argument.copy() if n.kind == HOLE else None)


@dataclass
class Binding:
    """Match results: subtrees for variables, abstractions for function
    variables.  Repeated variables only ever bind equal subtrees."""

    vars: dict[str, Node] = field(default_factory=dict)
    funcs: dict[str, Abstraction] = field(default_factory=dict)


def match(pattern: Node, subject: Node) -> Optional[Binding]:
    """Match ``subject`` against ``pattern``; None when they disagree."""
    binding = Binding()
    deferred: list[tuple[str, str, Node]] = []
    if not _walk(pattern, subject, binding, deferred) or not _abstract(deferred, binding):
        return None
    return binding


def _walk(pattern: Node, subject: Node, binding: Binding, deferred: list) -> bool:
    """The first-order step of ``match``, preorder and left to right on an
    explicit stack of child pairs.  A pair's labels are compared when it is
    popped, so the binding, ``deferred`` and the error raised are those of
    a walk that compares each label just before visiting the child."""
    work = [((None, pattern), (None, subject))]
    while work:
        (pl, p), (tl, t) = work.pop()
        if pl != tl:
            return False
        if p.kind == VAR:
            seen = binding.vars.get(p.value)
            if seen is None:
                binding.vars[p.value] = t
            elif not node_equal(seen, t):
                return False
        elif p.kind == LEAF:
            if t.kind != LEAF or p.value != t.value:
                return False
        elif p.kind == REF:
            if t.kind != REF or p.value != t.value:
                return False
        elif p.kind == HOLE:
            raise EvalError("hole nodes cannot appear in patterns")
        elif p.op is not None and p.op.startswith("$"):
            if len(p.children) != 1 or p.children[0][1].kind != VAR:
                raise EvalError(
                    f"function variable {p.op} must be applied to exactly one variable"
                )
            deferred.append((p.op[1:], p.children[0][1].value, t))
        elif t.kind != SET or p.op != t.op or len(p.children) != len(t.children):
            return False
        else:
            work.extend(zip(reversed(p.children), reversed(t.children)))
    return True


def _abstract(deferred: list[tuple[str, str, Node]], binding: Binding) -> bool:
    """The ``$f`` step of ``match``: bind each ``$f`` to an abstraction of what
    it met.  False when two bodies disagree, once every argument is checked."""
    agree = True
    for fname, argname, node in deferred:
        argval = binding.vars.get(argname)
        if argval is None:
            raise EvalError(
                f"function variable ${fname} applied to ${argname}, which the pattern never binds"
            )
        # subtrees equal to the argument become holes (none: a constant function)
        body = rebuild(node, lambda n: Node.hole() if node_equal(n, argval) else None)
        seen = binding.funcs.get(fname)
        if seen is None:
            binding.funcs[fname] = Abstraction(body)
        elif not node_equal(seen.body, body):
            agree = False
    return agree


def substitute(template: Node, binding: Binding) -> Node:
    """Instantiate a template: variables become deep copies of their
    bindings, ``$f(s)`` becomes f's body with the hole replaced by s."""

    def swap(node: Node) -> Optional[Node]:
        if node.kind == VAR:
            bound = binding.vars.get(node.value)
            if bound is None:
                raise UnboundVariable(f"${node.value} is not bound")
            return bound.copy()
        if node.kind == HOLE:
            raise EvalError("hole nodes cannot appear in templates")
        if node.op is None or not node.op.startswith("$"):
            return None
        name = node.op[1:]
        abstraction = binding.funcs.get(name)
        if abstraction is None:
            raise UnboundVariable(f"${name} is not bound")
        if len(node.children) != 1:
            raise EvalError(f"function variable ${name} must be applied to exactly one argument")
        return abstraction.plug(substitute(node.children[0][1], binding))

    return rebuild(template, swap)


def _collect_matches(
    formula: Formula, node: Node, segs: list[Segment], hits: list[tuple[Node, Path, Binding]]
) -> None:
    """Append ``formula``'s outermost matches under ``node``, in preorder.

    ``segs`` is the path of ``node`` as a segment list, extended and
    shrunk in place; a ``Path`` is built only for a hit.  A node whose
    root disagrees with the formula's root key cannot match, so ``match``
    runs only on the nodes that agree."""
    key = formula.key
    if key is None or (
        node.kind == key[0]
        and (key[0] != SET or (node.op == key[1] and len(node.children) == key[2]))
    ):
        binding = match(formula.lhs, node)
        if binding is not None:
            hits.append((node, Path(segs), binding))
            return
    # only an op-less set can be a function instance; the scan stops there
    if node.kind != SET or (node.op is None and frame_of(node)):
        return
    for index, (label, child) in enumerate(node.children):
        # a child that is not a set is visited only when it may match
        if child.kind == SET or key is None or child.kind == key[0]:
            segs.append(label if label is not None else index)
            _collect_matches(formula, child, segs, hits)
            segs.pop()


def run_rewrite(rules: Node, frame: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Rewrite the frame's data children to a normal form under the rules.

    Loop: (1) evaluate every ready sub-term (built-in operations with fully
    evaluated operands, references); (2) take the first formula with
    matches, collected preorder and outermost first, skipping descendants
    of matched nodes; (3) replace them all with instantiated right sides.
    Stops when, after a ready sweep, no formula matches.
    """
    if frame.kind != SET:
        raise EvalError("a rewrite frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    formulas = formulas_from(rules)
    while True:
        for label, child in frame.children:
            if child.kind != LEAF and label not in RESERVED_FRAME_LABELS:
                sweep(child, ctx)
        hits: list[tuple[Node, Path, Binding]] = []
        fired: Optional[Formula] = None
        for formula in formulas:
            for index, (label, child) in enumerate(frame.children):
                if label in RESERVED_FRAME_LABELS:
                    continue
                _collect_matches(formula, child, [label if label is not None else index], hits)
            if hits:
                fired = formula
                break
        if fired is None:
            break
        for node, path, binding in hits:
            replacement = substitute(fired.rhs, binding)
            if ctx.trace is not None:
                ctx.trace.emit("rew", fired.index + 1, path)
            ctx.transition("firing")
            node.become(replacement)
    return frame
