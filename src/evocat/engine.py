"""The two program disciplines: sequential instruction lists and rewriting.

A sequential body is a list of instructions ``{ at = [path] to = <term> }``;
a reserved frame child ``ip`` is the instruction pointer, and writing to it
is the jump.  A rewrite body is a list of formulas ``{ lhs <pattern> rhs
<template> }`` applied by priority: evaluate every ready sub-term, find the
first formula with matches (collected preorder, outermost first,
non-overlapping), replace them all, repeat.

Patterns are trees whose leaves may be variables ``$x`` (match any subtree,
repeated occurrences must match equal subtrees) and whose operation slot
may hold a function variable ``$f`` applied to one previously bound
variable, the decidable fragment of second-order matching.  ``$f`` binds
to the matched subtree with every occurrence of the argument's value
replaced by a hole.

The match scan is indexed by the root symbol of each lhs (root-symbol
discrimination, as in McCune's term indexing).  ``formulas_from`` gives a
formula the key of its lhs root: the node kind, and for a set also its
operation and arity.  A variable or ``$f`` root has no key and admits any
subject.  The scan calls ``match`` only on nodes whose root agrees with
the key, so only those allocate a ``Binding``, and it builds a ``Path``
only for a hit.  A rule is checked when it loads, by matching its lhs
against itself and instantiating its rhs with the binding that gives, so
``match`` and ``substitute`` raise their errors before any rule fires and
the nodes the scan skips cannot change which error a run raises.

A round that follows a one-hit round resumes where that hit changed the
tree: it sweeps the replaced node, tries the formulas up to the one that
fired on the node's ancestors and inside it, and scans the whole frame
only for later formulas (``run_rewrite`` says when that is exact).  So
``div``, which fires once per round at the bottom of a growing
``if``/``sum`` spine, no longer re-walks the spine each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .devices import OUT
from .errors import EvalError, EvoError, UnboundVariable
from .evaluator import (
    EvalContext,
    evaluate,
    is_function_instance,
    is_value,
    sweep_enters,
)
from .tree import (
    HOLE,
    LEAF,
    REF,
    SET,
    VAR,
    Node,
    Path,
    Segment,
    node_equal,
    rebuild,
    replace_subtree,
    resolve_chain,
)

#: frame children the rewrite engine must not scan or rewrite
RESERVED_FRAME_LABELS = frozenset({"args", "mode", "body", "rules", "ip"})
#: the labels ``is_function_instance`` reads: a write below one of them may
#: change whether its holder is a function instance
_SHAPE_LABELS = frozenset({"args", "mode", "result", "body", "rules"})

_IP = Path.of("ip")


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


@dataclass
class Instruction:
    at: Path
    to: Node


@dataclass
class Formula:
    lhs: Node
    rhs: Node
    index: int  # 0-based position in the rule list
    # what a subject's root must agree with to match: (kind, op, arity),
    # op and arity compared for a set only; None when any subject may match
    key: Optional[tuple[str, Optional[str], int]]


# --- matching ----------------------------------------------------------------


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
            seen = binding.vars.get(p.var)
            if seen is None:
                binding.vars[p.var] = t
            elif not node_equal(seen, t):
                return False
        elif p.kind == LEAF:
            if t.kind != LEAF or p.value != t.value:
                return False
        elif p.kind == REF:
            if t.kind != REF or p.ref != t.ref:
                return False
        elif p.kind == HOLE:
            raise EvalError("hole nodes cannot appear in patterns")
        elif p.op is not None and p.op.startswith("$"):
            if len(p.children) != 1 or p.children[0][1].kind != VAR:
                raise EvalError(
                    f"function variable {p.op} must be applied to exactly one variable"
                )
            deferred.append((p.op[1:], p.children[0][1].var, t))
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


# --- substitution ------------------------------------------------------------


def substitute(template: Node, binding: Binding) -> Node:
    """Instantiate a template: variables become deep copies of their
    bindings, ``$f(s)`` becomes f's body with the hole replaced by s."""

    def swap(node: Node) -> Optional[Node]:
        if node.kind == VAR:
            bound = binding.vars.get(node.var)
            if bound is None:
                raise UnboundVariable(f"${node.var} is not bound")
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


# --- program extraction -------------------------------------------------------


def instructions_from(body: Node) -> list[Instruction]:
    """Read ``{ at = [path] to = ... }`` entries out of a body node."""
    program: list[Instruction] = []
    for index, (_, node) in enumerate(body.children):
        if node.kind != SET:
            raise EvalError(f"instruction #{index} is not a set node")
        at = node.child("at")
        to = node.child("to")
        if at is None or to is None or len(node.children) != 2:
            raise EvalError(f"instruction #{index} must have exactly 'at' and 'to'")
        if at.kind != REF:
            raise EvalError(f"instruction #{index}: 'at' must be an address [path]")
        program.append(Instruction(at.ref, to))
    return program


def formulas_from(rules: Node) -> list[Formula]:
    """Read ``{ lhs ... rhs ... }`` entries out of a rules node, check each
    one as the module docstring says, and give it its lhs root key.  An
    error keeps its class and its message names the formula and side."""
    formulas: list[Formula] = []
    for index, (_, node) in enumerate(rules.children):
        if node.kind != SET:
            raise EvalError(f"formula #{index} is not a set node")
        lhs = node.child("lhs")
        rhs = node.child("rhs")
        if lhs is None or rhs is None:
            raise EvalError(f"formula #{index} must have 'lhs' and 'rhs'")
        side = "lhs"
        try:
            binding, deferred = Binding(), []
            # the verdict is unused: a self-match fails only on $f argument labels
            _walk(lhs, lhs, binding, deferred)
            _abstract(deferred, binding)
            side = "rhs"
            substitute(rhs, binding)
        except EvalError as err:
            raise type(err)(f"formula #{index} {side}: {err}") from None
        formulas.append(Formula(lhs, rhs, index, _root_key(lhs)))
    return formulas


def _root_key(lhs: Node) -> Optional[tuple[str, Optional[str], int]]:
    if lhs.kind == VAR or (lhs.op is not None and lhs.op.startswith("$")):
        return None
    return (lhs.kind, lhs.op, len(lhs.children))


# --- sequential execution -----------------------------------------------------


def run_sequential(body: Node, frame: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Execute an instruction list against a frame.

    The reserved child ``ip`` starts at 0; each step evaluates the
    instruction's tree term in the frame context, applies the replacement
    at the address, and increments ``ip`` unless the instruction wrote it.
    Execution halts once ``ip`` runs past the last instruction.
    """
    if frame.kind != SET:
        raise EvalError("a sequential frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    cell = _start(body, frame, instructions_from, ctx)
    try:
        index = 0
        frame.set_child("ip", Node.leaf(0))
        while index < len(cell[0]):
            inst = cell[0][index]
            ctx.emit("seq", index, inst.at)
            try:
                ctx.spend()
                ctx.count("instruction")
                value = inst.to.copy()
                if value.kind != LEAF:
                    evaluate(value, ctx)
                _apply_write(frame, inst.at, value, ctx)
                if inst.at != _IP:
                    frame.set_child("ip", Node.leaf(index + 1))
                ip_node = frame.child("ip")
                if ip_node is None or ip_node.kind != LEAF:
                    raise EvalError("frame child 'ip' must be a natural-number leaf")
            except EvoError as err:
                if err.instruction is None:
                    err.instruction = index
                raise
            index = ip_node.value
    finally:
        ctx.running.pop()
    return frame


def _start(code: Node, frame: Node, build, ctx: EvalContext) -> list:
    """Register ``build(code)``, cached on frozen code, as run in ``frame``."""
    cache = code.frozen
    if cache and cache[0] is None:
        cache[0] = build(code)
    cell = [cache[0] if cache else build(code), frame, code, build]
    ctx.running.append(cell)
    return cell


def _apply_write(root: Node, at: Path, value: Node, ctx: EvalContext) -> None:
    device = ctx.devices.lookup(at, OUT) if ctx.devices is not None else None
    if device is None:
        replace_subtree(root, at, value, ctx)
    else:
        device.write(value)
        ctx.count("device_write")


# --- rewriting ------------------------------------------------------------------


def run_rewrite(rules: Node, frame: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Rewrite the frame's data children to a normal form under the rules.

    Loop: (1) evaluate every ready sub-term (built-in operations with fully
    evaluated operands, references); (2) take the first formula with
    matches, collected preorder and outermost first, skipping descendants
    of matched nodes; (3) replace them all with instantiated right sides.
    Stops when, after a ready sweep, no formula matches.

    A round that follows a one-hit round, one that replaced a single node
    ``h``, works only where that hit changed the tree (``_resume``): its
    sweep is ``evaluate(h)``, and its scan of the formulas up to the one
    that fired looks at ``h``'s ancestors, top-down, and then below ``h``.
    Later formulas scan the whole frame.  It does so when the one-hit
    round's sweep forced no reference, ``h`` is not a leaf, holds no
    reference and no ``select``, sits where the sweep goes, and was not
    written at a label that ``is_function_instance`` reads; and when,
    after ``evaluate(h)``, ``h`` is still not a value and the compiled
    formula list is the same.  Otherwise the round runs in full.  Why
    that is exact:

    - After a sweep the frame is in sweep-normal form: a second sweep fires
      nothing and spends no fuel.  A sweep that forced a reference may
      have called a function instance, which becomes its result, a term
      the sweep may have passed; so only a sweep that forced none counts.
    - Every formula up to the one that fired has no match outside ``h``
      and its ancestors: the earlier ones matched nowhere, and that one
      only at ``h``.
    - The firing changed only ``h``.  The full sweep would reach ``h``
      (``sweep_enters`` on each ancestor) and find the rest of the frame
      already swept; evaluating an ``h`` with no reference and no
      ``select`` reads and writes nothing outside ``h``.
    - A non-value cannot make an ancestor ready, since firing needs the
      operands to be values; an ``h`` that became a value leaves that to
      the full sweep, which finds ``h`` itself already swept.  Nor can
      ``h`` change whether an ancestor is a function instance.
    - So only ``h``'s subtree and its ancestors' own matches can change,
      and effects happen in the same order: the trace, ``stats``, fuel
      and the partial state after an error are those of the full round.
    """
    if frame.kind != SET:
        raise EvalError("a rewrite frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    cell = _start(rules, frame, formulas_from, ctx)
    try:
        last = None  # (formulas, scanned, path, chain) after a one-hit round
        while True:
            derefs = ctx.stats["deref"]
            hits: list[tuple[Node, Path, Binding]] = []
            resumed = _resume(last, cell, ctx, hits) if last is not None else None
            if resumed is None:
                resumed = (0, [])
                for label, child in frame.children:
                    if child.kind != LEAF and label not in RESERVED_FRAME_LABELS:
                        evaluate(child, ctx, True)
            scanned, chain = resumed
            formulas = cell[0]
            while not hits and scanned < len(formulas):
                formula = formulas[scanned]
                scanned += 1
                for index, (label, child) in enumerate(frame.children):
                    if label in RESERVED_FRAME_LABELS:
                        continue
                    _collect_matches(formula, child, [label if label is not None else index], hits)
            if not hits:
                break
            fired = formulas[scanned - 1]
            for node, path, binding in hits:
                replacement = substitute(fired.rhs, binding)
                ctx.emit("rew", fired.index + 1, path)
                ctx.spend()
                ctx.count("firing")
                node.become(replacement)
            last = None
            if len(hits) == 1 and ctx.stats["deref"] == derefs:
                chain = _hit_chain(frame, chain, hits[0])
                if chain is not None:
                    last = (formulas, scanned, hits[0][1], chain)
    finally:
        ctx.running.pop()
    return frame


def _hit_chain(frame: Node, chain: list[Node], hit: tuple[Node, Path, Binding]) -> Optional[list[Node]]:
    """The nodes down the path of a round's one hit, the first of which are
    ``chain``, when the next round may resume there; else None.

    Each node is a data child or an operand of the one before it, and the
    sweep must go from each into the next.  ``chain`` is already checked,
    so only the nodes below it are."""
    node, path, _ = hit
    if path[-1] in _SHAPE_LABELS or node.kind == LEAF or not _closed(node):
        return None
    known = len(chain)
    chain = chain + resolve_chain(chain[-1] if chain else frame, path[known:])
    start = max(known - 1, 0)
    if all(map(sweep_enters, chain[start:-1], chain[start + 1 :])):
        return chain
    return None


def _resume(last: tuple, cell: list, ctx: EvalContext, hits: list) -> Optional[tuple[int, list]]:
    """Sweep and scan where the one hit of the last round changed the tree.

    ``last`` holds that round's formula list, how many of its formulas it
    scanned, its hit's path and the nodes down that path.  Returns how many
    formulas this round has scanned, with the nodes down to its hit if it
    found one; None when the round must sweep and scan in full."""
    formulas, scanned, path, chain = last
    node = chain[-1]
    evaluate(node, ctx, True)
    if cell[0] is not formulas or node.kind == LEAF or (node.op is None and is_value(node)):
        return None
    ancestors = chain[:-1]
    segs = list(path)
    for count, formula in enumerate(formulas[:scanned], 1):
        key = formula.key
        if key is None or key[0] == SET:  # every ancestor is a set
            for depth, ancestor in enumerate(ancestors):
                if (key is None or (ancestor.op == key[1] and len(ancestor.children) == key[2])) and (
                    binding := match(formula.lhs, ancestor)
                ) is not None:
                    hits.append((ancestor, Path(path[: depth + 1]), binding))
                    return count, chain[: depth + 1]
        _collect_matches(formula, node, segs, hits)
        if hits:
            return count, chain
    return scanned, []


def _closed(node: Node) -> bool:
    """No reference and no ``select`` below ``node``: the sweep of it reads
    and writes no node outside it."""
    work = [node]
    while work:
        node = work.pop()
        if node.kind == REF or node.op == "select":
            return False
        work.extend([child for _, child in node.children])
    return True


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
    if node.kind != SET or (node.op is None and is_function_instance(node)):
        return
    for index, (label, child) in enumerate(node.children):
        # a child that is not a set is visited only when it may match
        if child.kind == SET or key is None or child.kind == key[0]:
            segs.append(label if label is not None else index)
            _collect_matches(formula, child, segs, hits)
            segs.pop()
