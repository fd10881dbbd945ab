"""Turning terms into values by in-place subtree replacement.

A term is a set node carrying an operation identifier, or a reference
``[path]``.  Evaluation is leftmost-innermost except for ``if`` (condition
first, only the selected branch evaluated) and ``select`` (the predicate is
instantiated per child).  Evaluation triggered through data access replaces
the evaluated node inside the tree, so repeated reads cost nothing; a
detached node evaluates without touching any tree.

References resolve through a scope chain, innermost context first and the
machine root last, which is also how function identifiers find their
templates.  Every address here is a ``Path``: a device read is one
``DeviceTable.lookup``, the cycle guard keys on the path itself, and the
trace turns a path into text only for the line it hands to its write
callable as the transition happens; it keeps no line.  A
shared fuel budget bounds every run: ``EvalContext.transition`` charges one
unit for each ``deref``, built-in ``op``, sequential ``instruction``,
rewrite ``firing`` and template ``call``, and counts it in ``stats``.  A
set of in-progress paths turns reference cycles into errors, not hangs.
Forcing a reference whose target is a leaf, variable or hole is skipped,
since evaluation would leave that target as it is.

Two walkers reduce a term: ``evaluate``, and ``sweep``, the rewrite
engine's ready-term sweep.  They share the rule for which operands are
reduced (``sweep_enters``), the checks made before any operand
(``_check``) and the firing of a built-in (``_apply``).  ``evaluate``
calls a template by name; ``sweep`` calls none, fires a built-in only
when the operands it entered are values, and forces a reference with
itself: ``deref`` and ``_force_at`` take the walker that reduces a term
target.  ``deriv`` reads its symbolic argument that way, where
``evaluate`` would raise UnknownOperation for the symbol ``x``.  A call
body and a ``select`` predicate are run by ``evaluate``, also when the
sweep forced the call or fired the ``select``.  Neither walker enters a
leaf, since it is already a value, and only an op-less set is asked
whether it is a function instance.  The rewrite engine asks
``sweep_enters`` too, whether the sweep goes from a node into an operand.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from . import algebra
from .devices import IN
from .errors import (
    CyclicReference,
    EvalError,
    FuelExhausted,
    PathUnresolvable,
    UnboundVariable,
    UnknownOperation,
)
from .tree import (
    HOLE,
    LEAF,
    REF,
    SET,
    VAR,
    Node,
    Path,
    resolve_chain,
    unshare_path,
)

DEFAULT_FUEL = 10**6

MODE_SEQUENTIAL = 0
MODE_REWRITE = 1
_CODE_LABELS = {MODE_SEQUENTIAL: "body", MODE_REWRITE: "rules"}  # no label is ""


class TraceSink:
    """One line per machine transition, handed to ``write`` as it happens.

    A line is ``<step> <mode> <index> <path>``: a global step counter, the
    engine mode (``seq``/``rew``), the instruction index (0-based) or
    formula index (1-based), and the target path, formatted only here.
    """

    def __init__(self, write: Callable[[str], object]):
        self.write = write
        self.steps = 0

    def emit(self, mode: str, index: int, path: Path) -> None:
        self.write(f"{self.steps} {mode} {index} {path}\n")
        self.steps += 1


class EvalContext:
    """Everything one logical thread of evaluation needs.

    ``scope`` is the reference-resolution chain, innermost first: a cell
    ``(node, outer)`` whose ``outer`` is the next cell out, or None past
    the outermost node, normally the machine root.  A frame is pushed as
    ``(inner, ctx.scope)``, which shares the outer chain, and the saved
    chain is restored in a ``finally``.  ``fuel`` decreases by one on every
    transition and exhaustion raises instead of hanging.  No evaluation
    mode is kept here: the rewrite engine calls ``sweep`` and everything
    else ``evaluate``, and ``deref`` is told which.  ``running`` holds the
    ``Frame`` of each sequential run: a rewrite run cannot see writes into its rules.
    """

    def __init__(
        self,
        root: Optional[Node] = None,
        *,
        fuel: int = DEFAULT_FUEL,
        devices=None,
        trace: Optional[TraceSink] = None,
    ):
        self.scope = (root, None) if root is not None else None
        self.fuel = fuel
        self.devices = devices
        self.trace = trace
        self.stats: Counter = Counter()
        self.in_progress: set[tuple[int, Path]] = set()
        self.running: list[Frame] = []

    def transition(self, kind: str) -> None:
        """Charge and count one transition; with no fuel left, raise first."""
        if self.fuel < 1:
            raise FuelExhausted("step budget exhausted")
        self.fuel -= 1
        self.stats[kind] += 1

    def unshared(self, holder: Node, code: Node, twin: Node) -> None:
        """Re-point a sequential run in ``holder`` from ``code`` to its copy ``twin``, rebuilt now."""
        from .engine import instructions_from

        for record in self.running:
            if record.instance is holder and record.code is code:
                record.code, record.program = twin, instructions_from(twin)


#: the labels ``frame_of`` reads: a write below one of them may change
#: whether its holder is a function instance
SHAPE_LABELS = frozenset({"args", "mode", "result", *_CODE_LABELS.values()})


class Frame:
    """A call's record: the instance, its ``args``, ``mode``, code and ``result``
    (every write but one at the identity path keeps them, so ``templates.call``
    returns this ``result``), and a run's ``program``."""

    __slots__ = ("instance", "args", "mode", "code", "result", "program")

    def __init__(self, instance: Node, args=None, mode=None, code=None, result=None):
        self.instance, self.args, self.mode, self.code, self.result = instance, args, mode, code, result
        self.program = None


def frame_of(node: Node) -> Optional[Frame]:
    """The record of a set shaped like a function/appliance frame: args,
    mode, result, and a body (sequential) or rules (rewrite) child; else None."""
    labels = node.labels
    if node.kind != SET or node.op is not None or labels is None or "mode" not in labels:
        return None
    nodes, at = node.nodes, labels.index  # a frame has few labels: scans in C beat a dict
    mode = nodes[at("mode")]
    code = _CODE_LABELS.get(mode.value, "") if mode.kind == LEAF else ""
    if code not in labels or "args" not in labels or "result" not in labels or nodes[at(code)].kind != SET:
        return None
    return Frame(node, nodes[at("args")], mode, nodes[at(code)], nodes[at("result")])


def freeze_code(template: Node) -> Optional[Node]:
    """``frame_of(template)``'s code node, frozen: copies share a frozen root."""
    if (record := frame_of(template)) is None:
        return None
    record.code.freeze()
    return record.code


def instance_args_ready(record: Frame) -> Optional[str]:
    """Name of the first argument slot that is still a ``$`` placeholder,
    else None.  A filled slot may hold a template, placeholders and all."""
    labels = record.args.labels
    for index, slot in enumerate(record.args.nodes):
        if slot.kind == VAR:
            return labels[index] if labels and labels[index] is not None else f"#{index}"
    return None


def is_value(node: Node) -> bool:
    """Fully evaluated: no operation, reference or variable anywhere.
    Function instances count as values (they are the machine's closures).

    A leaf and a set with an operation are answered before the work list
    is built; the walk itself is a loop, so depth costs no Python stack."""
    kind = node.kind
    if kind == LEAF:
        return True
    if kind != SET or node.op is not None:
        return False
    stack = [node]
    while stack:
        node = stack.pop()
        if frame_of(node):
            continue
        for child in node.nodes:
            kind = child.kind
            if kind == LEAF:
                continue
            if kind != SET or child.op is not None:
                return False
            stack.append(child)
    return True


# --- access: data_of / deref ------------------------------------------------


def _device_read(ctx: EvalContext, path: Path) -> Optional[Node]:
    """What the input device at ``path``, if any, reads; ``ctx.devices`` is set."""
    device = ctx.devices.lookup(path, IN)
    if device is None:
        return None
    ctx.stats["device_read"] += 1
    return device.read()


def _force_at(scope: tuple, path: Path, ctx: EvalContext, reduce=None) -> Optional[Node]:
    """Resolve ``path`` from ``scope[0]`` and force the target: call it
    if it is a filled function instance, reduce it with ``reduce``
    (``evaluate`` unless given) if it is a term.
    A leaf, variable or hole target is returned without forcing.
    Returns the in-tree node, or None when the path does not resolve; the
    identity path addresses the scope itself."""
    node = scope[0]
    chain = resolve_chain(node, path)
    if chain is None:
        return None
    target = chain[-1] if chain else node
    key = (id(node), path)
    if key in ctx.in_progress:
        raise CyclicReference(f"reference cycle through {path}")
    if target.kind in (LEAF, VAR, HOLE):
        return target
    if target.frozen is not None:  # forcing writes: make the path private
        target = unshare_path(node, path, ctx)
        chain = resolve_chain(node, path)
    ctx.in_progress.add(key)
    saved = ctx.scope
    try:
        for ancestor in chain[:-1]:
            scope = (ancestor, scope)
        ctx.scope = scope
        if (record := frame_of(target)) is not None and instance_args_ready(record) is None:
            from . import templates

            templates.call(target, ctx, record)
        else:
            (reduce or evaluate)(target, ctx)
    finally:
        ctx.scope = saved
        ctx.in_progress.discard(key)
    return target


def tree_data_of(root: Node, at: Path, ctx: Optional[EvalContext] = None) -> Node:
    """Contents of the node at ``at`` below ``root`` (the in-tree node,
    evaluated and memoized when it was a term)."""
    if ctx is None:
        ctx = EvalContext(root)
    if ctx.devices is not None and (device := _device_read(ctx, at)) is not None:
        return device
    target = _force_at((root, ctx.scope), at, ctx)
    if target is None:
        raise PathUnresolvable(f"no node at {at}")
    return target


def deref(path: Path, ctx: EvalContext, reduce=None) -> Node:
    """Contents of the addressed node, searched innermost scope first,
    returned as a fresh copy (a term consumes a value, not an alias).
    ``reduce`` forces a term target, as ``_force_at`` says."""
    if ctx.devices is not None and (device := _device_read(ctx, path)) is not None:
        return device
    scope = ctx.scope
    while scope is not None:
        target = _force_at(scope, path, ctx, reduce)
        if target is not None:
            if target.kind == SET:
                freeze_code(target)
            return target.copy()
        scope = scope[1]
    raise PathUnresolvable(f"no node at {path}")


# --- the evaluator ----------------------------------------------------------


def evaluate(node: Node, ctx: EvalContext) -> Node:
    """Reduce ``node`` to a value in place and return it.

    Reduces the operands that ``sweep_enters`` names, then fires a
    built-in (``_apply``) or calls the template the operation names;
    an identifier that names neither raises UnknownOperation before any
    operand is reduced.  A leaf is returned as it is; the operand loops
    here and in ``sweep`` test for one themselves and never pass it in.
    """
    kind = node.kind
    if kind == REF:
        value = deref(node.value, ctx, evaluate)
        ctx.transition("deref")
        return node.become(value)
    op = node.op
    if kind != SET or (op is None and frame_of(node)):  # only an op-less set is an instance
        return node
    template = None
    if op is not None and op not in algebra._EAGER_OPS and not _check(node):
        from . import templates

        if (template := templates.lookup_template(op, ctx)) is None:
            raise UnknownOperation(f"unknown operation {op!r}")
    guarded, kids = op == "if" or op == "select", node.nodes
    for child in kids:  # the first operand of an if or select is always entered
        if child.kind != LEAF and (not guarded or child is kids[0] or sweep_enters(node, child)):
            evaluate(child, ctx)
    if template is not None:
        return node.become(templates._call_copy(template, kids, ctx))
    return node if op is None else _apply(node, ctx)


def sweep(node: Node, ctx: EvalContext) -> Node:
    """The rewrite engine's ready-term sweep of ``node``, in place: what
    ``evaluate`` does, but a term that is not ready is left where it is
    (the module docstring says how)."""
    kind = node.kind
    if kind == REF:
        value = deref(node.value, ctx, sweep)
        ctx.transition("deref")
        return node.become(value)
    op = node.op
    if kind != SET or (op is None and frame_of(node)):
        return node
    ready = op is not None and (op in algebra._EAGER_OPS or _check(node))  # while operands are values
    guarded, kids = op == "if" or op == "select", node.nodes
    for child in kids:
        if child.kind != LEAF and (not guarded or child is kids[0] or sweep_enters(node, child)):
            sweep(child, ctx)
            # a set with an operation is not a value: is_value is asked of none
            ready = ready and (child.kind == LEAF or not child.op and is_value(child))
    return _apply(node, ctx) if ready else node


def sweep_enters(node: Node, operand: Node) -> bool:
    """Whether ``evaluate`` and ``sweep`` reduce ``operand`` of the term or
    op-less set ``node``: every operand, but of an ``if`` only the condition
    and, once it is a boolean leaf, the branch it picks, and of a ``select``
    only the source, never its predicate.  The rewrite engine asks it too,
    of a node already swept, before it resumes a round below it."""
    if node.op == "if":
        cond = node.nodes[0]
        return operand is cond or (
            cond.kind == LEAF and cond.value in (0, 1) and operand is node.nodes[1 if cond.value else 2]
        )
    return node.op != "select" or operand is node.nodes[0]


def _check(node: Node) -> bool:
    """Whether ``node``'s operation is a built-in.  It raises, before any
    operand is reduced, for an ``if`` or ``select`` of the wrong arity and
    for a function variable ``$f`` outside a rule.  The walkers test for an
    eager built-in first, inline, as that is the sweep's hottest path; such
    an operation has nothing to check."""
    op = node.op
    if op == "if" or op == "select":
        arity = 3 if op == "if" else 2
        if len(node.nodes) != arity:
            raise EvalError(f"{op} expects {arity} operands, got {len(node.nodes)}")
        return True
    if op.startswith("$"):
        raise UnboundVariable(f"function variable {op} outside a rewrite rule")
    return op in algebra.BUILTIN_OPS


def _apply(node: Node, ctx: EvalContext) -> Node:
    """Fire the ``if``, ``select`` or eager built-in ``node``, whose
    operands ``sweep_enters`` names are reduced: it becomes its value."""
    op, kids = node.op, node.nodes
    if op == "if":
        result = kids[1 if algebra._bool(kids[0], "if") else 2]
    elif op == "select":
        result = algebra.select(kids[0], kids[1], ctx)
    else:
        result = algebra.apply_builtin(op, kids)
    ctx.transition("op")
    return node.become(result)
