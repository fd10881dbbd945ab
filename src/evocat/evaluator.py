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
trace turns a path into text only when it writes or stores an event.  A
shared fuel budget bounds every run; a set of in-progress paths turns
reference cycles into errors instead of hangs.  Forcing a reference whose
target is a leaf, variable or hole is skipped, since evaluation would leave
that target as it is.

The rewrite engine's ready-term sweep evaluates leniently, and so does a
reference it forces whose target is a term: ``deriv`` reads its symbolic
argument that way, and forcing it strictly would raise UnknownOperation
for the symbol ``x``.  A function instance the sweep forces is called,
and a call always runs its body strictly.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

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
)

DEFAULT_FUEL = 10**6

#: labels every function instance carries
_INSTANCE_REQUIRED = ("args", "mode", "result")

MODE_SEQUENTIAL = 0
MODE_REWRITE = 1


class TraceSink:
    """One event per machine transition: written to ``stream`` as it
    happens, or, without a stream, collected in ``events``.

    A line is ``<step> <mode> <index> <path>``: a global step counter, the
    engine mode (``seq``/``rew``), the instruction index (0-based) or
    formula index (1-based), and the target path.  ``emit`` takes the
    path as a ``Path``; it is formatted only for the line or the event.
    """

    def __init__(self, stream=None):
        self.events: list[tuple[int, str, int, str]] = []
        self.stream = stream
        self.steps = 0

    def emit(self, mode: str, index: int, path: Path) -> None:
        step = self.steps
        self.steps += 1
        if self.stream is None:
            self.events.append((step, mode, index, str(path)))
        else:
            self.stream.write(f"{step} {mode} {index} {path}\n")


class EvalContext:
    """Everything one logical thread of evaluation needs.

    ``scope`` is the reference-resolution chain, innermost first: a cell
    ``(node, outer)`` whose ``outer`` is the next cell out, or None past
    the outermost node, normally the machine root.  A frame is pushed as
    ``(inner, ctx.scope)``, which shares the outer chain, and the saved
    chain is restored in a ``finally``.  ``fuel`` decreases on every
    subtree replacement and exhaustion raises instead of hanging.
    ``strict`` distinguishes eager evaluation (unknown operations are
    errors, templates are called) from the rewrite engine's ready-term
    sweep (anything not ready is left in place); it is off only during
    ``run_rewrite``'s sweep, and ``templates.call`` turns it on for a body.
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
        self.strict = True
        self.stats: Counter = Counter()
        self.in_progress: set[tuple[int, Path]] = set()

    def spend(self, n: int = 1) -> None:
        if self.fuel < n:
            raise FuelExhausted("step budget exhausted")
        self.fuel -= n

    def count(self, key: str, n: int = 1) -> None:
        self.stats[key] += n

    def emit(self, mode: str, index: int, path: Path) -> None:
        if self.trace is not None:
            self.trace.emit(mode, index, path)


def is_function_instance(node: Node) -> bool:
    """A set shaped like a function/appliance frame: args, mode, result,
    and a body (sequential) or rules (rewrite) child."""
    if node.kind != SET or node.op is not None:
        return False
    if any(node.child(label) is None for label in _INSTANCE_REQUIRED):
        return False
    mode = node.child("mode")
    if mode.kind != LEAF or mode.value not in (MODE_SEQUENTIAL, MODE_REWRITE):
        return False
    code = node.child("body") if mode.value == MODE_SEQUENTIAL else node.child("rules")
    return code is not None and code.kind == SET


def instance_args_ready(node: Node) -> Optional[str]:
    """Name of the first argument slot that is still a ``$`` placeholder,
    else None.  A filled slot may hold a template, placeholders and all."""
    args = node.child("args")
    for index, (label, slot) in enumerate(args.children):
        if slot.kind == VAR:
            return label if label is not None else f"#{index}"
    return None


def is_value(node: Node) -> bool:
    """Fully evaluated: no operation, reference or variable anywhere.
    Function instances count as values (they are the machine's closures)."""
    if node.kind == LEAF:
        return True
    if node.kind != SET:
        return False
    if is_function_instance(node):
        return True
    if node.op is not None:
        return False
    return all(is_value(child) for _, child in node.children)


# --- access: data_of / deref ------------------------------------------------


def _device_read(ctx: EvalContext, path: Path) -> Optional[Node]:
    if ctx.devices is None:
        return None
    device = ctx.devices.lookup(path, IN)
    if device is None:
        return None
    ctx.count("device_read")
    return device.read()


def _force_at(scope: tuple, path: Path, ctx: EvalContext) -> Optional[Node]:
    """Resolve ``path`` from ``scope[0]`` and force the target: call it
    if it is a filled function instance, evaluate it if it is a term.
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
    ctx.in_progress.add(key)
    saved = ctx.scope
    try:
        for ancestor in chain[:-1]:
            scope = (ancestor, scope)
        ctx.scope = scope
        if is_function_instance(target) and instance_args_ready(target) is None:
            from .templates import call

            call(target, ctx)
        else:
            evaluate(target, ctx)
    finally:
        ctx.scope = saved
        ctx.in_progress.discard(key)
    return target


def tree_data_of(root: Node, at: Path, ctx: Optional[EvalContext] = None) -> Node:
    """Contents of the node at ``at`` below ``root`` (the in-tree node,
    evaluated and memoized when it was a term)."""
    if ctx is None:
        ctx = EvalContext(root)
    device = _device_read(ctx, at)
    if device is not None:
        return device
    target = _force_at((root, ctx.scope), at, ctx)
    if target is None:
        raise PathUnresolvable(f"no node at {at}")
    return target


def deref(path: Path, ctx: EvalContext) -> Node:
    """Contents of the addressed node, searched innermost scope first,
    returned as a fresh copy (a term consumes a value, not an alias)."""
    device = _device_read(ctx, path)
    if device is not None:
        return device
    scope = ctx.scope
    while scope is not None:
        target = _force_at(scope, path, ctx)
        if target is not None:
            return target.copy()
        scope = scope[1]
    raise PathUnresolvable(f"no node at {path}")


# --- the evaluator ----------------------------------------------------------


def evaluate(node: Node, ctx: EvalContext) -> Node:
    """Reduce ``node`` to a value in place and return it.

    Strict mode raises UnknownOperation for unresolvable identifiers and
    calls templates for known ones; lenient mode (the rewrite engine's
    ready-term sweep) fires built-ins whose operands are values and leaves
    everything else untouched.
    """
    kind = node.kind
    if kind in (LEAF, VAR, HOLE):
        return node
    if kind == REF:
        value = deref(node.ref, ctx)
        ctx.spend()
        ctx.count("deref")
        return node.become(value)
    if is_function_instance(node):
        return node
    op = node.op
    if op is None:
        for _, child in node.children:
            evaluate(child, ctx)
        return node
    if op == "if":
        return _eval_if(node, ctx)
    if op == "select":
        return _eval_select(node, ctx)
    if op in algebra.BUILTIN_OPS:
        return _eval_eager(node, ctx)
    if op.startswith("$"):
        raise UnboundVariable(f"function variable {op} outside a rewrite rule")
    if not ctx.strict:
        for _, child in node.children:
            evaluate(child, ctx)
        return node
    return _eval_call(node, ctx)


def _fire(node: Node, result: Node, ctx: EvalContext) -> Node:
    ctx.spend()
    ctx.count("op")
    return node.become(result)


def _eval_if(node: Node, ctx: EvalContext) -> Node:
    if len(node.children) != 3:
        raise EvalError(f"if expects 3 operands, got {len(node.children)}")
    cond = evaluate(node.children[0][1], ctx)
    if not ctx.strict and not is_value(cond):
        return node
    branch = node.children[1][1] if algebra._bool(cond, "if") else node.children[2][1]
    evaluate(branch, ctx)
    if not ctx.strict and not is_value(branch):
        return node
    return _fire(node, branch, ctx)


def _eval_select(node: Node, ctx: EvalContext) -> Node:
    if len(node.children) != 2:
        raise EvalError(f"select expects 2 operands, got {len(node.children)}")
    source = evaluate(node.children[0][1], ctx)
    if not ctx.strict and not is_value(source):
        return node
    result = algebra.select(source, node.children[1][1], ctx)
    return _fire(node, result, ctx)


def _eval_eager(node: Node, ctx: EvalContext) -> Node:
    for _, child in node.children:
        evaluate(child, ctx)
    if not ctx.strict and not all(is_value(child) for _, child in node.children):
        return node
    result = algebra.apply_builtin(node.op, [child for _, child in node.children])
    return _fire(node, result, ctx)


def _eval_call(node: Node, ctx: EvalContext) -> Node:
    from .templates import bind_operands, call, lookup_template

    template = lookup_template(node.op, ctx)
    if template is None:
        raise UnknownOperation(f"unknown operation {node.op!r}")
    for _, child in node.children:
        evaluate(child, ctx)
    instance = template.copy()
    bind_operands(instance, [child for _, child in node.children])
    call(instance, ctx)
    ctx.count("call")
    return node.become(instance)
