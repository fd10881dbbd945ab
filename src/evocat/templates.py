"""Function and type templates, and the heap appliance.

A template is an ordinary subtree shaped like a callable frame: ``args``
(argument slots holding ``$`` placeholders), ``mode`` (0 sequential,
1 rewrite), ``body`` or ``rules``, and a reserved ``result`` slot.  Use is
always by copy, copy-on-write for its frozen code (``freeze_code``): the
instance is filled and called, and the result value replaces the instance
node; the template itself never changes.  A call finds the instance's
frame layout once, in a ``Frame`` record (``frame_of``).  A type template
is the same idea for data: a set of field slots whose members may
themselves be callable (the instance's member functions see the
enclosing instance's fields through the reference scope chain).

The heap appliance stores items as the unlabeled children of its ``data``
child in implicit binary-heap order (children of slot k live at 2k+1 and
2k+2), ordered by the instance's ``compare`` function when it has one and
by natural-number ``<`` otherwise.  A put or get makes every compare on the
unchanged ``data`` and records the path its item takes; only then does it
write, so a failed compare leaves the heap as it was.
"""

from __future__ import annotations

from importlib import resources
from typing import Optional, Union

from .engine import run_rewrite, run_sequential
from .errors import (
    CompareFailed,
    DepthExceeded,
    DuplicateSibling,
    EmptyHeap,
    EvalError,
    EvoError,
    MissingArgument,
    NotASet,
    PathUnresolvable,
)
from .evaluator import (
    MODE_SEQUENTIAL,
    EvalContext,
    Frame,
    frame_of,
    freeze_code,
    instance_args_ready,
)
from .tree import LEAF, SET, Node, Path, _as_path, pairs, repeated_label, resolve

from . import textio


def instantiate(root: Node, path: Union[Path, str]) -> Node:
    """Copy the template subtree at ``path``, sharing its frozen code; the
    copy is detached and later writes to it never touch the template."""
    path = _as_path(path)
    node = resolve(root, path)
    if node is None:
        raise PathUnresolvable(f"no node at {path}")
    if node.kind != SET:
        raise NotASet(f"{path} is not a template set node")
    freeze_code(node)
    return node.copy()


def lookup_template(name: str, ctx: EvalContext) -> Optional[Node]:
    """Resolve an operation identifier to a template, innermost scope
    first; the template's code comes back frozen, ready to be shared."""
    scope = ctx.scope
    while scope is not None:
        node, scope = scope
        if node.kind != SET:
            continue
        child = node.child(name)
        if child is not None and freeze_code(child) is not None:
            return child
    return None


def bind_operands(instance: Node, operands: list[Node], record: Optional[Frame] = None) -> None:
    """Fill the instance's argument slots positionally with copies (``args``
    from ``record``), in one write that puts each copy in its slot's place."""
    args = record.args if record is not None else instance.child("args")
    if args is None or args.kind != SET:
        raise EvalError("instance has no argument set")
    if len(operands) != len(args.nodes):
        raise MissingArgument(f"call provides {len(operands)} operands for {len(args.nodes)} slots")
    args.set_nodes(list(map(Node.copy, operands)))


def assign_argument(instance: Node, label: str, value: Node) -> None:
    """Fill one named argument slot; the slot must exist."""
    args = instance.child("args")
    if args is None or args.kind != SET:
        raise EvalError("instance has no argument set")
    if args.child(label) is None:
        raise MissingArgument(f"no argument slot named {label!r}")
    args.set_child(label, value.copy())


def call(instance: Node, ctx: EvalContext, record: Optional[Frame] = None) -> Node:
    """Run a filled instance and replace it with its result value.

    ``record`` is the instance's ``Frame``, built here if not given.  The
    instance frame becomes the innermost reference scope; its body executes
    under the engine selected by ``mode``, strictly, also when the call was
    forced from the rewrite engine's ready-term sweep: only the rewrite
    engine calls ``sweep``, on its own frame.  Afterwards the ``result`` slot takes the
    instance node's place and is returned: ``record.result``, found anew
    only if a write at the identity path replaced the instance's node list
    or that node is frozen (see ``run_sequential``).  Each call counts as
    ``call`` in ``ctx.stats``.
    """
    if record is None and (record := frame_of(instance)) is None:
        raise EvalError("call target is not a function instance")
    if (unfilled := instance_args_ready(record)) is not None:
        raise MissingArgument(f"argument slot {unfilled!r} is still empty")
    ctx.transition("call")
    scope, ctx.scope = ctx.scope, (instance, ctx.scope)
    kids = instance.nodes
    try:
        if record.mode.value == MODE_SEQUENTIAL:
            run_sequential(record.code, instance, ctx, record)
        else:
            run_rewrite(record.code, instance, ctx)
    finally:
        ctx.scope = scope
    if instance.nodes is kids and record.result.frozen is None:
        result = record.result
    elif (result := instance.child("result")) is None:
        raise EvalError("instance lost its result slot")
    return instance.become(result)


def _call_copy(template: Node, operands: list[Node], ctx: EvalContext) -> Node:
    """Call a copy of ``template``, a checked template with frozen code,
    on copies of ``operands``; return the result value."""
    instance = template.copy()
    bind_operands(instance, operands, record := frame_of(instance))
    return call(instance, ctx, record)


def run_entry(
    root: Node,
    entry: Union[Path, str],
    arguments: Optional[dict[str, Node]] = None,
    ctx: Optional[EvalContext] = None,
) -> Node:
    """Instantiate the template at ``entry``, fill named argument slots,
    call it, and return the result value.  The machine tree is the
    outermost scope of the run."""
    if ctx is None:
        ctx = EvalContext(root)
    instance = instantiate(root, entry)
    if (record := frame_of(instance)) is None:
        raise NotASet(f"{entry} is not a function template")
    for label, value in (arguments or {}).items():
        assign_argument(instance, label, value)
    scope = ctx.scope
    if scope is None or scope[0] is not root:  # a context made at the root starts there
        ctx.scope = (root, scope)
    try:
        return call(instance, ctx, record)
    except RecursionError:
        raise DepthExceeded(f"{entry} nested too deep for the interpreter stack") from None
    finally:
        ctx.scope = scope


# --- program assembly ---------------------------------------------------------


def merge_program(base: Node, program: Node) -> Node:
    """Adjoin a program's top-level entries to the machine root; a
    duplicate top-level label is a load error, not a shadowing, and then
    none is adjoined."""
    if program.kind != SET:
        raise NotASet("a program file must be a set of top-level entries")
    if (twice := repeated_label(program.labels or (), base.labels or ())) is not None:
        raise DuplicateSibling(f"duplicate top-level label {twice!r}")
    base.add_children(list(pairs(program)))
    return base


def load_stdlib() -> Node:
    """The shipped template library: gcd, fact, div, Date, deriv, heap."""
    source = resources.files(__package__).joinpath("stdlib.evo").read_text("utf-8")
    return textio.parse(source)


# --- heap appliance -------------------------------------------------------------


def _heap_parts(heap: Node) -> tuple[Node, Optional[Node]]:
    """The heap's ``data`` set, and its ``compare`` template (code frozen) or None."""
    data, compare = heap.child("data"), heap.child("compare")
    if data is None or data.kind != SET:
        raise EvalError("not a heap appliance: no 'data' set")
    return data, compare if compare is not None and freeze_code(compare) is not None else None


def _heap_less(compare: Optional[Node], a: Node, b: Node, ctx: EvalContext) -> bool:
    """Whether ``a`` goes above ``b``: by a call on a copy of ``compare``, else
    by ``<``.  A put or get looks ``compare`` up once, not per compare: exact,
    as a compare runs on a detached copy and writes only into its own frame."""
    try:
        if compare is not None:
            result = _call_copy(compare, [a, b], ctx)
            if result.kind != LEAF or result.value not in (0, 1):
                raise EvalError("compare must return a boolean leaf")
            return bool(result.value)
        if a.kind != LEAF or b.kind != LEAF:
            raise EvalError("default compare orders natural-number leaves only")
        return a.value < b.value
    except EvoError as err:
        raise CompareFailed(f"compare failed: {err}") from err


def heap_put(heap: Node, item: Node, ctx: Optional[EvalContext] = None) -> None:
    """Insert a copy of ``item`` and restore heap order: compare the copy with
    its successive parents in the unchanged ``data``, recording each step up,
    then add it and take the recorded steps."""
    ctx = ctx or EvalContext(heap)
    data, compare = _heap_parts(heap)
    items, new = data.nodes, item.copy()  # a compare writes only into its own frame
    i, path = len(items), []
    while i > 0 and _heap_less(compare, new, items[parent := (i - 1) // 2], ctx):
        path.append((i, parent))
        i = parent
    data.add_child(None, new)
    for i, parent in path:
        data.swap_children(i, parent)


def heap_get(heap: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Remove and return the minimum item under the heap's order: sink the
    last item from the top against the unchanged children, recording each
    step down, then move it to the top and take the recorded steps."""
    ctx = ctx or EvalContext(heap)
    data, compare = _heap_parts(heap)
    n = len(items := data.nodes) - 1  # the items left after the get; see heap_put on items
    if n < 0:
        raise EmptyHeap("get on an empty heap")
    i, path = 0, []
    while True:
        smallest, low = i, items[n]  # the last item, as if on top
        for child in (2 * i + 1, 2 * i + 2):
            if child < n and _heap_less(compare, items[child], low, ctx):
                smallest, low = child, items[child]
        if smallest == i:
            break
        path.append((i, smallest))
        i = smallest
    data.swap_children(0, n)
    top = data.pop_child()
    for i, child in path:
        data.swap_children(i, child)
    return top
