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

Compiled code: frozen code is compiled once, by one generator, ``_Source``,
into Python functions, the matcher, builder or evaluator partially
evaluated against it; the compiled list is cached on the frozen node, so
copies of a template share it.  ``formulas_from`` makes each formula's lhs
a ``Pattern`` and its rhs a ``Template``, which ``match`` and
``substitute`` call, and ``instructions_from`` makes each instruction's
``to`` term a function of the context (``compiled_term``).  Compiling a
formula is the rule check: it raises, in preorder, every error matching or
substituting could, so none comes after a rule loads.  A template also
knows which bound values it uses, so a replacement's closedness is known
without walking it.  The match scan is indexed by the pattern's root
symbol, its key (root-symbol discrimination, as in McCune's term
indexing): a round walks the frame once per key it needs, and ``match``
runs only on the nodes whose root agrees.

A round that follows a one-hit round works only where that hit changed
the tree, at a cost bounded by what changed (``run_rewrite`` says how, and
why that is exact).  So ``div``, which fires once per round at the bottom
of a growing ``if``/``sum`` spine, neither re-walks nor re-reads it.

A sequential run holds its instruction list in its ``Frame`` on
``EvalContext.running``, and a write that un-shares the running code
re-points the ``Frame`` to the writable twin and recompiles at once
(``EvalContext.unshared``); the twin is not frozen, so each of its terms is
evaluated in a copy as a whole, and a self-modifying program sees its writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

from . import algebra, evaluator
from .devices import OUT
from .errors import EvalError, EvoError, UnboundVariable
from .evaluator import SHAPE_LABELS, EvalContext, Frame, frame_of, is_value, sweep, sweep_enters
from .tree import HOLE, LEAF, REF, SET, VAR, Node, Path, new_atom, new_set, node_equal, pairs, rebuild
from .tree import replace_subtree

#: frame children the rewrite engine must not scan or rewrite
RESERVED_FRAME_LABELS = SHAPE_LABELS - {"result"} | {"ip"}

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
    """A sequential instruction: its address, and its ``to`` term compiled
    by ``compiled_term`` into ``run(ctx)``, which returns the term's value."""

    at: Path
    run: Callable[[EvalContext], Node]


# --- compiled code -------------------------------------------------------------


@lru_cache(maxsize=256)
def _code(source: str):
    """``source`` compiled: code of one shape shares it."""
    return compile(source, "<frozen code>", "exec")


class _Source:
    """The lines of a generated function ``run`` and the constants it reads
    as ``k0, k1, …``: no label, op, value, path or name is spliced into its
    text.  Its nodes are ``n0, n1, …``, each named when its parent is met.
    ``Pattern``, ``Template.of`` and ``compiled_term`` each fill one."""

    def __init__(self):
        self.lines, self.consts, self.names = [], [], 1

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def fresh(self, count: int) -> list[str]:
        self.names += count
        return [f"n{i}" for i in range(self.names - count, self.names)]

    def function(self, param: str, lines: list[str]):
        """``run(param)`` made of ``lines``.  The constants are defaults of its other parameters;
        its globals are this module's, read as it runs, so a spy or a tracer sees its calls."""
        ks = "".join(f", k{i}" for i in range(len(self.consts)))
        exec(_code(f"def run({param}{ks}):\n " + "\n ".join(lines)), globals(), space := {})
        space["run"].__defaults__ = tuple(self.consts)
        return space["run"]


class Pattern:
    """An lhs as ``run(subject)``, the ``Binding`` or None: a guard per
    check, in preorder.  A set's guard checks kind, arity, op and labels,
    and its node list is unpacked into its children; a variable binds where
    it first occurs and is compared after that; ``_abstract`` does ``$f``.
    ``vars`` and ``funcs`` are the names bound; ``key`` is what a subject's
    root must agree with: (kind, op, arity), where only a set has an op or
    children; None when the root is a variable or a ``$f``, which check
    nothing, so any subject may match.  ``depth`` is how far below its
    subject a match reads: that of its deepest check, or None when a
    repeated variable or a ``$f`` compares or abstracts whole subtrees."""

    __slots__ = ("run", "key", "vars", "funcs", "depth")

    def __init__(self, lhs: Node):
        src, bound, applied, depth, same = _Source(), {}, [], 0, False
        k, lines, work = src.const, src.lines, [(lhs, "n0", 0)]
        while work:
            p, n, below = work.pop()
            depth = max(depth, below)
            if p.kind == VAR:
                if p.value in bound:
                    lines.append(f"if not node_equal({bound[p.value]}, {n}): return None")
                    same = True
                else:
                    bound[p.value] = n
            elif p.kind in (LEAF, REF):
                lines.append(f"if {n}.kind != {k(p.kind)} or {n}.value != {k(p.value)}: return None")
            elif p.kind == HOLE:
                raise EvalError("hole nodes cannot appear in patterns")
            elif p.op is not None and p.op.startswith("$"):  # not looked into
                if len(p.nodes) != 1 or p.nodes[0].kind != VAR:
                    raise EvalError(f"function variable {p.op} must be applied to exactly one variable")
                applied.append((p.op[1:], p.nodes[0].value, n))
            else:
                arity, labels = f"len({n}.nodes) != {len(p.nodes)}", k(p.labels and p.labels[:])
                guard = f"{n}.kind != SET or {arity} or {n}.op != {k(p.op)} or {n}.labels != {labels}"
                kids = src.fresh(len(p.nodes))
                lines.extend([f"if {guard}: return None", f"[{', '.join(kids)}] = {n}.nodes"])
                work += reversed([(c, kid, below + 1) for c, kid in zip(p.nodes, kids)])
        for fname, argname, _ in applied:
            if argname not in bound:
                never = f"applied to ${argname}, which the pattern never binds"
                raise EvalError(f"function variable ${fname} {never}")
        self.key = (lhs.kind, lhs.op, len(lhs.nodes)) if lines else None
        lines.append(f"b = Binding({{{', '.join(f'{k(name)}: {n}' for name, n in bound.items())}}})")
        if applied:
            deferred = ", ".join(f"({k(fname)}, {bound[argname]}, {n})" for fname, argname, n in applied)
            lines.append(f"if not _abstract([{deferred}], b): return None")
        self.run = src.function("n0", [*lines, "return b"])
        self.vars, self.funcs = set(bound), {fname for fname, _, _ in applied}
        self.depth = None if same or applied else depth


class Template:
    """An rhs as ``run(binding)``, which builds it: one assignment per
    node, children first, of a skeleton node over its children, a copy of
    a bound value, or ``$f``'s body plugged with what the template of its
    argument builds.  ``closed``: the skeleton has no reference and no
    ``select``; ``copies`` and ``plugs`` are the variables and ``(name,
    argument template)`` pairs used."""

    __slots__ = ("run", "copies", "plugs", "closed")

    def __init__(self):
        self.copies, self.plugs, self.closed = set(), [], True

    @classmethod
    def of(cls, rhs: Node, bound, funcs) -> "Template":
        """Compile ``rhs`` with its names among ``bound`` and ``funcs``.  The
        walk is preorder, as errors must be; each function is its reverse."""
        sources = {(top := cls()): _Source()}
        work = [(rhs, top, "n0")]
        while work:
            node, into, n = work.pop()
            src = sources[into]
            k = src.const
            if node.kind == VAR:
                if node.value not in bound:
                    raise UnboundVariable(f"${node.value} is not bound")
                into.copies.add(node.value)
                src.lines.append(f"{n} = b.vars[{k(node.value)}].copy()")
            elif node.kind == HOLE:
                raise EvalError("hole nodes cannot appear in templates")
            elif node.op is not None and node.op.startswith("$"):
                name = node.op[1:]
                if name not in funcs:
                    raise UnboundVariable(f"${name} is not bound")
                if len(node.nodes) != 1:
                    raise EvalError(f"function variable ${name} must be applied to exactly one argument")
                sources[argument := cls()] = _Source()
                into.plugs.append((name, argument))
                src.lines.append(f"{n} = b.funcs[{k(name)}].plug(substitute({k(argument)}, b))")
                work.append((node.nodes[0], argument, "n0"))
            else:
                into.closed = into.closed and node.kind != REF and node.op != "select"
                if node.kind == SET:
                    kids = src.fresh(len(node.nodes))
                    labels = "None" if node.labels is None else f"{k(node.labels[:])}[:]"
                    src.lines.append(f"{n} = new_set([{', '.join(kids)}], {labels}, {k(node.op)})")
                    work += reversed([(c, into, kid) for c, kid in zip(node.nodes, kids)])
                else:
                    src.lines.append(f"{n} = new_atom({k(node.kind)}, {k(node.value)})")
        for template, src in sources.items():
            template.run = src.function("b", [*reversed(src.lines), "return n0"])
        return top


def compiled_term(to: Node) -> Callable[[EvalContext], Node]:
    """A sequential instruction's ``to`` as ``run(ctx)``, its value: what
    ``evaluate`` leaves in a fresh copy of it, with the same effects, fuel,
    ``stats`` and errors in the same order.  Frozen code gets one
    assignment per node, operands first, left to right: a leaf is a new
    leaf, a reference is ``deref``'s copy, an eager built-in fires on its
    operands' values, and any other subterm is evaluated in a copy.  An
    unfrozen ``to`` is one such copy, so a write into it shows at its next
    run; if it is a leaf then, it is not evaluated.  As in ``Template.of``,
    the walk is preorder and the function its reverse, but operands are
    pushed left to right, so that the rightmost is met first.  ``deref``,
    ``evaluate`` and ``apply_builtin`` are read off their modules as it
    runs, so a spy or a tracer sees every call."""
    src = _Source()
    k, blocks, work = src.const, [], [(to, "n0")]
    while work:
        node, n = work.pop()
        kind, eager = node.kind, node.kind == SET and node.op in algebra._EAGER_OPS
        if to.frozen is None or not (eager or kind == LEAF or kind == REF):
            blocks.append([f"{n} = {k(node)}.copy()", f"if {n}.kind != LEAF: evaluator.evaluate({n}, ctx)"])
        elif kind == LEAF:
            blocks.append([f"{n} = new_atom(LEAF, {k(node.value)})"])
        elif kind == REF:
            blocks.append([f"{n} = evaluator.deref({k(node.value)}, ctx)", 'ctx.transition("deref")'])
        else:
            kids = src.fresh(len(node.nodes))
            apply = f"{n} = algebra.apply_builtin({k(node.op)}, [{', '.join(kids)}])"
            blocks.append([apply, 'ctx.transition("op")'])
            work += zip(node.nodes, kids)
    return src.function("ctx", [*(line for block in reversed(blocks) for line in block), "return n0"])


@dataclass
class Formula:
    lhs: Node
    rhs: Node
    index: int  # 0-based position in the rule list
    key: Optional[tuple[str, Optional[str], int]]  # the pattern's key
    pattern: Pattern
    template: Template


def match(pattern: Union[Pattern, Node], subject: Node) -> Optional[Binding]:
    """Match ``subject`` against ``pattern``; None when they disagree.  A
    bare ``Node`` is compiled first, so a malformed one always raises."""
    return (pattern if isinstance(pattern, Pattern) else Pattern(pattern)).run(subject)


def _abstract(deferred: list[tuple[str, Node, Node]], binding: Binding) -> bool:
    """The ``$f`` step of ``match``: bind each ``$f`` to an abstraction of what
    it met, given its argument's value.  False when two bodies of one ``$f`` disagree."""
    for fname, argval, node in deferred:
        # subtrees equal to the argument become holes (none: a constant function)
        body = rebuild(node, lambda n: Node.hole() if node_equal(n, argval) else None)
        seen = binding.funcs.setdefault(fname, Abstraction(body)).body  # the first is kept
        if seen is not body and not node_equal(seen, body):
            return False
    return True


def substitute(template: Union[Template, Node], binding: Binding) -> Node:
    """Instantiate a template: variables become deep copies of their
    bindings, ``$f(s)`` becomes f's body with the hole replaced by s.  A
    bare ``Node`` is compiled first, against the names ``binding`` binds."""
    if not isinstance(template, Template):
        template = Template.of(template, binding.vars, binding.funcs)
    return template.run(binding)


# --- program extraction -------------------------------------------------------


def instructions_from(body: Node) -> list[Instruction]:
    """Read ``{ at = [path] to = ... }`` entries out of a body node and
    compile each ``to`` term (``compiled_term``)."""
    program: list[Instruction] = []
    for index, node in enumerate(body.nodes):
        if node.kind != SET:
            raise EvalError(f"instruction #{index} is not a set node")
        at = node.child("at")
        to = node.child("to")
        if at is None or to is None or len(node.nodes) != 2:
            raise EvalError(f"instruction #{index} must have exactly 'at' and 'to'")
        if at.kind != REF:
            raise EvalError(f"instruction #{index}: 'at' must be an address [path]")
        program.append(Instruction(at.value, compiled_term(to)))
    return program


def formulas_from(rules: Node) -> list[Formula]:
    """Read ``{ lhs ... rhs ... }`` entries out of a rules node and compile
    each one as the module docstring says.  An error keeps its class and
    its message names the formula and side."""
    formulas: list[Formula] = []
    for index, node in enumerate(rules.nodes):
        if node.kind != SET:
            raise EvalError(f"formula #{index} is not a set node")
        lhs, rhs = node.child("lhs"), node.child("rhs")
        if lhs is None or rhs is None:
            raise EvalError(f"formula #{index} must have 'lhs' and 'rhs'")
        side = "lhs"
        try:
            pattern = Pattern(lhs)
            side = "rhs"
            template = Template.of(rhs, pattern.vars, pattern.funcs)
        except EvalError as err:
            raise type(err)(f"formula #{index} {side}: {err}") from None
        formulas.append(Formula(lhs, rhs, index, pattern.key, pattern, template))
    return formulas


# --- sequential execution -----------------------------------------------------


def run_sequential(body: Node, frame: Node, ctx: Optional[EvalContext] = None, record=None) -> Node:
    """Execute an instruction list against a frame.

    The reserved child ``ip`` starts at 0; each step runs the instruction's
    compiled term (``Instruction.run``) in the frame context, applies the
    replacement at the address, and increments ``ip`` unless the
    instruction wrote it at the address ``[ip]``.  Execution halts once
    ``ip`` runs past the last instruction.  ``record``, the call's
    ``Frame`` or else a bare one, is held in ``ctx.running``.

    The ``ip`` node found by the first write is kept while ``frame.nodes``
    is the list it was found in and it is not frozen.  This is exact:
    ``tree.py`` gives a node a new node list only in ``become``, a write at
    the identity path, and changes one in place only to append, to swap or
    pop heap items, to fill a call's ``args``, and in ``unshare_path``, only
    over frozen children.  A write at ``ip``, by name or ordinal, keeps the
    node.  Otherwise ``ip`` is found anew.
    """
    if frame.kind != SET:
        raise EvalError("a sequential frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    ctx.running.append(record := record or Frame(frame, code=body))
    record.program = _program(body, instructions_from)
    try:
        index, kids = 0, frame.nodes
        ip_node = frame.set_child("ip", new_atom(LEAF, 0))
        while index < len(record.program):
            inst = record.program[index]
            if ctx.trace is not None:
                ctx.trace.emit("seq", index, inst.at)
            try:
                ctx.transition("instruction")
                _apply_write(frame, inst.at, inst.run(ctx), ctx)
                trusted, kids = frame.nodes is kids and ip_node.frozen is None, frame.nodes
                if inst.at != _IP:
                    ip = new_atom(LEAF, index + 1)
                    ip_node = ip_node.become(ip) if trusted else frame.set_child("ip", ip)
                elif not trusted:
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


def _program(code: Node, build) -> list:
    """``build(code)``, cached on frozen code."""
    cache = code.frozen
    if cache and cache[0] is None:
        cache[0] = build(code)
    return cache[0] if cache else build(code)


def _apply_write(root: Node, at: Path, value: Node, ctx: EvalContext) -> None:
    device = ctx.devices.lookup(at, OUT) if ctx.devices is not None else None
    if device is None:
        replace_subtree(root, at, value, ctx)
    else:
        device.write(value)
        ctx.stats["device_write"] += 1


# --- rewriting ------------------------------------------------------------------


def run_rewrite(rules: Node, frame: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Rewrite the frame's data children to a normal form under the rules.

    Loop: (1) ``sweep`` fires every ready sub-term (built-ins with fully
    evaluated operands, references); (2) take the first formula with
    matches, collected preorder and outermost first, skipping descendants
    of matched nodes; (3) replace them all with instantiated right sides.
    Stops when, after a ready sweep, no formula matches.  The formulas are
    read once: a run reads a ``Formula`` only through ``pattern``,
    ``template``, ``key`` and ``index``, values that no write changes.

    A round walks the frame once per key (``_scan``); each formula with
    that key matches the nodes kept, in preorder, skipping those below its
    own last hit.  No write comes between the walk and the formulas, and a
    node's descendants follow it, so each gets the hits of a walk of its own.

    A round that follows a one-hit round, one that replaced a single node
    ``h``, works only where that hit changed the tree: its sweep is
    ``sweep(h)``, and its scan of the formulas up to the one that fired
    looks at ``h``'s ancestors, top-down, and then below ``h``.  Later
    formulas scan the whole frame.  It does so when the one-hit
    round's sweep forced no reference, ``h`` is not a leaf, holds no
    reference and no ``select``, sits where the sweep goes, and was not
    written at a label that ``frame_of`` reads; and when, after
    ``sweep(h)``, ``h`` is still not a value.  Otherwise the round runs
    in full.  Why that is exact:

    - After a sweep the frame is in sweep-normal form: a second sweep fires
      nothing and spends no fuel.  A sweep that forced a reference may
      have called a function instance, which becomes its result, a term
      the sweep may have passed; so only a sweep that forced none counts.
    - Every formula up to the one that fired has no match outside ``h``
      and its ancestors: the earlier ones matched nowhere, and that one
      only at ``h``.
    - The firing changed only ``h``.  The full sweep would reach ``h``
      (``sweep_enters`` on each ancestor) and find the rest of the frame
      already swept; sweeping an ``h`` with no reference and no
      ``select`` reads and writes nothing outside ``h``.  That is read off
      the formula (``_builds_closed``), as a replacement is made only of
      its skeleton, bound values' copies, and bodies plugged with arguments.
    - A non-value cannot make an ancestor ready, since firing needs the
      operands to be values; an ``h`` that became a value leaves that to
      the full sweep, which finds ``h`` itself already swept.  Nor can
      ``h`` change whether an ancestor is a function instance.
    - So only ``h``'s subtree and its ancestors' own matches can change,
      and effects happen in the same order: the trace, ``stats``, fuel
      and the partial state after an error are those of the full round.
    - Nor can an ancestor farther above ``h`` than a pattern's ``depth``
      start a match: there the pattern reads only what it read before the
      firing, when it did not match.  A pattern that compares or abstracts
      whole subtrees has no ``depth`` and tries every ancestor.

    The nodes and segments down to ``h`` are one list each, cut and
    extended in place; a hit's ``Path`` is built only for the trace.
    """
    if frame.kind != SET:
        raise EvalError("a rewrite frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    formulas = _program(rules, formulas_from)
    chain: list[Node] = []  # the nodes down to the last one-hit round's hit
    segs: list = []  # and the segments of its path
    resume = 0  # how many formulas that round scanned, when this one may resume
    while True:
        derefs = ctx.stats["deref"]
        hits: list[tuple[Node, Optional[tuple], Binding]] = []
        if resume:
            sweep(h := chain[-1], ctx)
            if h.kind == LEAF or (h.op is None and is_value(h)):
                resume = 0
        if resume:
            scanned = _scan(formulas, 0, resume, [(h, None)], hits, chain, segs)
        else:
            scanned = 0
            for label, child in pairs(frame):
                if child.kind != LEAF and label not in RESERVED_FRAME_LABELS:
                    sweep(child, ctx)
        if not hits:
            del chain[:], segs[:]
            roots = [
                (c, (None, i if lab is None else lab, c))
                for i, (lab, c) in enumerate(pairs(frame))
                if lab not in RESERVED_FRAME_LABELS
            ]
            scanned = _scan(formulas, scanned, len(formulas), roots, hits)
            if not hits:
                break
        fired = formulas[scanned - 1]
        for node, cell, binding in hits:
            replacement = substitute(fired.template, binding)
            if ctx.trace is not None:
                ctx.trace.emit("rew", fired.index + 1, Path([*segs, *(seg for seg, _ in _below(cell))]))
            ctx.transition("firing")
            node.become(replacement)
        one = len(hits) == 1 and ctx.stats["deref"] == derefs
        resume = scanned if one and _descend(chain, segs, hits[0], fired.template) else 0
    return frame


def _scan(formulas: list, first: int, stop: int, roots: list, hits: list, chain=None, segs=None) -> int:
    """Try ``formulas[first:stop]`` until one has hits; how many are tried.
    Given ``chain``, in a resumed round, each first tries the ancestors on
    it from ``_highest`` down, and cuts ``chain`` and ``segs`` at a hit
    there.  Then it tries what ``_candidates`` keeps for its key below each
    ``(node, cell)`` of ``roots``: one walk per key."""
    walks: dict = {}
    for count in range(first, stop):
        pattern, key = formulas[count].pattern, formulas[count].key
        if chain is not None and (key is None or key[0] == SET):  # every ancestor is a set
            for at in range(_highest(pattern, chain), len(chain) - 1):
                ancestor = chain[at]
                agrees = key is None or (ancestor.kind, ancestor.op, len(ancestor.nodes)) == key
                if agrees and (binding := match(pattern, ancestor)) is not None:
                    hits.append((ancestor, None, binding))
                    del chain[at + 1 :], segs[at + 1 :]
                    return count + 1
        candidates = walks.get(key)
        if candidates is None:
            candidates = walks[key] = []
            for node, cell in roots:
                _candidates(key, node, cell, candidates)
        at, size = 0, len(candidates)
        while at < size:
            node, cell, end = candidates[at]
            binding = match(pattern, node)
            if binding is None:
                at += 1
            else:  # the next candidate not below this hit
                hits.append((node, cell, binding))
                at = end
        if hits:
            return count + 1
    return stop


def _highest(pattern: Pattern, chain: list[Node]) -> int:
    """Where on ``chain`` the highest ancestor is at which a match of
    ``pattern`` may read the last node (``run_rewrite`` says why)."""
    return 0 if pattern.depth is None else max(len(chain) - 1 - pattern.depth, 0)


def _descend(chain: list[Node], segs: list, hit: tuple, template: Template) -> bool:
    """Extend ``chain`` and ``segs`` in place down to a round's one hit;
    whether the next round may resume there.  The sweep must go from each
    node into the next; the nodes already on ``chain`` are checked."""
    node, cell, binding = hit
    last = segs[-1] if cell is None else cell[1]
    if last in SHAPE_LABELS or node.kind == LEAF or not _builds_closed(template, binding):
        return False
    start = max(len(chain) - 1, 0)
    for seg, child in _below(cell):
        segs.append(seg)
        chain.append(child)
    return all(map(sweep_enters, chain[start:-1], chain[start + 1 :]))


def _builds_closed(template: Template, binding: Binding) -> bool:
    """``_closed`` of what ``template`` builds from ``binding``: of its
    skeleton, each value it copies and each body it plugs, where a hole is
    open when the argument plugged into it is."""
    if not template.closed or not all(_closed(binding.vars[name]) for name in template.copies):
        return False
    plugs = template.plugs
    return all(_closed(binding.funcs[f].body, _builds_closed(arg, binding)) for f, arg in plugs)


def _closed(node: Node, holes: bool = True) -> bool:
    """No reference and no ``select`` below ``node``, nor a hole unless
    ``holes``: the sweep of it reads and writes no node outside it."""
    work = [node]
    while work:
        node = work.pop()
        if node.kind == REF or node.op == "select" or (node.kind == HOLE and not holes):
            return False
        work.extend(node.nodes)
    return True


def _candidates(key: Optional[tuple], node: Node, cell: Optional[tuple], out: list) -> None:
    """Append ``(n, cell, end)`` for each node ``n`` at or below ``node``
    whose root agrees with ``key``, in preorder: ``end`` is where ``n``'s
    descendants end in ``out``, a cell ``(outer cell, segment, node)`` is one
    step down from where the walk started (None).  The walk stops below a
    function instance, and visits a non-set child only when it may agree."""
    agrees = key is None or (node.kind, node.op, len(node.nodes)) == key
    if agrees:
        at = len(out)
        out.append(None)
    # only an op-less set can be a function instance
    if node.kind == SET and (node.op is not None or not frame_of(node)):
        labels = node.labels
        for index, child in enumerate(node.nodes):
            if child.kind == SET or key is None or child.kind == key[0]:
                seg = index if labels is None or labels[index] is None else labels[index]
                _candidates(key, child, (cell, seg, child), out)
    if agrees:
        out[at] = (node, cell, len(out))


def _below(cell: Optional[tuple]) -> list[tuple]:
    """The segments and nodes from where a walk started down to ``cell``."""
    down = []
    while cell is not None:
        cell, seg, node = cell
        down.append((seg, node))
    return down[::-1]
