"""A rewrite round that follows a one-hit round resumes where that hit
changed the tree, and a round walks the frame once per root key: the
engine against the full-round loop it replaced, with the generic matcher
and ``substitute`` (``rewrite_reference.py``), pinned cases for each
reason a round must run in full, and the work ``div`` does as its
quotient doubles."""

import sys
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewrite_reference as reference
from evocat import CollectingOutput, EvalContext, TraceSink, load_stdlib, parse, render, run_entry
from evocat import engine, evaluator
from evocat.engine import formulas_from, run_rewrite
from evocat.errors import EvoError, FuelExhausted
from evocat.evaluator import DEFAULT_FUEL
from evocat.tree import REF, SET, VAR, Node, node_equal, rebuild

from helpers import SCAN_LABELS, SCAN_OPS, filled, leaf, make_set, patterns, preorder, setn, shapes
from helpers import transitions

FUEL = 80
LARGEST = 300  # nodes in one replacement or, a tenth of that, in one binding


def bounded(substitute):
    """``substitute``, which also ends the run when a binding or the
    replacement is too large: a rule that copies a variable twice doubles
    a term per firing, far faster than fuel runs out.  The template is a
    compiled one or a ``Node``, as the loop that calls it passes."""

    def wrapper(template, binding):
        bound = [*binding.vars.values(), *(f.body for f in binding.funcs.values())]
        if sum(1 for node in bound for _ in preorder(node)) > LARGEST // 10:
            raise FuelExhausted("binding too large")
        replacement = substitute(template, binding)
        if sum(1 for _ in preorder(replacement)) > LARGEST:
            raise FuelExhausted("replacement too large")
        return replacement

    return wrapper


def listing(frame):
    """Every node of ``frame`` in preorder, with what ``render`` would write
    of it; unlike ``render``, it takes trees deeper than 200 sets."""
    return [
        (n.kind, n.value, n.op, [label for label, _ in n.children]) for n in preorder(frame)
    ]


def outcome(loop, frame):
    """Run ``loop`` on ``frame`` with a small budget: the frame's listing
    afterwards, stats, fuel left, trace lines and the error, if any.  The
    fuel spent must be the number of transitions counted."""
    trace = CollectingOutput()
    ctx = EvalContext(frame, fuel=FUEL, trace=TraceSink(trace))
    error = None
    try:
        loop(frame.child("rules"), frame, ctx)
    except EvoError as err:
        error = (type(err), str(err))
    assert FUEL - ctx.fuel == transitions(ctx.stats)
    return listing(frame), dict(ctx.stats), ctx.fuel, trace.lines, error


def both(frame):
    """The engine's outcome and the reference's, each on its own copy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "substitute", bounded(engine.substitute))
        patch.setattr(reference, "substitute", bounded(reference.substitute))
        return outcome(run_rewrite, frame.copy()), outcome(reference.run_rewrite, frame.copy())


# --- generated rules and frames -----------------------------------------------------


def variables(lhs):
    """The variable names in ``lhs``, and whether it applies ``$h``."""
    names, has_h, work = set(), False, [lhs]
    while work:
        node = work.pop()
        if node.kind == VAR:
            names.add(node.value)
        has_h = has_h or node.op == "$h"
        work.extend(child for _, child in node.children)
    return sorted(names), has_h


@st.composite
def right_sides(draw, names, has_h, pieces, depth=3):
    """Values, parts of subjects, built-in terms, f/g terms, and ``$h``
    applications."""
    roll = draw(st.integers(0, 11))
    if depth == 0 or roll < 3:
        if names and draw(st.booleans()):
            return Node.var_node(draw(st.sampled_from(names)))
        return leaf(draw(st.integers(0, 3)))
    part = right_sides(names, has_h, pieces, depth - 1)
    if roll == 3:
        return setn(draw(part), draw(part), op="sum")
    if roll == 4:
        return setn(draw(part), draw(part), op="lt")
    if roll == 5:
        return setn(draw(part), draw(part), draw(part), op="if")
    if roll == 6 and has_h:
        return setn(draw(part), op="$h")
    if roll < 9 and pieces:
        return draw(st.sampled_from(pieces)).copy()
    return make_set(draw(SCAN_OPS), draw(st.lists(st.tuples(SCAN_LABELS, part), max_size=2)))


@st.composite
def planted(draw, rules):
    """A subject of one left side with a subject of another in a spot where
    the other's right side fits, when there is one: rewriting the second
    then lets the first match an ancestor."""
    # the first is tried no later than the second, so only the resumed
    # scan of the round after the second fires can find the ancestor
    first, second = sorted(draw(st.lists(st.integers(0, len(rules) - 1), min_size=2, max_size=2)))
    (host, _), (guest, rhs) = rules[first], rules[second]
    host = filled(host)
    spots = [n for n in preorder(host) if node_equal(n, rhs)] or list(preorder(host))
    spot = draw(st.sampled_from(spots))
    return rebuild(host, lambda n: filled(guest) if n is spot else None)


def height(node):
    """How far below ``node`` its deepest node is."""
    return max((1 + height(child) for _, child in node.children), default=0)


def repeated(lhs):
    """The variables that ``lhs`` binds more than once, outside ``$h``
    applications: those its matches compare."""
    seen, twice, work = set(), set(), [lhs]
    while work:
        node = work.pop()
        if node.kind == VAR:
            (twice if node.value in seen else seen).add(node.value)
        elif node.op != "$h":
            work.extend(child for _, child in node.children)
    return sorted(twice)


@st.composite
def nested(draw, rules):
    """A subject of a left side whose variables hold subjects of it too:
    the outermost is a hit, and the ones inside it must not be."""
    lhs = draw(st.sampled_from(rules))[0]
    return rebuild(lhs, lambda n: leaf(1) if n.op == "$h" else filled(lhs) if n.kind == VAR else None)


@st.composite
def sharing(draw, lhs):
    """A left side with the root key of ``lhs``, a set, and other children."""
    return make_set(lhs.op, [(label, draw(patterns(1))) for label, _ in lhs.children])


@st.composite
def operand(draw, rules):
    """A subject as the operand of a built-in: rewritten to a value, it
    makes the built-in ready."""
    operands = [filled(draw(st.sampled_from(rules))[0]), leaf(draw(st.integers(0, 2)))]
    return setn(*draw(st.permutations(operands)), op=draw(st.sampled_from(["sum", "lt"])))


@st.composite
def data(draw, rules, depth=3):
    """Subjects that the left sides match, inside built-in terms, some of
    which the sweep does not go into: an ``if`` branch or a ``select``
    predicate."""
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 4:
        if draw(st.booleans()):
            return draw(planted(rules))
        lhs = draw(st.sampled_from(rules))[0]
        shape = draw(st.one_of(shapes(2), shapes(2).map(without_references)))
        return rebuild(shape, lambda n: filled(lhs) if n.kind == VAR else None)
    part = data(rules, depth - 1)
    other = st.one_of(*[st.integers(0, 2).map(leaf)] * 2, part)
    if roll == 4:
        cond = draw(st.one_of(st.integers(0, 1).map(leaf), st.just(setn(op="g")), part))
        return setn(cond, draw(part), draw(other), op="if")
    if roll == 5:
        return setn(draw(part), draw(other), op=draw(st.sampled_from(["sum", "lt"])))
    if roll == 6:
        return setn(draw(part), draw(other), op="select")
    return make_set(draw(SCAN_OPS), draw(st.lists(st.tuples(SCAN_LABELS, part), max_size=3)))


def checked(lhs):
    """Whether ``lhs`` passes the rule check: each ``$h`` argument is bound."""
    try:
        formulas_from(Node.set_node([(None, Node.set_node([("lhs", lhs), ("rhs", leaf(0))]))]))
    except EvoError:
        return False
    return True


def without_references(pattern):
    return rebuild(pattern, lambda n: leaf(2) if n.kind == REF else None)


@st.composite
def frames(draw):
    # mostly without references: a sweep that forces one is followed by a
    # full round, and most of them do not resolve
    simple = patterns().map(without_references)
    lhs = st.one_of(patterns(), *[simple] * 3, simple.map(lambda p: setn(p, p.copy(), op="f"))).filter(checked)
    lhss = draw(st.lists(lhs, min_size=1, max_size=3))
    # formulas that share a root key share the round's walk
    keyed = [lhs for lhs in lhss if lhs.kind == SET and lhs.op != "$h"]
    if keyed and draw(st.booleans()):
        twin = draw(sharing(draw(st.sampled_from(keyed))).filter(checked))
        lhss.insert(draw(st.integers(0, len(lhss))), twin)
    # parts of subjects that are terms: a right side that is one may make
    # its ancestor a subject again, and it is not yet a value
    pieces = [node for lhs in lhss for node in preorder(filled(lhs)) if node.op is not None]
    rules = []
    for lhs in lhss:
        rhs = st.one_of(right_sides(*variables(lhs), pieces), st.integers(0, 2).map(leaf))
        if pieces:
            rhs = st.one_of(rhs, st.sampled_from(pieces).map(Node.copy))
        rules.append((lhs, draw(rhs)))
    item = st.one_of(planted(rules), data(rules), operand(rules), nested(rules))
    return framed(rules, draw(st.lists(st.tuples(SCAN_LABELS, item), min_size=1, max_size=3)))


@st.composite
def spanning(draw):
    """A frame whose first formula compares copies of a variable and whose
    second builds a term that stays one.  Its data is a subject of the first
    whose copies are equal but for one, which holds a subject of the second
    where the others hold what the second builds from it, farther below the
    subject than the first pattern is deep.  Once the second fires, the
    first matches at an ancestor of the hit that a depth bound would not
    reach."""
    double = patterns().map(without_references).map(lambda p: setn(p, p.copy(), op="f"))
    host = draw(double.filter(lambda p: repeated(p) and checked(p)))
    guest = draw(patterns().map(without_references).filter(checked))
    rhs = setn(draw(right_sides(*variables(guest), [])), op="g")
    subject = filled(guest)
    built = reference.substitute(rhs, reference.match(guest, subject))
    name, odd, copies = draw(st.sampled_from(repeated(host))), draw(st.integers(0, 1)), count()

    def fill(n):
        if n.op == "$h" or (n.kind == VAR and n.value != name):
            return leaf(1)
        if n.kind != VAR:
            return None
        inner = subject.copy() if next(copies) == odd else built.copy()
        for _ in range(height(host)):
            inner = setn(inner, op="g")
        return inner

    rules = [(host, draw(right_sides(*variables(host), []))), (guest, rhs)]
    return framed(rules, [(draw(SCAN_LABELS), rebuild(host, fill))])


@st.composite
def unreached(draw):
    """A frame whose one subject sits where the sweep does not go: in the
    branch an ``if`` does not take, below an ``if`` whose condition is not
    yet a boolean, or in a ``select`` predicate.  A term the sweep leaves,
    ``: k { }``, keeps the ``if`` or ``select`` from firing.  The formula
    builds a ready built-in there, which a round that resumed at the hit
    would reduce and the full round leaves."""
    keyed = patterns().map(without_references).filter(lambda p: p.kind == SET and p.op != "$h")
    lhs = draw(keyed.filter(checked))
    operands = [leaf(draw(st.integers(0, 2))) for _ in range(2)]
    ready = setn(*operands, op=draw(st.sampled_from(["sum", "lt"])))
    subject, stuck, cond = filled(lhs), setn(op="k"), draw(st.integers(0, 1))
    spot = draw(st.sampled_from([
        setn(leaf(cond), *((stuck, subject) if cond else (subject, stuck)), op="if"),
        setn(stuck, subject, leaf(0), op="if"),
        setn(stuck, subject, op="select"),
    ]))
    if draw(st.booleans()):
        spot = make_set(draw(SCAN_OPS), [(draw(SCAN_LABELS), spot)])
    return framed([(lhs, draw(st.sampled_from([ready, setn(ready, op="g")])))], [(draw(SCAN_LABELS), spot)])


def framed(rules, items):
    """A rewrite frame: the ``(lhs, rhs)`` pairs as its rules, then ``items``."""
    formulas = [(None, Node.set_node([("lhs", lhs), ("rhs", rhs)])) for lhs, rhs in rules]
    return make_set(None, [("rules", Node.set_node(formulas)), *items])


@given(frame=st.one_of(frames(), spanning(), unreached()))
@settings(max_examples=300, deadline=None)
def test_engine_equals_the_full_round_loop(frame):
    got, want = both(frame)
    assert got == want


# --- pinned cases -------------------------------------------------------------------


def rewritten(text):
    """Check the engine against the reference on the frame ``text``; then
    the engine's frame as text afterwards, its stats and its trace."""
    frame = parse(text)
    got, want = both(frame)
    assert got == want and got[-1] is None
    trace = CollectingOutput()
    ctx = EvalContext(frame, trace=TraceSink(trace))
    run_rewrite(frame.child("rules"), frame, ctx)
    return render(frame), dict(ctx.stats), trace.lines


def test_a_hit_can_make_an_ancestor_match_an_earlier_formula():
    text, stats, lines = rewritten(
        """rules {
          #0 { lhs : f { #0 : g { } } rhs = 7 }
          #1 { lhs : h { } rhs : g { } }
        }
        #1 : f { #0 : h { } }"""
    )
    assert text.endswith("}\n#1 = 7\n")
    assert lines == ["0 rew 2 #1.#0", "1 rew 1 #1"]
    assert stats == {"firing": 2}


def test_a_hit_at_rules_can_make_its_parent_a_function_instance():
    # after the write d is an instance: neither the sweep nor the scan
    # goes into it, so k { } at d.rules is never rewritten
    text, _, lines = rewritten(
        """rules {
          #0 { lhs : k { } rhs = 1 }
          #1 { lhs = 0 rhs : k { } }
        }
        d { args { } mode = 1 result = 5 rules = 0 }"""
    )
    assert lines == ["0 rew 2 d.rules"]
    assert "rules : k {" in text.split("d {", 1)[1]


@pytest.mark.parametrize(
    "term",
    [
        ": if { #0 : g { } #1 : f { } #2 = 0 }",  # condition not yet a boolean
        ": if { #0 = 1 #1 : g { } #2 : f { } }",  # the branch not taken
        ": select { #0 : g { } #1 : f { } }",  # a select predicate
    ],
)
def test_a_hit_the_sweep_does_not_reach_stays_unevaluated(term):
    text, stats, _ = rewritten("rules { #0 { lhs : f { } rhs : sum { #0 = 1 #1 = 2 } } }\nt " + term)
    assert ": sum {" in text
    assert stats == {"firing": 1}


def test_a_reference_in_the_hit_may_force_a_node_outside_it():
    # [a.#1] evaluates a.#1 in place to 3, which formula #0 then matches
    _, stats, lines = rewritten(
        """rules {
          #0 { lhs = 3 rhs = 9 }
          #1 { lhs : f { } rhs : k { #0 = [a.#1] } }
        }
        a : if { #0 : g { } #1 : sum { #0 = 1 #1 = 2 } #2 = 0 }
        b : f { }"""
    )
    assert lines == ["0 rew 2 b", "1 rew 1 a.#1", "2 rew 1 b.#0"]
    assert stats == {"firing": 3, "deref": 1, "op": 1}


def test_a_sweep_that_forced_a_call_is_followed_by_a_full_round():
    # forcing [x] calls x, which becomes its unevaluated result; only the
    # next full sweep evaluates that term, in x and in y
    text, stats, _ = rewritten(
        """rules { #0 { lhs : h { } rhs : k { } } }
        x { args { } mode = 0 result : sum { #0 = 1 #1 = 2 } body { } }
        y : f { #0 = [x] }
        z : h { }"""
    )
    assert "x = 3\ny : f {\n  #0 = 3\n}\n" in text
    assert stats == {"call": 1, "deref": 1, "firing": 1, "op": 2}


# --- work done by div ---------------------------------------------------------------


def test_div_work_grows_linearly_with_the_quotient(monkeypatch):
    counts = {"evaluate": 0, "walk": 0, "ancestors": 0, "resumed": 0}  # sweep counts as evaluate
    evaluate, sweep = evaluator.evaluate, evaluator.sweep
    walk, highest, scan = engine._candidates, engine._highest, engine._scan

    def evaluate_spy(node, ctx):
        counts["evaluate"] += 1
        return evaluate(node, ctx)

    def sweep_spy(node, ctx):
        counts["evaluate"] += 1
        return sweep(node, ctx)

    def walk_spy(*args):
        counts["walk"] += 1
        return walk(*args)

    def highest_spy(pattern, chain):
        first = highest(pattern, chain)
        counts["ancestors"] += len(chain) - 1 - first  # the ancestors a resumed round tries
        return first

    def scan_spy(formulas, first, stop, roots, hits, chain=None, segs=None):
        counts["resumed"] += chain is not None
        return scan(formulas, first, stop, roots, hits, chain, segs)

    monkeypatch.setattr(evaluator, "evaluate", evaluate_spy)
    monkeypatch.setattr(evaluator, "sweep", sweep_spy)
    monkeypatch.setattr(engine, "sweep", sweep_spy)
    monkeypatch.setattr(engine, "_candidates", walk_spy)
    monkeypatch.setattr(engine, "_highest", highest_spy)
    monkeypatch.setattr(engine, "_scan", scan_spy)
    got = {}
    limit = sys.getrecursionlimit()
    for q in (40, 80, 160):
        counts.update(evaluate=0, walk=0, ancestors=0, resumed=0)
        lib = load_stdlib()
        ctx = EvalContext(lib)
        sys.setrecursionlimit(10_000)  # the last sweep still recurses down the spine
        try:
            assert run_entry(lib, "div", {"a": leaf(7 * q + 3), "b": leaf(7)}, ctx).value == q
        finally:
            sys.setrecursionlimit(limit)
        assert ctx.stats == {"call": 1, "deref": 2, "firing": q + 1, "op": 4 * q + 2}
        assert DEFAULT_FUEL - ctx.fuel == 5 * q + 6
        # div's pattern has depth 1: a resumed round tries the hit's parent
        # alone.  All rounds resume but the first two and the last, in which
        # the hit became a value.
        assert counts["resumed"] == counts["ancestors"] == q - 1
        got[q] = (counts["evaluate"], counts["walk"])
    # the full-round loop: (1845, 1682), (6885, 6562), (26565, 25922); the
    # ancestors tried before the depth bound: 1560, 6320, 25440
    assert got == {40: (285, 122), 80: (565, 242), 160: (1125, 482)}
    for small, large in ((40, 80), (80, 160)):
        assert all(b <= 2.2 * a for a, b in zip(got[small], got[large]))
