"""Formulas are compiled once: a flat match program, a right-side builder
and a load-time closedness fact, checked against the generic matcher and
``substitute`` kept in ``rewrite_reference.py``; and the matching and
building work the stdlib programs do, pinned."""

from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

import rewrite_reference as reference
from evocat import EvalContext, load_stdlib, parse, run_entry
from evocat import engine
from evocat.engine import Pattern, Template, _builds_closed, _closed, match, substitute
from evocat.errors import EvoError
from evocat.tree import SET, VAR, Node, node_equal, rebuild

from helpers import LEAVES, SCAN_LABELS, SCAN_OPS, leaf, make_set, node_ids, patterns, preorder
from helpers import apply_h, setn, shapes


def compiles(lhs):
    try:
        Pattern(lhs)
    except EvoError:
        return False
    return True


def without_variables(shape):
    return rebuild(shape, lambda n: leaf(2) if n.kind == VAR else None)


# bound values: leaves, references, a select, and small sets of them
NATURALS = st.integers(0, 2).map(leaf)
SELECTS = LEAVES.map(lambda v: setn(v, leaf(0), op="select"))
VALUES = st.one_of(NATURALS, LEAVES, SELECTS, shapes(2).map(without_variables))


@st.composite
def subjects(draw, lhs):
    """Subjects of ``lhs`` beside a shape whose variables are subjects of
    ``lhs``.  Each variable is filled with a value from one of two drawn
    sets, and each ``$h`` application with a term over the value of its
    argument, a constant, or that value itself.  One subject takes every
    value from the second set, one takes them from the sets in turn, so
    that a repeated variable may differ, and one is the first with its
    labels dropped."""
    fills = draw(st.lists(st.fixed_dictionaries({"X": VALUES, "Y": VALUES}), min_size=2, max_size=2))
    kinds = st.sampled_from(["term", "constant", "identity"])
    shapes_of_h = draw(st.lists(kinds, min_size=4, max_size=4))

    def filled(sources):
        picks, sources = cycle(shapes_of_h), cycle(sources)

        def swap(n):
            if n.kind == VAR:
                return next(sources)[n.value].copy()
            if n.op != "$h":
                return None
            argument = next(sources)[n.children[0][1].value].copy()
            return {"term": setn(argument, leaf(1), op="g"), "constant": leaf(2), "identity": argument}[
                next(picks)
            ]

        return rebuild(lhs, swap)

    chosen = cycle(fills)
    shape = rebuild(draw(shapes()), lambda n: filled([next(chosen)]) if n.kind == VAR else None)
    return setn(filled(fills[-1:]), filled(fills), unlabelled(filled(fills[:1])), shape)


def unlabelled(node):
    """A copy of ``node`` with every child label dropped."""
    if node.kind != SET:
        return node.copy()
    return make_set(node.op, [(None, unlabelled(child)) for _, child in node.children])


def twice(pattern):
    """A pattern in which each variable of ``pattern`` occurs twice."""
    return setn(pattern, pattern.copy(), op="f")


def second_order(pattern):
    """A pattern that binds ``$X`` and applies ``$h`` to it beside ``pattern``."""
    return setn(Node.var_node("X"), pattern, apply_h("X"), op="d")


@st.composite
def right_sides(draw, names, funcs, depth=3):
    """Templates over the bound ``names`` and ``funcs``, with a few
    references and ``select`` terms in the skeleton."""
    roll = draw(st.integers(0, 11))
    if depth == 0 or roll < 3:
        if names and draw(st.booleans()):
            return Node.var_node(draw(st.sampled_from(names)))
        return draw(st.one_of(NATURALS, NATURALS, LEAVES))
    part = right_sides(names, funcs, depth - 1)
    if roll < 6 and funcs:
        return setn(draw(part), op="$" + draw(st.sampled_from(funcs)))
    if roll == 6:
        return setn(draw(part), draw(part), op="select")
    return make_set(draw(SCAN_OPS), draw(st.lists(st.tuples(SCAN_LABELS, part), max_size=3)))


LHS = st.one_of(patterns(), patterns().map(twice), patterns().map(second_order)).filter(compiles)


@given(lhs=LHS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_formula_agrees_with_the_generic_code(lhs, data):
    pattern = Pattern(lhs)
    subject = data.draw(subjects(lhs))
    for node in preorder(subject):
        got, want = match(pattern, node), reference.match(lhs, node)
        assert (got is None) == (want is None)
        if want is None:
            continue
        assert got.vars.keys() == want.vars.keys()
        assert all(got.vars[name] is want.vars[name] for name in want.vars)
        assert got.funcs.keys() == want.funcs.keys()
        assert all(node_equal(got.funcs[f].body, want.funcs[f].body) for f in want.funcs)

        rhs = data.draw(right_sides(sorted(want.vars), sorted(want.funcs)))
        template = Template.of(rhs, pattern.vars, pattern.funcs)
        built = substitute(template, got)
        assert node_equal(built, reference.substitute(rhs, want))
        used = [rhs, *got.vars.values(), *(a.body for a in got.funcs.values())]
        assert not node_ids(built) & set().union(*map(node_ids, used))
        assert _builds_closed(template, got) == _closed(built)


def test_a_constant_function_hides_its_open_argument():
    # $f's body has no hole, so the reference in its argument is not built
    lhs = parse("p : d { #0 = $x #1 : $f { #0 = $x } }").resolve("p")
    rhs = parse("p : $f { #0 : k { #0 = [a] } }").resolve("p")
    binding = match(Pattern(lhs), setn(leaf(1), leaf(2), op="d"))
    template = Template.of(rhs, {"x"}, {"f"})
    assert not template.plugs[0][1].closed
    built = substitute(template, binding)
    assert node_equal(built, leaf(2)) and _builds_closed(template, binding)
    binding = match(Pattern(lhs), setn(leaf(1), setn(leaf(1), op="g"), op="d"))
    assert not _builds_closed(template, binding) and not _closed(substitute(template, binding))


# --- work done on the stdlib ------------------------------------------------------


def test_match_scan_and_substitute_calls_are_pinned(monkeypatch):
    counts = {}

    def counting(name):
        inner = getattr(engine, name)

        def spy(*args):
            counts[name] += 1
            return inner(*args)

        monkeypatch.setattr(engine, name, spy)

    for name in ("match", "_candidates", "substitute"):
        counting(name)
    e = parse(
        "e : prod { #0 : sum { #0 : prod { #0 : x { } #1 = 2 } #1 = 3 }"
        " #1 : sum { #0 = 1 #1 : prod { #0 = 4 #1 : x { } } } }"
    ).resolve("e")
    runs = {
        "div": {"a": leaf(200), "b": leaf(7)},
        "gcd": {"arg1": leaf(832040), "arg2": leaf(514229)},
        "deriv": {"e": e},
    }
    got = {}
    for entry, args in runs.items():
        counts.update(match=0, _candidates=0, substitute=0)
        lib = load_stdlib()
        ctx = EvalContext(lib)
        run_entry(lib, entry, args, ctx)
        got[entry] = (*counts.values(), ctx.stats["firing"])
    # substitute: one call per firing and one per $f argument built.  The
    # rule check that compiling replaced also called it when the rules
    # loaded, once per formula and $f in a right side: 30, 31 and 31 then.
    # The scan: one walk step per node visited, once per root key a round
    # needs; gcd's two formulas and deriv's four share one key.  A walk per
    # formula made 86, 59 and 307 steps.
    assert got == {"div": (29, 86, 29, 29), "gcd": (57, 30, 29, 29), "deriv": (43, 126, 23, 11)}
