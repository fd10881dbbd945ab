"""Each formula side and each frozen instruction term is a generated
Python function.  A formula is checked against the generic matcher and
``substitute`` of ``rewrite_reference.py``, and an instruction term
against ``evaluate`` of a copy of it, on code whose labels, ops, variable
names and reference segments hold quotes, backslashes, newlines, braces,
parentheses and ``#``, none of which may reach the generated source; and
the code cache, keyed by that source."""

from contextlib import contextmanager
from itertools import cycle

from hypothesis import given, settings
from hypothesis import strategies as st

import rewrite_reference as reference
from evocat import engine, evaluator, parse
from evocat.engine import Pattern, Template, compiled_term, formulas_from, match, substitute
from evocat.errors import EvoError
from evocat.evaluator import EvalContext
from evocat.tree import LEAF, REF, VAR, Path, new_atom, new_set, node_equal, rebuild

from helpers import preorder

# program text that would break or change generated source if it were
# spliced in; no generated source holds a "Q", so none can hold these
HOSTILE = ['Q"', "Q'", "Q\\", "Q\n", "Q{", "Q)", "Q#", "Q\"'\\\n{)#"]
TEXT = st.sampled_from(HOSTILE)
NAMES = ["Q\n{", 'Q")']  # two variable names, so that they repeat
OPS = st.none() | TEXT
LABELS = st.none() | TEXT
ATOMS = st.one_of(
    st.integers(0, 2).map(lambda v: new_atom(LEAF, v)),
    st.lists(TEXT | st.integers(0, 2), min_size=1, max_size=2).map(lambda segs: new_atom(REF, Path(segs))),
)


def hostile_set(op, labelled):
    """A set by ``new_set`` from ``(label, node)`` pairs, a repeated label
    dropped, labels None when none is left."""
    labels, seen = [], set()
    for label, _ in labelled:
        labels.append(None if label in seen else label)
        seen.add(label)
    return new_set([node for _, node in labelled], labels if any(labels) else None, op)


def applied(fname, name):
    return new_set([new_atom(VAR, name)], None, "$" + fname)


@st.composite
def patterns(draw, depth=3):
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        return draw(st.sampled_from(NAMES).map(lambda name: new_atom(VAR, name)) | ATOMS)
    if roll == 3:  # a $f applied to a variable bound beside it
        name = draw(st.sampled_from(NAMES))
        return hostile_set(draw(OPS), [(None, new_atom(VAR, name)), (draw(LABELS), applied(draw(TEXT), name))])
    return hostile_set(draw(OPS), draw(st.lists(st.tuples(LABELS, patterns(depth - 1)), max_size=3)))


VALUES = ATOMS | st.builds(lambda op, a, b: hostile_set(op, [(None, a), ("Q#", b)]), OPS, ATOMS, ATOMS)


@st.composite
def subjects(draw, lhs):
    """A set of subjects of ``lhs``: its variables filled from a second
    drawn assignment, and from two in turn, so that a repeated variable
    may differ; a ``$f`` application becomes a term over its argument's
    value, a constant, or that value."""
    fills = draw(st.lists(st.fixed_dictionaries({name: VALUES for name in NAMES}), min_size=2, max_size=2))
    picks = cycle(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))

    def filled(turns):
        turns = cycle(turns)

        def swap(n):
            if n.kind == VAR:
                return next(turns)[n.value].copy()
            if n.op is None or not n.op.startswith("$"):
                return None
            argument = next(turns)[n.nodes[0].value].copy()
            return [hostile_set("Q)", [(None, argument)]), new_atom(LEAF, 2), argument][next(picks)]

        return rebuild(lhs, swap)

    return new_set([filled(fills[1:]), filled(fills)], None, draw(OPS))


@st.composite
def right_sides(draw, names, funcs, depth=3):
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        if names and draw(st.booleans()):
            return new_atom(VAR, draw(st.sampled_from(names)))
        return draw(ATOMS)
    part = right_sides(names, funcs, depth - 1)
    if roll < 5 and funcs:
        return new_set([draw(part)], None, "$" + draw(st.sampled_from(funcs)))
    return hostile_set(draw(OPS), draw(st.lists(st.tuples(LABELS, part), max_size=3)))


@contextmanager
def sources():
    """The source of each function generated meanwhile, as the code cache is asked for it."""
    seen, code = [], engine._code

    def spy(source):
        seen.append(source)
        return code(source)

    engine._code = spy
    try:
        yield seen
    finally:
        engine._code = code


@given(lhs=patterns(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_generated_code_agrees_with_the_generic_code_and_holds_no_program_text(lhs, data):
    with sources() as generated:
        pattern = Pattern(lhs)
        for node in preorder(data.draw(subjects(lhs))):
            got, want = match(pattern, node), reference.match(lhs, node)
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert got.vars.keys() == want.vars.keys()
            assert all(got.vars[name] is want.vars[name] for name in want.vars)
            assert got.funcs.keys() == want.funcs.keys()
            assert all(node_equal(got.funcs[f].body, want.funcs[f].body) for f in want.funcs)
            rhs = data.draw(right_sides(sorted(want.vars), sorted(want.funcs)))
            built = substitute(Template.of(rhs, pattern.vars, pattern.funcs), got)
            assert node_equal(built, reference.substitute(rhs, want))
    assert generated
    assert not [text for source in generated for text in HOSTILE if text in source]


# --- instruction terms ------------------------------------------------------------

ARITY = {"sum": 2, "prod": 2, "monus": 2, "lt": 2, "not": 1, "rem": 2, "pair": 2}
SEGMENTS = HOSTILE[:6]


def machine():
    """A root for the references of ``terms`` to read: leaves, a set, a
    term that a read evaluates in place, and a reference; no ``SEGMENTS[5]``."""
    record = hostile_set(None, [(SEGMENTS[2], new_atom(LEAF, 1)), (SEGMENTS[3], new_atom(LEAF, 0))])
    term = new_set([new_atom(LEAF, 2), new_atom(LEAF, 1)], None, "sum")
    reference = new_atom(REF, Path([SEGMENTS[0]]))
    entries = [new_atom(LEAF, 3), record, term, reference, new_atom(LEAF, 0)]
    return hostile_set(None, list(zip(SEGMENTS, entries)))


@st.composite
def terms(draw, depth=3):
    """A ``to`` term: leaves, references, eager built-ins mostly of the
    right arity, ``if``, ``select``, and sets with no op or an unknown one."""
    roll = draw(st.integers(0, 9))
    if depth == 0 or roll < 3:
        if draw(st.booleans()):
            return new_atom(LEAF, draw(st.integers(0, 2)))
        segments = st.lists(st.sampled_from(SEGMENTS) | st.integers(0, 2), min_size=1, max_size=2)
        return new_atom(REF, Path(draw(segments)))
    part = terms(depth - 1)
    if roll < 7:
        op = draw(st.sampled_from(sorted(ARITY)))
        arity = draw(st.sampled_from([ARITY[op]] * 4 + [0, 1, 3]))
        return new_set(draw(st.lists(part, min_size=arity, max_size=arity)), None, op)
    if roll == 7:
        return new_set(draw(st.lists(part, min_size=3, max_size=4)), None, "if")
    if roll == 8:
        predicate = new_set([new_atom(VAR, "v"), draw(part)], None, draw(st.sampled_from(["lt", "max"])))
        return new_set([draw(part), predicate], None, "select")
    return hostile_set(draw(OPS), draw(st.lists(st.tuples(LABELS, part), max_size=3)))


@given(to=terms(), fuel=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_a_compiled_term_does_what_evaluate_does_to_a_copy_and_holds_no_program_text(to, fuel):
    to.freeze()

    def run(leg):
        ctx = EvalContext(machine(), fuel=fuel)
        try:
            outcome = leg(ctx)
        except EvoError as err:
            outcome = (type(err).__name__, str(err))
        return outcome, dict(ctx.stats), ctx.fuel

    with sources() as generated:
        got = run(compiled_term(to))
    want = run(lambda ctx: evaluator.evaluate(to.copy(), ctx))
    assert got[1:] == want[1:]
    if isinstance(want[0], tuple) or isinstance(got[0], tuple):
        assert got[0] == want[0]
    else:
        assert node_equal(got[0], want[0])
    assert generated
    assert not [text for source in generated for text in HOSTILE if text in source]


# --- the code cache ------------------------------------------------------------------

RULES = "#0 { lhs : f { a = $x #1 = 1 } rhs : g { #0 = $x #1 = [a.b] } } #1 { lhs : h { #0 = $x #1 = $x } rhs = 0 }"


def test_formulas_of_one_shape_share_their_code(monkeypatch):
    engine._code.cache_clear()
    compiled = []
    monkeypatch.setattr(engine, "compile", lambda *args: compiled.append(args[0]) or compile(*args), raising=False)
    formulas_from(parse(RULES))
    assert len(compiled) == 4  # two sides of two formulas
    changes = [(": f", ": k"), ("a = $x", "b = $x"), ("= 1 }", "= 2 }"), ("$x", "$y"), (": h", ": m"), ("[a.b]", "[c]")]
    for old, new in changes:
        formulas_from(parse(RULES.replace(old, new)))
    assert len(compiled) == 4


def test_formulas_of_one_shape_match_only_their_own_subjects():
    sides = [": f { a = $x #1 = 1 }", ": k { a = $x #1 = 1 }", ": f { b = $x #1 = 1 }", ": f { a = $x #1 = 2 }"]
    patterns = [Pattern(parse(f"p {side}").child("p")) for side in sides]
    subjects = [parse(f"s {side.replace('$x', '5')}").child("s") for side in sides]
    assert len({pattern.run.__code__ for pattern in patterns}) == 1
    for mine, pattern in enumerate(patterns):
        assert [match(pattern, subject) is not None for subject in subjects] == [at == mine for at in range(4)]


def test_the_code_cache_never_outgrows_its_fixed_size():
    size = engine._code.cache_info().maxsize
    assert size == 256
    for arity in range(1, size + 40):  # a shape each
        Pattern(new_set([new_atom(LEAF, 0)] * arity, None, "f"))
        assert engine._code.cache_info().currsize <= size
    assert engine._code.cache_info().currsize == size
