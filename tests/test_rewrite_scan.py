"""The rewrite engine's match scan: pinned traces, a brute-force reference
scan, and the work the indexed scan does on the stdlib rules."""

import pytest
from hypothesis import given, settings

from evocat import CollectingOutput, EvalContext, TraceSink, load_stdlib, parse, render, run_entry
from evocat import engine
from evocat.engine import Formula, Pattern, _below, match, run_rewrite
from evocat.errors import EvoError
from evocat.evaluator import frame_of
from evocat.tree import SET, VAR, Node, Path, node_equal, rebuild

from helpers import atom_x, filled, leaf, make_instance, patterns, setn, shapes


def reference_collect(lhs, node, path, hits):
    """The scan before indexing: ``match`` on every node, preorder,
    outermost first, not descending into hits or function instances."""
    binding = match(lhs, node)
    if binding is not None:
        hits.append((node, path, binding))
        return
    if node.kind != SET or frame_of(node):
        return
    for index, (label, child) in enumerate(node.children):
        seg = label if label is not None else index
        reference_collect(lhs, child, path.child(seg), hits)


# --- golden traces -------------------------------------------------------------


def traced_entry(name, arguments):
    lib = load_stdlib()
    trace = CollectingOutput()
    result = run_entry(lib, name, arguments, EvalContext(lib, trace=TraceSink(trace)))
    return result, trace.lines


def test_div_trace():
    result, lines = traced_entry("div", {"a": leaf(23), "b": leaf(5)})
    assert result.value == 4
    assert lines == [
        "0 rew 1 result",
        "1 rew 1 result.#2.#1",
        "2 rew 1 result.#2.#1.#2.#1",
        "3 rew 1 result.#2.#1.#2.#1.#2.#1",
        "4 rew 1 result.#2.#1.#2.#1.#2.#1.#2.#1",
    ]


def test_deriv_trace():
    e = setn(setn(atom_x(), leaf(3), op="sum"), atom_x(), op="prod")
    result, lines = traced_entry("deriv", {"e": e})
    want = setn(
        setn(setn(atom_x(), leaf(3), op="sum"), leaf(1), op="prod"),
        setn(atom_x(), leaf(1), op="prod"),
        op="sum",
    )
    assert node_equal(result, want)
    assert lines == [
        "0 rew 1 result",
        "1 rew 2 result.#1.#1",
        "2 rew 3 result.#0.#1",
        "3 rew 3 result.#1.#1.#0",
        "4 rew 4 result.#1.#1.#1",
    ]


def test_unlabeled_data_and_second_formula_trace():
    # formula #0 agrees with every f at the root but never matches
    frame = parse(
        """rules {
          #0 { lhs : f { #0 = $X #1 = $X } rhs = 0 }
          #1 { lhs : f { #0 = $X #1 = $Y } rhs : g { #0 = $Y } }
        }"""
    )
    frame.add_child(None, setn(leaf(1), leaf(2), op="f"))
    nested = setn(leaf(3), setn(leaf(4), leaf(5), op="f"), op="f")
    frame.add_child(None, setn(nested, setn(leaf(6), leaf(7), op="f"), leaf(8), labels=[None, "k", None]))
    frame.add_child(None, leaf(9))
    trace = CollectingOutput()
    run_rewrite(frame.resolve("rules"), frame, EvalContext(frame, trace=TraceSink(trace)))
    assert trace.lines == [
        "0 rew 2 #1",
        "1 rew 2 #2.#0",
        "2 rew 2 #2.k",
        "3 rew 2 #2.#0.#0",
    ]
    data = render(frame).split("}\n}\n", 1)[1]
    assert data == (
        "#1 : g {\n  #0 = 2\n}\n"
        "#2 {\n  #0 : g {\n    #0 : g {\n      #0 = 5\n    }\n  }\n"
        "  k : g {\n    #0 = 7\n  }\n  #2 = 8\n}\n"
        "#3 = 9\n"
    )


# --- the indexed scan against the reference -------------------------------------

def outcome(scan):
    hits = []
    try:
        scan(hits)
    except EvoError as err:
        return type(err), str(err)
    return hits


def collect(lhs, subject, hits):
    """The engine's scan of ``subject``, at ``goal``, with a formula of
    ``lhs`` alone; each hit is appended with its path."""
    pattern = Pattern(lhs)
    found = []
    engine._scan([Formula(lhs, leaf(0), 0, pattern.key, pattern, None)], 0, 1, [(subject, (None, "goal", subject))], found)
    hits += [(node, Path(seg for seg, _ in _below(cell)), binding) for node, cell, binding in found]


def same_bindings(a, b):
    return (
        a.vars.keys() == b.vars.keys()
        and all(a.vars[k] is b.vars[k] for k in a.vars)
        and a.funcs.keys() == b.funcs.keys()
        and all(node_equal(a.funcs[k].body, b.funcs[k].body) for k in a.funcs)
    )


@given(lhs=patterns(), shape=shapes())
@settings(max_examples=300, deadline=None)
def test_indexed_scan_equals_reference(lhs, shape):
    subject = rebuild(shape, lambda n: filled(lhs) if n.kind == VAR else None)
    start = Path.of("goal")
    want = outcome(lambda hits: reference_collect(lhs, subject, start, hits))
    # a pattern that applies $h to an unbound variable raises when it compiles
    got = outcome(lambda hits: collect(lhs, subject, hits))
    if not isinstance(want, list):
        assert got == want
        return
    assert [(id(n), p) for n, p, _ in got] == [(id(n), p) for n, p, _ in want]
    assert all(same_bindings(g, w) for (_, _, g), (_, _, w) in zip(got, want))


def test_scan_stops_at_function_instances_but_may_match_one():
    instance = make_instance(setn(leaf(1), op="f"))
    subject = setn(instance, setn(leaf(2), op="f"), op="g")
    for lhs, want in [
        (setn(Node.var_node("X"), op="f"), [Path.of("goal", 1)]),
        (Node.var_node("X"), [Path.of("goal")]),
        (make_instance(Node.var_node("X")), [Path.of("goal", 0)]),
    ]:
        hits = []
        collect(lhs, subject, hits)
        assert [path for _, path, _ in hits] == want


# --- work done on the stdlib ------------------------------------------------------


@pytest.fixture
def match_calls(monkeypatch):
    calls = []

    def counting(pattern, subject):
        calls.append((subject.op, len(subject.children)))
        return match(pattern, subject)

    monkeypatch.setattr(engine, "match", counting)
    return calls


def test_div_makes_at_most_two_match_calls_per_firing(match_calls):
    lib = load_stdlib()
    ctx = EvalContext(lib)
    assert run_entry(lib, "div", {"a": leaf(200), "b": leaf(5)}, ctx).value == 40
    assert ctx.stats["firing"] == 41
    assert 41 <= len(match_calls) <= 2 * 41


def test_deriv_match_calls(match_calls):
    lib = load_stdlib()
    ctx = EvalContext(lib)
    e = setn(setn(atom_x(), leaf(3), op="sum"), atom_x(), op="prod")
    run_entry(lib, "deriv", {"e": e}, ctx)
    assert ctx.stats["firing"] == 5
    # every call is on a d node with two children: one per d node and
    # formula tried, 1 + 4 + 9 + 4 over the rounds; the scan before
    # indexing made 160 calls here
    assert set(match_calls) == {("d", 2)}
    assert len(match_calls) <= 18
