"""Template code shared copy-on-write.

The first copy of a template for a call freezes its code node (``body`` or
``rules``); every later copy shares that node and its compiled program.
Writes keep exact copy semantics: ``Node.replace`` un-shares frozen code on
its path (path copying), a ``mode`` write un-shares the holder's code, and
a running call whose own code is un-shared sees later writes into it as it
would in private code.  The parity cases pin the outcomes the machine gave
when every copy was deep; the differential property checks generated
self-modifying programs against the same machine with freezing turned off.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import CollectingOutput, EvalContext, TraceSink, instantiate, load_stdlib, parse, render, run_entry
from evocat import engine
from evocat.errors import EvoError, FrozenCode
from evocat.evaluator import frame_of
from evocat.tree import Node, node_equal

from helpers import node_ids, transitions

FUEL = 2000

G = (
    "g { args { n = $n } mode = 0"
    " body { #0 { at = [result] to : sum { #0 = [args.n] #1 = 1 } } } result = 0 }"
)
INC = "#0 { at = [x] to : sum { #0 = [x] #1 = 1 } }"


def loop_while_x_below(k: int) -> str:
    return f"#2 {{ at = [ip] to : if {{ #0 : lt {{ #0 = [x] #1 = {k} }} #1 = 0 #2 = 3 }} }}"


def entry_t(body: str, tail: str = "x = 0 result = [x]") -> str:
    return f"t {{ args {{ }} mode = 0 body {{ {body} }} {tail} }}"


def cycle(labels: list[str], n: int) -> list[str]:
    """``n`` trace lines of a loop over instructions 0, 1, 2, ..."""
    return [f"{k} seq {k % len(labels)} {labels[k % len(labels)]}" for k in range(n)]


# name: (machine, result render or EvoError class, stats, fuel spent, trace)
PARITY = {
    # a write into the running body's instruction term shows through
    "own_to": (
        entry_t(INC + " #1 { at = [body.#0.to] to = 40 } " + loop_while_x_below(10)),
        "[x]\n",
        {"instruction": 6, "deref": 3, "op": 5, "call": 1},
        15,
        cycle(["x", "body.#0.to", "ip"], 6),
    ),
    # replacing a whole instruction does not
    "own_instr": (
        entry_t(INC + " #1 { at = [body.#0] to { at = [x] to = 40 } } " + loop_while_x_below(10)),
        "[x]\n",
        {"instruction": 30, "deref": 30, "op": 30, "call": 1},
        91,
        cycle(["x", "body.#0", "ip"], 30),
    ),
    # forcing the running body's term memoizes it there: x stops growing
    "force_to": (
        entry_t(INC + " #1 { at = [y] to = [body.#0.to] } " + loop_while_x_below(5)),
        "FuelExhausted",
        {"instruction": 855, "deref": 572, "op": 572, "call": 1},
        2000,
        cycle(["x", "y", "ip"], 856),
    ),
    # a write into one copy of g reaches neither g nor another copy
    "tmpl_write": (
        G + " " + entry_t(
            "#0 { at = [f] to = [g] } #1 { at = [h] to = [g] } #2 { at = [h.body.#0.to] to = 7 } "
            "#3 { at = [f.args.n] to = 1 } #4 { at = [h.args.n] to = 1 } "
            "#5 { at = [a] to = [f] } #6 { at = [b] to = [h] } #7 { at = [c] to : g { #0 = 1 } } "
            "#8 { at = [result] to : sum { #0 = [a] #1 : sum { #0 = [b] #1 = [c] } } }",
            "result = 0",
        ),
        "11\n",
        {"instruction": 12, "deref": 9, "op": 4, "call": 4},
        29,
        (
            "0 seq 0 f|1 seq 1 h|2 seq 2 h.body.#0.to|3 seq 3 f.args.n|4 seq 4 h.args.n|5 seq 5 a"
            "|6 seq 0 result|7 seq 6 b|8 seq 0 result|9 seq 7 c|10 seq 0 result|11 seq 8 result"
        ).split("|"),
    ),
    # a copy whose mode is broken is plain data, and evaluating it writes
    # into its own code, not into g's
    "break_mode": (
        G.replace("#0 = [args.n] #1 = 1", "#0 = 2 #1 = 3") + " " + entry_t(
            "#0 { at = [d] to = [g] } #1 { at = [d.mode] to = 5 } #2 { at = [e] to = [d] } "
            "#3 { at = [r] to : g { #0 = 1 } } #4 { at = [result] to = [e] }",
            "result = 0",
        ),
        "args {\n  n = $n\n}\nmode = 5\n"
        "body {\n  #0 {\n    at = 0\n    to = 5\n  }\n}\nresult = 0\n",
        {"instruction": 6, "deref": 4, "op": 2, "call": 2},
        14,
        "0 seq 0 d|1 seq 1 d.mode|2 seq 2 e|3 seq 3 r|4 seq 0 result|5 seq 4 result".split("|"),
    ),
}


def outcome(source: str, entry: str, fuel: int = FUEL):
    """Everything a run shows: result or error class and message, counters,
    fuel spent, trace lines, and the machine afterwards.  The fuel spent
    must be the number of transitions counted."""
    root = parse(source)
    trace = CollectingOutput()
    ctx = EvalContext(root, fuel=fuel, trace=TraceSink(trace))
    try:
        result = render(run_entry(root, entry, ctx=ctx))
    except EvoError as err:
        result = (type(err).__name__, err.instruction, str(err))
    assert fuel - ctx.fuel == transitions(ctx.stats)
    return result, dict(ctx.stats), fuel - ctx.fuel, trace.lines, render(root)


class TestParity:
    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_outcome_is_the_deep_copy_machines(self, name):
        source, result, stats, fuel, trace = PARITY[name]
        got, got_stats, got_fuel, got_trace, after = outcome(source, "t")
        assert (got[0] if isinstance(got, tuple) else got) == result
        assert got_stats == stats
        assert got_fuel == fuel
        assert got_trace == trace
        assert after == render(parse(source))  # no template changed

    @pytest.mark.parametrize("name", sorted(PARITY))
    def test_outcome_does_not_depend_on_sharing(self, name, monkeypatch):
        shared = outcome(PARITY[name][0], "t")
        monkeypatch.setattr(Node, "freeze", lambda self: None)
        assert outcome(PARITY[name][0], "t") == shared


# --- generated self-modifying programs ------------------------------------

# t copies g into f, runs a generated body and returns [f]; w calls t by
# name, so t's code is shared there too.
MACHINE = (
    "g { args { n = $n } mode = 0 body { #0 { at = [result] to : sum { #0 = [args.n] #1 = 1 } }"
    " #1 { at = [k] to = [args.n] } } result = 0 }\n"
    "t { args { } mode = 0 body { BODY } x = 0 y = 0 result = 0 }\n"
    "w { args { } mode = 0 body { #0 { at = [result] to : t { } } } result = 0 }\n"
)

# addresses into t's own body, mode and args, into f, and by ordinal
TARGETS = [
    "x", "mode", "args.z", "ip", "body", "#3", "#2.#1.to",
    "f", "f.mode", "f.args.n", "f.body.#0.to", "f.body",
] + [f"body.#{i}{rest}" for i in range(1, 4) for rest in (".to", "", ".at")]
# what follows ``to``: a leaf or reference, a term, or a literal set.  A
# frozen term runs from compiled steps and an unfrozen one is evaluated in
# a copy, so the built-ins below also compare those two: no operand, a set
# operand, labelled operands, a call as an operand, and two errors' order.
TERMS = [
    "= 0", "= 1", "= 3", "= [x]", "= [mode]", "= [args]", "= [g]", "= [f]", "= [#2.#1.to]",
    ": sum { #0 = [x] #1 = 1 }", ": g { #0 = [x] }", "{ at = [x] to = 9 }",
    ": if { #0 : lt { #0 = [x] #1 = 3 } #1 = 0 #2 = 4 }",
    ": sum { }", ": rem { #0 = [x] #1 = 0 }", ": lt { #0 = [args] #1 = 1 }", ": monus { a = [x] b = 1 }",
    ": prod { #0 : sum { #0 = [x] #1 = 1 } #1 = [f] }",
    ": sum { #0 = [nope] #1 : rem { #0 = 1 #1 = 0 } }",
] + [f"= [body.#{i}{rest}]" for i in range(1, 4) for rest in (".to", "")]

instructions = st.tuples(st.sampled_from(TARGETS), st.sampled_from(TERMS))


def machine(body: list[tuple[str, str]]) -> str:
    body = [("f", "= [g]"), *body, ("result", "= [f]")]
    text = " ".join(f"#{i} {{ at = [{at}] to {to} }}" for i, (at, to) in enumerate(body))
    return MACHINE.replace("BODY", text)


class TestDifferential:
    @given(st.lists(instructions, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_sharing_changes_no_outcome(self, body):
        source = machine(body)
        shared = [outcome(source, entry, fuel=300) for entry in ("t", "w")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Node, "freeze", lambda self: None)
            deep = [outcome(source, entry, fuel=300) for entry in ("t", "w")]
        assert shared == deep


# --- the sharing itself ---------------------------------------------------


class TestSharing:
    def test_an_instance_shares_the_templates_code(self):
        lib = load_stdlib()
        for name, code in (("fact", "body"), ("gcd", "rules")):
            inst = instantiate(lib, name)
            assert inst.child(code) is lib.resolve(name).child(code)
            assert frame_of(inst).code is inst.child(code)
        # the node copied is private; only the code root is shared
        assert inst is not lib.resolve("gcd")
        assert inst.child("args") is not lib.resolve("gcd.args")

    def test_replace_unshares_one_instance_only(self):
        lib = load_stdlib()
        template = render(lib.resolve("fact"))
        one, two = instantiate(lib, "fact"), instantiate(lib, "fact")
        before = render(two)
        one.replace("body.#0.to", Node.leaf(5))
        assert one.child("body") is not two.child("body")
        assert one.resolve("body.#0.to").value == 5
        assert render(two) == before
        assert render(lib.resolve("fact")) == template
        out = run_entry(lib, "fact", {"n": Node.leaf(5)})
        assert out.value == 120  # the template still runs its own code

    def test_node_writers_refuse_frozen_code(self):
        lib = load_stdlib()
        instantiate(lib, "fact")
        body = lib.resolve("fact.body")
        inner = body.child_at(1)
        writers = [
            lambda: body.add_child(None, Node.leaf(1)),
            lambda: body.add_children([(None, Node.leaf(1))]),
            lambda: body.set_nodes([Node.leaf(1)]),  # over a frozen child
            lambda: inner.set_child("at", Node.leaf(1)),
            lambda: body.swap_children(0, 1),
            lambda: body.pop_child(),
            lambda: inner.child("to").become(Node.leaf(1)),
            lambda: body.replace("#0.to", Node.leaf(1)),  # no holder to copy into
        ]
        for write in writers:
            with pytest.raises(FrozenCode, match="Node.replace"):
                write()
        assert render(lib.resolve("fact")) == render(load_stdlib().resolve("fact"))

    def test_become_from_frozen_code_takes_a_private_copy(self):
        lib = load_stdlib()
        instantiate(lib, "fact")
        body = lib.resolve("fact.body")
        node = Node.leaf(0).become(body)
        assert node_equal(node, body)
        assert not node_ids(node) & node_ids(body)
        node.add_child(None, Node.leaf(1))  # writable, and body unchanged
        assert len(body.children) == 5

    def test_code_compiles_once_per_template(self, monkeypatch):
        compiled = []
        for name in ("instructions_from", "formulas_from"):
            inner = getattr(engine, name)
            spy = lambda code, inner=inner: compiled.append(code) or inner(code)  # noqa: E731
            monkeypatch.setattr(engine, name, spy)
        lib = load_stdlib()
        assert run_entry(lib, "fact", {"n": Node.leaf(6)}).value == 720
        assert compiled == [lib.resolve("fact.body")]
        for a in (12, 30):
            run_entry(lib, "gcd", {"arg1": Node.leaf(a), "arg2": Node.leaf(8)})
        assert compiled[1:] == [lib.resolve("gcd.rules")]


def _with_frozen_template(tree: Node) -> Node:
    holder = parse(G).resolve("g")
    holder.child("body").freeze()
    return Node.set_node([("data", tree), ("g", holder)])


class TestCopyWithFrozenCode:
    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_copy_shares_exactly_the_frozen_roots(self, depth, width):
        data = Node.leaf(1)
        for _ in range(depth):
            data = Node.set_node([(f"k{i}", data.copy()) for i in range(width)])
        tree = _with_frozen_template(data)
        body = tree.resolve("g.body")
        dup = tree.copy()
        assert node_equal(dup, tree)
        assert node_ids(dup) & node_ids(tree) == node_ids(body)
        assert dup.resolve("g.body") is body
        dup.replace("g.body.#0.to", Node.leaf(3))  # un-shares in the copy only
        assert tree.resolve("g.body") is body and body.child_at(0).child("to").kind == "set"
        assert not node_ids(dup) & node_ids(tree)
