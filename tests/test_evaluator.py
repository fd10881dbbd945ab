"""Term evaluation: strategy, laziness, memoization, references, fuel."""

import pytest

import evocat
from evocat import engine, evaluator
from evocat import (
    DeviceTable,
    EvalContext,
    load_stdlib,
    merge_program,
    parse,
    render,
    run_entry,
    scripted_clock,
)
from evocat.errors import (
    CyclicReference,
    DivisionByZero,
    EvalError,
    EvoError,
    FuelExhausted,
    NotBoolean,
    PathUnresolvable,
    UnboundVariable,
    UnknownOperation,
)
from evocat.evaluator import DEFAULT_FUEL, deref, evaluate, is_value, tree_data_of
from evocat.templates import bind_operands, call, heap_get, heap_put, instantiate
from evocat.tree import Node, Path, node_equal

from helpers import expr_oracle, gen_expr, transitions


def detached(src: str) -> Node:
    return parse(src).resolve("t")


class TestEvaluate:
    def test_nested_arithmetic(self):
        node = detached("t : prod { a : sum { x = 2 y = 3 } b = 4 }")
        assert evaluate(node, EvalContext(Node.set_node())).value == 20

    def test_if_branch_laziness(self):
        node = detached(
            "t : if { c : lt { a = 1 b = 2 } t = 10 f : rem { n = 1 d = 0 } }"
        )
        assert evaluate(node, EvalContext(Node.set_node())).value == 10
        poisoned = detached(
            "t : if { c : lt { a = 2 b = 1 } t : rem { n = 1 d = 0 } f = 20 }"
        )
        assert evaluate(poisoned, EvalContext(Node.set_node())).value == 20
        with pytest.raises(DivisionByZero):
            evaluate(
                detached("t : if { c = 0 t = 1 f : rem { n = 1 d = 0 } }"),
                EvalContext(Node.set_node()),
            )

    def test_random_expressions_match_recursive_oracle(self, rng):
        checked = 0
        while checked < 150:
            expr = gen_expr(rng, depth=6)
            try:
                want = expr_oracle(expr)
            except ZeroDivisionError:
                continue
            got = evaluate(expr.copy(), EvalContext(Node.set_node()))
            assert got.kind == "leaf" and got.value == want
            checked += 1

    def test_determinism(self, rng):
        for _ in range(30):
            expr = gen_expr(rng, depth=4)
            try:
                expr_oracle(expr)
            except ZeroDivisionError:
                continue
            a = evaluate(expr.copy(), EvalContext(Node.set_node()))
            b = evaluate(expr.copy(), EvalContext(Node.set_node()))
            assert node_equal(a, b)

    def test_value_evaluation_is_identity(self, rng):
        t = parse("a = 1 b { c = 2 #1 = 3 }").root
        before = render(t)
        evaluate(t, EvalContext(t))
        assert render(t) == before

    def test_unknown_operation(self):
        with pytest.raises(UnknownOperation):
            evaluate(detached("t : mystery { a = 1 }"), EvalContext(Node.set_node()))
        with pytest.raises(UnboundVariable):
            evaluate(detached("t : $f { a = 1 }"), EvalContext(Node.set_node()))

    def test_if_and_select_operand_counts(self):
        for src in ("t : if { c = 1 a = 2 }", "t : select { s { } p = $x q = 1 }"):
            with pytest.raises(EvalError, match="expects"):
                evaluate(detached(src), EvalContext(Node.set_node()))

    def test_condition_must_be_boolean(self):
        with pytest.raises(NotBoolean):
            evaluate(detached("t : if { c = 7 t = 1 f = 2 }"), EvalContext(Node.set_node()))


class TestReferences:
    def test_simple_deref(self):
        t = parse("a = 5 b = [a]")
        assert t.data_of("b").value == 5

    def test_memoize_on_access(self):
        t = parse("s : sum { x = 2 y = 3 } t = [s]")
        assert t.data_of("t").value == 5
        assert t.resolve("s").value == 5  # s itself was replaced
        assert t.resolve("t").value == 5

    def test_memoization_fires_nothing_twice(self):
        t = parse("s : sum { x = 2 y = 3 } u : prod { a = [s] b = [s] }")
        ctx = EvalContext(t)
        assert t.data_of("u", ctx).value == 25
        snapshot = dict(ctx.stats)
        assert t.data_of("u", ctx).value == 25
        assert dict(ctx.stats) == snapshot

    def test_deref_returns_a_copy(self):
        t = parse("a { x = 1 } b = [a]")
        b = t.data_of("b")
        b.child("x").value = 99
        assert t.data_of("a.x").value == 1

    def test_cycle_detected(self):
        t = parse("a = [b] b = [a]")
        with pytest.raises(CyclicReference):
            t.data_of("a")
        t2 = parse("a = [a]")
        with pytest.raises(CyclicReference):
            t2.data_of("a")
        t3 = parse("a : sum { #0 = [a] #1 = 1 }")
        with pytest.raises(CyclicReference):
            t3.data_of("a")

    def test_missing_path(self):
        t = parse("a = 5")
        with pytest.raises(PathUnresolvable):
            t.data_of("missing.path")
        with pytest.raises(PathUnresolvable):
            t.data_of("x")

    def test_scope_chain_pushes_and_restores(self):
        root, inner = parse("a = 1 b = 3"), parse("a = 2")
        ctx = EvalContext(root)
        outer = ctx.scope
        assert outer[0] is root and outer[1] is None
        ctx.scope = (inner, outer)
        assert deref(Path.parse("a"), ctx).value == 2  # the inner frame shadows
        assert deref(Path.parse("b"), ctx).value == 3  # falls through to the root
        with pytest.raises(PathUnresolvable):
            deref(Path.parse("c"), ctx)
        assert ctx.scope[0] is inner and ctx.scope[1] is outer
        ctx.scope = outer
        assert deref(Path.parse("a"), ctx).value == 1

    def test_falls_through_when_the_inner_frame_lacks_the_rest(self):
        # t has a first segment 'a', but not a.b: the root's a.b answers
        assert parse("a { b = 1 } t { a = 5 x = [a.b] }").data_of("t.x").value == 1

    def test_scope_chain_is_restored_after_an_error(self):
        root = parse(
            """f { args { x = $x } mode = 0 result = 0
                   body { #0 { at = [result] to : rem { #0 = [args.x] #1 = 0 } } } }
               s : select { #0 { #0 { k = 2 } } #1 : not { #0 = [k] } }
               r { a : rem { #0 = 1 #1 = 0 } }"""
        )
        ctx = EvalContext(root)
        ctx.scope = (parse("z = 0"), ctx.scope)
        before = ctx.scope

        def body_error():
            instance = root.child("f").copy()
            bind_operands(instance, [Node.leaf(3)])
            call(instance, ctx)

        failing = {
            "call": (body_error, DivisionByZero),
            "select": (lambda: evaluate(root.child("s").copy(), ctx), NotBoolean),
            "run_entry": (lambda: run_entry(root, "f", {"x": Node.leaf(3)}, ctx), DivisionByZero),
            "forced reference": (lambda: deref(Path.parse("r.a"), ctx), DivisionByZero),
        }
        for site, (run, error) in failing.items():
            with pytest.raises(error):
                run()
            assert ctx.scope is before, site


class TestFinalTargets:
    """A reference to a leaf, variable or hole is not forced: the result,
    the counters and the fuel are those of forcing it."""

    def test_deref_copies_and_data_of_returns_the_node(self):
        t = parse("a = 5 v = $x")
        t.add_child("h", Node.hole())
        for label in ("a", "v", "h"):
            ctx = EvalContext(t)
            node = t.resolve(label)
            got = deref(Path.of(label), ctx)
            assert got is not node and node_equal(got, node)
            assert tree_data_of(t, Path.of(label), ctx) is node
            assert evocat.data_of(t, Path.of(label), ctx) is node and t.data_of(label, ctx) is node
            assert ctx.fuel == DEFAULT_FUEL and not ctx.stats
            assert not ctx.in_progress

    def test_identity_path_addresses_the_scope(self):
        t = parse("a = 1")
        assert t.data_of(".") is t
        assert tree_data_of(t, Path(()), EvalContext(t)) is t
        term = parse(": sum { #0 = 1 #1 = 2 }")
        assert term.data_of(".").value == 3
        assert term.kind == "leaf" and term.value == 3

    def test_device_wins_over_a_tree_leaf(self):
        devices = DeviceTable.standard(clock=scripted_clock(100), stdin=[], stdout=lambda s: None)
        t = parse("dev { clock = 7 }")
        ctx = EvalContext(t, devices=devices)
        assert t.data_of("dev.clock", ctx).value == 100
        assert deref(Path.parse("dev.clock"), ctx).value == 101
        assert evaluate(parse("r = [dev.clock]").resolve("r"), ctx).value == 102
        assert t.resolve("dev.clock").value == 7

    def test_run_counts_are_pinned(self):
        # counts and fuel of the acceptance runs, recorded while leaf
        # targets were still forced
        def counts(ctx):
            return dict(ctx.stats), DEFAULT_FUEL - ctx.fuel

        lib = load_stdlib()
        runs = {
            "gcd": {"arg1": 12, "arg2": 8},
            "fact": {"n": 10},
            "div": {"a": 23, "b": 5},
        }
        got = {}
        for entry, args in runs.items():
            ctx = EvalContext(lib)
            run_entry(lib, entry, {k: Node.leaf(v) for k, v in args.items()}, ctx)
            got[entry] = counts(ctx)
        merge_program(
            lib,
            parse(
                """main {
                     args { day = $day month = $month year = $year }
                     mode = 0
                     body {
                       #0 { at = [x] to = [Date] }
                       #1 { at = [x.day] to = [args.day] }
                       #2 { at = [x.month] to = [args.month] }
                       #3 { at = [x.year] to = [args.year] }
                       #4 { at = [result] to = [x.weekday] }
                     }
                     result = 0
                   }"""
            ),
        )
        ctx = EvalContext(lib)
        date = {"day": 5, "month": 2, "year": 2004}
        assert run_entry(lib, "main", {k: Node.leaf(v) for k, v in date.items()}, ctx).value == 3
        got["weekday"] = counts(ctx)
        heap, ctx = lib.resolve("heap"), EvalContext(lib)
        for key in (5, 3, 9, 1, 7, 2, 8):
            heap_put(heap, Node.leaf(key), ctx)
        assert [heap_get(heap, ctx).value for _ in range(7)] == [1, 2, 3, 5, 7, 8, 9]
        got["heap"] = counts(ctx)
        assert got == {
            "gcd": ({"call": 1, "deref": 2, "firing": 3, "op": 2}, 8),
            "fact": ({"call": 10, "deref": 46, "instruction": 47, "op": 38}, 141),
            "div": ({"call": 1, "deref": 2, "firing": 5, "op": 18}, 26),
            "weekday": (
                {"call": 6, "deref": 27, "firing": 68, "instruction": 12, "op": 282},
                395,
            ),
            "heap": ({"call": 21, "deref": 42, "instruction": 21, "op": 21}, 105),
        }


class TestFuel:
    def test_monotonicity(self):
        src = "t : prod { a : sum { x = 2 y = 3 } b = 4 }"
        base = EvalContext(Node.set_node(), fuel=10)
        evaluate(detached(src), base)
        used = 10 - base.fuel
        for extra in (0, 1, 50):
            ctx = EvalContext(Node.set_node(), fuel=used + extra)
            assert evaluate(detached(src), ctx).value == 20

    def test_exhaustion_raises(self):
        src = "t : prod { a : sum { x = 2 y = 3 } b : sum { u = 1 w = 3 } }"
        with pytest.raises(FuelExhausted):
            evaluate(detached(src), EvalContext(Node.set_node(), fuel=2))

    def test_fuel_spent_is_the_sum_of_the_transition_counts(self):
        # div by 0 never ends: every unit of fuel goes to one transition,
        # and the one that finds none left is not counted
        root = load_stdlib()
        ctx = EvalContext(root, fuel=3000)
        with pytest.raises(FuelExhausted):
            run_entry(root, "div", {"a": Node.leaf(1), "b": Node.leaf(0)}, ctx=ctx)
        assert ctx.fuel == 0
        assert transitions(ctx.stats) == 3000


class TestDeviceAccess:
    def test_clock_reads_are_not_memoized(self):
        devices = DeviceTable.standard(clock=scripted_clock(100, 10), stdin=[], stdout=lambda s: None)
        t = parse("x = 0")
        ctx = EvalContext(t, devices=devices)
        first = t.data_of("dev.clock", ctx).value
        second = t.data_of("dev.clock", ctx).value
        assert (first, second) == (100, 110)

    def test_reads_do_not_mutate_the_tree(self):
        devices = DeviceTable.standard(clock=scripted_clock(0), stdin=["x"], stdout=lambda s: None)
        t = parse("x = 0")
        ctx = EvalContext(t, devices=devices)
        before = render(t)
        t.data_of("dev.clock", ctx)
        t.data_of("dev.stdin", ctx)
        assert render(t) == before


class TestTemplateValues:
    def test_instances_are_inert_values(self):
        t = parse(
            "f { args { n = $n } mode = 0 body { #0 { at = [result] to = 1 } } result = 0 }"
        )
        f = t.resolve("f")
        assert is_value(f)
        evaluate(f, EvalContext(t))
        assert f.child("args").child("n").kind == "var"

    def test_unfilled_template_copies_without_running(self):
        t = parse(
            "f { args { n = $n } mode = 0 body { #0 { at = [result] to = 1 } } result = 0 }"
            "\ng = [f]"
        )
        g = t.data_of("g")
        assert g.child("mode").value == 0
        assert g.child("args").child("n").value == "n"


class TestLeanSweep:
    """The sweep spends no evaluator call on a leaf; what it computes is
    unchanged."""

    def test_no_leaf_enters_evaluate_and_counts_are_pinned(self, monkeypatch):
        seen = []
        inner, inner_sweep = evaluator.evaluate, evaluator.sweep

        def spy(node, ctx):
            seen.append(node.kind)
            return inner(node, ctx)

        def sweep_spy(node, ctx):
            seen.append(node.kind)
            return inner_sweep(node, ctx)

        # the evaluator's own recursion looks the name up in its module;
        # the engine holds the name it imported
        monkeypatch.setattr(evaluator, "evaluate", spy)
        monkeypatch.setattr(evaluator, "sweep", sweep_spy)
        monkeypatch.setattr(engine, "sweep", sweep_spy)
        e = parse(
            "e : prod { #0 : sum { #0 : prod { #0 : x { } #1 = 2 } #1 = 3 }"
            " #1 : sum { #0 = 1 #1 : prod { #0 = 4 #1 : x { } } } }"
        ).resolve("e")
        runs = {
            "div": {"a": Node.leaf(200), "b": Node.leaf(7)},
            "gcd": {"arg1": Node.leaf(832040), "arg2": Node.leaf(514229)},
            "deriv": {"e": e},
        }
        got = {}
        for entry, args in runs.items():
            lib, seen[:] = load_stdlib(), []
            ctx = EvalContext(lib)
            out = run_entry(lib, entry, args, ctx)
            assert seen and "leaf" not in seen, entry
            got[entry] = (dict(ctx.stats), DEFAULT_FUEL - ctx.fuel)
            if entry != "deriv":
                assert out.value == {"div": 28, "gcd": 1}[entry]
        # recorded while every leaf operand still passed through evaluate
        assert got == {
            "div": ({"call": 1, "deref": 2, "firing": 29, "op": 114}, 146),
            "gcd": ({"call": 1, "deref": 2, "firing": 29, "op": 28}, 60),
            "deriv": ({"call": 1, "deref": 1, "firing": 11, "op": 2}, 15),
        }

    def test_lenient_checks_ask_is_value_of_no_term(self, monkeypatch):
        # a set with an operation is not a value; the operand checks of
        # eager operations, if and select answer that without is_value
        asked = []
        inner = evaluator.is_value

        def spy(node):
            asked.append(node.op)
            return inner(node)

        monkeypatch.setattr(evaluator, "is_value", spy)
        lib = load_stdlib()
        assert run_entry(lib, "div", {"a": Node.leaf(200), "b": Node.leaf(7)}).value == 28
        e = parse("e : prod { #0 : sum { #0 : x { } #1 = 3 } #1 : x { } }").resolve("e")
        run_entry(lib, "deriv", {"e": e})
        assert all(op is None for op in asked)

    def test_is_value_on_a_deep_chain(self):
        chain = Node.leaf(1)
        for _ in range(3000):
            chain = Node.set_node([("a", chain)])
        assert is_value(chain)
        inner = chain
        for _ in range(2999):
            inner = inner.child("a")
        inner.set_child("a", Node.ref_node("b"))
        assert not is_value(chain)

    def test_is_value_of_a_root_that_is_not_a_plain_set(self):
        assert is_value(Node.leaf(0))
        assert not is_value(Node.ref_node("a"))
        assert not is_value(Node.var_node("X"))
        assert not is_value(Node.set_node([(None, Node.leaf(1))], op="pair"))


class TestCompiledInstructions:
    """A frozen instruction term runs as its generated function: no copy of
    the term and no ``evaluate`` call for a leaf, a reference or an eager
    built-in in it; what the machine computes is unchanged."""

    @staticmethod
    def spy(monkeypatch) -> dict:
        calls = {"evaluate": 0, "copy": 0}  # sweep counts as evaluate
        inner_evaluate, inner_sweep, inner_copy = evaluator.evaluate, evaluator.sweep, Node.copy

        def evaluate_spy(node, ctx):
            calls["evaluate"] += 1
            return inner_evaluate(node, ctx)

        def sweep_spy(node, ctx):
            calls["evaluate"] += 1
            return inner_sweep(node, ctx)

        def copy_spy(node):
            calls["copy"] += 1
            return inner_copy(node)

        monkeypatch.setattr(evaluator, "evaluate", evaluate_spy)
        monkeypatch.setattr(evaluator, "sweep", sweep_spy)
        monkeypatch.setattr(engine, "sweep", sweep_spy)
        monkeypatch.setattr(Node, "copy", copy_spy)
        return calls

    def test_a_heap_compare_copies_only_its_operands_and_calls_no_evaluate(self, monkeypatch):
        lib = load_stdlib()
        heap = instantiate(lib, "heap")
        ctx = EvalContext(lib)
        for key in (41, 7, 23, 2, 37, 11, 29, 5, 31, 17, 13, 19, 3):
            heap_put(heap, Node.leaf(key), ctx)
        calls, ctx = self.spy(monkeypatch), EvalContext(lib)
        heap_put(heap, Node.leaf(6), ctx)
        assert heap_get(heap, ctx).value == 2
        compares = ctx.stats["call"]
        # per compare: the compare template, its two operands, and the
        # value of each of the two references in its term
        assert (compares, calls) == (6, {"evaluate": 0, "copy": 1 + 5 * compares})
        assert (dict(ctx.stats), DEFAULT_FUEL - ctx.fuel) == (
            {"call": 6, "instruction": 6, "deref": 12, "op": 6},
            30,
        )

    def test_fact_calls_evaluate_only_for_its_if(self, monkeypatch):
        lib = load_stdlib()
        calls, ctx = self.spy(monkeypatch), EvalContext(lib)
        assert run_entry(lib, "fact", {"n": Node.leaf(5)}, ctx).value == 120
        # evaluate runs for the if term, which is evaluated in a copy, and
        # for each forced [fact], a template that is not called
        assert calls == {"evaluate": 19, "copy": 28}
        assert (dict(ctx.stats), DEFAULT_FUEL - ctx.fuel) == (
            {"call": 5, "instruction": 22, "deref": 21, "op": 18},
            66,
        )

    def test_no_walker_asks_whether_it_enters_a_condition(self, monkeypatch):
        # an if's condition, like a select's source, is always entered:
        # evaluate and sweep ask sweep_enters only about the other operands
        asked, inner = [], evaluator.sweep_enters

        def sweep_enters_spy(node, operand):
            asked.append((node.op, operand is node.nodes[0]))
            return inner(node, operand)

        calls = self.spy(monkeypatch)
        monkeypatch.setattr(evaluator, "sweep_enters", sweep_enters_spy)
        lib = load_stdlib()
        assert run_entry(lib, "fact", {"n": Node.leaf(5)}).value == 120
        assert ("if", True) not in asked  # fact's branches are leaves: nothing is asked
        assert calls == {"evaluate": 19, "copy": 28}  # as test_fact_calls_evaluate_only_for_its_if pins
        term = parse("t : if { #0 : lt { #0 = 1 #1 = 2 } #1 : sum { #0 = 1 #1 = 2 } #2 : sum { } }").resolve("t")
        for walk in (evaluator.evaluate, evaluator.sweep):
            asked[:] = []
            assert walk(term.copy(), EvalContext(lib)).value == 3
            assert asked == [("if", False), ("if", False)]

    @pytest.mark.parametrize(
        "term",
        [
            ": monus { #0 = 5 #1 = 2 }",
            ": monus { now = [x] then = 1 }",
            ": prod { #0 = 2 #1 : sum { } }",
            ": lt { #0 = [s] #1 = 1 }",
            ": sum { #0 = [nope] #1 : rem { #0 = 1 #1 = 0 } }",
            ": sum { #0 : if { #0 = 1 #1 = [x] #2 = 0 } #1 : not { #0 : lt { #0 = [x] #1 = 9 } } }",
            ": if { #0 = 5 #1 : sum { #0 = 1 #1 = [nope] } #2 = 0 }",  # no branch before NotBoolean
            ": if { #0 = [s] #1 = 1 #2 = 0 }",  # a condition that is a set
            ": if { #0 = 1 #1 = 2 }",
            ": select { #0 = [s] #1 : lt { #0 = $v #1 = 2 } }",
            ": if { #0 = 1 #1 = [x] #2 : rem { #0 = 1 #1 = 0 } }",  # the branch not taken
            ": sum { #0 = [x] #1 : select { #0 = [x] #1 = 1 } }",
            ": not { #0 = [nope] #1 = 1 }",  # the operand fails before the arity
        ],
    )
    def test_steps_do_what_evaluate_does_to_a_copy(self, term):
        # ... and what the rewrite engine's sweep does to a copy: a term
        # of built-ins whose operands become values is reduced alike, and
        # an unfrozen term, evaluated in a copy as a whole, alike too
        def run(leg):
            root = parse(f"x = 4 s {{ a = 1 }} t {term}")
            to, ctx = root.resolve("t"), EvalContext(root)
            if leg != "unfrozen":
                to.freeze()
            try:
                if leg in ("compiled", "unfrozen"):
                    result = render(engine.compiled_term(to)(ctx))
                else:
                    result = render(getattr(evaluator, leg)(to.copy(), ctx))
            except EvoError as err:
                result = (type(err).__name__, str(err))
            return result, dict(ctx.stats), DEFAULT_FUEL - ctx.fuel

        assert run("compiled") == run("unfrozen") == run("evaluate") == run("sweep")

    def test_an_unfrozen_term_is_read_at_each_run_and_a_leaf_is_not_evaluated(self, monkeypatch):
        calls = self.spy(monkeypatch)
        root = parse("x = 4 t : sum { #0 = [x] #1 = 1 } u = 7")
        ctx = EvalContext(root)
        to, leaf = root.resolve("t"), root.resolve("u")
        run, run_leaf = engine.compiled_term(to), engine.compiled_term(leaf)
        assert run_leaf(ctx).value == 7 and calls["evaluate"] == 0
        assert run(ctx).value == 5 and calls["evaluate"] == 2  # the sum and its reference
        to.become(Node.leaf(9))  # a write into unfrozen code shows at the next run
        assert run(ctx).value == 9 and calls["evaluate"] == 2
        assert (to.value, leaf.value) == (9, 7)
        assert (dict(ctx.stats), DEFAULT_FUEL - ctx.fuel) == ({"deref": 1, "op": 1}, 2)

    def test_a_deep_instruction_term_needs_no_interpreter_stack(self):
        chain = Node.leaf(1)
        for _ in range(3000):
            chain = Node.set_node([(None, chain), (None, Node.leaf(1))], op="sum")
        write = Node.set_node([("at", Node.ref_node("result")), ("to", chain)])
        template = Node.set_node([
            ("args", Node.set_node()),
            ("mode", Node.leaf(0)),
            ("body", Node.set_node([(None, write)])),
            ("result", Node.leaf(0)),
        ])
        root = Node.set_node([("t", template)])
        assert run_entry(root, "t").value == 3001
