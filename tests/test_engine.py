"""The two program disciplines and the pattern layer under them."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import CollectingOutput, EvalContext, StateTree, TraceSink, load_stdlib, parse, render, run_entry
from evocat.engine import (
    Abstraction,
    Binding,
    formulas_from,
    instructions_from,
    match,
    run_rewrite,
    run_sequential,
    substitute,
)
from evocat.errors import DivisionByZero, EvalError, FuelExhausted
from evocat.tree import Node, node_equal

from helpers import LABELS, euclid, leaf, node_ids, setn


def pat(src: str) -> Node:
    return parse(src).resolve("p")


def gcd_term(a: int, b: int) -> Node:
    return setn(leaf(a), leaf(b), op="gcd")


GCD_RULES = """
rules {
  #0 { lhs : gcd { #0 = $X #1 = 0 } rhs = $X }
  #1 { lhs : gcd { #0 = $X #1 = $Y }
       rhs : gcd { #0 = $Y #1 : rem { #0 = $X #1 = $Y } } }
}
"""


class TestMatch:
    def test_binds_variable(self):
        binding = match(pat("p : gcd { #0 = $X #1 = 0 }"), gcd_term(7, 0))
        assert binding is not None
        assert binding.vars["X"].value == 7

    def test_literal_mismatch_fails(self):
        assert match(pat("p : gcd { #0 = $X #1 = 0 }"), gcd_term(7, 3)) is None

    @pytest.mark.parametrize(
        "lhs, subject, matches",
        [
            ("1", "1", True),
            ("[a.#1]", "[a.#1]", True),
            ("1", "[a]", False),
            ("[a]", "1", False),
            ("[a]", "[b]", False),
            ("[a]", "[a.b]", False),
            ("{ x = 0 }", "{ x { } }", False),  # a set's payload is 0 too
            ("{ x = [a] y = 2 }", "{ x = [a] y = 2 }", True),
        ],
    )
    def test_a_leaf_or_reference_matches_its_kind_and_payload(self, lhs, subject, matches):
        assert (match(parse(lhs), parse(subject)) is not None) is matches

    def test_labels_and_arity_must_agree(self):
        assert match(pat("p { a = $X }"), parse("b = 1").root) is None
        assert match(pat("p { a = $X }"), parse("a = 1 b = 2").root) is None
        assert match(pat("p { a = $X }"), parse("a = 1").root) is not None

    def test_nonlinear_occurrences(self):
        twice = pat("p : f { #0 = $X #1 = $X }")
        assert match(twice, setn(leaf(4), leaf(4), op="f")) is not None
        assert match(twice, setn(leaf(4), leaf(5), op="f")) is None
        deep = setn(setn(leaf(1), op="g"), setn(leaf(1), op="g"), op="f")
        assert match(twice, deep) is not None

    def test_second_order_product_rule(self):
        # d(f(x)*g(x), x) against d(x * sin(x), x)
        rule = pat(
            "p : d { #0 : prod { #0 : $f { #0 = $x } #1 : $g { #0 = $x } } #1 = $x }"
        )
        x = setn(op="x")
        subject = setn(
            setn(x.copy(), setn(x.copy(), op="sin"), op="prod"), x.copy(), op="d"
        )
        binding = match(rule, subject)
        assert binding is not None
        # f is the identity abstraction, g is sin of the hole
        assert binding.funcs["f"].body.kind == "hole"
        g = binding.funcs["g"].body
        assert g.op == "sin" and g.children[0][1].kind == "hole"
        # substituting the bindings back reproduces the subject
        assert node_equal(substitute(rule, binding), subject)

    def test_function_binding_shares_no_nodes_with_the_subject(self):
        rule = pat("p : d { #0 : prod { #0 : $f { #0 = $x } #1 : $g { #0 = $x } } #1 = $x }")
        x = setn(op="x")
        subject = setn(
            setn(setn(x.copy(), op="cos"), setn(x.copy(), op="sin"), op="prod"), x.copy(), op="d"
        )
        binding = match(rule, subject)
        assert render(binding.funcs["f"].body) == ": cos {\n  #0 = $__hole__\n}\n"
        for abstraction in binding.funcs.values():
            assert not node_ids(abstraction.body) & node_ids(subject)

    def test_vacuous_abstraction(self):
        rule = pat("p : d { #0 : $f { #0 = $x } #1 = $x }")
        subject = setn(leaf(5), setn(op="x"), op="d")
        binding = match(rule, subject)
        assert binding.funcs["f"].body.kind == "leaf"
        assert node_equal(substitute(rule, binding), subject)

    def test_function_variable_over_a_deep_subject(self):
        rule = pat("p : d { #0 : $f { #0 = $x } #1 = $x }")
        body = leaf(1)
        for _ in range(3000):
            body = setn(body, op="g")
        binding = match(rule, setn(body, setn(op="x"), op="d"))
        assert binding is not None
        assert node_equal(binding.funcs["f"].body, body)
        assert not node_ids(binding.funcs["f"].body) & node_ids(body)

    def test_deep_pattern(self):
        lhs = Node.var_node("x")
        for _ in range(3000):
            lhs = setn(lhs, op="f", labels=["a"])
        rules = setn(setn(lhs, Node.var_node("x"), labels=["lhs", "rhs"]))
        (formula,) = formulas_from(rules)
        assert formula.lhs is lhs
        subject = lhs.copy()
        binding = match(lhs, subject)
        assert binding is not None
        inner = subject
        for _ in range(3000):
            inner = inner.child("a")
        assert binding.vars["x"] is inner


class TestAbstraction:
    def test_plug_twice_gives_fresh_equal_trees(self):
        body = setn(Node.hole(), setn(Node.hole(), leaf(2), op="sum"), op="f")
        before = render(body)
        body_ids = node_ids(body)
        abstraction = Abstraction(body)
        argument = setn(leaf(7), op="x")
        one = abstraction.plug(argument)
        two = abstraction.plug(argument)
        want = setn(argument.copy(), setn(argument.copy(), leaf(2), op="sum"), op="f")
        assert node_equal(one, want) and node_equal(two, want)
        assert not node_ids(one) & node_ids(two)
        for out in (one, two):
            assert not node_ids(out) & (body_ids | node_ids(argument))
        assert render(body) == before and node_ids(body) == body_ids


class TestSubstitute:
    def test_worked_example(self):
        template = pat("p : gcd { #0 = $Y #1 : rem { #0 = $X #1 = $Y } }")
        binding = match(pat("p : gcd { #0 = $X #1 = $Y }"), gcd_term(12, 8))
        out = substitute(template, binding)
        want = setn(leaf(8), setn(leaf(12), leaf(8), op="rem"), op="gcd")
        assert node_equal(out, want)

    def test_identity_template(self):
        binding = match(pat("p = $X"), parse("a = 1 b = 2").root)
        assert node_equal(substitute(pat("p = $X"), binding), parse("a = 1 b = 2").root)

    def test_substituted_trees_are_copies(self):
        binding = match(pat("p = $X"), parse("a = 1").root)
        out = substitute(pat("p = $X"), binding)
        out.child("a").value = 9
        assert binding.vars["X"].child("a").value == 1

    def test_deep_template(self):
        template = Node.var_node("x")
        for _ in range(5000):
            template = setn(template, op="g")
        binding = Binding(vars={"x": setn(leaf(1), leaf(2), op="f")})
        out = substitute(template, binding)
        want = setn(leaf(1), leaf(2), op="f")
        for _ in range(5000):
            want = setn(want, op="g")
        assert node_equal(out, want)
        assert not node_ids(out) & (node_ids(template) | node_ids(binding.vars["x"]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_match_substitute_round_trip_on_linear_patterns(self, seed):
        rng = random.Random(seed)
        names = iter(f"V{i}" for i in range(100))

        def gen_pattern(depth):
            roll = rng.random()
            if depth == 0 or roll < 0.35:
                return Node.var_node(next(names))
            if roll < 0.5:
                return Node.leaf(rng.randrange(10))
            node = Node.set_node(op=rng.choice([None, "f", "g"]))
            for label in rng.sample(LABELS, rng.randrange(4)):
                node.add_child(label if rng.random() < 0.5 else None, gen_pattern(depth - 1))
            return node

        def gen_fill(pattern):
            binding = {}

            def walk(n):
                if n.kind == "var":
                    binding[n.value] = setn(leaf(rng.randrange(5)), op=None)
                for _, c in n.children:
                    walk(c)

            walk(pattern)
            return binding

        pattern = gen_pattern(3)
        from evocat.engine import Binding

        fill = Binding(vars=gen_fill(pattern))
        subject = substitute(pattern, fill)
        result = match(pattern, subject)
        assert result is not None
        for name, value in fill.vars.items():
            assert node_equal(result.vars[name], value)


class TestValidation:
    def test_rhs_variable_must_occur_in_lhs(self):
        rules = parse("r { #0 { lhs = $X rhs = $Y } }").resolve("r")
        with pytest.raises(EvalError):
            formulas_from(rules)

    def test_function_variable_needs_first_order_binding(self):
        rules = parse(
            "r { #0 { lhs : d { #0 : $f { #0 = $x } } rhs = 0 } }"
        ).resolve("r")
        with pytest.raises(EvalError):
            formulas_from(rules)

    @staticmethod
    def load_and_run(rules):
        """Rules are checked when they load: the run raises before any
        subject could reach the faulty formula."""
        frame = Node.set_node([("rules", rules), ("goal", leaf(5))])
        with pytest.raises(EvalError) as info:
            run_rewrite(rules, frame)
        assert frame.child("goal").value == 5
        return str(info.value)

    @pytest.mark.parametrize(
        "applied", ["$f { #0 = $x #1 = $x }", "$f { #0 = 3 }", "$f { #0 : g { #0 = $x } }"]
    )
    def test_lhs_function_variable_takes_exactly_one_variable(self, applied):
        rules = parse(f"r {{ #0 {{ lhs : d {{ #0 = $x #1 : {applied} }} rhs = 0 }} }}").resolve("r")
        assert "exactly one variable" in self.load_and_run(rules)

    @pytest.mark.parametrize("applied", ["$f { }", "$f { #0 = $x #1 = $x }"])
    def test_rhs_function_variable_takes_exactly_one_argument(self, applied):
        rules = parse(
            f"r {{ #0 {{ lhs : d {{ #0 = $x #1 : $f {{ #0 = $x }} }} rhs : {applied} }} }}"
        ).resolve("r")
        assert "exactly one argument" in self.load_and_run(rules)

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_hole_in_a_rule_is_rejected(self, side):
        sides = {"lhs": setn(leaf(1), op="h"), "rhs": leaf(0)}
        sides[side] = setn(Node.hole(), op="h")
        rules = Node.set_node([(None, Node.set_node(list(sides.items())))])
        message = self.load_and_run(rules)
        assert "hole" in message and side in message

    def test_malformed_instruction(self):
        body = parse("b { #0 { at = [x] } }").resolve("b")
        with pytest.raises(EvalError):
            instructions_from(body)
        body2 = parse("b { #0 { at = 5 to = 1 } }").resolve("b")
        with pytest.raises(EvalError):
            instructions_from(body2)
        with pytest.raises(EvalError, match="instruction #0 is not a set"):
            instructions_from(parse("b { #0 = 1 }").resolve("b"))

    def test_malformed_formula(self):
        with pytest.raises(EvalError, match="formula #0 is not a set"):
            formulas_from(parse("r { #0 = 1 }").resolve("r"))
        with pytest.raises(EvalError, match="formula #0 must have"):
            formulas_from(parse("r { #0 { lhs = 1 } }").resolve("r"))


class TestSequential:
    def test_two_assignments(self):
        body = parse("b { #0 { at = [x] to = 5 } #1 { at = [y] to = [x] } }").resolve("b")
        frame = StateTree()
        run_sequential(body, frame)
        assert render(frame) == "ip = 2\nx = 5\ny = 5\n"

    def test_jump_loop(self):
        body = parse(
            """b {
              #0 { at = [x] to = 0 }
              #1 { at = [x] to : sum { #0 = [x] #1 = 1 } }
              #2 { at = [ip] to : if { #0 : lt { #0 = [x] #1 = 3 } #1 = 1 #2 = 3 } }
            }"""
        ).resolve("b")
        frame = StateTree()
        run_sequential(body, frame)
        assert frame.resolve("x").value == 3
        assert frame.resolve("ip").value == 3

    def test_malformed_frame(self):
        body = parse("b { #0 { at = [x] to = 1 } }").resolve("b")
        with pytest.raises(EvalError, match="sequential frame"):
            run_sequential(body, leaf(1))
        with pytest.raises(EvalError, match="rewrite frame"):
            run_rewrite(parse("r { }").resolve("r"), leaf(1))
        jump = parse("b { #0 { at = [ip] to { a = 1 } } }").resolve("b")
        with pytest.raises(EvalError, match="'ip' must be a natural-number leaf"):
            run_sequential(jump, StateTree())

    def test_error_carries_instruction_index(self):
        body = parse(
            "b { #0 { at = [x] to = 1 } #1 { at = [y] to : rem { #0 = 1 #1 = 0 } } }"
        ).resolve("b")
        with pytest.raises(DivisionByZero) as info:
            run_sequential(body, StateTree())
        assert info.value.instruction == 1

    def test_determinism(self):
        body = parse(
            """b {
              #0 { at = [x] to = 3 }
              #1 { at = [y] to : prod { #0 = [x] #1 = [x] } }
              #2 { at = [x] to : sum { #0 = [x] #1 = [y] } }
            }"""
        ).resolve("b")
        frames = []
        for _ in range(3):
            frame = StateTree()
            run_sequential(body, frame)
            frames.append(render(frame))
        assert len(set(frames)) == 1

    def test_trace_lists_steps(self):
        body = parse("b { #0 { at = [x] to = 1 } #1 { at = [y] to = 2 } }").resolve("b")
        trace = CollectingOutput()
        run_sequential(body, StateTree(), EvalContext(StateTree(), trace=TraceSink(trace)))
        assert [line.split(" ", 1)[1] for line in trace.lines] == ["seq 0 x", "seq 1 y"]


    def test_the_trace_keeps_only_its_write_and_step_count(self):
        lib = load_stdlib()
        stream = io.StringIO()
        sink = TraceSink(stream.write)
        args = {"arg1": leaf(12), "arg2": leaf(8)}
        assert run_entry(lib, "gcd", args, EvalContext(lib, trace=sink)).value == 4
        steps = [int(line.split()[0]) for line in stream.getvalue().splitlines()]
        assert steps and steps == list(range(len(steps)))
        assert vars(sink) == {"write": stream.write, "steps": len(steps)}

    def test_every_write_callable_gets_the_same_lines(self):
        lib = load_stdlib()
        args = {"arg1": leaf(12), "arg2": leaf(8)}
        collected, stream = CollectingOutput(), io.StringIO()
        for write in (collected, stream.write):
            assert run_entry(lib, "gcd", args, EvalContext(lib, trace=TraceSink(write))).value == 4
        assert collected.lines and all(len(line.split(" ")) == 4 for line in collected.lines)
        assert stream.getvalue() == "".join(line + "\n" for line in collected.lines)

    @pytest.mark.parametrize("entry, args", [("gcd", {"arg1": 12, "arg2": 8}), ("fact", {"n": 5})])
    def test_each_line_is_written_before_the_next_transition_is_charged(self, entry, args):
        # line k goes out while k instructions and firings are charged:
        # a trace that held its lines back would be written later
        lib = load_stdlib()
        ctx = EvalContext(lib)
        charged, trace = [], CollectingOutput()

        def write(line):
            charged.append(ctx.stats["instruction"] + ctx.stats["firing"])
            trace(line)

        ctx.trace = TraceSink(write)
        run_entry(lib, entry, {label: leaf(v) for label, v in args.items()}, ctx)
        steps = [int(line.split()[0]) for line in trace.lines]
        assert len(charged) >= 3 and charged == steps == list(range(len(steps)))
        assert charged[-1] + 1 == ctx.stats["instruction"] + ctx.stats["firing"]


class TestRewrite:
    def goal_frame(self, a, b):
        frame = parse(GCD_RULES)
        frame.root.add_child("goal", gcd_term(a, b))
        return frame

    def test_gcd_trace(self):
        frame = self.goal_frame(12, 8)
        trace = CollectingOutput()
        ctx = EvalContext(frame, trace=TraceSink(trace))
        run_rewrite(frame.resolve("rules"), frame, ctx)
        assert frame.resolve("goal").value == 4
        firings = [line.split(" ") for line in trace.lines if line.split(" ")[1] == "rew"]
        assert [int(e[2]) for e in firings] == [2, 2, 1]
        assert all(e[3] == "goal" for e in firings)

    def test_gcd_base_case(self):
        frame = self.goal_frame(7, 0)
        ctx = EvalContext(frame)
        run_rewrite(frame.resolve("rules"), frame, ctx)
        assert frame.resolve("goal").value == 7
        assert ctx.stats["firing"] == 1

    def test_gcd_against_euclid_oracle(self, rng):
        for _ in range(60):
            a = rng.randrange(10**6)
            b = rng.randrange(a + 1)
            want, steps = euclid(a, b)
            frame = self.goal_frame(a, b)
            ctx = EvalContext(frame)
            run_rewrite(frame.resolve("rules"), frame, ctx)
            assert frame.resolve("goal").value == want
            assert ctx.stats["firing"] == steps + 1

    def test_frame_isolation(self):
        frame = self.goal_frame(12, 8)
        frame.root.add_child("bystander", parse("u = 1 v { w = 2 }").root)
        rules_before = render(frame.resolve("rules"))
        bystander_before = render(frame.resolve("bystander"))
        run_rewrite(frame.resolve("rules"), frame)
        assert render(frame.resolve("rules")) == rules_before
        assert render(frame.resolve("bystander")) == bystander_before

    def test_determinism(self):
        outputs = set()
        for _ in range(3):
            frame = self.goal_frame(252, 105)
            run_rewrite(frame.resolve("rules"), frame)
            outputs.add(render(frame))
        assert len(outputs) == 1

    def test_first_matching_formula_wins(self):
        frame = parse(
            """rules {
                 #0 { lhs : f { #0 = $X } rhs = 1 }
                 #1 { lhs : f { #0 = $X } rhs = 2 }
               }"""
        )
        frame.root.add_child("goal", setn(leaf(0), op="f"))
        run_rewrite(frame.resolve("rules"), frame)
        assert frame.resolve("goal").value == 1

    def test_outermost_non_overlapping_matches(self):
        # f(f(0)) rewrites outermost first: one firing per pass
        frame = parse(
            "rules { #0 { lhs : f { #0 = $X } rhs : g { #0 = $X } } }"
        )
        frame.root.add_child("goal", setn(setn(leaf(0), op="f"), op="f"))
        ctx = EvalContext(frame)
        run_rewrite(frame.resolve("rules"), frame, ctx)
        goal = frame.resolve("goal")
        assert goal.op == "g" and goal.children[0][1].op == "g"
        assert ctx.stats["firing"] == 2

    def test_fuel_stops_divergence(self):
        frame = parse(
            "rules { #0 { lhs : loop { #0 = $X } rhs : loop { #0 = $X } } }"
        )
        frame.root.add_child("goal", setn(leaf(0), op="loop"))
        with pytest.raises(FuelExhausted):
            run_rewrite(frame.resolve("rules"), frame, EvalContext(frame, fuel=30))

    def test_sweep_leaves_if_and_select_on_an_operand_that_is_not_a_value(self):
        src = """
        c : if { #0 : later { #0 = 1 } #1 = 2 #2 = 3 }
        s : select { #0 : later { #0 = 1 } #1 : lt { #0 = $x #1 = 3 } }
        """
        frame = parse(src)
        run_rewrite(parse("r { }").resolve("r"), frame)
        assert render(frame) == render(parse(src))

    def test_ready_subterms_evaluated_before_matching(self):
        frame = parse(
            GCD_RULES + "\nvals { a = 12 b = 8 }\n"
        )
        frame.root.add_child(
            "goal",
            setn(Node.ref_node("vals.a"), Node.ref_node("vals.b"), op="gcd"),
        )
        run_rewrite(frame.resolve("rules"), frame)
        assert frame.resolve("goal").value == 4
