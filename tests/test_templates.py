"""Templates: instantiation by copy, the call protocol, heap appliance."""

import datetime
import math

import pytest

from evocat import (
    EvalContext,
    call,
    heap_get,
    heap_put,
    instantiate,
    load_stdlib,
    merge_program,
    parse,
    render,
    run_entry,
)
from evocat.errors import (
    CompareFailed,
    EmptyHeap,
    EvalError,
    MissingArgument,
    PathUnresolvable,
)
from evocat import templates
from evocat.evaluator import evaluate
from evocat.templates import bind_operands
from evocat.tree import node_equal

from helpers import leaf, node_ids, setn

WEEKDAY_MAIN = """
main {
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
}
"""

# a template passed as an operand and called from the body
APPLY = """
apply {
  args { g = $g x = $x }
  mode = 0
  body {
    #0 { at = [h] to = [args.g] }
    #1 { at = [h.args.n] to = [args.x] }
    #2 { at = [result] to = [h] }
  }
  result = 0
}
main {
  args { }
  mode = 0
  body { #0 { at = [result] to : apply { #0 = [fact] #1 = 4 } } }
  result = 0
}
"""

# d.weekday is a function instance whose body calls the div template; the
# rewrite frame forces it during its ready-term sweep
LATE_WEEKDAY = """
d {
  day = 5 month = 2 year = 2004
  weekday {
    args { }
    mode = 0
    body { #0 { at = [result] to : div { #0 = [year] #1 = 100 } } }
    result = 0
  }
}
from_rules { args { } mode = 1 rules { } result = [d.weekday] }
from_body { args { } mode = 0 body { #0 { at = [result] to = [d.weekday] } } result = 0 }
"""

# a select whose predicate calls a template, fired by a rewrite frame's
# sweep (rwt) and by a sequential body (seq)
SWEEP_SELECT = """
isone { args { x = $x } mode = 0 body { #0 { at = [result] to : eq { #0 = [args.x] #1 = 1 } } } result = 0 }
rwt { args { } mode = 1 rules { #0 { lhs : never { #0 = $z } rhs = 0 } }
      result : select { #0 { a = 1 b = 2 } #1 : isone { #0 = $x } } }
seq { args { } mode = 0
      body { #0 { at = [result] to : select { #0 { a = 1 b = 2 } #1 : isone { #0 = $x } } } }
      result = 0 }
"""


def weekday_machine():
    lib = load_stdlib()
    merge_program(lib, parse(WEEKDAY_MAIN))
    return lib


class TestInstantiate:
    def test_copy_isolation(self):
        lib = load_stdlib()
        before = render(lib.resolve("gcd"))
        instance = instantiate(lib, "gcd")
        instance.child("args").set_child("arg1", leaf(4))
        instance.child("mode").value = 99
        assert render(lib.resolve("gcd")) == before

    def test_typed_fields_fill_only_the_instance(self):
        lib = load_stdlib()
        x = instantiate(lib, "Date")
        x.set_child("day", leaf(5))
        x.set_child("month", leaf(2))
        x.set_child("year", leaf(2004))
        assert lib.resolve("Date.day").kind == "var"
        assert x.child("day").value == 5

    def test_instantiating_twice_gives_equal_copies(self):
        lib = load_stdlib()
        assert node_equal(instantiate(lib, "fact"), instantiate(lib, "fact"))

    def test_missing_template(self):
        with pytest.raises(PathUnresolvable):
            instantiate(load_stdlib(), "nope")


class TestCall:
    def test_gcd_replaces_instance_with_result(self):
        lib = load_stdlib()
        instance = instantiate(lib, "gcd")
        instance.child("args").set_child("arg1", leaf(12))
        instance.child("args").set_child("arg2", leaf(8))
        result = call(instance, EvalContext(lib))
        assert result is instance  # the node became the value
        assert instance.kind == "leaf" and instance.value == 4

    def test_missing_argument_is_named(self):
        lib = load_stdlib()
        instance = instantiate(lib, "gcd")
        instance.child("args").set_child("arg1", leaf(12))
        with pytest.raises(MissingArgument) as info:
            call(instance, EvalContext(lib))
        assert "arg2" in str(info.value)

    def test_a_slot_holding_a_template_is_filled(self):
        # the operand [fact] keeps its own `n = $n`; only a slot that is
        # itself a placeholder is empty
        lib = load_stdlib()
        merge_program(lib, parse(APPLY))
        assert run_entry(lib, "main").value == 24

    def test_a_call_forced_from_the_sweep_runs_its_body_strictly(self):
        for entry in ("from_rules", "from_body"):
            lib = load_stdlib()
            merge_program(lib, parse(LATE_WEEKDAY))
            assert run_entry(lib, entry).value == 20
            assert render(lib.resolve("d.weekday")) == "20\n"

    def test_a_select_fired_by_the_sweep_runs_its_predicate_strictly(self):
        for entry in ("rwt", "seq"):
            out = run_entry(parse(SWEEP_SELECT), entry)
            assert render(out) == "a = 1\n", entry

    def test_weekday_2004_02_05_is_thursday(self):
        result = run_entry(
            weekday_machine(),
            "main",
            {"day": leaf(5), "month": leaf(2), "year": leaf(2004)},
        )
        assert result.value == 3  # Monday = 0

    def test_weekday_random_dates_match_calendar_oracle(self, rng):
        for _ in range(25):
            year = rng.randrange(1900, 2101)
            month = rng.randrange(1, 13)
            day = rng.randrange(1, 29)
            want = datetime.date(year, month, day).weekday()
            got = run_entry(
                weekday_machine(),
                "main",
                {"day": leaf(day), "month": leaf(month), "year": leaf(year)},
            )
            assert got.value == want, (year, month, day)

    def test_fact_self_copy_recursion(self):
        for n in (0, 1, 5, 10):
            result = run_entry(load_stdlib(), "fact", {"n": leaf(n)})
            assert result.value == math.factorial(n)

    def test_frames_share_their_outer_chain(self, monkeypatch):
        # a call pushes one (frame, outer) cell onto the chain it was made
        # in, so each recursive frame's tail is the caller's chain itself
        chains = []
        real = templates.run_sequential

        def recording(body, frame, ctx):
            assert ctx.scope[0] is frame
            chains.append(ctx.scope)
            return real(body, frame, ctx)

        monkeypatch.setattr(templates, "run_sequential", recording)
        assert run_entry(load_stdlib(), "fact", {"n": leaf(5)}).value == 120
        assert len(chains) == 5  # n = 5, 4, 3, 2, 1
        for caller, callee in zip(chains, chains[1:]):
            assert callee[1] is caller

    def test_operation_identifier_calls_template(self):
        # a term whose op names a template resolves through the scopes
        lib = load_stdlib()
        term = parse("t : gcd { #0 = 252 #1 = 105 }").resolve("t")
        out = evaluate(term, EvalContext(lib))
        assert out.value == 21

    def test_operation_call_arity_checked(self):
        lib = load_stdlib()
        term = setn(leaf(1), op="gcd")
        with pytest.raises(MissingArgument):
            evaluate(term, EvalContext(lib))

    def test_access_replaces_instance_inside_the_tree(self):
        # a filled instance sitting in the tree becomes its result on access
        lib = load_stdlib()
        instance = instantiate(lib, "gcd")
        instance.child("args").set_child("arg1", leaf(12))
        instance.child("args").set_child("arg2", leaf(8))
        lib.root.add_child("job", instance)
        ctx = EvalContext(lib)
        assert lib.data_of("job", ctx).value == 4
        assert lib.resolve("job").kind == "leaf" and lib.resolve("job").value == 4

    def test_member_function_sees_instance_fields(self):
        # copy the type, fill fields, touch the member: it runs on access
        lib = weekday_machine()
        frame = parse(
            """go {
                 args { }
                 mode = 0
                 body {
                   #0 { at = [x] to = [Date] }
                   #1 { at = [x.day] to = 1 }
                   #2 { at = [x.month] to = 1 }
                   #3 { at = [x.year] to = 2001 }
                   #4 { at = [result] to = [x.weekday] }
                 }
                 result = 0
               }"""
        )
        merge_program(lib, frame)
        result = run_entry(lib, "go", {})
        assert result.value == datetime.date(2001, 1, 1).weekday()


class TestBindOperands:
    def test_slots_are_copies_of_the_operands(self):
        instance = instantiate(load_stdlib(), "gcd")
        operands = [setn(leaf(1), leaf(2)), leaf(3)]
        bind_operands(instance, operands)
        args = instance.child("args")
        assert args.labels() == ["arg1", "arg2"]
        assert node_equal(args.child("arg1"), operands[0])
        assert node_equal(args.child("arg2"), operands[1])
        assert not node_ids(args) & (node_ids(operands[0]) | node_ids(operands[1]))


class TestHeap:
    def fresh_heap(self):
        lib = load_stdlib()
        heap = instantiate(lib, "heap")
        return heap, EvalContext(lib)

    def test_put_sifts_minimum_to_top(self):
        heap, ctx = self.fresh_heap()
        for v in (5, 3, 8):
            heap_put(heap, leaf(v), ctx)
        assert heap.child("data").child_at(0).value == 3

    def test_put_on_empty(self):
        heap, ctx = self.fresh_heap()
        heap_put(heap, leaf(7), ctx)
        data = heap.child("data")
        assert len(data.children) == 1 and data.child_at(0).value == 7

    def test_drain_is_sorted(self):
        heap, ctx = self.fresh_heap()
        for v in (5, 3, 8):
            heap_put(heap, leaf(v), ctx)
        assert [heap_get(heap, ctx).value for _ in range(3)] == [3, 5, 8]
        bare = parse("heap { data { } }").resolve("heap")  # no compare: ordered by <
        for v in (5, 3, 8):
            heap_put(bare, leaf(v), ctx)
        assert [heap_get(bare, ctx).value for _ in range(3)] == [3, 5, 8]

    def test_heap_order_invariant(self, rng):
        heap, ctx = self.fresh_heap()
        for _ in range(100):
            heap_put(heap, leaf(rng.randrange(1000)), ctx)
        slots = heap.child("data").children
        for i in range(1, len(slots)):
            parent = (i - 1) // 2
            assert slots[parent][1].value <= slots[i][1].value

    def test_get_on_one_and_two_items(self):
        heap, ctx = self.fresh_heap()
        data = heap.child("data")
        heap_put(heap, leaf(4), ctx)
        assert heap_get(heap, ctx).value == 4
        assert data.children == []
        for order in ((2, 9), (9, 2)):
            for v in order:
                heap_put(heap, leaf(v), ctx)
            assert heap_get(heap, ctx).value == 2
            assert [child.value for _, child in data.children] == [9]
            assert heap_get(heap, ctx).value == 9
            assert data.children == []
        with pytest.raises(EmptyHeap):
            heap_get(heap, ctx)

    def test_get_on_empty(self):
        heap, ctx = self.fresh_heap()
        with pytest.raises(EmptyHeap):
            heap_get(heap, ctx)

    def test_custom_compare_makes_a_max_heap(self):
        lib = load_stdlib()
        heap = instantiate(lib, "heap")
        flipped = parse(
            """compare {
                 args { arg1 = $arg1 arg2 = $arg2 }
                 mode = 0
                 body {
                   #0 { at = [result] to : lt { #0 = [args.arg2] #1 = [args.arg1] } }
                 }
                 result = 0
               }"""
        ).resolve("compare")
        heap.set_child("compare", flipped)
        ctx = EvalContext(lib)
        for v in (5, 3, 8):
            heap_put(heap, leaf(v), ctx)
        assert [heap_get(heap, ctx).value for _ in range(3)] == [8, 5, 3]

    def test_compare_failure_is_wrapped(self):
        heap, ctx = self.fresh_heap()
        heap_put(heap, leaf(1), ctx)
        with pytest.raises(CompareFailed):
            heap_put(heap, setn(leaf(1)), ctx)
        bare = parse("heap { data { } }").resolve("heap")  # no compare: leaves only
        heap_put(bare, leaf(1), ctx)
        with pytest.raises(CompareFailed):
            heap_put(bare, setn(leaf(1)), ctx)
        seven = parse(
            "compare { args { arg1 = $arg1 arg2 = $arg2 } mode = 0"
            " body { #0 { at = [result] to = 7 } } result = 0 }"
        ).resolve("compare")
        heap.set_child("compare", seven)
        with pytest.raises(CompareFailed, match="boolean"):
            heap_put(heap, leaf(2), ctx)

    def test_not_a_heap(self):
        with pytest.raises(EvalError):
            heap_put(parse("a = 1"), leaf(1))
