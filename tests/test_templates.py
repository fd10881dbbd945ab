"""Templates: instantiation by copy, the call protocol, heap appliance."""

import datetime
import heapq
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import (
    CollectingOutput,
    DeviceTable,
    EvalContext,
    TraceSink,
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
    DivisionByZero,
    EmptyHeap,
    EvalError,
    EvoError,
    FrozenCode,
    MissingArgument,
    NotASet,
    PathUnresolvable,
    UnknownOperation,
)
from evocat import templates
from evocat.evaluator import evaluate
from evocat.templates import bind_operands
from evocat.tree import LEAF, Node, node_equal

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

    def test_a_leaf_is_no_template(self):
        with pytest.raises(NotASet, match="x is not a template set node"):
            instantiate(parse("x = 1"), "x")

    def test_a_program_that_is_no_set_is_not_merged(self):
        lib = load_stdlib()
        before = render(lib)
        with pytest.raises(NotASet, match="a program file must be a set of top-level entries"):
            merge_program(lib, leaf(1))
        assert render(lib) == before


class TestCall:
    def test_gcd_replaces_instance_with_result(self):
        lib = load_stdlib()
        instance = instantiate(lib, "gcd")
        instance.child("args").set_child("arg1", leaf(12))
        instance.child("args").set_child("arg2", leaf(8))
        result = call(instance, EvalContext(lib))
        assert result is instance  # the node became the value
        assert instance.kind == "leaf" and instance.value == 4

    def test_a_set_that_is_no_function_instance_is_not_called(self):
        root = parse("x { args { } mode = 0 result = 0 }")  # no body
        with pytest.raises(EvalError, match="call target is not a function instance"):
            call(root.child("x"), EvalContext(root))
        assert render(root) == "x {\n  args {\n  }\n  mode = 0\n  result = 0\n}\n"

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

    def test_no_mode_survives_an_error(self):
        # the sweep of r raises; the same context then evaluates strictly
        root = parse("r { args { } mode = 1 rules { } x : rem { #0 = 1 #1 = 0 } result = 0 }")
        ctx = EvalContext(root)
        with pytest.raises(DivisionByZero):
            run_entry(root, "r", ctx=ctx)
        with pytest.raises(UnknownOperation):
            evaluate(parse("t : nope { }").resolve("t"), ctx)

    def test_every_template_call_counts(self):
        # the entry call, the calls forced through [f] and the heap's compares
        lib = load_stdlib()
        ctx = EvalContext(lib)
        assert run_entry(lib, "fact", {"n": leaf(5)}, ctx).value == 120
        assert ctx.stats["call"] == 5
        heap, ctx = lib.resolve("heap"), EvalContext(lib)
        for key in (5, 3, 9, 1):
            heap_put(heap, leaf(key), ctx)
        assert heap_get(heap, ctx).value == 1
        assert ctx.stats["call"] == 6

    @pytest.mark.parametrize(
        "content, outcome",
        [
            ("{ x = 1 result = 7 }", "7\n"),
            ("{ x = 1 }", (EvalError, "instance lost its result slot")),
        ],
    )
    def test_a_write_at_the_identity_path_replaces_the_whole_frame(self, content, outcome):
        # the result slot is looked up after the run, not taken from the
        # frame as it was when the call began
        root = parse(f"f {{ args {{ }} mode = 0 body {{ #0 {{ at = [x] to {content} }} }} result = 0 }}")
        root.resolve("f.body.#0.at").become(Node.ref_node(""))
        ctx = EvalContext(root, fuel=100)
        try:
            got = render(run_entry(root, "f", ctx=ctx))
        except EvoError as err:
            got = (type(err), str(err))
        assert got == outcome
        assert dict(ctx.stats) == {"call": 1, "instruction": 1} and ctx.fuel == 98

    @staticmethod
    def traced_run(program: str, entry: str, identity=()):
        """The entry's rendered result or error, stats, fuel spent and
        trace lines; each ``at`` in ``identity`` is made the identity path."""
        root = parse(program)
        for at in identity:
            root.resolve(at).become(Node.ref_node(""))
        ctx = EvalContext(root, fuel=100, trace=TraceSink(trace := CollectingOutput()))
        try:
            got = render(run_entry(root, entry, ctx=ctx))
        except EvoError as err:
            got = (type(err), str(err))
        return got, dict(ctx.stats), 100 - ctx.fuel, trace.lines

    def test_a_write_at_the_ip_slot_by_ordinal_is_not_a_jump(self):
        # #4 is the ip slot that the run appends; only the literal [ip] is
        # a jump, so ip still goes on to 1 after the write
        body = "#0 { at = [#4] to = 7 } #1 { at = [result] to = [ip] }"
        assert self.traced_run(f"x {{ args {{ }} mode = 0 body {{ {body} }} result = 0 }}", "x") == (
            "1\n",
            {"call": 1, "instruction": 2, "deref": 1},
            4,
            ["0 seq 0 #4", "1 seq 1 result"],
        )

    @pytest.mark.parametrize(
        "first, fourth, identity",
        [
            ("{ y = 2 ip = 0 result = 0 }", "{ z = [z] }", ["f.body.#0.at", "f.body.#4.at"]),
            ("{ y = 2 }", "{ z = [z] }", ["f.body.#0.at"]),
            ("{ y = 2 ip { } }", "{ z = [z] ip = 9 }", ["f.body.#0.at", "f.body.#4.at"]),
        ],
    )
    def test_instructions_after_a_write_at_the_identity_path(self, first, fourth, identity):
        # the new frame holds an ip or not; later instructions read and
        # write the ip and result of the frame as it is now
        body = (
            f"#0 {{ at = [x] to {first} }} #1 {{ at = [z] to : sum {{ #0 = [y] #1 = [ip] }} }}"
            f" #2 {{ at = [ip] to = 4 }} #3 {{ at = [z] to = 99 }} #4 {{ at = [x] to {fourth} }}"
            " #5 { at = [result] to : prod { #0 = [z] #1 = 2 } }"
        )
        got = self.traced_run(f"f {{ args {{ }} mode = 0 body {{ {body} }} result = 0 }}", "f", identity)
        assert got == (
            "6\n",
            {"call": 1, "instruction": 5, "deref": 4, "op": 2},
            12,
            ["0 seq 0 .", "1 seq 1 z", "2 seq 2 ip",
             "3 seq 4 " + ("." if len(identity) == 2 else "x"), "4 seq 5 result"],
        )

    @pytest.mark.parametrize(
        "entry, stats, lines",
        [
            ("r", {"call": 1, "firing": 1, "op": 1}, ["0 rew 1 result"]),
            ("o", {"call": 2, "instruction": 1, "firing": 1, "op": 1}, ["0 seq 0 result", "1 rew 1 result"]),
        ],
    )
    def test_a_rewrite_call_whose_rule_fires_at_result(self, entry, stats, lines):
        program = (
            "r { args { } mode = 1 rules { #0 { lhs : f { #0 = $X } rhs : sum { #0 = $X #1 = 2 } } }"
            " result : f { #0 = 1 } }"
            " o { args { } mode = 0 body { #0 { at = [result] to : r { } } } result = 0 }"
        )
        assert self.traced_run(program, entry) == ("3\n", stats, sum(stats.values()), lines)

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

        def recording(body, frame, ctx, record):
            assert ctx.scope[0] is frame and record.instance is frame
            chains.append(ctx.scope)
            return real(body, frame, ctx, record)

        monkeypatch.setattr(templates, "run_sequential", recording)
        assert run_entry(load_stdlib(), "fact", {"n": leaf(5)}).value == 120
        assert len(chains) == 5  # n = 5, 4, 3, 2, 1
        for caller, callee in zip(chains, chains[1:]):
            assert callee[1] is caller

    @pytest.mark.parametrize("made", ["none", "at_root", "elsewhere"])
    def test_the_root_is_on_the_chain_once(self, made, monkeypatch):
        # a context made at the root already starts with it; a context
        # made elsewhere, or none, gets the root pushed
        root = load_stdlib()
        ctx = {"none": None, "at_root": EvalContext(root), "elsewhere": EvalContext(parse("x = 0"))}[made]
        chains = []
        real = templates.call

        def recording(instance, ctx, record=None):
            nodes, scope = [], ctx.scope
            while scope is not None:
                nodes.append(scope[0])
                scope = scope[1]
            chains.append(nodes)
            return real(instance, ctx, record)

        monkeypatch.setattr(templates, "call", recording)
        assert run_entry(root, "gcd", {"arg1": leaf(12), "arg2": leaf(8)}, ctx=ctx).value == 4
        assert chains == [[root] if made != "elsewhere" else [root, ctx.scope[0]]]

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
        assert [label for label, _ in args.children] == ["arg1", "arg2"]
        assert node_equal(args.child("arg1"), operands[0])
        assert node_equal(args.child("arg2"), operands[1])
        assert not node_ids(args) & (node_ids(operands[0]) | node_ids(operands[1]))

    def test_an_instance_whose_args_is_a_leaf_has_no_slots(self):
        instance = parse("f { args = 0 mode = 0 body { } result = 0 }").resolve("f")
        with pytest.raises(EvalError, match="instance has no argument set"):
            bind_operands(instance, [leaf(1)])
        with pytest.raises(EvalError, match="instance has no argument set"):
            templates.assign_argument(instance, "n", leaf(1))

    def test_assign_argument_needs_an_existing_slot(self):
        instance = instantiate(load_stdlib(), "fact")
        with pytest.raises(MissingArgument, match="no argument slot named 'm'"):
            templates.assign_argument(instance, "m", leaf(1))
        assert [label for label, _ in instance.child("args").children] == ["n"]


# --- a plain-Python model of the heap's sift-up and sift-down --------------------
#
# Items are keys, None standing for the item ``{ a = 1 }`` that every compare
# with fails.  The model swaps as it compares and works on a copy, so a failed
# operation leaves the caller's list as it was.


class ModelFailed(Exception):
    pass


def model_less(calls, a, b):
    calls.append((a, b))
    if a is None or b is None:
        raise ModelFailed
    return a < b


def model_put(items, key, calls):
    items = items + [key]
    i = len(items) - 1
    while i > 0 and model_less(calls, items[i], items[parent := (i - 1) // 2]):
        items[i], items[parent] = items[parent], items[i]
        i = parent
    return items


def model_get(items, calls):
    items, n = items[:], len(items) - 1
    items[0], items[n] = items[n], items[0]
    top, i = items.pop(), 0
    while True:
        smallest = i
        for child in (2 * i + 1, 2 * i + 2):
            if child < n and model_less(calls, items[child], items[smallest]):
                smallest = child
        if smallest == i:
            return items, top
        items[i], items[smallest] = items[smallest], items[i]
        i = smallest


def key_of(node):
    return node.value if node.kind == LEAF else None


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
        assert data.children == ()
        for order in ((2, 9), (9, 2)):
            for v in order:
                heap_put(heap, leaf(v), ctx)
            assert heap_get(heap, ctx).value == 2
            assert [child.value for _, child in data.children] == [9]
            assert heap_get(heap, ctx).value == 9
            assert data.children == ()
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

    def heap_of(self, *keys):
        """A stdlib heap whose data holds ``keys`` in this order; None is
        the item ``{ a = 1 }``, on which every compare fails."""
        heap, ctx = self.fresh_heap()
        for key in keys:
            heap.child("data").add_child(None, setn(leaf(1), labels=["a"]) if key is None else leaf(key))
        return heap, ctx

    def check_left_as_it_was(self, heap, ctx, before, keys):
        # the render is byte-identical; with each bad item made a large
        # key, the next get finds the true minimum
        assert render(heap) == before
        data = heap.child("data")
        for index, key in enumerate(keys):
            if key is None:
                data.child_at(index).become(leaf(99))
        assert heap_get(heap, ctx).value == min(key for key in keys if key is not None)

    @pytest.mark.parametrize(
        "keys, item",
        [
            ((1, 3, 8, 5), None),  # the new item fails its first compare
            ((1, None, 8, 5, 6, 9, 10), 2),  # 2 swaps with 5, then meets the bad item
        ],
    )
    def test_a_failed_put_leaves_the_heap_as_it_was(self, keys, item):
        heap, ctx = self.heap_of(*keys)
        before = render(heap)
        with pytest.raises(CompareFailed):
            heap_put(heap, setn(leaf(1), labels=["a"]) if item is None else leaf(item), ctx)
        self.check_left_as_it_was(heap, ctx, before, keys)

    @pytest.mark.parametrize(
        "keys",
        [
            (1, 3, 8, 5, None),  # the bad item moves to the top and fails at once
            (1, 3, 8, None, 5),  # 5 moves to the top, swaps with 3, then meets it
        ],
    )
    def test_a_failed_get_leaves_the_heap_as_it_was(self, keys):
        heap, ctx = self.heap_of(*keys)
        before = render(heap)
        with pytest.raises(CompareFailed):
            heap_get(heap, ctx)
        self.check_left_as_it_was(heap, ctx, before, keys)

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(st.integers(-1, 30), max_size=30),  # -1 is a get, k a put of k
        step=st.integers(0, 30),
        slot=st.integers(0, 63),
    )
    def test_compares_and_order_follow_the_sift_model(self, ops, step, slot):
        # at ``step`` the item in ``slot`` turns into { a = 1 }, or, on an
        # empty heap, { a = 1 } is put; compares with it fail from then on
        heap, ctx = self.fresh_heap()
        data, model, mirror = heap.child("data"), [], []
        calls, less = [], templates._heap_less

        def spy(compare, a, b, ctx):
            calls.append((key_of(a), key_of(b)))
            return less(compare, a, b, ctx)

        with mock.patch.object(templates, "_heap_less", spy):
            for index, op in enumerate(ops):
                if index == step and model:
                    mirror.remove(model[slot % len(model)])
                    heapq.heapify(mirror)
                    model[slot % len(model)] = None
                    data.child_at(slot % len(model)).become(setn(leaf(1), labels=["a"]))
                elif index == step:
                    heap_put(heap, setn(leaf(1), labels=["a"]), ctx)
                    model = [None]
                if op < 0 and not model:
                    continue
                before, calls[:], want = render(heap), [], []
                try:
                    if op < 0:
                        model, top = model_get(model, want)
                    else:
                        model = model_put(model, op, want)
                except ModelFailed:
                    with pytest.raises(CompareFailed):
                        heap_put(heap, leaf(op), ctx) if op >= 0 else heap_get(heap, ctx)
                    assert render(heap) == before
                else:
                    if op < 0:
                        got = key_of(heap_get(heap, ctx))
                        assert got == top and (got is None or got == heapq.heappop(mirror))
                    else:
                        heap_put(heap, leaf(op), ctx)
                        heapq.heappush(mirror, op)
                assert calls == want
                assert [key_of(node) for _, node in data.children] == model

    def test_a_compare_reads_the_heap_as_it_was_before_the_operation(self):
        # each compare writes the heap's first two items to stdout; a put or
        # get compares before it writes, so every compare sees the heap as
        # it was before the operation, not half sifted or without its top
        out = CollectingOutput()
        machine = parse(
            """heap {
                 data { }
                 compare {
                   args { arg1 = $arg1 arg2 = $arg2 }
                   mode = 0
                   body {
                     #0 { at = [dev.stdout] to = [heap.data.#0] }
                     #1 { at = [dev.stdout] to = [heap.data.#1] }
                     #2 { at = [result] to : lt { #0 = [args.arg1] #1 = [args.arg2] } }
                   }
                   result = 0
                 }
               }"""
        )
        heap = machine.child("heap")
        for key in (3, 5, 8):
            heap.child("data").add_child(None, leaf(key))
        ctx = EvalContext(machine, devices=DeviceTable.standard(stdin=[], stdout=out))
        heap_put(heap, leaf(1), ctx)  # 1 goes above 5, then above 3
        assert out.lines == ["3", "5", "3", "5"]  # swapping as it compared showed 3 1 at the second
        del out.chunks[:]
        assert heap_get(heap, ctx).value == 1  # 5 from the end goes below 3 and 8
        assert out.lines == ["1", "3", "1", "3"]  # popping the top first showed 5 3 twice
        assert [key_of(node) for _, node in heap.child("data").children] == [3, 5, 8]

    @pytest.mark.parametrize("op", ["put", "get"])
    def test_a_frozen_heap_refuses_the_write_after_its_compares(self, op):
        heap, ctx = self.fresh_heap()
        for key in (3, 5, 8, 9):
            heap_put(heap, leaf(key), ctx)
        heap.child("data").freeze()
        before, calls = render(heap), ctx.stats["call"]
        with pytest.raises(FrozenCode):
            heap_put(heap, leaf(1), ctx) if op == "put" else heap_get(heap, ctx)
        assert ctx.stats["call"] - calls == 2  # 1 above 5 and 3, or 9 against 5 and 8
        assert render(heap) == before

    def test_a_compare_scans_frames_at_most_six_and_a_half_times(self, rng, monkeypatch):
        # counted work, not time: a call finds args, mode and code once,
        # and a put or get looks the compare template up once
        heap, _ = self.fresh_heap()
        ctx = EvalContext(heap)
        for _ in range(200):
            heap_put(heap, leaf(rng.randrange(10**6)), ctx)
        scans, child = [0], Node.child

        def counting(node, label):
            scans[0] += 1
            return child(node, label)

        monkeypatch.setattr(Node, "child", counting)
        ctx = EvalContext(heap)
        for _ in range(300):
            heap_put(heap, leaf(rng.randrange(10**6)), ctx)
            heap_get(heap, ctx)
        assert ctx.stats["call"] > 300 * 10
        # 5.24 with the call's result taken from its record, 6.24 with one
        # frame record per call, 10.1 without
        assert scans[0] / ctx.stats["call"] <= 5.55

    def test_a_compare_writes_three_nodes_and_scans_for_ip_once(self, rng, monkeypatch):
        # counted work, not time: the operands go into args in one write,
        # and the frame's ip node and result node are taken from the record
        # of the run and the call, not found again
        heap, _ = self.fresh_heap()
        ctx = EvalContext(heap)
        for _ in range(200):
            heap_put(heap, leaf(rng.randrange(10**6)), ctx)
        counts = {"become": 0, "index_of": 0}
        for name in counts:
            def counting(node, *args, _inner=getattr(Node, name), _name=name):
                counts[_name] += 1
                return _inner(node, *args)

            monkeypatch.setattr(Node, name, counting)
        ctx = EvalContext(heap)
        for _ in range(300):
            heap_put(heap, leaf(rng.randrange(10**6)), ctx)
            heap_get(heap, ctx)
        compares = ctx.stats["call"]
        assert compares > 300 * 10
        assert counts["become"] / compares <= 3  # 5.0 with a become per operand slot and set_child for ip
        assert counts["index_of"] / compares <= 1  # 2.0 when ip was looked up again after each instruction

    def test_not_a_heap(self):
        with pytest.raises(EvalError):
            heap_put(parse("a = 1"), leaf(1))
