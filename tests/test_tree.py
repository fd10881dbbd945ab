"""Addressing, replacement, and view semantics of the state tree."""

import gc
import itertools
import random
import re
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import EvalContext, load_stdlib, parse, render
from evocat.algebra import _EAGER_OPS, apply_builtin
from evocat.engine import match, run_rewrite, run_sequential, substitute
from evocat.errors import DuplicateSibling, EvoError, NotASet, OrdinalInMeet, ParseError, PathUnresolvable
from evocat.evaluator import evaluate
from evocat.textio import encode_text
from evocat.tree import (
    HOLE,
    LEAF,
    REF,
    SET,
    VAR,
    Node,
    Path,
    StateTree,
    compose,
    meet,
    new_atom,
    new_set,
    node_equal,
    rebuild,
    replace_subtree,
    resolve,
    subtree_view,
)

from helpers import LABELS, cli_state_text, gen_any_tree, gen_value_tree, node_ids, preorder

paths = st.builds(
    Path,
    st.lists(st.sampled_from(LABELS) | st.integers(0, 4), max_size=6).map(tuple),
)
label_paths = st.lists(st.sampled_from(LABELS), max_size=6).map(tuple).map(Path)


def _set_of(op, entries):
    """A set node from (label or None, child) pairs, dropping repeated labels."""
    seen = set()
    node = Node.set_node(op=op)
    for label, child in entries:
        if label is None or label not in seen:
            seen.add(label)
            node.add_child(label, child)
    return node


# trees of all five node kinds, with labelled and unlabelled children
any_trees = st.recursive(
    st.one_of(
        st.integers(0, 10**30).map(Node.leaf),
        paths.map(Node.ref_node),
        st.sampled_from(LABELS).map(Node.var_node),
        st.builds(Node.hole),
    ),
    lambda kids: st.builds(
        _set_of,
        st.none() | st.sampled_from(["sum", "if", "$f", "gcd"]),
        st.lists(st.tuples(st.none() | st.sampled_from(LABELS), kids), max_size=5),
    ),
    max_leaves=40,
)


def chain(depth: int, bottom: Node) -> Node:
    """``bottom`` under ``depth`` nested sets, alternately labelled ``a``
    and unlabelled, built without recursion."""
    node = bottom
    for i in range(depth):
        node = Node.set_node([("a" if i % 2 else None, node)])
    return node


def snapshot(root: Node) -> list:
    """Every node's depth, label and payload in preorder, taken without
    recursion, so that a deep tree can be compared before and after."""
    out, stack = [], [(0, None, root)]
    while stack:
        depth, label, node = stack.pop()
        out.append((depth, label, node.kind, node.value, node.op))
        stack.extend((depth + 1, lab, kid) for lab, kid in reversed(node.children))
    return out


def T(src: str) -> Node:
    return parse(src)


class TestResolve:
    def test_identity_arrow(self):
        t = T("a = 5")
        assert resolve(t.root, Path.parse("")) is t.root
        assert resolve(t.root, Path.parse(".")) is t.root

    def test_two_step_descent(self):
        t = T("a { b = 5 }")
        node = t.resolve("a.b")
        assert node.kind == "leaf" and node.value == 5

    def test_ordinal_index_matches_enumeration(self, rng):
        # positional index = left-to-right order, against child enumeration
        for _ in range(50):
            node = gen_value_tree(rng, depth=2)
            if node.kind != "set":
                continue
            for k, (_, child) in enumerate(node.children):
                assert resolve(node, Path.of(k)) is child
        t = T("a { x = 1 y = 2 }")
        assert t.resolve("a.#1").value == 2

    def test_absence_is_none(self):
        t = T("a = 5")
        assert t.resolve("b") is None
        assert t.resolve("a.b") is None
        assert t.resolve("a.#0") is None


class TestPaths:
    def test_compose_concatenation(self):
        assert compose(Path.parse("a.b"), Path.parse("c")) == Path.parse("a.b.c")

    @given(p=paths)
    def test_identity(self, p):
        empty = Path()
        assert compose(p, empty) == p
        assert compose(empty, p) == p

    @given(p=paths, q=paths, r=paths)
    def test_associativity(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(p=paths, q=paths, seed=st.integers(0, 2**16))
    @settings(max_examples=200)
    def test_composition_law_on_resolution(self, p, q, seed):
        node = gen_value_tree(random.Random(seed), depth=4)
        via_composite = resolve(node, compose(p, q))
        mid = resolve(node, p)
        via_steps = resolve(mid, q) if mid is not None else None
        assert via_composite is via_steps

    def test_str_round_trip(self):
        for text in ["a.b.#1", "x", "#0", "."]:
            assert str(Path.parse(text)) == text

    def test_an_ordinal_too_long_to_convert_is_a_parse_error(self):
        # 5 000 digits is past the interpreter's default int-from-text limit
        text = "gcd.#" + "1" * 5000
        try:
            path = Path.parse(text)
        except ParseError as err:
            assert str(err) == "ordinal of 5000 digits is too long"
        else:  # an interpreter without the limit
            assert path == Path.of("gcd", int("1" * 5000))


class TestMeet:
    def test_longest_common_prefix(self):
        assert meet(Path.parse("a.b.c"), Path.parse("a.b.d")) == Path.parse("a.b")

    def test_idempotent(self):
        p = Path.parse("a.b")
        assert meet(p, p) == p

    def test_disjoint_meets_at_root(self):
        assert meet(Path.parse("a.x"), Path.parse("b.y")) == Path()

    def test_ordinal_rejected(self):
        with pytest.raises(OrdinalInMeet):
            meet(Path.parse("a.#1"), Path.parse("a"))
        with pytest.raises(OrdinalInMeet):
            meet(Path.parse("a"), Path.parse("#0.b"))

    @given(e=label_paths, c=label_paths)
    def test_prefix_oracle(self, e, c):
        got = meet(e, c)
        # brute force: the longest path that prefixes both
        best = Path()
        for cut in range(min(len(e), len(c)) + 1):
            candidate = Path(e[:cut])
            if candidate.is_prefix_of(e) and candidate.is_prefix_of(c):
                if len(candidate) > len(best):
                    best = candidate
        assert got == best
        assert got.is_prefix_of(e) and got.is_prefix_of(c)


class TestReplace:
    def test_point_update(self):
        t = T("a = 1\nb = 2")
        t.replace("b", Node.leaf(9))
        assert render(t) == "a = 1\nb = 9\n"

    def test_insert_appends_last(self):
        t = T("a = 1")
        t.replace("b", parse("c = 3").root)
        assert render(t) == "a = 1\nb {\n  c = 3\n}\n"

    def test_root_replacement(self):
        t = T("a = 1")
        t.replace("", Node.leaf(0))
        assert t.root.kind == "leaf" and t.root.value == 0

    def test_missing_parent(self):
        t = T("a = 1")
        with pytest.raises(PathUnresolvable):
            t.replace("b.c", Node.leaf(1))
        with pytest.raises(PathUnresolvable):
            t.replace("a.c", Node.leaf(1))  # parent is a leaf

    def test_ordinal_replace_and_append(self):
        t = T("a { #0 = 1 #1 = 2 }")
        t.replace("a.#1", Node.leaf(5))
        assert t.resolve("a.#1").value == 5
        t.replace("a.#2", Node.leaf(7))
        assert t.resolve("a.#2").value == 7
        with pytest.raises(PathUnresolvable):
            t.replace("a.#9", Node.leaf(1))

    def test_replace_then_read_back(self, rng):
        done = 0
        while done < 30:
            root = gen_value_tree(rng, depth=3)
            if root.kind != "set":
                continue
            t = StateTree(root)
            payload = gen_value_tree(rng, depth=2)
            t.replace("slot", payload.copy())
            assert node_equal(t.resolve("slot"), payload)
            done += 1

    def test_sibling_labels_stay_distinct(self, rng):
        t = T("a = 1\nb = 2\nc = 3")
        for label in ["a", "c", "b", "a", "d", "d"]:
            t.replace(label, gen_value_tree(rng, depth=1))
            named = [l for l, _ in t.root.children if l is not None]
            assert len(named) == len(set(named))

    def test_untouched_siblings_keep_order(self):
        t = T("a = 1\nb = 2\nc = 3")
        t.replace("b", Node.leaf(9))
        assert [l for l, _ in t.root.children] == ["a", "b", "c"]

    def test_replacement_containing_its_target_rejected(self):
        t = T("a { b = 1 }")
        with pytest.raises(PathUnresolvable):
            t.replace("a", t.root)  # would tie the tree into a cycle
        # hoisting a subtree's contents upward is fine
        t.replace("a", t.resolve("a.b"))
        assert t.resolve("a").value == 1

    def test_root_replacement_containing_the_root_rejected(self):
        t = T("a = 1")
        with pytest.raises(PathUnresolvable, match="contains the node it replaces"):
            replace_subtree(t, Path(), Node.set_node([("b", t)]))
        assert render(t) == "a = 1\n"

    def test_deep_replacement_value(self):
        # the cycle guard walks every adopted value, at any depth
        t = T("a = 1 b = 2")
        t.replace("a", chain(5000, Node.leaf(7)))
        assert node_equal(t.resolve("a"), chain(5000, Node.leaf(7)))
        assert t.resolve("b").value == 2
        slot = t.resolve("b")
        with pytest.raises(PathUnresolvable):
            t.replace("b", chain(5000, slot))
        assert t.resolve("b") is slot and slot.value == 2


class TestCopy:
    @given(any_trees)
    @settings(max_examples=100, deadline=None)
    def test_copy_is_equal_disjoint_and_leaves_the_source(self, tree):
        """On a tree without frozen code, a copy shares no node with its
        source (``test_shared_code`` covers the frozen roots it shares)."""
        self.check_copy(tree)

    def test_deep_chain(self):
        self.check_copy(chain(5000, Node.ref_node("x.#2")))

    @staticmethod
    def check_copy(tree):
        before = snapshot(tree)
        dup = tree.copy()
        assert node_equal(dup, tree)
        assert not node_ids(dup) & node_ids(tree)
        assert snapshot(tree) == before
        assert snapshot(dup) == before  # payloads, reference paths included

    def test_node_equal_tells_deep_chains_apart(self):
        assert node_equal(chain(5000, Node.leaf(1)), chain(5000, Node.leaf(1)))
        assert not node_equal(chain(5000, Node.leaf(1)), chain(5000, Node.leaf(2)))
        assert not node_equal(chain(5000, Node.leaf(1)), chain(4999, Node.leaf(1)))

    def test_node_equal_compares_reference_paths_and_variable_names(self):
        assert node_equal(Node.ref_node("a.b"), Node.ref_node("a.b"))
        assert not node_equal(Node.ref_node("a.b"), Node.ref_node("a.c"))
        assert node_equal(Node.var_node("X"), Node.var_node("X"))
        assert not node_equal(Node.var_node("X"), Node.var_node("Y"))


#: the type of ``value`` for each kind; a set's and a hole's is 0
PAYLOAD_TYPES = {LEAF: int, REF: Path, VAR: str, SET: int, HOLE: int}


def check_payload(*roots):
    """Every node below ``roots`` holds its kind's payload in ``value``: a
    leaf an ``int``, a reference a ``Path``, a variable a ``str``, a set or
    a hole 0."""
    for root in roots:
        for node in preorder(root):
            assert type(node.value) is PAYLOAD_TYPES[node.kind], node
            assert node.kind in (LEAF, REF, VAR) or node.value == 0


def check_constructed(*roots):
    """Every node below ``roots`` is unfrozen, holds its kind's payload,
    and, if a set, owns its ``nodes`` list and its ``labels`` list, which is
    None exactly when no child is labeled; any other node has neither."""
    owners = {}
    check_payload(*roots)
    for root in roots:
        for node in preorder(root):
            assert node.frozen is None
            if node.kind != SET:
                assert (node.nodes, node.labels, node.op) == ((), None, None)
                continue
            assert owners.setdefault(id(node.nodes), node) is node
            assert node.labels is None or owners.setdefault(id(node.labels), node) is node
            assert node.labels is None or len(node.labels) == len(node.nodes) > node.labels.count(None)


class TestConstructors:
    @given(st.integers(0, 2**32 - 1), any_trees, st.text(max_size=8), st.integers(0, 10**30))
    @settings(max_examples=100, deadline=None)
    def test_constructed_nodes_keep_the_invariants(self, seed, tree, text, value):
        document = render(gen_any_tree(random.Random(seed), depth=5))
        check_constructed(parse(document))
        check_constructed(parse(render(Node.set_node([("s", encode_text(text))]))))
        check_constructed(encode_text(text))
        check_constructed(tree, tree.copy())  # a childless copy included
        check_constructed(Node.leaf(value), Node.leaf(value))

    def test_parse_does_not_call_init(self, monkeypatch):
        calls = []
        init = Node.__init__

        def spy(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", spy)
        for text in [
            'a = 1 b : sum { #0 = [a.#0] #1 = $x } c = "hi" d { } e : $f { h = 2 }',
            "5", '"hi"', "[a.b]", "$x", ": f { #0 = 1 }", "{ a = 1 }", "",
        ]:
            parse(text)
        assert calls == []
        Node(VAR, value="x")
        assert calls == [(VAR,)]  # the spy sees a constructor call

    def test_fields_by_position_or_keyword(self):
        for node in [Node("ref", Path.of("a"), None, None), Node("ref", value=Path.of("a"))]:
            assert (node.kind, node.value, node.children, node.op) == ("ref", ("a",), (), None)
        assert Node.__slots__ == ("kind", "value", "nodes", "labels", "op", "frozen")

    @given(any_trees, any_trees)
    @settings(max_examples=100, deadline=None)
    def test_rebuild_and_substitute_keep_the_payloads(self, tree, other):
        check_payload(rebuild(tree, lambda n: other.copy() if n.kind == VAR else None))
        inner = Node.set_node([(None, tree.copy()), (None, other), (None, Node.ref_node("a.#0"))], op="h")
        subject = Node.set_node([(None, tree), (None, inner)], op="g")
        binding = match(parse(": g { #0 = $x #1 : $f { #0 = $x } }"), subject)
        check_payload(substitute(parse(": k { #0 : $f { #0 = [b.#1] } #1 = $x }"), binding))

    def test_become_across_kinds_keeps_the_payloads(self):
        samples = [Node.leaf(3), Node.ref_node("a.#1"), Node.var_node("x"), Node.hole(), parse("a = 1 b = [c]")]
        for target in samples:
            for source in samples:
                node = target.copy().become(source.copy())
                check_payload(node)
                assert node_equal(node, source)

    def test_built_in_results_keep_the_payloads(self):
        operands = [Node.leaf(0), Node.leaf(1), Node.leaf(7), parse("a = 1 b { c = 2 }")]
        for op, (arity, _) in _EAGER_OPS.items():
            for args in itertools.product(operands, repeat=arity):
                try:
                    check_payload(apply_builtin(op, [arg.copy() for arg in args]))
                except EvoError:
                    pass
        term = parse("t : select { #0 { a = 1 b = 2 c = 1 } #1 : eq { #0 = $x #1 = 1 } }")
        check_payload(evaluate(term.child("t"), EvalContext(term)))

    @pytest.mark.parametrize(
        "make, payload",
        [
            (Node.leaf, True), (Node.leaf, False), (Node.leaf, 1.5), (Node.leaf, -1), (Node.leaf, "1"),
            (Node.var_node, "a b"), (Node.var_node, ""), (Node.var_node, "1x"), (Node.var_node, "é"),
            (Node.var_node, "x$"), (Node.var_node, "x\n"),
            (Node.ref_node, Path(("a b",))), (Node.ref_node, Path(("a", ""))), (Node.ref_node, Path((-1,))),
            (Node.ref_node, Path((True,))), (Node.ref_node, Path((1.5,))), (Node.ref_node, Path(("é",))),
        ],
    )
    def test_constructors_reject_payloads_that_render_cannot_write_back(self, make, payload):
        with pytest.raises(ValueError):
            make(payload)

    @pytest.mark.parametrize("kind", [LEAF, REF, VAR, HOLE])
    def test_a_non_set_has_no_children_and_no_op(self, kind):
        with pytest.raises(ValueError):
            Node(kind, 1, [(None, Node.leaf(2))])
        with pytest.raises(ValueError):
            Node(kind, 1, op="f")
        assert Node(kind, 1, [], None).children == ()

    def test_each_constructor_builds_no_non_set_with_children_or_an_op(self):
        atoms = [
            Node(LEAF, 1), Node(REF, Path.of("a")), Node(VAR, "x"), Node(HOLE),
            Node.leaf(1), Node.ref_node("a.#1"), Node.var_node("x"), Node.hole(),
            *(new_atom(kind, value) for kind, value in [(LEAF, 1), (REF, Path.of("a")), (VAR, "x"), (HOLE, 0)]),
        ]
        for node in atoms:
            assert node.kind != SET and (node.nodes, node.labels, node.op, node.children) == ((), None, None, ())
            for write in (
                lambda: node.add_child(None, Node.leaf(2)),
                lambda: node.set_child("a", Node.leaf(2)),
                lambda: node.add_children([(None, Node.leaf(2))]),
            ):
                with pytest.raises(NotASet):
                    write()
            assert (node.nodes, node.op) == ((), None)
        # the set constructors: Node and set_node take (label, node) pairs, new_set the two lists
        sets = [
            Node(SET, 0, [("a", Node.leaf(1)), (None, Node.leaf(2))], "f"),
            Node.set_node([("a", Node.leaf(1)), (None, Node.leaf(2))], op="f"),
            new_set([Node.leaf(1), Node.leaf(2)], ["a", None], "f"),
        ]
        for node in sets:
            assert (node.kind, node.op, node.labels) == (SET, "f", ["a", None])
            assert render(node) == ": f {\n  a = 1\n  #1 = 2\n}\n"
        with pytest.raises(DuplicateSibling):
            Node.set_node([("a", Node.leaf(1)), (None, Node.leaf(2)), ("a", Node.leaf(3))])
        for target in atoms + sets:  # become takes over a well-formed node whole
            for source in atoms + sets:
                node = target.copy().become(source.copy())
                assert node_equal(node, source) and (node.kind == SET or (node.nodes, node.op) == ((), None))

    def test_no_constructor_or_writer_makes_a_repeated_sibling_label(self):
        # rendered, a repeated label would not parse back
        pairs = [("a", Node.leaf(1)), (None, Node.leaf(2)), ("a", Node.leaf(3))]
        with pytest.raises(DuplicateSibling, match="duplicate sibling label 'a'"):
            Node(SET, children=pairs)
        t = parse("a = 1 #1 = 2")
        with pytest.raises(DuplicateSibling, match="'b'"):
            t.add_children([("b", Node.leaf(3)), ("c", Node.leaf(4)), ("b", Node.leaf(5))])
        with pytest.raises(DuplicateSibling, match="'a'"):
            t.add_children([("c", Node.leaf(4)), ("a", Node.leaf(5))])
        with pytest.raises(DuplicateSibling, match="duplicate sibling label 'a'"):
            t.add_child("a", Node.leaf(5))
        assert render(t) == "a = 1\n#1 = 2\n"  # nothing appended on a repeat
        t.add_children([(None, Node.leaf(3)), ("b", Node.leaf(4))])
        assert t.labels == ["a", None, None, "b"] and render(t) == "a = 1\n#1 = 2\n#2 = 3\nb = 4\n"
        check_constructed(t)

    def test_the_pair_view_is_a_tuple_that_refuses_writes(self):
        t = parse("a = 1 #1 = 2")
        assert t.children == (("a", t.child("a")), (None, t.child_at(1)))
        with pytest.raises(AttributeError):
            t.children.append((None, Node.leaf(3)))
        with pytest.raises(AttributeError):
            t.children = ()
        assert render(t) == "a = 1\n#1 = 2\n"

    def test_labels_are_none_exactly_when_no_child_is_labeled(self):
        t = parse("#0 = 1 #1 = 2")
        assert t.labels is None
        t.add_child(None, Node.leaf(3))
        assert t.labels is None
        t.add_child("a", Node.leaf(4))
        assert t.labels == [None, None, None, "a"]
        t.swap_children(0, 3)
        assert t.labels == ["a", None, None, None] and t.child("a").value == 4
        t.swap_children(0, 3)
        t.add_child(None, Node.leaf(5))
        assert t.pop_child().value == 5 and t.labels == [None, None, None, "a"]
        assert t.pop_child().value == 4 and t.labels is None
        assert node_equal(t, parse("#0 = 1 #1 = 2 #2 = 3"))
        check_constructed(t)

    def test_a_parsed_state_is_at_most_1_7_tracked_objects_per_node(self):
        # each tracked object the collector can reach from the root: the
        # nodes, their own node and label lists, and references' paths
        seen, work, nodes = set(), [parse(cli_state_text(), allow_vars=False)], 0
        while work:
            obj = work.pop()
            if id(obj) in seen or not gc.is_tracked(obj) or isinstance(obj, type):
                continue
            seen.add(id(obj))
            nodes += isinstance(obj, Node)
            work.extend(gc.get_referents(obj))
        assert nodes == 4801
        assert len(seen) <= 1.7 * nodes  # 3.03 per node with a list per node and a tuple per child

    @given(
        st.integers(0, 10**30),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
        st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True) | st.integers(0, 10**6),
                 min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_good_payloads_parse_back(self, value, name, segs):
        for node in [Node.leaf(value), Node.var_node(name), Node.ref_node(tuple(segs))]:
            check_payload(node)
            assert node_equal(parse(render(node)), node)


class TestView:
    def test_re_rooted_addressing(self):
        t = T("m { a = 1 }")
        view = subtree_view(t, Path.parse("m"))
        assert view.resolve("a").value == 1
        assert view.resolve("") is t.resolve("m")

    def test_aliasing_contract(self):
        t = T("m { a = 1 }")
        view = t.view("m")
        view.replace("a", Node.leaf(2))
        assert t.data_of("m.a").value == 2
        # and root replacement through the view is seen outside
        view.replace("", Node.leaf(7))
        assert t.resolve("m").value == 7

    def test_leaf_is_not_a_set(self):
        t = T("m = 5")
        with pytest.raises(NotASet):
            t.view("m")
        with pytest.raises(PathUnresolvable):
            t.view("nothing")


class TestTreeShape:
    def test_path_leaf_multiset_determines_tree(self, rng):
        # equal path->leaf maps plus equal sibling orders mean equal trees
        def leaf_map(node, prefix, out):
            if node.kind == "leaf":
                out.append((prefix, node.value))
            else:
                for i, (label, child) in enumerate(node.children):
                    seg = label if label is not None else i
                    leaf_map(child, prefix + (seg,), out)
            return out

        for _ in range(20):
            a = gen_value_tree(rng, depth=3)
            b = a.copy()
            assert leaf_map(a, (), []) == leaf_map(b, (), [])
            assert node_equal(a, b)
            if leaf_map(a, (), []):
                # perturb one leaf: maps and trees must now differ
                path, _ = leaf_map(a, (), [])[0]
                target = a
                for seg in path:
                    target = target.child(seg) if isinstance(seg, str) else target.child_at(seg)
                target.value += 1
                assert leaf_map(a, (), []) != leaf_map(b, (), [])
                assert not node_equal(a, b)


class TestOneTreeType:
    def test_entry_points_return_nodes(self):
        body = parse("b { #0 { at = [x] to = 1 } }").resolve("b")
        rules = parse("r { #0 { lhs : f { #0 = $X } rhs = $X } }").resolve("r")
        frame = parse("goal : f { #0 = 3 }")
        results = [
            parse("a = 1"),
            load_stdlib(),
            StateTree(),
            run_sequential(body, StateTree()),
            run_rewrite(rules, frame),
            replace_subtree(parse("a = 1"), Path.parse("b"), Node.leaf(2)),
            subtree_view(parse("m { a = 1 }"), Path.parse("m")),
        ]
        assert all(type(result) is Node for result in results)
        assert frame.resolve("goal").value == 3

    def test_root_is_the_node_itself(self):
        t = parse("a { b = 1 }")
        assert t.root is t
        assert t.resolve("a").root is t.resolve("a")

    def test_state_tree_wraps_nothing(self):
        n = parse("a = 1")
        assert StateTree(n) is n
        empty = StateTree()
        assert empty.kind == "set" and empty.op is None and empty.children == ()
        assert StateTree() is not empty


SRC = FsPath(__file__).resolve().parents[1] / "src" / "evocat"
CHILDREN_WRITE = re.compile(
    r"\.children(\s*=[^=]|\.(append|pop|insert|extend|remove)|\[[^]]*\]\s*=[^=])"
)


class TestOneWriter:
    def test_only_tree_writes_children(self):
        offenders = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            if path.name != "tree.py"
            for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1)
            if CHILDREN_WRITE.search(line)
        ]
        assert offenders == []

    def test_rebuild_replaces_and_leaves_the_source_alone(self):
        t = T("a { b = 1 c { b = 1 } } d = 2")
        before = render(t)
        out = rebuild(t, lambda n: Node.leaf(9) if n.kind == "leaf" and n.value == 1 else None)
        assert render(out) == "a {\n  b = 9\n  c {\n    b = 9\n  }\n}\nd = 2\n"
        assert render(t) == before
        assert not node_ids(out) & node_ids(t)

    def test_rebuild_adopts_the_replacement_without_descending_into_it(self):
        t = T("a { b = 1 }")
        replacement = T("b = 1")
        seen = []

        def swap(n):
            seen.append(n)
            return replacement if n is t.resolve("a") else None

        out = rebuild(t, swap)
        assert out.resolve("a") is replacement
        assert seen == [t, t.resolve("a")]
        assert rebuild(t, lambda n: replacement) is replacement

    @pytest.mark.parametrize("depth", [3000, 5000])
    def test_rebuild_deep_chain(self, depth):
        source = chain(depth, Node.leaf(1))
        before = snapshot(source)
        seen = []

        def never(n):
            seen.append(n)
            return None

        out = rebuild(source, never)
        assert node_equal(out, source) and not node_ids(out) & node_ids(source)
        assert snapshot(source) == before
        assert len(seen) == depth + 1
        bottom = rebuild(source, lambda n: Node.leaf(2) if n.kind == "leaf" else None)
        assert node_equal(bottom, chain(depth, Node.leaf(2)))

    @given(any_trees)
    @settings(max_examples=50, deadline=None)
    def test_rebuild_swaps_in_preorder(self, tree):
        order = []
        swapped = Node.leaf(7)

        def swap(n):
            order.append(n)
            return swapped if n.kind == "leaf" and n.value % 2 else None

        out = rebuild(tree, swap)
        # preorder, left to right, not descending below a swapped node
        want, stack = [], [tree]
        while stack:
            n = stack.pop()
            want.append(n)
            if not (n.kind == "leaf" and n.value % 2):
                stack.extend(child for _, child in reversed(n.children))
        assert [id(n) for n in order] == [id(n) for n in want]
        odd = lambda row: row[2] == "leaf" and row[3] % 2  # noqa: E731
        assert snapshot(out) == [row[:3] + (7,) + row[4:] if odd(row) else row for row in snapshot(tree)]

    def test_swap_and_pop_children(self):
        t = T("a = 1 b = 2 c = 3")
        t.swap_children(0, 2)
        assert [label for label, _ in t.children] == ["c", "b", "a"]
        t.swap_children(1, 1)
        assert [label for label, _ in t.children] == ["c", "b", "a"]
        assert t.pop_child().value == 1
        assert [label for label, _ in t.children] == ["c", "b"]
