"""Compiler/de-compiler: grammar cases, round-trip, canonical form, fuzz."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import parse, render
from evocat.textio import decode_text
from evocat.errors import (
    DepthExceeded,
    DuplicateSibling,
    NotEncodable,
    ParseError,
    VariablesOutsideRules,
)
from evocat.tree import Node, Path, node_equal

from helpers import cli_state_text, gen_any_tree
from test_textio_reference import reference

CODES = [(None, Node.leaf(104)), (None, Node.leaf(105))]


class TestParse:
    def test_two_level_tree(self):
        t = parse("root { a = 5 b { c = 1 } }")
        assert t.resolve("root.a").value == 5
        assert t.resolve("root.b.c").value == 1

    def test_term_node(self):
        t = parse("goal : gcd { a = 12 b = 8 }")
        goal = t.resolve("goal")
        assert goal.op == "gcd"
        assert [c.value for _, c in goal.children] == [12, 8]

    def test_string_is_code_point_set(self):
        t = parse('name = "John"')
        name = t.resolve("name")
        assert [label for label, _ in name.children] == [None] * 4
        assert [c.value for _, c in name.children] == [ord(ch) for ch in "John"]

    def test_reference(self):
        t = parse("a = [x.y.#2]")
        assert t.resolve("a").value == Path.parse("x.y.#2")

    def test_variables_gated(self):
        t = parse("p = $X")
        assert t.resolve("p").value == "X"
        with pytest.raises(VariablesOutsideRules):
            parse("p = $X", allow_vars=False)
        with pytest.raises(VariablesOutsideRules):
            parse("p : $f { a = 1 }", allow_vars=False)

    def test_duplicate_sibling(self):
        with pytest.raises(DuplicateSibling):
            parse("a = 1 a = 2")
        parse("x { #0 = 1 #1 = 1 }")  # unlabeled children may repeat values

    def test_duplicate_sibling_position(self):
        cases = {
            "a = 1\nb {\n  x = 1\n  y { }\n    x = 3\n}\n": (5, 5),
            "a = 1\n  a { }\n": (2, 3),
            "#0 = 1\nq = 2\n#2 = 3 q = 4": (3, 8),
        }
        for src, (line, col) in cases.items():
            with pytest.raises(DuplicateSibling) as info:
                parse(src)
            assert (info.value.line, info.value.col) == (line, col)

    def test_many_distinct_labels(self):
        t = parse(" ".join(f"k{i} = {i}" for i in range(2000)))
        assert len(t.children) == 2000 and t.resolve("k1999").value == 1999

    def test_positional_label_must_match_position(self):
        parse("s { #0 = 1 a = 2 #2 = 3 }")
        with pytest.raises(ParseError):
            parse("s { #1 = 1 }")

    def test_comments_and_whitespace(self):
        t = parse("// heading\na = 1 // trailing\n\n  b=2")
        assert t.resolve("a").value == 1 and t.resolve("b").value == 2

    def test_string_escapes(self):
        t = parse(r'm = "a\"b\\c\nd"')
        assert [chr(c.value) for _, c in t.resolve("m").children] == list('a"b\\c\nd')
        with pytest.raises(ParseError):
            parse(r'm = "\t"')

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse("a = 1\nb = @")
        assert info.value.line == 2

    def test_bare_body_documents(self):
        assert parse("5").root.value == 5
        assert parse("[a.b]").root.value == Path.parse("a.b")
        assert parse('"hi"').root.children[1][1].value == ord("i")
        assert parse(": sum { #0 = 1 #1 = 2 }").root.op == "sum"
        assert parse("{ a = 1 }").resolve("a").value == 1
        assert parse("").root.kind == "set"
        with pytest.raises(ParseError):
            parse("5 6")

    def test_deep_nesting_is_rejected_not_crashing(self):
        src = "".join("a {" for _ in range(500)) + "}" * 500
        with pytest.raises(ParseError):
            parse(src)


class TestLexicalPositions:
    """Each lexical error reports the line and column (both 1-based) of the
    character at fault; a string's own errors point inside it."""

    @pytest.mark.parametrize(
        "src, line, col, message",
        [
            ("a = 1\nb = #x", 2, 5, "'#' must be followed by digits"),
            ("a {\n  b = $ }", 2, 7, "'$' must be followed by an identifier"),
            ('a = 1 b = "abc', 1, 11, "unterminated string"),
            ('a = "ab\ncd"', 1, 8, "newline in string"),
            ('a = "ab\\', 1, 8, "unterminated escape"),
            ('x {\n  y = "a\\tb"\n}', 2, 9, "unknown escape \\t"),
            ("a = 1\n\t b = @", 2, 7, "unexpected character '@'"),
            ("a = // c", 1, 9, "expected a value"),
            ("a {\n b = 1 // c\n c = // d", 3, 10, "expected a value"),
        ],
    )
    def test_error_position(self, src, line, col, message):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert (info.value.line, info.value.col) == (line, col)
        assert message in str(info.value)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_only_ascii_digits_are_naturals(self, digit):
        with pytest.raises(ParseError) as info:
            parse(f"x = {digit}")
        assert (info.value.line, info.value.col) == (1, 5)
        assert "unexpected character" in str(info.value)
        with pytest.raises(ParseError):
            Path.parse(f"a.#{digit}")


class TestRender:
    def test_leaf_only_tree_has_no_braces(self):
        assert render(parse("5")) == "5\n"
        assert render(Node.leaf(42)) == "42\n"

    def test_entries_one_per_line(self):
        t = parse("b{c=1 #1=2} a=3")
        assert render(t) == "b {\n  c = 1\n  #1 = 2\n}\na = 3\n"

    def test_string_sugar_reapplied(self):
        assert render(parse('name = "John"')) == 'name = "John"\n'
        # non-printable code points fall back to positional leaves
        t = parse("s { #0 = 9 }")
        assert render(t) == "s {\n  #0 = 9\n}\n"

    def test_empty_set_keeps_braces(self):
        assert render(parse("a { }")) == "a {\n}\n"
        assert render(parse('a = ""')) == "a {\n}\n"

    def test_decode_text_takes_plain_sets_of_scalar_values_only(self):
        assert decode_text(Node.set_node([(None, Node.leaf(104))])) == "h"
        assert decode_text(Node.set_node([(None, Node.leaf(104))], op="f")) is None
        assert decode_text(Node.set_node([(None, Node.leaf(0x10FFFF))])) == "\U0010ffff"
        assert decode_text(Node.set_node([(None, Node.leaf(0x110000))])) is None

    def test_canonical_fixpoint(self, rng):
        for _ in range(40):
            tree = gen_any_tree(rng, depth=4)
            once = render(tree)
            assert render(parse(once).root) == once

    def test_equal_trees_render_identically(self, rng):
        for _ in range(40):
            tree = gen_any_tree(rng, depth=4)
            assert render(tree) == render(tree.copy())

    @pytest.mark.parametrize(
        "value",
        [
            Node.set_node(CODES, op="f"),  # a : f { #0 = 104 #1 = 105 }
            Node.set_node(),  # a { }
            Node.set_node([("x", Node.leaf(104))] + CODES),  # labelled first child
            Node.set_node(CODES[:1] + [("x", Node.leaf(105))]),  # labelled after unlabelled
            Node.set_node([(None, Node.leaf(104)), (None, Node.leaf(7))]),  # "h" and BEL, not printable
            Node.set_node([(None, Node.set_node(CODES))] + CODES),  # unlabelled set first
        ],
    )
    def test_sets_that_are_not_sugar_agree_with_reference(self, value):
        for tree in (value, Node.set_node([("a", value)])):
            text = render(tree)
            assert text == reference.render(tree)
            assert node_equal(parse(text), tree)

    def test_natural_with_too_many_digits(self):
        # 4401 digits: past the int-to-text limit of interpreters that have one
        big = Node.leaf(10**4400)
        for tree in (big, Node.set_node([("n", big)])):
            try:
                text = render(tree)
            except NotEncodable:
                continue
            assert node_equal(parse(text), tree)
        assert repr(big).startswith("<leaf ")

    def test_a_reference_to_the_identity_path_is_not_encodable(self):
        # a path in text has at least one segment, so "[.]" would not parse
        identity = Node.ref_node("")
        for tree in (identity, Node.set_node([("at", identity), ("b", Node.ref_node("a"))])):
            with pytest.raises(NotEncodable, match="the identity path has no text form"):
                render(tree)
        with pytest.raises(ParseError):
            parse("at = [.]")


def chain(depth: int) -> Node:
    """``a { a { ... } }``: a root holding ``depth`` nested sets."""
    node = Node.set_node()
    for _ in range(depth):
        node = Node.set_node([("a", node)])
    return node


class TestDepth:
    def test_deepest_renderable_chain_round_trips(self):
        text = render(chain(200))
        assert render(parse(text)) == text
        assert node_equal(parse(text), chain(200))

    @pytest.mark.parametrize("depth", [201, 3000])
    def test_render_rejects_what_parse_would(self, depth):
        with pytest.raises(DepthExceeded):
            render(chain(depth))
        with pytest.raises(ParseError):
            parse("a {" * depth + "}" * depth)


class TestNoRecursion:
    def test_parse_and_render_under_a_small_recursion_limit(self):
        deep_text = render(chain(200))
        state_text = cli_state_text()
        state_canonical = render(parse(state_text))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            deep = parse(deep_text)
            assert render(deep) == deep_text
            state = parse(state_text, allow_vars=False)
            assert render(state) == state_canonical
        finally:
            sys.setrecursionlimit(limit)
        assert node_equal(deep, chain(200))
        assert len(state_text) > 30_000 and len(state.children) == 160


class TestRoundTrip:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_parse_render_identity(self, seed):
        tree = gen_any_tree(random.Random(seed), depth=6, fanout=5)
        assert node_equal(parse(render(tree)).root, tree)

    def test_fuzz_smoke(self, rng):
        # the full 10^5-input fuzz runs in the acceptance suite
        for _ in range(2000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(48)))
            try:
                parse(blob.decode("utf-8", "replace"))
            except ParseError:
                pass
