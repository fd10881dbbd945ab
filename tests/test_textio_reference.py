"""Differential tests: ``textio`` against the recursive, per-character
reference in ``textio_reference.py``.

The reference is the scanner, parser and renderer that the regex scanner
and the explicit-stack parser and renderer replaced, kept word for word.
On every text both must build ``node_equal`` trees, or raise the same
exception class with the same message, line and column; on every tree both
must write the same bytes.
"""

import importlib.util
import random
import sys
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import textio
from evocat.errors import DepthExceeded, EvoError
from evocat.tree import Node, node_equal

from helpers import gen_any_tree

_SPEC = importlib.util.spec_from_file_location(
    "evocat.textio_reference", FsPath(__file__).with_name("textio_reference.py")
)
reference = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = reference  # its dataclass looks its module up
_SPEC.loader.exec_module(reference)

LONG = "1" * 4301  # past CPython's default limit for str -> int

GRAMMAR = [
    "a", "b", "x1", "_y", "sum", "0", "7", "007", "12", "#0", "#1", "#2", "#01",
    "{", "}", "[", "]", ":", "=", ".", "$x", "$f",
    '"ab"', r'"a\"b\\c\nd"', '""', '"//"',
]
NOISE = [
    "// note\n", "//", "// tail", r'"\t"', '"ab', '"a\nb"', '"a\\', "\\",
    " ", "\n", "\t", "\r", "\u00a0", "\u2003", "\x1c", "\u2028",
    "\u00b2", "\u0663", "\u00e9", "@", "/", "#", "$", '"',
    LONG, "#" + LONG,
]
fragments = st.sampled_from(GRAMMAR) | st.sampled_from(NOISE)
separators = st.sampled_from(["", "", " ", "\n"])
soup = st.lists(st.tuples(fragments, separators), max_size=24).map(
    lambda parts: "".join(text + sep for text, sep in parts)
)


@st.composite
def perturbed(draw):
    """The text of a random tree with one fragment inserted or one
    character dropped."""
    text = reference.render(gen_any_tree(random.Random(draw(st.integers(0, 2**32 - 1))), depth=4))
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at] + draw(fragments) + text[at:]
    return text[:at] + text[at + 1 :]


def outcome(module, text: str, allow_vars: bool):
    try:
        return module.parse(text, allow_vars)
    except EvoError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))


def check(text: str, allow_vars: bool) -> None:
    want = outcome(reference, text, allow_vars)
    got = outcome(textio, text, allow_vars)
    if isinstance(want, Node):
        assert isinstance(got, Node) and node_equal(got, want)
        assert textio.render(got) == reference.render(want)
        assert len(textio.tokenize(text)) == len(reference.tokenize(text))
    else:
        assert got == want


class TestParseAgreesWithReference:
    @given(soup, st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_token_soup(self, text, allow_vars):
        check(text, allow_vars)

    @given(perturbed(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_perturbed_documents(self, text, allow_vars):
        check(text, allow_vars)

    @pytest.mark.parametrize(
        "text",
        [
            "", "  \n", "// only\n", "a = 1 // end", "a = 1\n// end\n", "5", "5 // c",
            '"hi"', "[a.#1]", "$x", ": sum { #0 = 1 }", "{ a = 1 } b", "5 6", "}",
            "a { #0 = 1 #2 = 2 }", "a = 1 a = 2", "a = [a.]", "a = [a", "a : 5 { }",
            "a : $f { }", "a = $x", "a : sum a", f"a = {LONG} b = @", f"a = = {LONG}",
            f"a = @ {LONG}", f"a {{ #{LONG} = 1 }}", f"a = [b.#{LONG}]",
            "a {" * 201 + "}" * 201, "{" + "a {" * 200 + "}" * 201, "a {" * 200 + "}" * 200,
        ],
    )
    def test_edge_cases(self, text):
        check(text, True)
        check(text, False)


def chain(depth: int, op=None) -> Node:
    node = Node.set_node()
    for i in range(depth):
        node = Node.set_node([("a" if i % 3 else None, node)], op=op if i % 2 else None)
    return node


class TestRenderAgreesWithReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_trees(self, seed):
        tree = gen_any_tree(random.Random(seed), depth=6, fanout=5)
        assert textio.render(tree) == reference.render(tree)

    def test_leaves_holes_and_strings(self):
        for tree in [
            Node.leaf(0), Node.hole(), Node.var_node("X"), Node.ref_node("a.#1"),
            textio.encode_text('q"\\\n'), Node.set_node([("h", Node.hole())], op="$f"),
            Node.set_node([(None, textio.encode_text("x\ty"))]),
        ]:
            assert textio.render(tree) == reference.render(tree)

    @pytest.mark.parametrize("op", [None, "sum"])
    def test_chains_up_to_the_depth_limit(self, op):
        for depth in [0, 1, 2, 3, 50, 198, 199, 200, 201]:
            tree = chain(depth, op)
            term = Node.set_node([("a", tree)], op="f")  # a root term is one set deeper
            for root in (tree, term):
                assert rendered(textio, root) == rendered(reference, root)
        with pytest.raises(DepthExceeded):
            textio.render(chain(201, op))


def rendered(module, tree: Node):
    try:
        return module.render(tree)
    except DepthExceeded as exc:
        return str(exc)
