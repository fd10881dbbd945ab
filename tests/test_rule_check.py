"""Rules are checked when they load by ``match`` and ``substitute``
themselves: a differential test against the previous, separate checker,
kept below word for word as the reference, plus the messages it gives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import parse
from evocat.engine import formulas_from
from evocat.errors import EvalError, UnboundVariable
from evocat.tree import HOLE, SET, VAR, Node, rebuild

# --- reference: the load-time checker before it was folded into match --------


def _collect_vars(
    node: Node, index: int, side: str, first_order: set, funcs: set, fn_args: set
) -> None:
    if node.kind == VAR:
        first_order.add(node.value)
        return
    if node.kind == HOLE:
        raise EvalError(f"formula #{index}: hole nodes cannot appear in the {side}")
    if node.kind != SET:
        return
    if node.op is not None and node.op.startswith("$"):
        # a pattern applies $f to a variable; a template to any one term
        argument = node.children[0][1] if len(node.children) == 1 else None
        if argument is None or (side == "lhs" and argument.kind != VAR):
            want = "variable" if side == "lhs" else "argument"
            raise EvalError(
                f"formula #{index}: function variable {node.op} in the {side} "
                f"must be applied to exactly one {want}"
            )
        funcs.add(node.op[1:])
        if argument.kind == VAR:
            fn_args.add(argument.value)
        else:
            _collect_vars(argument, index, side, first_order, funcs, fn_args)
        return
    for _, child in node.children:
        _collect_vars(child, index, side, first_order, funcs, fn_args)


def _validate_formula(lhs: Node, rhs: Node, index: int) -> None:
    lhs_vars: set[str] = set()
    lhs_funcs: set[str] = set()
    lhs_fn_args: set[str] = set()
    _collect_vars(lhs, index, "lhs", lhs_vars, lhs_funcs, lhs_fn_args)
    missing = lhs_fn_args - lhs_vars
    if missing:
        raise EvalError(
            f"formula #{index}: function-variable arguments {sorted(missing)} "
            "are never bound first-order in the lhs"
        )
    rhs_vars: set[str] = set()
    rhs_funcs: set[str] = set()
    rhs_fn_args: set[str] = set()
    _collect_vars(rhs, index, "rhs", rhs_vars, rhs_funcs, rhs_fn_args)
    free = (rhs_vars | rhs_fn_args) - lhs_vars - lhs_fn_args
    if free:
        raise EvalError(f"formula #{index}: rhs variables {sorted(free)} not bound by lhs")
    free_funcs = rhs_funcs - lhs_funcs
    if free_funcs:
        raise EvalError(
            f"formula #{index}: rhs function variables {sorted(free_funcs)} not bound by lhs"
        )


# --- generated rules -------------------------------------------------------------


def _set(op, children):
    node = Node.set_node(op=op)
    for label, child in children:
        # a repeated label becomes no label
        node.add_child(None if label in [lab for lab, _ in node.children] else label, child)
    return node


TERMS = st.recursive(
    st.one_of(
        st.builds(Node.leaf, st.integers(0, 2)),
        st.builds(Node.ref_node, st.sampled_from(["a", "b.c"])),
        st.builds(Node.var_node, st.sampled_from(["x", "y", "z"])),
        st.builds(Node.hole),
    ),
    lambda inner: st.builds(
        _set,
        st.sampled_from([None, "g", "$f", "$h"]),
        st.lists(st.tuples(st.sampled_from([None, None, "a", "b"]), inner), max_size=2),
    ),
    max_leaves=8,
)


def reference_failure(pairs):
    """(index, side) of the first formula the reference rejects, or None.
    An rhs with no variables passes, so a rejection with it is the lhs's."""
    for index, (lhs, rhs) in enumerate(pairs):
        try:
            _validate_formula(lhs, rhs, index)
        except EvalError:
            try:
                _validate_formula(lhs, Node.leaf(0), index)
            except EvalError:
                return index, "lhs"
            return index, "rhs"
    return None


def rules_node(pairs):
    return Node.set_node(
        [(None, Node.set_node([("lhs", lhs), ("rhs", rhs)])) for lhs, rhs in pairs]
    )


@given(pairs=st.lists(st.tuples(TERMS, TERMS), min_size=1, max_size=3))
@settings(max_examples=500, deadline=None)
def test_same_rules_accepted_as_the_reference_checker(pairs):
    want = reference_failure(pairs)
    if want is None:
        assert len(formulas_from(rules_node(pairs))) == len(pairs)
        return
    with pytest.raises(EvalError) as info:
        formulas_from(rules_node(pairs))
    index, side = want
    assert str(info.value).startswith(f"formula #{index} {side}: ")


def rules(src: str) -> Node:
    return parse(f"r {{ {src} }}").resolve("r")


# The class and message are those the rule check gave before formulas were
# compiled.  Where a rule has two faults, the first in preorder is named,
# except that an lhs is walked before its $f arguments are checked.  $H
# stands for a hole, which no text can write.
@pytest.mark.parametrize(
    "formula, error, message",
    [
        ("lhs : h { #0 : $f { #0 = 3 } } rhs = 0", EvalError,
         "lhs: function variable $f must be applied to exactly one variable"),
        ("lhs : h { #0 : $f { #0 = $x } } rhs = 0", EvalError,
         "lhs: function variable $f applied to $x, which the pattern never binds"),
        ("lhs = $x rhs : g { #0 = $y }", UnboundVariable, "rhs: $y is not bound"),
        ("lhs = $x rhs : $h { #0 = $x }", UnboundVariable, "rhs: $h is not bound"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x } } rhs : $f { }", EvalError,
         "rhs: function variable $f must be applied to exactly one argument"),
        ("lhs : h { #0 = $x #1 = $H } rhs = 0", EvalError,
         "lhs: hole nodes cannot appear in patterns"),
        ("lhs : h { #0 : $f { #0 = $y } #1 = $H } rhs = 0", EvalError,
         "lhs: hole nodes cannot appear in patterns"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x #1 = $x } } rhs = 0", EvalError,
         "lhs: function variable $f must be applied to exactly one variable"),
        ("lhs : h { #0 : $f { #0 = $x } #1 : $g { #0 = $x } } rhs = 0", EvalError,
         "lhs: function variable $f applied to $x, which the pattern never binds"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x } } rhs : $f { #0 = $y }", UnboundVariable,
         "rhs: $y is not bound"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x } } rhs : $f { #0 = $x #1 = $x }", EvalError,
         "rhs: function variable $f must be applied to exactly one argument"),
        ("lhs = $x rhs : g { #0 = $x #1 : k { a = $y } }", UnboundVariable,
         "rhs: $y is not bound"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x } } rhs = $f", UnboundVariable,
         "rhs: $f is not bound"),
        ("lhs = $x rhs : g { #0 = $x #1 = $H }", EvalError,
         "rhs: hole nodes cannot appear in templates"),
        ("lhs = $x rhs : g { #0 = $z #1 = $H }", UnboundVariable, "rhs: $z is not bound"),
        ("lhs = $x rhs : g { #0 = $H #1 = $z }", EvalError,
         "rhs: hole nodes cannot appear in templates"),
        ("lhs : h { #0 = $x #1 : $f { #0 = $x } } rhs : g { #0 : $f { #0 : k { #0 = $H } } #1 = $w }",
         EvalError, "rhs: hole nodes cannot appear in templates"),
    ],
)
def test_a_rejection_names_the_formula_and_side(formula, error, message):
    text = f"#0 {{ lhs = 1 rhs = 2 }} #1 {{ {formula} }}"
    holed = rebuild(rules(text), lambda n: Node.hole() if n.kind == VAR and n.value == "H" else None)
    with pytest.raises(error) as info:
        formulas_from(holed)
    assert type(info.value) is error
    assert str(info.value) == f"formula #1 {message}"


def test_differently_labelled_arguments_of_one_function_variable():
    # both $f occurrences abstract to bodies that differ only in a label,
    # so the self-match disagrees; the later checks must still run
    legal = "lhs : h { #0 = $x #1 : $f { a = $x } #2 : $f { b = $x } } rhs : $f { #0 = 1 }"
    assert len(formulas_from(rules(f"#0 {{ {legal} }}"))) == 1
    unbound = "lhs : h { #0 = $x #1 : $f { a = $x } #2 : $f { b = $x } #3 : $g { #0 = $y } }"
    with pytest.raises(EvalError, match=r"^formula #0 lhs: .*\$y, which the pattern never binds"):
        formulas_from(rules(f"#0 {{ {unbound} rhs = 0 }}"))
