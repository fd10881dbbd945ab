"""Value operations: categorical laws, lattices, comparison, select."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evocat import EvalContext, StateTree, parse, render
from evocat.algebra import (
    BUILTIN_OPS,
    apply_builtin,
    bool_lattice,
    coproduct,
    nat_compare,
    nat_lattice,
    pair,
    product,
    remainder,
    _predicate_vars,
    select,
    struct_eq,
)
from evocat.errors import (
    DivisionByZero,
    EvalError,
    EvoError,
    MixedKinds,
    NotALeaf,
    NotASet,
    NotBoolean,
)
from evocat.evaluator import evaluate
from evocat.tree import Node, node_equal

from helpers import gen_value_tree, leaf, setn


def if_term(cond: Node, f: Node, g: Node) -> Node:
    """Evaluate the term ``: if { cond f g }``, built of copies of its operands."""
    return evaluate(setn(cond.copy(), f.copy(), g.copy(), op="if"), EvalContext(Node.set_node()))


def bit(node):
    assert node.kind == "leaf" and node.value in (0, 1)
    return node.value


def rand_set(rng, size=None):
    n = rng.randrange(9) if size is None else size
    return setn(*[gen_value_tree(rng, depth=1) for _ in range(n)])


class TestProductCoproduct:
    def test_leaf_arithmetic(self):
        assert product(leaf(3), leaf(4)).value == 12
        assert coproduct(leaf(2), leaf(7)).value == 9

    def test_leaf_agrees_with_arithmetic_oracle(self, rng):
        for _ in range(300):
            a, b = rng.randrange(10**4), rng.randrange(10**4)
            assert product(leaf(a), leaf(b)).value == a * b
            assert coproduct(leaf(a), leaf(b)).value == a + b

    def test_cartesian_enumeration(self):
        out = product(parse("x = 1 y = 2").root, parse("u = 5").root)
        pairs = [(c.child("fst").value, c.child("snd").value) for _, c in out.children]
        assert pairs == [(1, 5), (2, 5)]
        assert [l for l, _ in out.children] == ["p0", "p1"]

    def test_cardinalities_by_brute_force(self, rng):
        for _ in range(60):
            a, b = rand_set(rng), rand_set(rng)
            count = 0
            for _x in a.children:
                for _y in b.children:
                    count += 1
            assert len(product(a, b).children) == count
            assert len(coproduct(a, b).children) == len(a.children) + len(b.children)

    def test_coproduct_keeps_duplicates(self):
        out = coproduct(parse("a = 1").root, parse("a = 1").root)
        assert len(out.children) == 2
        assert all(c.value == 1 for _, c in out.children)

    def test_mixed_kinds(self):
        with pytest.raises(MixedKinds):
            product(leaf(1), setn())
        with pytest.raises(MixedKinds):
            coproduct(setn(), leaf(1))

    def test_results_do_not_alias_operands(self):
        a, b = parse("x = 1").root, parse("y = 2").root
        out = coproduct(a, b)
        out.children[0][1].value = 99
        assert a.child("x").value == 1


class TestPairIf:
    def test_pair_shape(self):
        p = pair(leaf(1), leaf(2))
        assert [l for l, _ in p.children] == ["fst", "snd"]
        assert p.child("fst").value == 1

    def test_pair_nesting_not_associative(self):
        a, b, c = leaf(1), leaf(2), leaf(3)
        assert not node_equal(pair(pair(a, b), c), pair(a, pair(b, c)))

    def test_projection(self):
        f = setn(leaf(4), op=None)
        assert node_equal(pair(f, leaf(2)).child("fst"), f)

    def test_if_selects(self):
        assert if_term(leaf(1), leaf(10), leaf(20)).value == 10
        assert if_term(leaf(0), leaf(10), leaf(20)).value == 20

    def test_if_not_boolean(self):
        with pytest.raises(NotBoolean):
            if_term(leaf(7), leaf(1), leaf(2))
        with pytest.raises(NotBoolean):
            if_term(setn(), leaf(1), leaf(2))

    def test_if_symmetry(self, rng):
        for c in (0, 1):
            f, g = gen_value_tree(rng, 1), gen_value_tree(rng, 1)
            lhs = if_term(leaf(c), f, g)
            rhs = if_term(setn(leaf(c), op="not"), g, f)
            assert node_equal(lhs, rhs)


class TestNatLattice:
    def test_min_max_monus(self):
        assert nat_lattice("min", leaf(3), leaf(5)).value == 3
        assert nat_lattice("max", leaf(3), leaf(5)).value == 5
        assert nat_lattice("monus", leaf(5), leaf(3)).value == 2
        assert nat_lattice("monus", leaf(3), leaf(5)).value == 0

    def test_monus_branching_oracle(self, rng):
        for _ in range(200):
            a, b = rng.randrange(1000), rng.randrange(1000)
            want = a - b if a >= b else 0
            assert nat_lattice("monus", leaf(a), leaf(b)).value == want

    def test_lattice_laws(self, rng):
        for _ in range(100):
            a, b, c = (leaf(rng.randrange(50)) for _ in range(3))
            for op in ("min", "max"):
                assert nat_lattice(op, a, b).value == nat_lattice(op, b, a).value
                assert nat_lattice(op, a, a).value == a.value
                left = nat_lattice(op, nat_lattice(op, a, b), c).value
                right = nat_lattice(op, a, nat_lattice(op, b, c)).value
                assert left == right

    def test_not_a_leaf(self):
        with pytest.raises(NotALeaf):
            nat_lattice("min", setn(), leaf(1))


class TestRemainder:
    def test_examples(self):
        assert remainder(leaf(12), leaf(8)).value == 4
        assert remainder(leaf(8), leaf(4)).value == 0

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            remainder(leaf(5), leaf(0))

    def test_division_by_zero_names_the_dividend_or_its_size(self):
        with pytest.raises(DivisionByZero, match=r"^rem\(5, 0\)$"):
            remainder(leaf(5), leaf(0))
        # 5 001 digits: past the default limit of int-to-text conversion
        limited = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001
        want = "rem(<leaf of 16610 bits>, 0)" if limited else f"rem({10**5000}, 0)"
        with pytest.raises(DivisionByZero) as info:
            remainder(leaf(10**5000), leaf(0))
        assert str(info.value) == want

    def test_range(self, rng):
        for _ in range(200):
            a, b = rng.randrange(10**6), rng.randrange(1, 10**4)
            r = remainder(leaf(a), leaf(b)).value
            assert 0 <= r < b and r == a % b


class TestBoolLattice:
    def test_truth_tables(self):
        table = {
            ("and", 0, 0): 0, ("and", 0, 1): 0, ("and", 1, 0): 0, ("and", 1, 1): 1,
            ("or", 0, 0): 0, ("or", 0, 1): 1, ("or", 1, 0): 1, ("or", 1, 1): 1,
            ("implies", 0, 0): 1, ("implies", 0, 1): 1, ("implies", 1, 0): 0, ("implies", 1, 1): 1,
        }
        for (op, a, b), want in table.items():
            assert bit(bool_lattice(op, leaf(a), leaf(b))) == want
        assert bit(bool_lattice("not", leaf(0))) == 1
        assert bit(bool_lattice("not", leaf(1))) == 0

    def test_involution_and_laws(self):
        for x in (0, 1):
            assert bit(bool_lattice("not", bool_lattice("not", leaf(x)))) == x
            for y in (0, 1):
                assert bit(bool_lattice("and", leaf(x), leaf(y))) == bit(
                    bool_lattice("and", leaf(y), leaf(x))
                )

    def test_not_boolean(self):
        with pytest.raises(NotBoolean):
            bool_lattice("and", leaf(2), leaf(1))


class TestCompare:
    def test_examples(self):
        assert bit(nat_compare("eq", leaf(4), leaf(4))) == 1
        assert bit(nat_compare("lt", leaf(3), leaf(5))) == 1
        assert bit(nat_compare("lt", leaf(5), leaf(3))) == 0

    def test_reflexivity(self, rng):
        for _ in range(50):
            x = leaf(rng.randrange(100))
            assert bit(nat_compare("le", x, x)) == 1


class TestStructEq:
    def test_examples(self):
        assert bit(struct_eq(leaf(5), leaf(5))) == 1
        a = parse("a = 1 b = 2").root
        b = parse("b = 2 a = 1").root
        assert bit(struct_eq(a, b)) == 0

    def test_equivalence_relation(self, rng):
        trees = [gen_value_tree(rng, 2) for _ in range(12)]
        for t in trees:
            assert bit(struct_eq(t, t)) == 1
        for a in trees:
            for b in trees:
                assert bit(struct_eq(a, b)) == bit(struct_eq(b, a))
                for c in trees:
                    if bit(struct_eq(a, b)) and bit(struct_eq(b, c)):
                        assert bit(struct_eq(a, c)) == 1


class TestSelect:
    def predicate(self, src):
        return parse(src, allow_vars=True).resolve("p")

    def test_filter_by_variable(self):
        m = parse("a = 1 b = 2 c = 3").root
        pred = self.predicate("p : lt { #0 = $x #1 = 3 }")
        out = select(m, pred, EvalContext(StateTree()))
        assert [(l, c.value) for l, c in out.children] == [("a", 1), ("b", 2)]

    def test_extremal_predicates(self):
        m = parse("a = 1 b = 2").root
        const_true = self.predicate("p : eq { #0 = 0 #1 = 0 }")
        const_false = self.predicate("p : eq { #0 = 0 #1 = 1 }")
        everything = select(m, const_true, EvalContext(StateTree()))
        assert node_equal(everything, m)
        assert select(m, const_false, EvalContext(StateTree())).children == ()

    def test_field_access_by_reference(self):
        m = parse('p0 { name = "John" age = 30 } p1 { name = "Ann" age = 40 }').root
        pred = self.predicate('p : seteq { #0 = [name] #1 = "John" }')
        out = select(m, pred, EvalContext(StateTree()))
        assert [l for l, _ in out.children] == ["p0"]

    def test_predicate_vars_on_a_deep_chain(self):
        chain = Node.var_node("x")
        for _ in range(3000):
            chain = setn(chain, labels=["a"])
        assert _predicate_vars(chain) == {"x"}
        chain.set_child("b", setn(leaf(1), op="$f"))
        with pytest.raises(EvalError):
            _predicate_vars(chain)

    def test_order_and_labels_preserved_idempotent(self, rng):
        m = setn(*[leaf(rng.randrange(10)) for _ in range(8)],
                 labels=["a", "b", "c", "d", "e", "f", "g", "h"])
        pred = self.predicate("p : lt { #0 = $x #1 = 5 }")
        once = select(m, pred, EvalContext(StateTree()))
        twice = select(once, pred, EvalContext(StateTree()))
        assert node_equal(once, twice)
        kept = [l for l, _ in once.children]
        assert kept == [l for l, c in m.children if c.value < 5]

    def test_not_a_set(self):
        with pytest.raises(NotASet):
            select(leaf(1), self.predicate("p = $x"), EvalContext(StateTree()))

    def test_multi_variable_predicate_rejected(self):
        m = parse("a = 1").root
        pred = self.predicate("p : lt { #0 = $x #1 = $y }")
        with pytest.raises(EvalError):
            select(m, pred, EvalContext(StateTree()))
        applied = self.predicate("p : lt { #0 : $f { #0 = $x } #1 = 3 }")
        with pytest.raises(EvalError, match="function variables"):
            select(m, applied, EvalContext(StateTree()))

    def test_predicate_errors_propagate(self):
        m = parse("a = 1").root
        pred = self.predicate("p : lt { #0 : rem { #0 = $x #1 = 0 } #1 = 3 }")
        with pytest.raises(DivisionByZero):
            select(m, pred, EvalContext(StateTree()))


class TestDispatch:
    def test_arity_checked(self):
        with pytest.raises(EvalError):
            apply_builtin("not", [leaf(1), leaf(1)])
        with pytest.raises(EvalError):
            apply_builtin("sum", [leaf(1)])

    def test_every_eager_builtin_dispatches_at_its_arity(self):
        # results of op(0, 1), or not(1); pair is checked by shape
        expected = {
            "prod": 0, "sum": 1, "min": 0, "max": 1, "monus": 0, "rem": 0,
            "and": 0, "or": 1, "implies": 1, "not": 0,
            "eq": 0, "le": 1, "lt": 1, "seteq": 0, "pair": None,
        }
        assert set(expected) == BUILTIN_OPS - {"if", "select"}
        for op, want in expected.items():
            operands = [leaf(1)] if op == "not" else [leaf(0), leaf(1)]
            result = apply_builtin(op, operands)
            if want is None:
                assert node_equal(result, parse("fst = 0 snd = 1"))
            else:
                assert (result.kind, result.value) == ("leaf", want), op
            for wrong in (len(operands) - 1, len(operands) + 1):
                with pytest.raises(EvalError):
                    apply_builtin(op, [leaf(1)] * wrong)

    def test_if_and_select_not_eager(self):
        with pytest.raises(EvalError):
            apply_builtin("if", [leaf(1), leaf(1), leaf(1)])
        with pytest.raises(EvalError):
            apply_builtin("select", [setn(), leaf(1)])


# --- the built-in table against plain Python ------------------------------------

#: eager op -> (arity, the operands' check, the result on their values)
NAT_OPS = {
    "min": min, "max": max, "monus": lambda x, y: x - y if x >= y else 0,
    "eq": lambda x, y: int(x == y), "le": lambda x, y: int(x <= y), "lt": lambda x, y: int(x < y),
}
BOOL_OPS = {"and": lambda x, y: x & y, "or": lambda x, y: x | y, "implies": lambda x, y: int(not x or y)}
PUBLIC = {
    **{op: nat_lattice for op in ("min", "max", "monus")},
    **{op: nat_compare for op in ("eq", "le", "lt")},
    **{op: bool_lattice for op in ("not", *BOOL_OPS)},
}


def reference(op: str, operands: list) -> tuple:
    """What an eager built-in gives on leaves and sets: ``("leaf", n)``,
    ``("set", rendered text)`` or ``(error class, message)``, from plain
    Python arithmetic and the documented messages."""
    arity = 1 if op == "not" else 2
    if len(operands) != arity:
        return EvalError, f"{op} expects {arity} operands, got {len(operands)}"
    values = [n.value if n.kind == "leaf" else None for n in operands]
    if op in ("prod", "sum"):
        if None not in values:
            return "leaf", values[0] * values[1] if op == "prod" else values[0] + values[1]
        if values == [None, None]:  # the sets drawn here are empty
            return "set", ""
        return MixedKinds, f"{'product' if op == 'prod' else 'coproduct'} of {operands[0]!r} and {operands[1]!r}"
    if op == "pair":
        return "set", "".join(f"{label} {{\n}}\n" if v is None else f"{label} = {v}\n" for label, v in zip(("fst", "snd"), values))
    if op == "seteq":
        return "leaf", int(values[0] == values[1])
    for node, value in zip(operands, values):
        if op in NAT_OPS or op == "rem":
            if value is None:
                return NotALeaf, f"{op} needs natural-number leaves, got {node!r}"
        elif value not in (0, 1):
            return NotBoolean, f"{op} needs a boolean leaf (0 or 1), got {node!r}"
    if op == "rem":
        return (DivisionByZero, f"rem({values[0]}, 0)") if values[1] == 0 else ("leaf", values[0] % values[1])
    if op == "not":
        return "leaf", 1 - values[0]
    return "leaf", (NAT_OPS.get(op) or BOOL_OPS[op])(*values)


def outcome(fn, *args) -> tuple:
    try:
        node = fn(*args)
    except EvoError as err:
        return type(err), str(err)
    return ("leaf", node.value) if node.kind == "leaf" else ("set", render(node))


OPERANDS = st.one_of(st.integers(0, 3), st.integers(0, 10**30), st.just(None)).map(
    lambda v: setn() if v is None else leaf(v)
)


@given(
    op=st.sampled_from(sorted(BUILTIN_OPS - {"if", "select"})),
    operands=st.lists(OPERANDS, min_size=0, max_size=3),
)
@settings(max_examples=400, deadline=None)
def test_every_eager_op_agrees_with_plain_python(op, operands):
    want = reference(op, operands)
    assert outcome(apply_builtin, op, operands) == want
    arity = 1 if op == "not" else 2
    if op in PUBLIC and len(operands) == arity:
        assert outcome(PUBLIC[op], op, *operands) == want


@pytest.mark.parametrize("fn, what", [(nat_lattice, "lattice operation"), (nat_compare, "comparison"), (bool_lattice, "boolean operation")])
def test_an_unknown_public_op_checks_its_operands_first(fn, what):
    assert outcome(fn, "nope", leaf(1), leaf(0)) == (EvalError, f"unknown {what} 'nope'")
    assert outcome(fn, "nope", leaf(1), setn())[0] is (NotBoolean if fn is bool_lattice else NotALeaf)
