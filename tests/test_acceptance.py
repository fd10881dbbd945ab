"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every expected value comes from an independent oracle computed
here (plain Python arithmetic, brute-force enumeration, the calendar, a
sorted list), never from the machine under test.
"""

import functools
import itertools
import random
import subprocess
import sys
from pathlib import Path as FsPath

from evocat import (
    CollectingOutput,
    EvalContext,
    TraceSink,
    load_stdlib,
    merge_program,
    parse,
    render,
    run_entry,
)
from evocat.algebra import bool_lattice, coproduct, product
from evocat.errors import ParseError
from evocat.evaluator import evaluate
from evocat.templates import call, heap_get, heap_put, instantiate
from evocat.tree import Node, Path, StateTree, compose, meet, node_equal, resolve

from helpers import (
    atom_x,
    euclid,
    expr_oracle,
    gen_any_tree,
    gen_expr,
    gen_label_path,
    gen_poly_expr,
    gen_value_tree,
    leaf,
    normalize_coeffs,
    poly_coeffs,
    poly_derivative,
    setn,
)

STDLIB_PATH = FsPath(__file__).resolve().parents[1] / "src" / "evocat" / "stdlib.evo"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return run

    return wrap


@criterion(1, "gcd rewriting equals the Euclid oracle, firing counts included")
def test_criterion_1_gcd():
    lib = load_stdlib()
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randrange(10**6)
        b = rng.randrange(a + 1)
        want, steps = euclid(a, b)
        ctx = EvalContext(lib)
        result = run_entry(lib, "gcd", {"arg1": leaf(a), "arg2": leaf(b)}, ctx)
        assert result.kind == "leaf" and result.value == want, (a, b)
        assert ctx.stats["firing"] == steps + 1, (a, b)
    # the worked example: three firings, second formula twice then the first
    trace = CollectingOutput()
    ctx = EvalContext(lib, trace=TraceSink(trace))
    result = run_entry(lib, "gcd", {"arg1": leaf(12), "arg2": leaf(8)}, ctx)
    assert result.value == 4
    firings = [int(index) for _, mode, index, _ in map(str.split, trace.lines) if mode == "rew"]
    assert firings == [2, 2, 1]


@criterion(2, "expression evaluation equals a recursive oracle; if is lazy")
def test_criterion_2_expressions():
    rng = random.Random(2)
    checked = 0
    while checked < 500:
        expr = gen_expr(rng, depth=6)
        try:
            want = expr_oracle(expr)
        except ZeroDivisionError:
            continue
        got = evaluate(expr.copy(), EvalContext(Node.set_node()))
        assert got.kind == "leaf" and got.value == want
        checked += 1
    # a poisoned untaken branch must never fire
    poisoned = parse(
        "t : if { c : lt { a = 1 b = 2 } t = 10 f : rem { n = 1 d = 0 } }"
    ).resolve("t")
    assert evaluate(poisoned, EvalContext(Node.set_node())).value == 10


@criterion(3, "product/coproduct cardinalities, conditional and boolean tables")
def test_criterion_3_categorical_laws():
    rng = random.Random(3)
    for _ in range(100):
        a = setn(*[gen_value_tree(rng, 1) for _ in range(rng.randrange(9))])
        b = setn(*[gen_value_tree(rng, 1) for _ in range(rng.randrange(9))])
        brute_pairs = [(x, y) for _, x in a.children for _, y in b.children]
        prod = product(a, b)
        assert len(prod.children) == len(brute_pairs)
        for (_, got), (x, y) in zip(prod.children, brute_pairs):
            assert node_equal(got.child("fst"), x) and node_equal(got.child("snd"), y)
        cop = coproduct(a, b)
        assert len(cop.children) == len(a.children) + len(b.children)
        originals = [c for _, c in list(a.children) + list(b.children)]
        assert all(
            node_equal(got, want) for (_, got), want in zip(cop.children, originals)
        )
    # duplicates preserved
    assert len(coproduct(parse("a = 1").root, parse("a = 1").root).children) == 2
    # conditional truth table
    for f, g in itertools.product(range(3), range(3)):
        for cond, want in ((1, f), (0, g)):
            term = parse(f"t : if {{ #0 = {cond} #1 = {f} #2 = {g} }}").resolve("t")
            assert evaluate(term, EvalContext(Node.set_node())).value == want
    # boolean lattice equals the truth tables on all inputs
    for x, y in itertools.product((0, 1), repeat=2):
        assert bool_lattice("and", leaf(x), leaf(y)).value == (x and y)
        assert bool_lattice("or", leaf(x), leaf(y)).value == (x or y)
        assert bool_lattice("implies", leaf(x), leaf(y)).value == ((1 - x) | y)
    for x in (0, 1):
        assert bool_lattice("not", leaf(x)).value == 1 - x


@criterion(4, "select equals a linear-scan filter on a 50-record corpus")
def test_criterion_4_select():
    rng = random.Random(4)
    names = ["John", "Ann", "Bob", "Eve", "Max"]
    machine = StateTree()
    persons = Node.set_node()
    for i in range(50):
        name = rng.choice(names)
        age = rng.randrange(18, 80)
        persons.add_child(
            f"r{i}",
            parse(f'name = "{name}"\nage = {age}').root,
        )
    machine.root.add_child("persons", persons)
    query = parse(
        't : select { #0 = [persons] #1 : seteq { #0 = [name] #1 = "John" } }'
    ).resolve("t")
    got = evaluate(query, EvalContext(machine))
    want = [
        (label, child)
        for label, child in persons.children
        if "".join(chr(c.value) for _, c in child.child("name").children) == "John"
    ]
    assert [l for l, _ in got.children] == [l for l, _ in want]
    assert all(node_equal(g, w) for (_, g), (_, w) in zip(got.children, want))
    # idempotence: selecting the selection changes nothing
    again = parse(
        't : select { #0 = [picked] #1 : seteq { #0 = [name] #1 = "John" } }'
    ).resolve("t")
    machine.root.add_child("picked", got.copy())
    assert node_equal(evaluate(again, EvalContext(machine)), got)


@criterion(5, "path composition laws and meet against a prefix oracle")
def test_criterion_5_addressing():
    rng = random.Random(5)
    empty = Path()
    for _ in range(1000):
        p = gen_label_path(rng)
        q = gen_label_path(rng)
        r = gen_label_path(rng)
        assert compose(p, empty) == p and compose(empty, p) == p
        assert compose(compose(p, q), r) == compose(p, compose(q, r))
        got = meet(p, q)
        cut = 0
        while cut < min(len(p), len(q)) and p[cut] == q[cut]:
            cut += 1
        assert got == Path(p[:cut])
        # composition law on a random tree
        node = gen_value_tree(rng, depth=3)
        mid = resolve(node, p)
        stepwise = resolve(mid, q) if mid is not None else None
        assert resolve(node, compose(p, q)) is stepwise


@criterion(6, "parse/print round-trip, canonical printing, fuzz safety")
def test_criterion_6_round_trip():
    rng = random.Random(6)
    for _ in range(1000):
        tree = gen_any_tree(rng, depth=6, fanout=5)
        text = render(tree)
        back = parse(text).root
        assert node_equal(back, tree)
        assert render(back) == text  # canonical: equal trees, identical text
    corpus = b'a = 5\nb { c : sum { #0 = 1 #1 = [a.#0] } }\nname = "John" // x\n'
    for i in range(100_000):
        if i % 2:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
            text = blob.decode("utf-8", "replace")
        else:
            mutated = bytearray(corpus)
            for _ in range(rng.randrange(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            text = mutated.decode("utf-8", "replace")
        try:
            parse(text)
        except ParseError:
            pass


@criterion(7, "template isolation, weekday against the calendar, recursive fact")
def test_criterion_7_templates():
    import datetime

    lib = load_stdlib()
    # isolation: the template text is bit-identical across instance mutation
    gcd_before = render(lib.resolve("gcd"))
    instance = instantiate(lib, "gcd")
    instance.child("args").set_child("arg1", leaf(9))
    instance.child("args").set_child("arg2", leaf(6))
    call(instance, EvalContext(lib))
    assert render(lib.resolve("gcd")) == gcd_before
    # weekday: the worked date, then 100 random dates against the calendar
    machine = load_stdlib()
    merge_program(
        machine,
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

    def weekday(y, m, d):
        out = run_entry(
            machine, "main", {"day": leaf(d), "month": leaf(m), "year": leaf(y)}
        )
        return out.value

    assert weekday(2004, 2, 5) == 3  # Thursday, Monday = 0
    rng = random.Random(7)
    for _ in range(100):
        y = rng.randrange(1900, 2101)
        m = rng.randrange(1, 13)
        d = rng.randrange(1, 29)
        assert weekday(y, m, d) == datetime.date(y, m, d).weekday(), (y, m, d)
    # recursive factorial by template self-copy vs the iterative oracle
    for n in range(21):
        acc = 1
        for k in range(2, n + 1):
            acc *= k
        result = run_entry(load_stdlib(), "fact", {"n": leaf(n)})
        assert result.value == acc, n


@criterion(8, "heap appliance equals a sorted-list priority queue oracle")
def test_criterion_8_heap():
    rng = random.Random(8)
    lib = load_stdlib()
    heap = instantiate(lib, "heap")
    ctx = EvalContext(lib)
    oracle: list[int] = []
    for _ in range(500):
        if oracle and rng.random() < 0.4:
            want = oracle.pop(0)
            assert heap_get(heap, ctx).value == want
        else:
            v = rng.randrange(1000)
            heap_put(heap, leaf(v), ctx)
            oracle.append(v)
            oracle.sort()
    drained = [heap_get(heap, ctx).value for _ in range(len(oracle))]
    assert drained == oracle
    assert drained == sorted(drained)


@criterion(9, "derivative rules match the symbolic oracle on polynomials")
def test_criterion_9_derivative():
    rng = random.Random(9)
    lib = load_stdlib()
    checked = 0
    while checked < 40:
        expr = gen_poly_expr(rng, depth=3)
        coeffs = poly_coeffs(expr)
        if len(coeffs) > 5:  # degree over 4
            continue
        want = normalize_coeffs(poly_derivative(coeffs))
        instance = instantiate(lib, "deriv")
        instance.child("args").set_child("e", expr.copy())
        out = call(instance, EvalContext(lib))
        got = normalize_coeffs(poly_coeffs(out))
        assert got == want, render(expr)
        checked += 1
    # the worked case: d(x*x, x) normalizes to x*1 + x*1
    instance = instantiate(lib, "deriv")
    instance.child("args").set_child("e", setn(atom_x(), atom_x(), op="prod"))
    out = call(instance, EvalContext(lib))
    want = setn(
        setn(atom_x(), leaf(1), op="prod"),
        setn(atom_x(), leaf(1), op="prod"),
        op="sum",
    )
    assert node_equal(out, want)


@criterion(10, "two scripted CLI runs are byte-identical, dumps included")
def test_criterion_10_cli_determinism(tmp_path):
    program = tmp_path / "echo.evo"
    program.write_text(
        """main {
             args { }
             mode = 0
             body {
               #0 { at = [t1] to = [dev.clock] }
               #1 { at = [dev.stdout] to = [dev.stdin] }
               #2 { at = [dev.stdout] to = [dev.stdin] }
               #3 { at = [dev.stdout] to : monus { #0 = [dev.clock] #1 = [t1] } }
               #4 { at = [result] to = [dev.clock] }
             }
             result = 0
           }"""
    )
    results = []
    for i in range(2):
        dump = tmp_path / f"dump{i}.evo"
        proc = subprocess.run(
            [
                sys.executable, "-m", "evocat.cli",
                "run", str(program),
                "--entry", "main",
                "--scripted-clock", "500:3",
                "--dump", str(dump),
            ],
            input="one\ntwo\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, dump.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0] == "one\ntwo\n3\n506\n"
