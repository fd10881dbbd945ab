"""The three benchmark workloads and their independent Python references.

Every workload is built from a seed and a size table.  One op does fixed,
known work, so a workload's latency distribution has one peak: the seed
changes the values fed to evocat, never the amount of work an op asks for.
Each op returns what evocat produced; ``check`` compares it with a reference
computed here in plain Python, never with evocat itself (except that a dump
must also parse back through evocat and re-render byte-identical).

The evocat package is imported lazily, by ``import_evocat``, so that a
caller can start its set-up clock before the import.
"""

from __future__ import annotations

import collections
import contextlib
import datetime
import heapq
import io
import math
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STDLIB = SRC / "evocat" / "stdlib.evo"
CLI_MAIN = Path(__file__).resolve().parent / "cli_main.evo"
WORK = Path(__file__).resolve().parent / "_work"

F30, F31 = 832040, 1346269  # consecutive Fibonacci numbers: gcd takes 30 steps

#: Input sizes.  ``default`` is what the benchmark measures; ``tiny`` is the
#: smoke test's.  ``pool`` is the number of distinct seeded inputs an op
#: cycles through.
SIZES = {
    "default": {
        "div_q": 40, "deriv_pairs": 4, "pool": 64,
        "heap_n": 1000,
        "records": 160, "fact_n": 30,
    },
    "tiny": {
        "div_q": 5, "deriv_pairs": 2, "pool": 4,
        "heap_n": 20,
        "records": 6, "fact_n": 5,
    },
}

#: cli_state dates: fixed month and a year class that fix every quotient the
#: weekday formula computes with the stdlib ``div``, so each op's work is the same.
DATE_MONTH = 7
DATE_YEARS = (1948, 1949, 1950, 1951, 2048, 2049, 2050, 2051)


def import_evocat():
    """Import evocat from this checkout's ``src``; fail when it is absent."""
    if not (SRC / "evocat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evocat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import evocat

    return evocat


class Workload:
    """Base: ``setup`` builds inputs and machine state, ``op(i)`` runs op
    ``i`` and returns evocat's output, ``check(i, out)`` returns None when
    the output matches the reference, else a one-line reason."""

    name = ""
    warmup = 0
    #: collect garbage before each op, off the clock, so that every op runs
    #: the same garbage-collection schedule, as a fresh process would
    fresh_heap = False

    def __init__(self, seed: int, size: str = "default"):
        self.seed = seed
        self.size = SIZES[size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stats: collections.Counter = collections.Counter()
        self._contexts: list = []  # EvalContexts made since the last take_stats

    def context_class(self):
        """An EvalContext that registers itself, so its counters and the
        fuel it spent can be read after the op."""
        contexts = self._contexts

        class RecordedContext(self.evocat.EvalContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.initial_fuel = self.fuel
                contexts.append(self)

        return RecordedContext

    def take_stats(self) -> None:
        """Add the counters of the contexts made since the last call to
        ``stats``; ``stats["fuel"]`` is the fuel they spent."""
        for ctx in self._contexts:
            self.stats.update(ctx.stats)
            self.stats["fuel"] += ctx.initial_fuel - ctx.fuel
        self._contexts.clear()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out):
        raise NotImplementedError


# --- rewrite ----------------------------------------------------------------


def _deriv_tree(rng: random.Random, pairs: int):
    """A fixed skeleton of sums and products with seeded leaves.

    Each bottom pair is ``prod`` of the atom x and a constant, in seeded
    order; pairs are summed two by two and the two halves multiplied.
    Returned as nested tuples: ("x",), ("c", n), ("sum"|"prod", a, b).
    """
    bottoms = []
    for _ in range(pairs):
        c = ("c", rng.randint(2, 9))
        x = ("x",)
        bottoms.append(("prod", x, c) if rng.random() < 0.5 else ("prod", c, x))
    halves = [("sum", bottoms[k], bottoms[k + 1]) for k in range(0, pairs, 2)]
    while len(halves) > 1:
        halves = [("prod", halves[k], halves[k + 1]) for k in range(0, len(halves), 2)]
    return halves[0]


def dual_at(tree, x: int) -> tuple[int, int]:
    """(value, derivative) of a tuple tree at x, by dual numbers."""
    kind = tree[0]
    if kind == "x":
        return x, 1
    if kind == "c":
        return tree[1], 0
    (a, da), (b, db) = dual_at(tree[1], x), dual_at(tree[2], x)
    if kind == "sum":
        return a + b, da + db
    return a * b, a * db + da * b


def eval_node_at(node, x: int) -> int:
    """Value of an evocat result tree at x: leaves, ``x {}``, sum, prod."""
    if node.kind == "leaf":
        return node.value
    if node.kind != "set" or node.op not in ("x", "sum", "prod"):
        raise ValueError(f"unexpected node in derivative: {node!r}")
    if node.op == "x":
        if node.children:
            raise ValueError("atom x with children")
        return x
    if len(node.children) != 2:
        raise ValueError(f"{node.op} with {len(node.children)} operands")
    a, b = (eval_node_at(child, x) for _, child in node.children)
    return a + b if node.op == "sum" else a * b


class Rewrite(Workload):
    """One op = three ``run_entry`` calls on a stdlib machine: ``div`` with a
    fixed quotient, ``gcd`` of consecutive-Fibonacci multiples (always 30
    steps) and ``deriv`` of a fixed-shape tree with seeded leaves."""

    name = "rewrite"
    warmup = 3

    def setup(self) -> None:
        evocat = self.evocat = import_evocat()
        self.Context = self.context_class()
        self.machine = evocat.load_stdlib()
        q = self.size["div_q"]
        self.inputs = []
        for _ in range(self.size["pool"]):
            b = self.rng.randint(1000, 999_999)
            r = self.rng.randint(0, b - 1)
            k = self.rng.randint(1, 999_999)
            tree = _deriv_tree(self.rng, self.size["deriv_pairs"])
            self.inputs.append({
                "div": ({"a": b * q + r, "b": b}, q),
                "gcd": ({"arg1": k * F31, "arg2": k * F30}, k),
                "deriv": (tree, dual_at(tree, 3)[1]),
            })

    def _node(self, tree):
        Node = self.evocat.Node
        if tree[0] == "x":
            return Node.set_node(op="x")
        if tree[0] == "c":
            return Node.leaf(tree[1])
        return Node.set_node([(None, self._node(tree[1])), (None, self._node(tree[2]))], op=tree[0])

    def op(self, i: int):
        inp = self.inputs[i % len(self.inputs)]
        Node, run_entry = self.evocat.Node, self.evocat.run_entry
        ctx = self.Context(self.machine.root)
        div_args, _ = inp["div"]
        gcd_args, _ = inp["gcd"]
        q = run_entry(self.machine, "div", {k: Node.leaf(v) for k, v in div_args.items()}, ctx)
        g = run_entry(self.machine, "gcd", {k: Node.leaf(v) for k, v in gcd_args.items()}, ctx)
        d = run_entry(self.machine, "deriv", {"e": self._node(inp["deriv"][0])}, ctx)
        return q, g, d

    def check(self, i: int, out):
        inp = self.inputs[i % len(self.inputs)]
        q, g, d = out
        if q.kind != "leaf" or q.value != inp["div"][1]:
            return f"div{inp['div'][0]} gave {q!r}, expected {inp['div'][1]}"
        if g.kind != "leaf" or g.value != inp["gcd"][1]:
            return f"gcd{inp['gcd'][0]} gave {g!r}, expected {inp['gcd'][1]}"
        try:
            got = eval_node_at(d, 3)
        except ValueError as err:
            return f"deriv result is not a polynomial in x: {err}"
        if got != inp["deriv"][1]:
            return f"deriv at x=3 gave {got}, expected {inp['deriv'][1]}"
        return None


# --- appliance --------------------------------------------------------------


class Appliance(Workload):
    """The stdlib heap with its ``compare`` template, prefilled with N seeded
    keys.  One op = ``heap_put`` of a seeded key, then ``heap_get``; the
    popped key must equal a ``heapq`` mirror's.

    Keys follow the hold model: a new key is the last popped key plus a
    uniform increment, and the prefill is drawn from that model's steady
    state.  The rank of a new key among the heap's, and so the number of
    compares an op makes, then has the same distribution on every op.
    """

    name = "appliance"
    warmup = 50
    SPAN = 1_000_000  # increments are uniform on [0, SPAN)

    def setup(self) -> None:
        evocat = self.evocat = import_evocat()
        self.Context = self.context_class()
        self.heap = evocat.instantiate(evocat.load_stdlib(), "heap")
        self.mirror: list[int] = []
        self.now = 0
        ctx = evocat.EvalContext(self.heap)
        for _ in range(self.size["heap_n"]):
            # steady-state density of key - now is 2(1 - x/SPAN)/SPAN on [0, SPAN)
            key = int(self.SPAN * (1 - math.sqrt(1 - self.rng.random())))
            evocat.heap_put(self.heap, evocat.Node.leaf(key), ctx)
            heapq.heappush(self.mirror, key)
        self.expected: dict[int, int] = {}

    def op(self, i: int):
        evocat = self.evocat
        key = self.now + self.rng.randrange(self.SPAN)
        self.now = self.expected[i] = heapq.heappushpop(self.mirror, key)
        ctx = self.Context(self.heap)
        evocat.heap_put(self.heap, evocat.Node.leaf(key), ctx)
        return evocat.heap_get(self.heap, ctx)

    def check(self, i: int, out):
        want = self.expected.pop(i)
        if out.kind != "leaf" or out.value != want:
            return f"heap_get gave {out!r}, expected {want}"
        return None


# --- cli_state --------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def make_state(rng: random.Random, records: int) -> tuple[str, int]:
    """A plain state file and the value its ``probe`` term must take.

    Records hold a string, nested sets, a score and a ``sum`` term over a
    reference into another record; ``probe`` is score + 1 of a seeded record.
    """
    scores = [rng.randint(1000, 9999) for _ in range(records)]
    lines = []
    for r in range(records):
        name = "".join(rng.choice(_LETTERS) for _ in range(8))
        lines.append(f"r{r} {{")
        lines.append(f'  name = "{name}"')
        lines.append("  tags {")
        for t in range(3):
            lines.append(f"    #{t} {{ k = {rng.randint(100, 999)} v {{ lo = {rng.randint(10, 99)} hi = {rng.randint(100, 999)} }} }}")
        lines.append("  }")
        lines.append(f"  score = {scores[r]}")
        lines.append(f"  bonus : sum {{ #0 = [r{rng.randrange(records)}.score] #1 = {rng.randint(1, 9)} }}")
        lines.append("}")
    target = rng.randrange(records)
    lines.append(f"probe : sum {{ #0 = [r{target}.score] #1 = 1 }}")
    return "\n".join(lines) + "\n", scores[target] + 1


class CliState(Workload):
    """One op = an in-process ``evocat.cli.main(["run", "--state", S, ...])``
    on a seeded plain state, the stdlib and ``cli_main.evo``, with stdout
    captured and the final state dumped to a file."""

    name = "cli_state"
    warmup = 2
    fresh_heap = True

    def setup(self) -> None:
        evocat = self.evocat = import_evocat()
        from evocat import cli

        self.cli = cli
        cli.EvalContext = self.context_class()  # the CLI makes one context per run
        WORK.mkdir(exist_ok=True)
        text, self.probe = make_state(self.rng, self.size["records"])
        self.state_path = WORK / f"state-{self.name}-{self.seed}.evo"
        self.state_path.write_text(text, encoding="utf-8")
        self.dump_path = WORK / f"dump-{self.name}-{self.seed}.evo"
        self.inputs = []
        for _ in range(self.size["pool"]):
            day = self.rng.randint(1, 28)
            year = self.rng.choice(DATE_YEARS)
            start = self.rng.randint(10**9, 2 * 10**9)
            step = self.rng.randint(1, 999)
            self.inputs.append((day, year, start, step))
        self.last_dump = ""

    def argv(self, i: int) -> list[str]:
        day, year, start, step = self.inputs[i % len(self.inputs)]
        return [
            "run", "--state", str(self.state_path), str(STDLIB), str(CLI_MAIN),
            "--entry", "main",
            "--arg", f"day={day}", "--arg", f"month={DATE_MONTH}",
            "--arg", f"year={year}", "--arg", f"n={self.size['fact_n']}",
            "--scripted-clock", f"{start}:{step}",
            "--dump", str(self.dump_path),
        ]

    def op(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(self.argv(i))
        return status, out.getvalue()

    def expected_stdout(self, i: int) -> str:
        day, year, _, step = self.inputs[i % len(self.inputs)]
        weekday = datetime.date(year, DATE_MONTH, day).weekday()
        fact = math.factorial(self.size["fact_n"])
        return f"{weekday}\n{fact}\n{self.probe}\n{step}\n0\n"

    def check(self, i: int, out):
        status, stdout = out
        if status != 0:
            return f"cli exit status {status}"
        want = self.expected_stdout(i)
        if stdout != want:
            return f"stdout {stdout!r}, expected {want!r}"
        dump = self.dump_path.read_text(encoding="utf-8")
        if not re.search(rf"^probe = {self.probe}$", dump, re.MULTILINE):
            return "dump does not hold the memoized probe value"
        if dump != self.last_dump:  # same state every op: re-render only on change
            if self.evocat.render(self.evocat.parse(dump)) != dump:
                return "dump does not re-render byte-identical"
            self.last_dump = dump
        return None


WORKLOADS = {cls.name: cls for cls in (Rewrite, Appliance, CliState)}
