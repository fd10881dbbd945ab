"""Work that grows with the input.  Each row runs a library call at three
sizes, each twice the one before, and counts the work the rewrite engine
does to keep its place, not the time it takes: that count may grow at most
``GROWTH`` times per doubling.

The count is taken by spies on the engine's helpers:

- ancestors tried: the ancestors of the last hit that a resumed round
  tries, from the one ``_highest`` names down to the hit's parent;
- entries copied or built: the scan of each resumed round is handed the
  nodes and the segments down to the last hit.  For each of the two lists,
  the entries added since the round before count, or all of them when the
  list is not the one that round was handed.

The merge row adjoins n and 2n entries to a machine root and counts the
root's labels scanned, by a label list that counts them at each membership
test, ``index`` call and iteration.

The text row parses and renders a plain state of n and 2n records.  It
counts the nodes built, by spies on the parser's two node constructors,
and the Python lines run in ``textio`` and ``tree``, by a line tracer: a
loop over siblings written in Python shows there, a scan inside a C call
such as ``list.index`` does not.
"""

import sys

import pytest

from evocat import EvalContext, engine, load_stdlib, merge_program, parse, render, run_entry, textio, tree
from evocat.errors import FuelExhausted
from evocat.tree import SET, Node

from helpers import cli_state_text

GROWTH = 2.3


@pytest.fixture
def work(monkeypatch):
    """The running count, and how many rounds resumed."""
    counts = {"work": 0, "resumed": 0}
    held = [(None, 0), (None, 0)]  # each list handed to the last resumed round, and its length after
    highest, scan = engine._highest, engine._scan

    def highest_spy(pattern, chain):
        first = highest(pattern, chain)
        counts["work"] += len(chain) - 1 - first
        return first

    def scan_spy(formulas, first, stop, roots, hits, chain=None, segs=None):
        if chain is None:  # a full round
            return scan(formulas, first, stop, roots, hits)
        counts["resumed"] += 1
        for at, entries in enumerate((chain, segs)):
            before, length = held[at]
            counts["work"] += max(len(entries) - length, 0) if entries is before else len(entries)
        scanned = scan(formulas, first, stop, roots, hits, chain, segs)
        held[:] = [(chain, len(chain)), (segs, len(segs))]
        return scanned

    monkeypatch.setattr(engine, "_highest", highest_spy)
    monkeypatch.setattr(engine, "_scan", scan_spy)
    return counts


def div(a, b, fuel=None):
    """``div a b`` on the stdlib machine, with a recursion limit that lets
    the last sweep go down the whole spine."""
    lib = load_stdlib()
    ctx = EvalContext(lib) if fuel is None else EvalContext(lib, fuel=fuel)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        return run_entry(lib, "div", {"a": Node.leaf(a), "b": Node.leaf(b)}, ctx)
    finally:
        sys.setrecursionlimit(limit)


def grows_linearly(counts):
    """Each count at most ``GROWTH`` times the one before it."""
    return all(large <= GROWTH * small for small, large in zip(counts, counts[1:]))


def test_div_by_seven_as_the_quotient_doubles(work):
    got = []
    for q in (40, 80, 160):
        work.update(work=0, resumed=0)
        assert div(7 * q + 3, 7).value == q
        assert work["resumed"] == q - 1  # all rounds but the first two and the last
        got.append(work["work"])
    assert grows_linearly(got), got


def test_div_by_zero_as_the_fuel_doubles(work):
    got = []
    for fuel in (2_500, 5_000, 10_000):
        work.update(work=0, resumed=0)
        with pytest.raises(FuelExhausted):
            div(1, 0, fuel)
        assert work["resumed"] == fuel // 3 - 2  # a firing and two operations per round
        got.append(work["work"])
    assert grows_linearly(got), got


def test_parse_and_render_as_the_records_double(monkeypatch):
    built = {"nodes": 0}
    for name in ("new_set", "new_atom"):
        def spy(*args, inner=getattr(textio, name)):
            built["nodes"] += 1
            return inner(*args)

        monkeypatch.setattr(textio, name, spy)
    files = {textio.__file__, tree.__file__}

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        built["lines"] += event == "line"
        return tracer

    nodes, lines = [], []
    for records in (320, 640):
        text = cli_state_text(records)
        built.update(nodes=0, lines=0)
        sys.settrace(tracer)
        try:
            out = render(parse(text, allow_vars=False))
        finally:
            sys.settrace(None)
        assert out.count("\n") == 31 * records  # a record's entries and closing braces
        nodes.append(built["nodes"])
        lines.append(built["lines"])
    assert nodes == [30 * 320 + 1, 30 * 640 + 1], nodes  # 30 nodes a record, and the root
    assert grows_linearly(lines), lines


class Scanned(list):
    """A label list that counts the labels it scans."""

    scanned = 0

    def __contains__(self, label):
        self.scanned += len(self)
        return super().__contains__(label)

    def index(self, *args):
        self.scanned += len(self)
        return super().index(*args)

    def __iter__(self):
        self.scanned += len(self)
        return super().__iter__()


def test_merge_program_as_the_entries_double():
    got = []
    for entries in (2_000, 4_000):
        base = Node(SET, children=[("e", Node.leaf(0))])
        base.labels = labels = Scanned(base.labels)
        merge_program(base, parse(" ".join(f"e{i} = {i}" for i in range(entries))))
        assert base.labels is labels and len(base.nodes) == entries + 1
        got.append(labels.scanned)
    assert grows_linearly(got), got
