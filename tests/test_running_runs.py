"""Which runs ``EvalContext.running`` holds: the sequential runs in
progress, each as its call's ``Frame`` record, whose ``code`` and
``program`` ``unshared`` re-points when a write un-shares the run's own
code.  A rewrite run reads its compiled formulas once and never
registers, also when a reference it forces un-shares its own rules: the
outcome is that of the full-round loop in ``rewrite_reference.py``."""

import pytest

import rewrite_reference as reference
from evocat import CollectingOutput, EvalContext, TraceSink, load_stdlib, parse, render, run_entry
from evocat import templates
from evocat.errors import DivisionByZero, EvoError
from evocat.evaluator import Frame
from evocat.tree import Node

# the sweep forces [rules.#0.rhs], which un-shares the run's own rules
SELF_PEEK = (
    "r { args { } mode = 1 rules { #0 { lhs : f { #0 = $X } rhs : g { #0 = $X } } }"
    " peek = [rules.#0.rhs] result : f { #0 = 1 } }"
)

# outer (sequential) calls mid (rewrite), whose firing writes a reference
# to job; the next sweep forces it, and job (sequential) divides by zero
NESTED = """
mid {
  args { } mode = 1
  rules { #0 { lhs : f { #0 = $X } rhs = [job] } }
  job {
    args { } mode = 0
    body { #0 { at = [x] to = 1 } #1 { at = [result] to : rem { #0 = 1 #1 = 0 } } }
    x = 0 result = 0
  }
  result : f { #0 = 1 }
}
outer { args { } mode = 0 body { #0 { at = [result] to : mid { } } } result = 0 }
"""


class Cells(list):
    """``EvalContext.running`` that keeps every cell appended to it."""

    def __init__(self):
        super().__init__()
        self.added = []

    def append(self, cell):
        self.added.append(cell)
        super().append(cell)


def run(machine, entry: str, arguments=None, fuel: int = 100):
    """Run ``entry`` of ``machine``, a root node or its text, with a spying
    ``running``: the result or the error, the context, the trace lines and
    the cells that were added."""
    root = parse(machine) if isinstance(machine, str) else machine
    trace = CollectingOutput()
    ctx = EvalContext(root, fuel=fuel, trace=TraceSink(trace))
    ctx.running = cells = Cells()
    try:
        result = render(run_entry(root, entry, arguments, ctx))
    except EvoError as err:
        result = (type(err), err.instruction, str(err))
    return result, ctx, trace.lines, cells.added


class TestSelfPeekingRewrite:
    def test_a_forced_reference_into_its_own_rules(self, monkeypatch):
        unshared = []
        inner = EvalContext.unshared
        monkeypatch.setattr(
            EvalContext,
            "unshared",
            lambda ctx, holder, code, twin: unshared.append(code) or inner(ctx, holder, code, twin),
        )
        root = parse(SELF_PEEK)
        rules = root.resolve("r.rules")
        result, ctx, trace, _ = run(root, "r")
        assert result == ": g {\n  #0 = 1\n}\n"
        assert dict(ctx.stats) == {"call": 1, "deref": 1, "firing": 1}
        assert 100 - ctx.fuel == 3
        assert trace == ["0 rew 1 result"]
        assert unshared == [rules]  # the run's own rules, un-shared by the deref
        assert root.resolve("r.rules") is rules and rules.frozen is not None
        assert render(rules) == render(parse(SELF_PEEK).resolve("r.rules"))

    def test_the_full_round_loop_agrees(self, monkeypatch):
        got, ctx, trace, _ = run(SELF_PEEK, "r")
        monkeypatch.setattr(templates, "run_rewrite", reference.run_rewrite)
        want, ref_ctx, ref_trace, _ = run(SELF_PEEK, "r")
        assert (got, dict(ctx.stats), ctx.fuel, trace) == (want, dict(ref_ctx.stats), ref_ctx.fuel, ref_trace)


class TestRunningCells:
    @pytest.mark.parametrize(
        "entry, arguments",
        [
            ("gcd", {"arg1": 12, "arg2": 8}),
            ("fact", {"n": 5}),
            ("div", {"a": 20, "b": 3}),
            ("div", {"a": 1, "b": 0}),  # runs out of fuel
        ],
    )
    def test_a_rewrite_run_adds_no_cell(self, entry, arguments):
        lib = load_stdlib()
        args = {label: Node.leaf(value) for label, value in arguments.items()}
        _, ctx, _, added = run(lib, entry, args, fuel=3000)
        assert ctx.running == []
        assert len(added) == (ctx.stats["call"] if entry == "fact" else 0)
        body = lib.resolve("fact.body")
        assert all(isinstance(cell, Frame) and cell.code is body and cell.program is body.frozen[0] for cell in added)

    def test_an_error_deep_in_nested_runs_leaves_no_cell(self):
        root = parse(NESTED)
        result, ctx, trace, added = run(root, "outer")
        assert result[0] is DivisionByZero and result[1] == 1  # job's instruction 1
        assert trace == ["0 seq 0 result", "1 rew 1 result", "2 seq 0 x", "3 seq 1 result"]
        assert ctx.stats["call"] == 3 and ctx.running == []
        # outer and job each registered once; mid, the rewrite run, not at all
        outer, job = added
        assert outer.code is root.resolve("outer.body")
        assert render(job.code) == render(root.resolve("mid.job.body")) and job.instance.child("body") is job.code
