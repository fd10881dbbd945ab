"""The rewrite loop that sweeps and scans the whole frame every round.

This is ``engine.run_rewrite`` as it was before a round could resume where
the last round's one hit changed the tree, kept word for word.  Only the
imports are new.  ``test_rewrite_resume.py`` runs it beside the engine:
both must leave the same frame, stats, fuel, trace and error.
"""

from __future__ import annotations

from typing import Optional

from evocat.engine import (
    RESERVED_FRAME_LABELS,
    Binding,
    Formula,
    _collect_matches,
    _start,
    formulas_from,
    substitute,
)
from evocat.errors import EvalError
from evocat.evaluator import EvalContext, evaluate
from evocat.tree import LEAF, SET, Node, Path


def run_rewrite(rules: Node, frame: Node, ctx: Optional[EvalContext] = None) -> Node:
    """Rewrite the frame's data children to a normal form under the rules.

    Loop: (1) evaluate every ready sub-term (built-in operations with fully
    evaluated operands, references); (2) take the first formula with
    matches, collected preorder and outermost first, skipping descendants
    of matched nodes; (3) replace them all with instantiated right sides.
    Stops when, after a ready sweep, no formula matches.
    """
    if frame.kind != SET:
        raise EvalError("a rewrite frame must be a set node")
    if ctx is None:
        ctx = EvalContext(frame)
    cell = _start(rules, frame, formulas_from, ctx)
    try:
        while True:
            for label, child in frame.children:
                if child.kind != LEAF and label not in RESERVED_FRAME_LABELS:
                    evaluate(child, ctx, True)
            hits: list[tuple[Node, Path, Binding]] = []
            fired: Optional[Formula] = None
            for formula in cell[0]:
                for index, (label, child) in enumerate(frame.children):
                    if label in RESERVED_FRAME_LABELS:
                        continue
                    _collect_matches(formula, child, [label if label is not None else index], hits)
                if hits:
                    fired = formula
                    break
            if fired is None:
                break
            for node, path, binding in hits:
                replacement = substitute(fired.rhs, binding)
                ctx.emit("rew", fired.index + 1, path)
                ctx.spend()
                ctx.count("firing")
                node.become(replacement)
    finally:
        ctx.running.pop()
    return frame
