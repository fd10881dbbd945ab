"""Data-driven execution: term rewriting with rule priority.

A formula is a pair { lhs <pattern> rhs <template> } with `$`-variables.
The engine repeats three steps: evaluate every ready sub-term, find the
first formula that matches anywhere (outermost matches win, descendants
of a match are skipped), replace all matches with instantiated right
sides.  The two-rule system here computes greatest common divisors.
"""

from evocat import CollectingOutput, EvalContext, TraceSink, parse, render, run_rewrite

RULES = """
rules {
  #0 { lhs : gcd { a = $X b = 0 }  rhs = $X }
  #1 { lhs : gcd { a = $X b = $Y }
       rhs : gcd { a = $Y b : rem { n = $X d = $Y } } }
}
"""

frame = parse(RULES)
frame.root.add_child(
    "goal",
    parse("g : gcd { a = 12 b = 8 }").resolve("g"),
)
print("before:")
print(render(frame.resolve("goal")))

trace = CollectingOutput()
ctx = EvalContext(frame, trace=TraceSink(trace))
run_rewrite(frame.resolve("rules"), frame, ctx)

print("after:", render(frame.resolve("goal")).strip())
print("\ntransitions (step, mode, formula, target):")
for line in trace.lines:
    print(" ", line)
print("\nthe remainder rule fired twice, then the base rule closed it out;")
print("rem(12,8) and rem(8,4) were evaluated by the ready-term sweep between firings.")
