"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py [--seed N]

For each workload it checks that:
- every op's output agrees with the Python reference, and that the reference
  check rejects a deliberately wrong output;
- the untimed and the traced pass give the same outputs and counters;
- the metrics it reports are exactly those ``BENCHMARK.json`` names, each
  matching ``[A-Za-z0-9_.-]+``;
- the bypass predictions hold: no ``engine.match`` calls on ``appliance``,
  no parse calls in the ops of ``rewrite`` and ``appliance``, no device
  calls on either.
Exit status 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
DEVICE_CALLS = ("devices.DeviceTable.lookup.calls", "devices.ClockDevice.read.calls",
                "devices.TextOutputDevice.write.calls")


def wrong_output(name: str, out):
    """A plausible but wrong output for op ``out`` of workload ``name``."""
    Node = sys.modules["evocat"].Node
    if name == "rewrite":
        q, g, d = out
        return Node.leaf(q.value + 1), g, d
    if name == "appliance":
        return Node.leaf(out.value + 1)
    status, stdout = out
    return status, stdout.replace("\n", "\n1", 1)


def smoke(name: str, seed: int) -> list[str]:
    problems = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    w, failures = run.set_up(name, seed, "tiny")
    problems += failures
    for i in range(w.warmup, w.warmup + 8):
        out, reason, _ = run.run_op(w, i)
        if reason is not None:
            problems.append(f"op {i}: {reason}")
            continue
        if name == "appliance":  # check consumes the mirror's expectation
            w.expected[i] = out.value
        if w.check(i, wrong_output(name, out)) is None:
            problems.append(f"op {i}: the reference check accepts a wrong output")

    with contextlib.redirect_stdout(io.StringIO()):
        _, failures, e2e, _ = run.measure(name, seed, 0.0, "tiny")
        problems += failures
        _, failures, layers, _ = run.trace(name, seed, "tiny", ops=8)
        problems += failures

    for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        want = {m["name"] for m in spec[kind]}
        if set(metrics) != want:
            problems.append(f"{kind}: missing {sorted(want - set(metrics))}, "
                            f"extra {sorted(set(metrics) - want)}")
        problems += [f"bad metric name {key!r}" for key in metrics if not NAME_RE.match(key)]
        problems += [f"{key} = 0" for key, (value, _) in metrics.items()
                     if kind == "end_to_end" and value == 0]

    zero = []
    if name == "appliance":
        zero.append("engine.match.calls")
    if name in ("rewrite", "appliance"):
        zero += ["textio.parse.calls", *DEVICE_CALLS]
    problems += [f"{key} = {layers[key][0]}, predicted 0" for key in zero if layers[key][0] != 0]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    ok = True
    for name in workloads.WORKLOADS:
        problems = smoke(name, args.seed)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        if not problems:
            print(f"ok   {name}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
