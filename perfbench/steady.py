"""Steadiness self-check: run each workload repeatedly on the same code.

    python3 perfbench/steady.py [--runs 10] [--first-seed 101]
                                [--workload NAME]... [--seconds S]

Each run is a fresh ``run.py --trace 0`` process with its own seed (seeds
first-seed, first-seed + 1, ...), one after another.  For every end-to-end
metric the tool prints the median, the quartiles (``statistics.quantiles``
with n=4), the spread (q3 - q1) / median, and the bound ``BENCHMARK.json``
fixes for it.  A spread above its bound is flagged with ``!!``; one above a
third of its bound with ``!``.  ``setup_s`` is gated on its median, not its
spread, so its flag is informational.  The exit status is 1 when a run
failed or a gated spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            try:
                result = run_once(workload, seed, args.seconds)
            except RuntimeError as err:
                print(f"FAILED: {err}")
                ok = False
                continue
            if not result["correct"]:
                print(f"FAILED: {workload} seed {seed}: {result['failed']} ops failed")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed}: " + "  ".join(
                f"{name} {result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "!!" if spread > bounds[name] else "!" if spread > bounds[name] / 3 else ""
            if flag == "!!" and name != "setup_s":
                ok = False
            print(f"  {name:<12} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {bounds[name]:>6} {flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
