"""evocat benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload rewrite|appliance|cli_state
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/evocat``.  The next op
starts when the previous one returns.  Every op's output is checked against
an independent Python reference (see ``workloads.py``); a wrong result counts
as failed like an exception does.

``--trace 0`` measures the end-to-end metrics: ops are timed for
``--seconds`` seconds of op time (at least 100 ops, so that ten samples lie
beyond p90), and set-up is timed here and in four fresh processes, reporting
the median.  Between ops the reference job of ``refspeed.py`` is timed, and
every time is reported scaled to the reference's nominal speed, so that the
host's speed changes cancel out; the raw wall-clock figures are printed too.
``--trace 1`` runs a fixed number of ops untraced and then again, from a
fresh set-up with the same seed, under the wrappers of ``tracing.py``, and
reports the per-layer metrics; both passes must give the same outputs and
the same evaluation counters.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_SAMPLES = 5  # this process plus four fresh ones
REF_EVERY_S = 0.005  # op time between two samples of the reference job
TRACE_OPS = {"rewrite": 64, "appliance": 400, "cli_state": 16}
STATS_KEYS = ("firing", "op", "deref", "instruction", "call", "fuel")


def set_up(name: str, seed: int, size: str = "default"):
    """Build the workload and run its warm-up ops; return it with the
    warm-up failures."""
    w = workloads.WORKLOADS[name](seed, size)
    w.setup()
    failures = []
    for i in range(w.warmup):
        reason = run_op(w, i)[1]
        if reason is not None:
            failures.append(reason)
    w.take_stats()
    w.stats.clear()
    return w, failures


def timed_set_up(name: str, seed: int, size: str):
    """``set_up`` timed from before ``import evocat``; returns the workload,
    its failures, and the raw and scaled seconds.  The reference job is
    sampled five times before and five times after."""
    refspeed.sample()  # first call warms the allocator
    refs = [refspeed.sample() for _ in range(5)]
    start = perf_counter()
    w, failures = set_up(name, seed, size)
    raw = perf_counter() - start
    refs += [refspeed.sample() for _ in range(5)]
    return w, failures, raw, refspeed.scaled(raw, statistics.median(refs))


def run_op(w, i: int):
    """Run op ``i``; return (output, failure reason or None, seconds).

    The clock covers the op only, not the reference check."""
    start = perf_counter()
    try:
        out = w.op(i)
    except Exception as err:  # an EvoError or any other exception fails the op
        return None, f"{type(err).__name__}: {err}", perf_counter() - start
    elapsed = perf_counter() - start
    return out, w.check(i, out), elapsed


class Loop:
    """Ops run back to back from op ``first``, with the reference job timed
    before an op whenever ``REF_EVERY_S`` of op time has passed, and once
    after the last op."""

    def __init__(self, w, first: int, tracer=None):
        self.w = w
        self.next = first
        self.tracer = tracer
        self.raw: list[float] = []
        self.refs: list[tuple[int, float]] = []  # (ops done before, seconds)
        self.failures: list[str] = []
        self.outputs: list = []

    def run(self, count: int = 0, seconds: float = 0.0, keep: bool = False) -> "Loop":
        since = REF_EVERY_S
        busy = 0.0
        while len(self.raw) < count or busy < seconds:
            if since >= REF_EVERY_S:
                self.refs.append((len(self.raw), refspeed.sample()))
                since = 0.0
            if self.w.fresh_heap:
                gc.collect()
            if self.tracer is not None:
                self.tracer.op_id = self.next
            out, reason, elapsed = run_op(self.w, self.next)
            self.next += 1
            self.raw.append(elapsed)
            since += elapsed
            busy += elapsed
            if reason is not None:
                self.failures.append(reason)
            if keep:
                self.outputs.append(out)
            self.w.take_stats()
        self.refs.append((len(self.raw), refspeed.sample()))
        return self

    def scaled(self) -> list[float]:
        """Each op's time at the reference's nominal speed.  The reference
        time of an op is the median of the samples just before and after
        it and the one before those, so one interrupted sample is outvoted."""
        out: list[float] = []
        refs = [ref for _, ref in self.refs]
        for k, ((pos, _), (nxt, _)) in enumerate(zip(self.refs, self.refs[1:])):
            speed = statistics.median(refs[max(k - 1, 0):k + 2])
            out += [refspeed.scaled(x, speed) for x in self.raw[pos:nxt]]
        return out


def setup_probe(name: str, seed: int, size: str) -> tuple[float, float]:
    """Raw and scaled set-up seconds of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--size", size, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def measure(name: str, seed: int, seconds: float, size: str = "default"):
    w, failures, raw_setup, setup = timed_set_up(name, seed, size)
    gc.collect()
    loop = Loop(w, w.warmup).run(count=MIN_TIMED_OPS, seconds=seconds)
    failures += loop.failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [(raw_setup, setup)] + [setup_probe(name, seed, size) for _ in range(SETUP_SAMPLES - 1)]
    scaled_latencies = loop.scaled()
    scaled = latency_metrics(scaled_latencies)
    raw = latency_metrics(loop.raw)
    raw["setup_s"] = statistics.median(r for r, _ in setups)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s"}
    metrics = {key: (value, units[key]) for key, value in scaled.items()}
    metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    n = len(loop.raw)
    p90 = scaled["op_p90_ms"] / 1e3
    notes = {
        "ops_per_s": f"{n} ops",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {sum(x > p90 for x in scaled_latencies)} beyond",
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
    }
    notes.update({key: f"{notes[key]}; raw wall clock {raw[key]:.6g} {units[key]}" for key in raw})
    speed = statistics.median(ref for _, ref in loop.refs) / refspeed.NOMINAL_S
    print(f"reference job: median {speed:.3f}x its nominal time over {len(loop.refs)} samples")
    attempted = loop.next
    print(f"error_frac {len(failures) / attempted:.6f} 1 ({len(failures)} of {attempted} ops)")
    return attempted, failures, metrics, notes


def fingerprint(w, out) -> str:
    if w.name == "cli_state":
        return repr(out)
    nodes = out if isinstance(out, tuple) else (out,)
    return "|".join(w.evocat.render(node) for node in nodes)


def traced_pass(name: str, seed: int, size: str, ops: int, tracer=None):
    """Run ``ops`` ops after a fresh set-up; under ``tracer`` when given."""
    w, failures = set_up(name, seed, size)
    gc.collect()
    loop = Loop(w, w.warmup, tracer)
    if tracer is not None:
        tracer.install()
    try:
        loop.run(count=ops, keep=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return w, failures + loop.failures, [fingerprint(w, out) for out in loop.outputs], sum(loop.scaled())


def trace(name: str, seed: int, size: str = "default", ops: Optional[int] = None):
    ops = ops or TRACE_OPS[name]
    plain, failures, plain_out, plain_wall = traced_pass(name, seed, size, ops)
    tracer = tracing.Tracer()
    w, traced_failures, traced_out, traced_wall = traced_pass(name, seed, size, ops, tracer)
    failures += traced_failures
    for k, (a, b) in enumerate(zip(plain_out, traced_out)):
        if a != b:
            failures.append(f"traced op {k} output differs from the untraced run")
    for key in STATS_KEYS:
        if plain.stats[key] != w.stats[key]:
            failures.append(f"stats.{key}: traced {w.stats[key]} != untraced {plain.stats[key]}")

    workloads.WORK.mkdir(exist_ok=True)
    spans = workloads.WORK / f"spans-{name}.tsv"
    tracer.write(spans)
    print(f"{len(tracer.span_fn)} spans over {ops} ops written to {spans}")

    metrics = {}
    self_s = tracer.self_times()
    for fid, fname in enumerate(tracing.NAMES):
        metrics[f"{fname}.calls"] = (tracer.calls[fid], "count")
        metrics[f"{fname}.self_s"] = (self_s[fid], "s")
    match_calls = tracer.calls[tracing.NAMES.index("engine.match")]
    evaluate_calls = tracer.calls[tracing.NAMES.index("evaluator.evaluate")]
    firings = w.stats["firing"]
    metrics["engine.match.hit_ratio"] = (tracer.match_hits / match_calls if match_calls else 0.0, "1")
    metrics["evaluator.evaluate.calls_per_firing"] = (evaluate_calls / firings if firings else 0.0, "1")
    metrics["textio.tokens"] = (tracer.tokens, "count")
    metrics["textio.bytes_in"] = (tracer.bytes_in, "B")
    metrics["textio.bytes_out"] = (tracer.bytes_out, "B")
    for key in STATS_KEYS:
        metrics[f"stats.{key}"] = (w.stats[key], "count")
    metrics["traced.ops_per_s"] = (ops / traced_wall, "1/s")
    metrics["traced.overhead"] = (traced_wall / plain_wall, "1")
    print(f"scaled: untraced {ops / plain_wall:.3f} ops/s, traced {ops / traced_wall:.3f} ops/s")
    return 2 * ops + 2 * plain.warmup, failures, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="default",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, _, raw, scaled = timed_set_up(args.workload, args.seed, args.size)
        print(raw, scaled)
        return 0

    if args.trace:
        attempted, failures, metrics, notes = trace(args.workload, args.seed)
    else:
        attempted, failures, metrics, notes = measure(args.workload, args.seed, args.seconds)
    for reason in failures[:10]:
        print(f"FAILED: {reason}")
    for key, (value, unit) in metrics.items():
        note = f" ({notes[key]})" if key in notes else ""
        print(f"{key} {value} {unit}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
