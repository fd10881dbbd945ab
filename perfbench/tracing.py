"""Outside-in tracing: wrappers around evocat's public functions.

``Tracer.install`` rebinds every traced function in every evocat module
that holds it (``evaluate`` lives in ``evaluator`` and ``engine``, for
example), and methods on their classes, so calls between modules go
through the wrapper.  Each wrapper counts every call.  It opens a span
unless the innermost open span is the same function, so a directly
recursive function (``Node.copy``, ``evaluate``, ``substitute``,
``node_equal``) gets one span per nesting and a count per call.  Spans are
kept in memory as parallel lists and written out by ``write``; a span's
self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: (module, function or Class.method) wrapped in the traced run.
TARGETS = (
    ("textio", "tokenize"), ("textio", "parse"), ("textio", "render"),
    ("tree", "Node.copy"), ("tree", "node_equal"), ("tree", "resolve_chain"),
    ("tree", "replace_subtree"),
    ("evaluator", "evaluate"), ("evaluator", "deref"),
    ("engine", "run_rewrite"), ("engine", "match"), ("engine", "substitute"),
    ("engine", "run_sequential"),
    ("templates", "instantiate"), ("templates", "call"), ("templates", "bind_operands"),
    ("templates", "lookup_template"), ("templates", "heap_put"), ("templates", "heap_get"),
    ("algebra", "apply_builtin"),
    ("devices", "DeviceTable.lookup"), ("devices", "ClockDevice.read"),
    ("devices", "TextOutputDevice.write"),
    ("cli", "main"),
)

NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)


class Tracer:
    def __init__(self):
        self.calls = [0] * len(TARGETS)
        self.match_hits = 0
        self.tokens = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.op_id = -1
        # one entry per span
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers ---

    def _observe(self, fid: int, args, result) -> None:
        name = NAMES[fid]
        if name == "engine.match":
            self.match_hits += result is not None
        elif name == "textio.tokenize":
            self.tokens += len(result)
            self.bytes_in += len(args[0].encode("utf-8"))
        elif name == "textio.render":
            self.bytes_out += len(result.encode("utf-8"))

    def _wrap(self, fid: int, fn):
        calls, stack = self.calls, self._stack
        span_fn, span_parent, span_op = self.span_fn, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        observe = self._observe if NAMES[fid] in (
            "engine.match", "textio.tokenize", "textio.render") else None

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if stack and span_fn[stack[-1]] == fid:
                result = fn(*args, **kwargs)
            else:
                idx = len(span_fn)
                span_fn.append(fid)
                span_parent.append(stack[-1] if stack else -1)
                span_op.append(self.op_id)
                span_end.append(0.0)
                stack.append(idx)
                span_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = perf_counter()
                    stack.pop()
            if observe is not None:
                observe(fid, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind each target wherever evocat's modules hold it."""
        for module, _ in TARGETS:
            importlib.import_module(f"evocat.{module}")
        modules = [m for n, m in sys.modules.items() if n == "evocat" or n.startswith("evocat.")]
        for fid, (module, attr) in enumerate(TARGETS):
            owner = sys.modules[f"evocat.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(fid, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(fid, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # --- results ---

    def self_times(self) -> list[float]:
        """Total self time per target, in seconds."""
        n = len(self.span_fn)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        totals = [0.0] * len(TARGETS)
        for idx in range(n):
            totals[self.span_fn[idx]] += self.span_end[idx] - self.span_start[idx] - child[idx]
        return totals

    def write(self, path) -> None:
        """One line per span: op, name, parent span, start and end in µs."""
        if not self.span_start:
            origin = 0.0
        else:
            origin = self.span_start[0]
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tname\tparent\tstart_us\tend_us\n")
            for idx, fid in enumerate(self.span_fn):
                out.write(
                    f"{idx}\t{self.span_op[idx]}\t{NAMES[fid]}\t{self.span_parent[idx]}\t"
                    f"{(self.span_start[idx] - origin) * 1e6:.1f}\t"
                    f"{(self.span_end[idx] - origin) * 1e6:.1f}\n"
                )
