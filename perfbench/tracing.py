"""Call tracing from outside the program, for the traced perfbench run only.

``install`` rebinds public functions of ``ddpaths`` to timing wrappers in
every ``ddpaths`` module namespace that holds them, including the values of
module-level dispatch tables such as the CLI's sequence table, and
returns what ``uninstall`` needs to restore the originals.  Nothing inside
the package changes.

Each operation is a root span; every wrapped call is timed against the
stack of open calls, so a call's self time is its busy time minus the
busy time of its wrapped children and the tracer's own bookkeeping for
them.  Low-volume calls (verify checks, the
brute-force folds, the DP counter) are kept as full spans; high-volume
leaves (formulas, bijections, per-path functions, stream ``next()`` and
output writes) are kept as per-parent aggregates: a call count, busy and
self time for each (operation, parent, name).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

TARGETS = {
    "ddpaths.verify": ("verify_lemma",),
    "ddpaths.enumeration": (
        "totals_brute",
        "count_ddp_dp",
        "k_ascent_total",
        "one_ascent_distribution",
        "enumerate_ddp",
        "enumerate_dyck",
        "enumerate_plain",
    ),
    "ddpaths.bijections": (
        "plain_to_ddp",
        "ddp_to_plain",
        "updown_forward",
        "updown_inverse",
        "ascent_remove",
        "ascent_insert",
        "r_pair_decomposition",
    ),
    "ddpaths.formulas": (
        "central_binomial",
        "catalan",
        "a_closed",
        "r_closed",
        "u_closed",
        "r_convolution",
        "asymptotic_ratio",
    ),
    "ddpaths.paths": ("stats", "classify", "one_ascent_positions"),
}
# verify checks (named "verify.<ID>") and these are kept as full spans
SPANNED = {
    "enumeration.totals_brute",
    "enumeration.count_ddp_dp",
    "enumeration.k_ascent_total",
    "enumeration.one_ascent_distribution",
    "bijections.r_pair_decomposition",
}
CLI_COMMANDS = ("verify", "sequence", "count", "totals", "enumerate", "asymptotic")
STREAM = "enumeration.stream"
WRITE = "cli.output_write"


class Tracer:
    """Span stack, spans and per-parent aggregates of one traced repetition."""

    def __init__(self) -> None:
        self.stack: list[list] = [["outside", 0.0]]  # frames: [name, busy of wrapped children]
        self.op_id = 0
        self.ops: list[dict] = []
        self.spans: list[tuple] = []
        self.agg: dict[tuple[int, str, str], list] = {}  # -> [calls, busy, self]
        self.totals_lengths: list[int] = []
        self.stream_paths = 0
        self.output_bytes = 0

    def call(self, name: str, fn, args, kwargs):
        t_in = perf_counter()
        stack = self.stack
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            busy = t1 - t0
            key = (self.op_id, parent[0], name)
            rec = self.agg.get(key)
            if rec is None:
                rec = self.agg[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += busy
            rec[2] += busy - frame[1]
            if name in SPANNED or name.startswith("verify."):
                self.spans.append((self.op_id, name, parent[0], t0, t1))
            # the parent's self time excludes this call and its bookkeeping
            parent[1] += perf_counter() - t_in

    def op(self, name: str, fn):
        """Run one operation as a root span; returns its result."""
        self.op_id += 1
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.ops.append(
                {"id": self.op_id, "name": name, "start": t0, "end": t1, "self": t1 - t0 - frame[1]}
            )

    def wrap(self, name: str, fn):
        tracer = self
        if name == "verify.verify_lemma":

            def wrapper(check_id, *args, **kwargs):
                return tracer.call(f"verify.{check_id}", fn, (check_id, *args), kwargs)

        elif name == "enumeration.totals_brute":

            def wrapper(n, *args, **kwargs):
                tracer.totals_lengths.append(n)
                return tracer.call(name, fn, (n, *args), kwargs)

        elif name.startswith("enumeration.enumerate_"):

            def wrapper(*args, **kwargs):
                return _TimedStream(tracer, fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

        return wrapper

    def sink(self, f):
        return _TimedSink(self, f)

    def metrics(self, check_ids: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics of this repetition, by name."""
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for (_, _, name), (c, b, s) in self.agg.items():
            calls[name] = calls.get(name, 0) + c
            busy[name] = busy.get(name, 0.0) + b
            self_s[name] = self_s.get(name, 0.0) + s
        out: dict[str, float] = {}
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = sum(o["self"] for o in self.ops if o["name"] == f"cli.{cmd}")
        out["cli.output_bytes"] = self.output_bytes
        out["cli.output_write_s"] = busy.get(WRITE, 0.0)
        for check_id in check_ids:
            out[f"verify.{check_id}.self_s"] = self_s.get(f"verify.{check_id}", 0.0)
        n_totals = len(self.totals_lengths)
        out["enumeration.totals_brute.calls"] = n_totals
        out["enumeration.totals_brute.busy_s"] = busy.get("enumeration.totals_brute", 0.0)
        out["enumeration.totals_brute.hit_ratio"] = (
            1.0 - len(set(self.totals_lengths)) / n_totals if n_totals else 0.0
        )
        out["enumeration.stream.paths"] = self.stream_paths
        out["enumeration.stream.busy_s"] = busy.get(STREAM, 0.0)
        for fn in ("k_ascent_total", "one_ascent_distribution", "count_ddp_dp"):
            out[f"enumeration.{fn}.busy_s"] = busy.get(f"enumeration.{fn}", 0.0)
        for module in ("ddpaths.bijections", "ddpaths.formulas", "ddpaths.paths"):
            layer = module.split(".")[1]
            for fn in TARGETS[module]:
                out[f"{layer}.{fn}.calls"] = calls.get(f"{layer}.{fn}", 0)
                out[f"{layer}.{fn}.busy_s"] = busy.get(f"{layer}.{fn}", 0.0)
        total = sum(o["end"] - o["start"] for o in self.ops)
        out["trace.uncovered_share"] = sum(o["self"] for o in self.ops) / total if total else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write the spans and aggregates of this repetition as JSON."""
        payload = {
            "ops": self.ops,
            "spans": [
                {"op": op, "name": name, "parent": parent, "start": t0, "end": t1}
                for op, name, parent, t0, t1 in self.spans
            ],
            "aggregates": [
                {"op": op, "parent": parent, "name": name, "calls": c, "busy": b, "self": s}
                for (op, parent, name), (c, b, s) in self.agg.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


class _TimedStream:
    """Iterator proxy that times each ``next()`` of an enumeration stream."""

    def __init__(self, tracer: Tracer, it) -> None:
        self._tracer = tracer
        self._next = it.__next__

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.call(STREAM, self._next, (), {})
        self._tracer.stream_paths += 1
        return item


class _TimedSink:
    """stdout proxy that times each write and counts the characters written."""

    def __init__(self, tracer: Tracer, f) -> None:
        self._tracer = tracer
        self._write = f.write
        self._f = f

    def write(self, s: str) -> int:
        self._tracer.output_bytes += len(s)
        return self._tracer.call(WRITE, self._write, (s,), {})

    def flush(self) -> None:
        self._f.flush()


def install(tracer: Tracer) -> list[tuple[dict, object, object]]:
    """Rebind every target in every ``ddpaths`` namespace; returns the restore list."""
    modules = [m for k, m in sys.modules.items() if k == "ddpaths" or k.startswith("ddpaths.")]
    restore: list[tuple[dict, object, object]] = []
    for module_name, fns in TARGETS.items():
        layer = module_name.split(".")[1]
        for fn_name in fns:
            orig = getattr(sys.modules[module_name], fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", orig)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is orig:
                        restore.append((namespace, key, orig))
                        namespace[key] = wrapper
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is orig:
                                restore.append((value, k, orig))
                                value[k] = wrapper
    return restore


def uninstall(restore: list[tuple[dict, object, object]]) -> None:
    for table, key, orig in reversed(restore):
        table[key] = orig
