"""One cold repetition of a perfbench workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/child.py --workload NAME [--seed N] [--spans FILE] [--setup-only]

The first thing it does is import ``ddpaths`` and build the CLI parser;
the monotonic clock reading taken right after is the end of set-up.  It
then runs the workload's operations one after another, each CLI call with
stdout sent to an in-memory sink that keeps only a digest of the stream,
and prints one JSON line with the per operation timings and digests, the
query latencies and the peak resident memory.  Outputs are checked by the
parent, except the per-path query results, which are objects and are
checked here after the timed loop.  With ``--spans`` the run is traced
(``tracing.py``) and its spans are written to FILE.
"""

import io
import sys
import time


def _setup() -> float:
    import ddpaths.cli

    ddpaths.cli.build_parser()
    return time.monotonic()


def _timed(tracer, name: str, fn) -> tuple[float, object, str | None]:
    """(seconds, result, error) of one operation; a traced run records it as a root span."""
    t0 = time.perf_counter()
    try:
        result, error = (tracer.op(name, fn) if tracer else fn()), None
    except Exception as exc:  # an operation that raises is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


class _Sink(io.RawIOBase):
    """Raw stdout target: keeps a digest of the stream and its first bytes, not the stream."""

    KEEP = 65536

    def __init__(self) -> None:
        import zlib  # imported here so set-up time covers only ddpaths

        self._crc32 = zlib.crc32
        self.size = self.crc = self.lines = 0
        self.head = b""
        self.tail = b""

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        chunk = bytes(b)
        self.size += len(chunk)
        self.crc = self._crc32(chunk, self.crc)
        self.lines += chunk.count(b"\n")
        if len(self.head) < self.KEEP:
            self.head += chunk[: self.KEEP - len(self.head)]
        self.tail = (self.tail + chunk)[-4096:]
        return len(chunk)

    def digest(self) -> dict:
        last = self.tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        return {
            "size": self.size,
            "crc": self.crc,
            "lines": self.lines,
            "first": self.head.split(b"\n", 1)[0].decode(errors="replace"),
            "last": last.decode(errors="replace"),
            "head": self.head.decode(errors="replace"),
        }


def _run_cli(ddpaths, argv: list[str], tracer) -> dict:
    def call():
        try:
            rc = ddpaths.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        sys.stdout.flush()
        return rc

    sink = _Sink()
    stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = (tracer.sink(stdout) if tracer else stdout), err
    try:
        s, rc, error = _timed(tracer, f"cli.{argv[0]}", call)
    finally:
        sys.stdout, sys.stderr = saved
    lines = err.getvalue().splitlines()
    stderr = lines[0] if lines else ""
    return {"s": s, "rc": rc, "error": error, "stderr": stderr, "out": sink.digest()}


def _run_library(ddpaths, fn: str, args: list[int], tracer) -> dict:
    s, value, error = _timed(tracer, f"lib.{fn}", lambda: getattr(ddpaths, fn)(*args))
    result = None
    if error is None:
        try:
            if fn == "one_ascent_distribution":
                result = {str(t): c for t, c in value.row.items()}
            else:
                result = str(value)
        except (AttributeError, ValueError) as exc:  # not the documented result type
            error = f"unexpected result: {type(exc).__name__}: {exc}"
    return {"s": s, "error": error, "result": result}


def _query(ddpaths, kind: str, path, pos: int):
    if kind == "stats":
        return ddpaths.stats(path)
    if kind == "one_ascent_positions":
        return ddpaths.one_ascent_positions(path)
    if kind == "classify":
        return ddpaths.classify(path)
    if kind == "reflection":
        return ddpaths.plain_to_ddp(ddpaths.ddp_to_plain(path))
    shortened, slot = ddpaths.ascent_remove(path, pos)
    return ddpaths.ascent_insert(shortened, slot)


def _query_ok(kind: str, out, word: str, expected: dict) -> bool:
    try:
        if kind == "stats":
            got = (out.n, out.ups, out.downs, out.rights, out.ascent_runs, out.k_ascents)
            return got == expected["stats"]
        if kind == "one_ascent_positions":
            return out == expected["one_ascent_positions"]
        if kind == "classify":
            return out.value == expected["classify"]
        return out.word == word
    except AttributeError:  # not the documented result type
        return False


def _run_queries(ddpaths, seed: int, tracer) -> dict:
    """Per-path queries on seeded words; each is timed, then checked after the loop."""
    import reference
    import workloads

    words, positions, plan = workloads.query_plan(seed)
    paths = [ddpaths.PathWord(w) for w in words]
    outputs: list = []
    latencies: list[int] = []
    perf_ns = time.perf_counter_ns

    def loop():
        for kind, i in plan:
            t0 = perf_ns()
            out = _query(ddpaths, kind, paths[i], positions[i])
            latencies.append(perf_ns() - t0)
            outputs.append(out)

    _, _, error = _timed(tracer, "queries", loop)
    expected = [reference.query_expectation(w) for w in words]
    failed = len(plan) - len(outputs)  # queries not reached after an exception
    first = error
    for (kind, i), out in zip(plan, outputs):
        if not _query_ok(kind, out, words[i], expected[i]):
            failed += 1
            first = first or f"{kind} on query word {i}"
    return {
        "s": sum(latencies) / 1e9,
        "error": error,
        "queries": len(plan),
        "failed": failed,
        "first_failure": first,
        "latency_ns": latencies,
    }


def _peak_rss_kib() -> int:
    """Peak resident memory of this process image.

    On Linux ``ru_maxrss`` also counts the parent's peak carried over the
    fork before ``exec``, so the high-water mark of the current image is
    read from ``/proc`` where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    ready = _setup()

    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    import ddpaths

    import tracing
    import workloads

    ops = workloads.operations(args.workload, ddpaths.CHECK_IDS)
    tracer = tracing.Tracer() if args.spans else None
    restore = tracing.install(tracer) if tracer else []
    records = []
    try:
        for op in ops:
            if op["kind"] == "cli":
                rec = _run_cli(ddpaths, op["argv"], tracer)
            elif op["kind"] == "lib":
                rec = _run_library(ddpaths, op["fn"], op["args"], tracer)
            else:
                rec = _run_queries(ddpaths, args.seed, tracer)
            records.append({**op, **rec})
    finally:
        tracing.uninstall(restore)
    result = {
        "ready": ready,
        "ops": records,
        "rss_kib": _peak_rss_kib(),
    }
    if tracer:
        result["layers"] = tracer.metrics(ddpaths.CHECK_IDS)
        result["layers"]["cli.exit2_ops"] = sum(1 for rec in records if rec.get("rc") == 2)
        tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
