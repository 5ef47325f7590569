"""perfbench: run one ddpaths benchmark workload and report its metrics.

Run from the root of a ddpaths checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every repetition runs in a
fresh child interpreter (``child.py``), one at a time, so the brute-force
totals cache always starts cold, as it does for a CLI user.  Repetitions
continue while the next one is expected to end within ``--seconds`` of
measured time; at least one always runs.  Every output is checked against
a reference the benchmark computes itself (``reference.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the run's repetitions:

* ``setup_s``: launch of a fresh interpreter until ``import ddpaths`` and
  ``cli.build_parser()`` return, over several set-up-only children and
  every repetition;
* ``run_s``: summed time of the workload's operations in one repetition;
* ``peak_rss_mib``: peak resident memory of the child.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones wrap public ``ddpaths`` functions from outside (``tracing.py``) and
the last line reports the per-layer metrics, plus the tracing overhead.

A human-readable record goes to stderr: interpreter, int->str digit limit,
core count, commit, per-operation timings, ``terms_per_s`` (closed-forms)
or ``paths_per_s`` (enumerate-stream), per-path query latency percentiles
with their sample count, ``failed_share``, failures and known defects.
Exit status is 0 with a result line, otherwise non-zero with none.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench"
SETUP_PROBES = 9
# children still running this long after the run started are stopped
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "ddpaths")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def _commit(root: str) -> str | None:
    """HEAD of a git checkout, read without running git; None outside one."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns the children of one run, checks their outputs and counts failures."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.out = os.path.join(root, OUT_DIR)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.gate = reference.Gate()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []

    def spawn(self, *args: str) -> dict:
        launch = time.monotonic()
        timeout = self.deadline - launch
        if timeout <= 0:
            raise BenchError("run time budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {' '.join(args)} exceeded the run time budget") from None
        wall = time.monotonic() - launch
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise BenchError(f"child exited {proc.returncode}: {tail[0]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["ready"] - launch
        result["wall_s"] = wall
        return result

    def setup_sample(self) -> float:
        return self.spawn("--workload", self.workload, "--setup-only")["setup_s"]

    def repetition(self, traced: bool, index: int) -> dict:
        """One cold repetition, checked; a traced one leaves its spans in the output directory."""
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        if traced:
            args += ["--spans", os.path.join(self.out, f"rep{index}.spans.json")]
        rep = self.spawn(*args)
        for op in rep["ops"]:
            self._check(op)
        rep["run_s"] = sum(op["s"] for op in rep["ops"])
        item_s = sum(op["s"] for op in rep["ops"] if workloads.item_count(op))
        if item_s:
            rep["items_per_s"] = sum(map(workloads.item_count, rep["ops"])) / item_s
        return rep

    def _check(self, op: dict) -> None:
        if op["kind"] == "queries":
            self.attempted += op["queries"]
            self.failed += op["failed"]
            if op["failed"]:
                self.failures.append(f"queries: {op['failed']} failed, first {op['first_failure']}")
            return
        self.attempted += 1
        label = _op_label(op)
        if op["kind"] == "lib":
            reason = op["error"] or self.gate.check_library(op["fn"], op["args"], op["result"])
        else:
            if op["defect"] and op["rc"] == 2 and workloads.KNOWN_DEFECT in op["stderr"]:
                self.known_defects.append(f"{label}: exit 2, {op['stderr']}")
                return
            reason = op["error"] or self.gate.check_cli(tuple(op["argv"]), op["rc"], op["out"])
            if reason and op["stderr"]:
                reason += f" ({op['stderr']})"
        if reason:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")

    def repeat(self, seconds: float, traced_pairs: bool) -> list[dict]:
        """Repetitions while the next is expected to end within ``seconds``."""
        reps: list[dict] = []
        rounds = 0
        elapsed = 0.0
        while not rounds or elapsed * (rounds + 1) / rounds <= seconds:
            order = [False]
            if traced_pairs:
                order = [True, False] if rounds % 2 else [False, True]
            for traced in order:
                rep = self.repetition(traced, len(reps))
                rep["traced"] = traced
                elapsed += rep["wall_s"]
                reps.append(rep)
            rounds += 1
        return reps


def _percentile(sorted_values: list[int], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _op_label(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    if op["kind"] == "lib":
        return f"{op['fn']}({', '.join(map(str, op['args']))})"
    return "per-path queries"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ddpaths benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ddpaths", "__init__.py")):
        print("perfbench: no src/ddpaths here; run from a ddpaths checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env_record = {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
    }
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the gate prints references beyond the default limit

    shutil.rmtree(os.path.join(root, OUT_DIR), ignore_errors=True)
    os.makedirs(os.path.join(root, OUT_DIR))
    runner = Runner(root, args.workload, args.seed, started + RUN_BUDGET_S)
    try:
        runner.setup_sample()  # warm-up: byte-code caches and page cache, not measured
        setup = [] if args.trace else [runner.setup_sample() for _ in range(SETUP_PROBES)]
        reps = runner.repeat(args.seconds, traced_pairs=bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace:
        values = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        overhead = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in plain])
        values["trace.overhead_s"] = overhead
    else:
        values = {
            "setup_s": median(setup + [r["setup_s"] for r in plain]),
            "run_s": median([r["run_s"] for r in plain]),
            "peak_rss_mib": median([r["rss_kib"] / 1024 for r in plain]),
        }
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1

    _print_record(args, env_record, runner, plain, traced, setup)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def _print_record(args, env_record, runner, plain, traced, setup) -> None:
    err = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
          file=err)
    seeded = args.workload in workloads.SEEDED
    print(f"  seed selects the inputs: {'yes' if seeded else 'no (fixed inputs)'}", file=err)
    print("  env: " + json.dumps(env_record), file=err)
    print(f"  repetitions: {len(plain)} untraced, {len(traced)} traced", file=err)
    if setup:
        print(f"  setup_s samples: {len(setup) + len(plain)}", file=err)
    for i, op in enumerate(plain[0]["ops"]):
        times = [r["ops"][i]["s"] for r in plain]
        print(f"  {median(times):9.4f} s  {_op_label(op)}", file=err)
    runs = ", ".join(f"{r['run_s']:.4f}" for r in plain)
    print(f"  run_s per repetition: {runs}", file=err)
    if "items_per_s" in plain[0]:
        name = "paths_per_s" if args.workload == "enumerate-stream" else "terms_per_s"
        print(f"  {name}: {median([r['items_per_s'] for r in plain]):.1f} 1/s", file=err)
    samples = sorted(
        ns for r in plain for op in r["ops"] if op["kind"] == "queries" for ns in op["latency_ns"]
    )
    if samples:
        p50, p99 = _percentile(samples, 0.50) / 1e3, _percentile(samples, 0.99) / 1e3
        beyond = len(samples) - int(0.99 * len(samples)) - 1
        print(f"  query_p50_us: {p50:.1f} us, query_p99_us: {p99:.1f} us "
              f"({len(samples)} samples, {beyond} beyond p99)", file=err)
    if traced:
        ratio = median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain])
        print(f"  tracing: traced run_s is {ratio:.3f}x untraced", file=err)
    share = (runner.failed + len(runner.known_defects)) / runner.attempted
    print(f"  failed_share: {share:.6f} ({runner.failed} failed, "
          f"{len(runner.known_defects)} known-defect exits, {runner.attempted} attempted)",
          file=err)
    for line in sorted(set(runner.known_defects)):
        print(f"  known defect: {line}", file=err)
    for line in runner.failures[:10]:
        print(f"  FAILED {line}", file=err)


if __name__ == "__main__":
    sys.exit(main())
