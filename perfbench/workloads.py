"""The perfbench workloads: fixed operation lists and seeded per-path queries.

An operation is one closed-loop call into a public entry point of
``ddpaths``: ``cli.main(argv)`` with stdout sent to a file, a public
library function, or a batch of per-path queries.  One client sends
them one after another in a single thread.

* ``verify-deep``: ``verify <ID> --deep`` for every check id, in order, in
  one process, so the brute-force totals cache is shared exactly as in
  ``verify all --deep``.  Mostly enumeration folds and bijection round
  trips.  The seed does not affect it.
* ``closed-forms``: b-file export, the closed totals table, the
  asymptotic table, the DP counter and two point probes beyond CPython's
  4300-digit int->str limit.  Pure formulas, DP and big-integer output,
  no enumeration.  The seed does not affect it.
* ``enumerate-stream``: enumeration as an ordered word stream printed one
  path per line, two brute-force folds, and a seeded batch of queries on
  long random DDP words (paths and bijections on long inputs).

``BENCHMARK.json`` lists the workloads runs are compared on.
``enumerate-stream`` is left out of it so that the listed ones get longer
runs with more repetitions each; it runs on request with ``--workload``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-deep", "closed-forms", "enumerate-stream")
SEEDED = ("enumerate-stream",)

# CPython >= 3.10.7 refuses int->str beyond 4300 digits and the CLI reports
# it as a usage error.  The probes below hit it on purpose: their exit 2 with
# this message is recorded as a known defect, and any other outcome (a
# wrong value, another error) fails the gate.
KNOWN_DEFECT = "Exceeds the limit (4300 digits) for integer string conversion"

QUERY_WORDS = 100
QUERY_LENGTH = 1000
QUERY_ROUNDS = 4
QUERY_KINDS = ("stats", "one_ascent_positions", "classify", "reflection", "ascent")


def _cli(*argv: str, defect: bool = False) -> dict:
    return {"kind": "cli", "argv": list(argv), "defect": defect}


def _lib(fn: str, *args: int) -> dict:
    return {"kind": "lib", "fn": fn, "args": list(args)}


def operations(workload: str, check_ids: tuple[str, ...]) -> list[dict]:
    """The workload's operations, in the order they run."""
    if workload == "verify-deep":
        return [_cli("verify", check_id, "--deep") for check_id in check_ids]
    if workload == "closed-forms":
        return [
            _cli("sequence", "one-ascents", "--terms", "4000", "--format", "bfile"),
            _cli("sequence", "right-steps", "--terms", "4000", "--format", "bfile"),
            _cli("sequence", "ddp-count", "--terms", "4000", "--format", "bfile"),
            _cli("sequence", "convolution", "--terms", "400", "--format", "bfile"),
            _cli("totals", "2000", "--method", "closed"),
            _cli("asymptotic", "1000", "10000", "100000"),
            _lib("count_ddp_dp", 2000),
            _cli("count", "paths", "15000", defect=True),
            _cli("count", "one-ascents", "20000", defect=True),
        ]
    if workload == "enumerate-stream":
        return [
            _cli("enumerate", "20"),
            _cli("enumerate", "22", "--family", "plain"),
            _cli("enumerate", "24", "--family", "dyck"),
            _cli("count", "k-ascents", "22", "-k", "2", "--method", "brute"),
            _lib("one_ascent_distribution", 22),
            {"kind": "queries"},
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def item_count(op: dict) -> int:
    """Sequence terms, table rows or enumerated paths an operation delivers.

    These give the record's ``terms_per_s`` and ``paths_per_s``; other
    operations count zero.
    """
    if op["kind"] != "cli" or op["defect"]:
        return 0
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "sequence":
        return int(argv[argv.index("--terms") + 1])
    if cmd == "totals":
        return int(argv[1]) + 1
    if cmd == "asymptotic":
        return len(argv) - 1
    if cmd == "enumerate":
        n = int(argv[1])
        if "dyck" in argv:
            return 0 if n % 2 else math.comb(n, n // 2) // (n // 2 + 1)
        return math.comb(n, n // 2)  # DDPs and plain paths alike
    return 0


def random_ddp(rng: random.Random, n: int) -> str:
    """A random DDP word: each step uniform among the moves that can still return to 0."""
    steps = []
    h = 0
    for remaining in range(n, 0, -1):
        moves = "U" if h + 1 <= remaining - 1 else ""
        moves += "D" if h > 0 else "R"
        step = rng.choice(moves)
        h += {"U": 1, "D": -1, "R": 0}[step]
        steps.append(step)
    return "".join(steps)


def query_plan(seed: int) -> tuple[list[str], list[int], list[tuple[str, int]]]:
    """Query words, a 1-ascent position per word, and the shuffled (kind, word) plan."""
    rng = random.Random(seed)
    words: list[str] = []
    positions: list[int] = []
    while len(words) < QUERY_WORDS:
        w = random_ddp(rng, QUERY_LENGTH)
        ones = [
            i
            for i, ch in enumerate(w)
            if ch == "U" and (i == 0 or w[i - 1] != "U") and (i + 1 == len(w) or w[i + 1] != "U")
        ]
        if ones:
            words.append(w)
            positions.append(rng.choice(ones))
    plan = [
        (kind, i) for _ in range(QUERY_ROUNDS) for i in range(QUERY_WORDS) for kind in QUERY_KINDS
    ]
    rng.shuffle(plan)
    return words, positions, plan
