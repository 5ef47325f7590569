"""Independent references and output gates for the perfbench workloads.

Nothing here imports ``ddpaths``: every expected value is computed by the
benchmark's own code, so a route under test is never its own reference.

* Central binomials come from the recurrence
  ``C(2k+1, k) = C(2k, k) * (2k+1) / (k+1)`` and
  ``C(2k+2, k+1) = 2 * C(2k+1, k)``; Catalan numbers from
  ``Cat(k+1) = Cat(k) * 2(2k+1) / (k+2)``.  The step and 1-ascent totals
  are the paper's closed forms evaluated on those values.
* k-ascent totals and the 1-ascent distribution come from small transfer
  DPs over (height, current up-run length).
* Enumerated streams are compared with the benchmark's own breadth-first
  enumerator, level by level in ``U < D < R`` order.
* The asymptotic table is recomputed in floating point from ``lgamma``.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter

ORDER = {"U": 0, "D": 1, "R": 2}


class References:
    """Memoised exact sequences, grown on demand."""

    def __init__(self) -> None:
        self._central = [1]
        self._catalan = [1]

    def central(self, n: int) -> int:
        c = self._central
        while len(c) <= n:
            m = len(c)
            k = (m - 1) // 2
            c.append(c[-1] * (2 * k + 1) // (k + 1) if m % 2 else 2 * c[-1])
        return c[n]

    def catalan(self, k: int) -> int:
        c = self._catalan
        while len(c) <= k:
            j = len(c) - 1
            c.append(c[-1] * 2 * (2 * j + 1) // (j + 2))
        return c[k]

    def dyck(self, n: int) -> int:
        return 0 if n % 2 else self.catalan(n // 2)

    def rights(self, n: int) -> int:
        return (1 << n) - self.central(n)

    def ups(self, n: int) -> int:
        return ((n + 1) * self.central(n) - (1 << n)) // 2

    def one_ascents(self, m: int) -> int:
        if m < 2:
            return 0
        return ((1 << (m - 2)) + (m - 1) * self.central(m - 2)) // 2

    def sequence(self, which: str, n: int) -> int:
        if which == "ddp-count":
            return self.central(n)
        if which in ("right-steps", "convolution"):
            return self.rights(n)
        if which == "one-ascents":
            return self.one_ascents(n)
        raise ValueError(f"no reference for sequence {which!r}")


def k_ascent_total(n: int, k: int) -> int:
    """Total maximal up-runs of length exactly ``k`` over all DDPs of length ``n``."""
    # state (height, run) with run = current up-run length capped at k + 1
    counts = {(0, 0): (1, 0)}  # -> (paths, total k-ascents so far)
    for i in range(n):
        remaining = n - i
        nxt: dict[tuple[int, int], tuple[int, int]] = {}

        def add(key, paths, total):
            p, t = nxt.get(key, (0, 0))
            nxt[key] = (p + paths, t + total)

        for (h, run), (paths, total) in counts.items():
            if h + 1 <= remaining - 1:
                add((h + 1, min(run + 1, k + 1)), paths, total)
            closed = paths if run == k else 0
            if h > 0:
                add((h - 1, 0), paths, total + closed)
            else:
                add((0, 0), paths, total + closed)  # R; run is always 0 here
        counts = nxt
    return sum(t for (h, _), (_, t) in counts.items() if h == 0)


def one_ascent_distribution(n: int) -> dict[int, int]:
    """Number of DDPs of length ``n`` with exactly ``t`` 1-ascents, for each ``t``."""
    # state (height, run, t) with run in {0, 1, 2+}
    counts: Counter = Counter({(0, 0, 0): 1})
    for i in range(n):
        remaining = n - i
        nxt: Counter = Counter()
        for (h, run, t), c in counts.items():
            if h + 1 <= remaining - 1:
                nxt[(h + 1, min(run + 1, 2), t)] += c
            if h > 0:
                nxt[(h - 1, 0, t + (run == 1))] += c
            else:
                nxt[(0, 0, t)] += c
        counts = nxt
    hist: Counter = Counter()
    for (h, _, t), c in counts.items():
        if h == 0:
            hist[t] += c
    return dict(sorted(hist.items()))


def family_words(n: int, family: str) -> list[str]:
    """Every word of ``family`` and length ``n``, in ``U < D < R`` order."""
    if family == "plain":
        level = [("", n // 2, n - n // 2)]  # (prefix, ups left, downs left)
        for _ in range(n):
            nxt = []
            for w, u, d in level:
                if u:
                    nxt.append((w + "U", u - 1, d))
                if d:
                    nxt.append((w + "D", u, d - 1))
            level = nxt
        return [w for w, _, _ in level]
    if family == "dyck" and n % 2:
        return []
    flat = family == "ddp"
    level = [("", 0)]  # (prefix, height)
    for i in range(n):
        remaining = n - i
        nxt = []
        for w, h in level:
            if h + 1 <= remaining - 1:
                nxt.append((w + "U", h + 1))
            if h > 0:
                nxt.append((w + "D", h - 1))
            elif flat:
                nxt.append((w + "R", 0))
        level = nxt
    return [w for w, _ in level]


def stream_digest(words: list[str]) -> tuple[int, int]:
    """(byte count, CRC-32) of the words printed one per line."""
    crc = size = 0
    for i in range(0, len(words), 8192):
        chunk = ("\n".join(words[i : i + 8192]) + "\n").encode()
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
    return size, crc


def word_key(word: str) -> tuple[int, ...]:
    return tuple(ORDER[ch] for ch in word)


def log2_binomial(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


def asymptotic_row(m: int) -> tuple[float, float, float]:
    """(log2 of the exact 1-ascent total, log2 of its estimate, their ratio)."""
    n = m - 2
    # A(m) = 2**(m-3) * (1 + (m-1) * C(n, n//2) / 2**n)
    exact = (m - 3) + math.log2(1.0 + 2.0 ** (math.log2(m - 1) + log2_binomial(n, n // 2) - n))
    estimate = (
        0.5 * math.log2(m / math.pi) + math.log2(1.0 + math.sqrt(math.pi / (2 * m))) + m - 2.5
    )
    return exact, estimate, 2.0 ** (exact - estimate)


def query_expectation(word: str) -> dict:
    """What each per-path query must return for ``word`` (a DDP)."""
    runs = []
    positions = []
    i = 0
    while i < len(word):
        if word[i] == "U":
            j = i
            while j < len(word) and word[j] == "U":
                j += 1
            runs.append(j - i)
            if j - i == 1:
                positions.append(i)
            i = j
        else:
            i += 1
    return {
        "stats": (
            len(word),
            word.count("U"),
            word.count("D"),
            word.count("R"),
            tuple(runs),
            dict(sorted(Counter(runs).items())),
        ),
        "one_ascent_positions": positions,
        "classify": "DispersedDyck" if "R" in word else "Dyck",
    }


class Gate:
    """Checks one workload's outputs; expected texts are built once per run.

    A CLI output arrives as a digest of the stream (byte count, CRC-32,
    line count, first and last line) plus its first bytes, which hold the
    whole output when it is small.
    """

    def __init__(self) -> None:
        self.refs = References()
        self._texts: dict[tuple, bytes] = {}
        self._streams: dict[tuple, tuple[int, int]] = {}

    def expected_text(self, argv: tuple[str, ...]) -> bytes | None:
        """Exact stdout of a deterministic command, or None when it is checked otherwise."""
        if argv in self._texts:
            return self._texts[argv]
        r = self.refs
        cmd = argv[0]
        text = None
        if cmd == "sequence" and _flag(argv, "--format") == "bfile":
            which, terms = argv[1], int(_flag(argv, "--terms"))
            text = "".join(f"{i} {r.sequence(which, i)}\n" for i in range(terms))
        elif cmd == "totals" and _flag(argv, "--method", "closed") == "closed":
            rows = ["n,dD,dyck,U,D,R,A"]
            for n in range(int(argv[1]) + 1):
                u = r.ups(n)
                rows.append(
                    f"{n},{r.central(n)},{r.dyck(n)},{u},{u},{r.rights(n)},{r.one_ascents(n)}"
                )
            text = "\n".join(rows) + "\n"
        elif cmd == "count" and argv[1] == "k-ascents":
            text = f"{k_ascent_total(int(argv[2]), int(_flag(argv, '-k')))}\n"
        elif cmd == "count" and _flag(argv, "--method", "closed") == "closed":
            n = int(argv[2])
            value = {"paths": r.central, "one-ascents": r.one_ascents}[argv[1]](n)
            text = f"{value}\n"
        if text is not None:
            self._texts[argv] = text.encode()
        return self._texts.get(argv)

    def check_cli(self, argv: tuple[str, ...], rc, out: dict) -> str | None:
        """None when the command's stdout is right, else a one-line reason."""
        cmd = argv[0]
        if cmd == "verify" and rc == 1:  # a failed check: report its counterexample
            return _check_verify(argv[1], out["head"]) or "exit 1"
        if rc != 0:
            return f"exit {rc}"
        if cmd in ("verify", "asymptotic"):
            if out["size"] != len(out["head"].encode()):
                return f"{out['size']} bytes of output, expected a short report"
            if cmd == "verify":
                return _check_verify(argv[1], out["head"])
            return _check_asymptotic([int(m) for m in argv[1:]], out["head"])
        if cmd == "enumerate":
            return self._check_enumerate(int(argv[1]), _flag(argv, "--family", "ddp"), out)
        expected = self.expected_text(argv)
        if expected is None:
            return f"no reference for {' '.join(argv)}"
        if (out["size"], out["crc"]) == (len(expected), zlib.crc32(expected)):
            return None
        got_lines = out["head"].encode().split(b"\n")[:-1]  # the last one may be cut off
        for i, (g, w) in enumerate(zip(got_lines, expected.split(b"\n"))):
            if g != w:
                j = next((j for j, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
                return f"line {i}, column {j}: got {g[j : j + 30]!r}, expected {w[j : j + 30]!r}"
        return f"{out['size']} bytes, expected {len(expected)}; first {len(got_lines)} lines agree"

    def _check_enumerate(self, n: int, family: str, out: dict) -> str | None:
        key = (n, family)
        if key not in self._streams:
            self._streams[key] = stream_digest(family_words(n, family))
        count = {
            "ddp": self.refs.central(n),
            "dyck": self.refs.dyck(n),
            "plain": self.refs.central(n),
        }[family]
        if out["lines"] != count:
            return f"{out['lines']} words, expected {count}"
        if count:
            lo, hi = _extremes(n, family)
            if (out["first"], out["last"]) != (lo, hi):
                got = f"{out['first'][:30]!r}/{out['last'][:30]!r}"
                return f"first/last {got}, expected {lo[:30]!r}/{hi[:30]!r}"
            if count > 1 and not word_key(lo) < word_key(hi):
                return "first word does not precede the last in U < D < R order"
        if (out["size"], out["crc"]) != self._streams[key]:
            return "stream differs from the reference enumeration"
        return None

    def check_library(self, fn: str, args: list, result) -> str | None:
        if fn == "count_ddp_dp":
            want = str(self.refs.central(args[0]))
            return None if result == want else f"count_ddp_dp({args[0]}) = {result[:40]}..."
        if fn == "one_ascent_distribution":
            want = {str(t): c for t, c in one_ascent_distribution(args[0]).items()}
            return None if result == want else f"distribution differs: {result}"
        return f"no reference for {fn}"


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _extremes(n: int, family: str) -> tuple[str, str]:
    """Smallest and largest word of the family in ``U < D < R`` order."""
    if family == "plain":
        return "U" * (n // 2) + "D" * (n - n // 2), "D" * (n - n // 2) + "U" * (n // 2)
    lo = "U" * (n // 2) + "D" * (n // 2) + ("R" if n % 2 else "")
    hi = "R" * n if family == "ddp" else "UD" * (n // 2)
    return lo, hi


def _check_verify(check_id: str, text: str) -> str | None:
    try:
        report = json.loads(text)
        checks = report["checks"]
        ids = [c["id"] for c in checks]
        passed = ids == [check_id] and checks[0]["pass"] is True and report["overall"] is True
    except (ValueError, KeyError, TypeError) as exc:  # not a verify report at all
        return f"unreadable report ({type(exc).__name__}: {exc})"
    if ids != [check_id]:
        return f"report covers {ids}, expected [{check_id!r}]"
    if not passed:
        return f"{check_id} did not pass: {checks[0].get('counterexample')}"
    return None


def _check_asymptotic(ms: list[int], text: str) -> str | None:
    lines = text.split("\n")
    if lines[0] != "m,log2_exact,log2_estimate,ratio" or len(lines) != len(ms) + 2:
        return f"unexpected table shape: {lines[:2]}"
    for m, line in zip(ms, lines[1:]):
        want = asymptotic_row(m)
        try:
            m_got, *got = line.split(",")
            ok = int(m_got) == m and len(got) == 3
            tolerances = (1e-5, 1e-5, 1e-6)
            ok = ok and all(abs(float(g) - w) <= t for g, w, t in zip(got, want, tolerances))
        except ValueError:
            ok = False
        if not ok:
            return f"row {line!r}, expected {m},{want[0]:.6f},{want[1]:.6f},{want[2]:.8f}"
    return None
