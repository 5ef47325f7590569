"""Exhaustive generation and brute-force counting for the path families.

Everything here counts by actually walking the search space; no closed
formula is consulted anywhere in this module.  That makes these functions
the oracle against which the closed-form counters and the bijections are
verified.

Generation is lexicographic under the alphabet order ``U < D < R`` so that
streams are deterministic and golden-testable.  A cap (default 26, about
10.4 million words) guards against accidental enumeration blowups; every
entry point that enumerates takes the cap as an argument.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .paths import _ONE_ASCENT, PathWord, _k_ascent_pattern

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CountRow",
    "CountTable",
    "DistributionTable",
    "enumerate_ddp",
    "enumerate_dyck",
    "enumerate_plain",
    "count_ddp_dp",
    "totals_brute",
    "one_ascent_distribution",
    "k_ascent_total",
]

DEFAULT_ENUMERATION_CAP = 26

CSV_HEADER = "n,dD,dyck,U,D,R,A"


@dataclass(frozen=True, slots=True)
class CountRow:
    """Exact totals over all dispersed Dyck paths of one length.

    ``ddp`` counts the paths themselves, ``dyck`` the R-free ones, and
    ``ups``/``downs``/``rights``/``one_ascents`` are totals summed over
    every path of this length.
    """

    n: int
    ddp: int
    dyck: int
    ups: int
    downs: int
    rights: int
    one_ascents: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dD": self.ddp,
            "dyck": self.dyck,
            "U": self.ups,
            "D": self.downs,
            "R": self.rights,
            "A": self.one_ascents,
        }

    def to_csv(self) -> str:
        return (
            f"{self.n},{self.ddp},{self.dyck},{self.ups},"
            f"{self.downs},{self.rights},{self.one_ascents}"
        )


@dataclass
class CountTable:
    """Length-indexed collection of :class:`CountRow` values."""

    rows: dict[int, CountRow] = field(default_factory=dict)

    def add(self, row: CountRow) -> None:
        self.rows[row.n] = row

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(self.rows[n].to_csv() for n in sorted(self.rows))
        return "\n".join(lines)

    def to_json_list(self) -> list[dict]:
        return [self.rows[n].to_json_dict() for n in sorted(self.rows)]


@dataclass(frozen=True)
class DistributionTable:
    """Histogram of 1-ascent counts over all DDPs of one length.

    ``row[t]`` is the number of paths with exactly ``t`` 1-ascents, so the
    values sum to the path count and ``sum(t * row[t])`` is the 1-ascent
    total.
    """

    n: int
    row: dict[int, int]


def _require_enumerable(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError(f"path length must be non-negative, got {n}")
    if cap < 0:
        raise ValueError(f"enumeration cap must be non-negative, got {cap}")
    if n > cap:
        raise ValueError(
            f"length {n} exceeds the enumeration cap of {cap}; "
            "pass a larger cap to override"
        )


def _ddp_words(n: int, flat: bool = True) -> Iterator[str]:
    """All DDP words of length n, lexicographic under U < D < R.

    ``flat=False`` forbids R steps, which leaves the Dyck words (none for odd n).
    """
    if not flat and n % 2:
        return iter(())
    buf: list[str] = []

    def rec(remaining: int, height: int) -> Iterator[str]:
        if remaining == 0:
            yield "".join(buf)
            return
        if height <= remaining - 2:  # room to rise and still return to 0
            buf.append("U")
            yield from rec(remaining - 1, height + 1)
            buf.pop()
        if height > 0:
            buf.append("D")
            yield from rec(remaining - 1, height - 1)
            buf.pop()
        elif flat:
            buf.append("R")
            yield from rec(remaining - 1, 0)
            buf.pop()

    return rec(n, 0)


def _plain_words(n: int) -> Iterator[str]:
    """All length-n words over U/D ending at height -(n % 2), lexicographic under U < D.

    A word is fixed by its up-step positions, and position tuples in
    lexicographic order are exactly the words in U < D order.
    """
    for ups in combinations(range(n), n // 2):
        word = ["D"] * n
        for i in ups:
            word[i] = "U"
        yield "".join(word)


def enumerate_ddp(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[PathWord]:
    """Yield every dispersed Dyck path of length ``n`` exactly once, in canonical order."""
    _require_enumerable(n, cap)
    return (PathWord(w) for w in _ddp_words(n))


def enumerate_dyck(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[PathWord]:
    """Yield every Dyck path of length ``n``; the stream is empty for odd ``n``."""
    _require_enumerable(n, cap)
    return (PathWord(w) for w in _ddp_words(n, flat=False))


def enumerate_plain(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[PathWord]:
    """Yield every plain path of length ``n`` (ends at ``-(n % 2)``, sign unconstrained)."""
    _require_enumerable(n, cap)
    return (PathWord(w) for w in _plain_words(n))


def count_ddp_dp(n: int) -> int:
    """Count DDPs of length ``n`` by dynamic programming over (position, height).

    Dense O(n^2) table, exact integers throughout; independent of both the
    enumerator and the closed formula.
    """
    if n < 0:
        raise ValueError(f"path length must be non-negative, got {n}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for _ in range(n):
        nxt = [0] * (n + 1)
        for h, c in enumerate(ways):
            if not c:
                continue
            if h + 1 <= n:
                nxt[h + 1] += c  # up
            if h:
                nxt[h - 1] += c  # down
            else:
                nxt[0] += c  # right, axis only
        ways = nxt
    return ways[0]


def totals_brute(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountRow:
    """Aggregate exact totals over the full enumeration of length ``n``."""
    _require_enumerable(n, cap)
    return _totals_cached(n)


@lru_cache(maxsize=None)
def _totals_cached(n: int) -> CountRow:
    paths = dyck = ups = downs = rights = ones = 0
    for w in _ddp_words(n):
        paths += 1
        ups += w.count("U")
        downs += w.count("D")
        r = w.count("R")
        rights += r
        dyck += not r  # an R-free DDP is a Dyck path
        ones += len(_ONE_ASCENT.findall(w))
    return CountRow(
        n=n, ddp=paths, dyck=dyck, ups=ups, downs=downs, rights=rights, one_ascents=ones
    )


def one_ascent_distribution(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> DistributionTable:
    """Histogram of the per-path 1-ascent count over all DDPs of length ``n``."""
    _require_enumerable(n, cap)
    hist = Counter(len(_ONE_ASCENT.findall(w)) for w in _ddp_words(n))
    return DistributionTable(n=n, row=dict(sorted(hist.items())))


def k_ascent_total(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Total number of maximal up-runs of exact length ``k`` over all DDPs of length ``n``."""
    if k < 1:
        raise ValueError(f"ascent length k must be >= 1, got {k}")
    _require_enumerable(n, cap)
    pattern = _k_ascent_pattern(k)
    return sum(len(pattern.findall(w)) for w in _ddp_words(n))
