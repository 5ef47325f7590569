"""Exhaustive generation and brute-force counting for the path families.

Everything here counts by actually walking the search space; no closed
formula is consulted anywhere in this module.  That makes these functions
the oracle against which the closed-form counters and the bijections are
verified.

Two walks share one move rule.  ``_ddp_words`` streams the words,
lexicographic under ``U < D < R`` so that streams are deterministic and
golden-testable; it walks an explicit stack, so it streams at any length.
``_fold`` recurses over the same tree without building words and aggregates
the step totals and the k-ascent histogram; every brute-force count reads its
cache, the package's only one.  A cap (default 26, about 10.4 million words)
guards against accidental enumeration blowups; every entry point that
enumerates takes the cap as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Iterator

from .paths import PathWord

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CountRow",
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
        return
    stack = [("", 0)]  # (prefix, height); the U child is pushed last so it pops first
    while stack:
        word, height = stack.pop()
        remaining = n - len(word)
        if not remaining:
            yield word
            continue
        if height:
            stack.append((word + "D", height - 1))
        elif flat:
            stack.append((word + "R", 0))
        if height <= remaining - 2:  # room to rise and still return to 0
            stack.append((word + "U", height + 1))


# cached on (n, k): the verify checks ask for the same lengths again (at --deep,
# 201 totals requests for 23 lengths), and the totals, the 1-ascent histogram and
# k_ascent_total(n, 1) share the k = 1 walk
@lru_cache(maxsize=None)
def _fold(n: int, k: int) -> tuple[int, int, int, int, tuple[int, ...]]:
    """Aggregate over every DDP of length n, walking the tree of ``_ddp_words``.

    Returns ``(dyck, ups, downs, rights, hist)``: the R-free path count, the
    U/D/R step totals, and ``hist[t]``, the number of paths with exactly ``t``
    maximal up-runs of length ``k``.  Each leaf adds to one bucket, so
    ``sum(hist)`` is the number of paths.
    """
    totals = [0, 0, 0, 0]
    hist = [0] * (n // 2 + 1)

    def rec(
        remaining: int, height: int, ups: int, downs: int, rights: int, runs: int, run: int
    ) -> None:
        if not remaining:
            totals[0] += not rights  # an R-free DDP is a Dyck path
            totals[1] += ups
            totals[2] += downs
            totals[3] += rights
            hist[runs + (run == k)] += 1
            return
        remaining -= 1
        if height < remaining:  # room to rise and still return to 0
            rec(remaining, height + 1, ups + 1, downs, rights, runs, run + 1)
        if run == k:  # a D or R step closes the up-run
            runs += 1
        if height:
            rec(remaining, height - 1, ups, downs + 1, rights, runs, 0)
        else:
            rec(remaining, 0, ups, downs, rights + 1, runs, 0)

    try:
        rec(n, 0, 0, 0, 0, 0, 0)
    except RecursionError:
        raise ValueError(
            f"length {n} is too long for the brute-force walk, which recurses once per step"
        ) from None
    return (*totals, tuple(hist))


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

    After s steps only heights 0..min(s, n - s) can still return to the axis,
    so the table holds just those: about n^2/4 cells in all, exact integers
    throughout; independent of both the enumerator and the closed formula.
    """
    if n < 0:
        raise ValueError(f"path length must be non-negative, got {n}")
    ways = [1]  # after 0 steps: height 0
    for s in range(1, n + 1):
        live = min(s, n - s)
        w = ways + [0, 0]  # heights past the last live one hold no paths
        # height 0 is reached by a right step from 0 or a down step from 1; height
        # h >= 1 by an up step from h - 1 or a down step from h + 1
        ways = [w[0] + w[1], *map(add, w[:live], w[2 : live + 2])]
    return ways[0]


def totals_brute(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountRow:
    """Aggregate exact totals over the full enumeration of length ``n``."""
    _require_enumerable(n, cap)
    dyck, ups, downs, rights, hist = _fold(n, 1)
    ones = sum(t * c for t, c in enumerate(hist))
    return CountRow(
        n=n, ddp=sum(hist), dyck=dyck, ups=ups, downs=downs, rights=rights, one_ascents=ones
    )


def one_ascent_distribution(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> DistributionTable:
    """Histogram of the per-path 1-ascent count over all DDPs of length ``n``."""
    _require_enumerable(n, cap)
    hist = _fold(n, 1)[-1]
    return DistributionTable(n=n, row={t: c for t, c in enumerate(hist) if c})


def k_ascent_total(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Total number of maximal up-runs of exact length ``k`` over all DDPs of length ``n``."""
    if k < 1:
        raise ValueError(f"ascent length k must be >= 1, got {k}")
    _require_enumerable(n, cap)
    return sum(t * c for t, c in enumerate(_fold(n, k)[-1]))
