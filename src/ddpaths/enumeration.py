"""Exhaustive generation and brute-force counting for the path families.

Everything here counts by actually walking the search space; no closed
formula is consulted anywhere in this module.  That makes these functions
the oracle against which the closed-form counters and the bijections are
verified.

One stack walker, ``_moves``, states the move rule; nothing here recurses.
Every word is a prefix to a join depth followed by a suffix of the remaining
steps, and which suffixes may follow a prefix depends only on one key of it.
``_joined`` is that join for the streams: it builds a key's suffix list
once, when a prefix first reaches that key, and only for keys some prefix
reaches.  The depth is n // 2, or n - 13 beyond the cap, so the suffix lists
never hold more than 2^13 words, about 2^(n/2) below the cap;
``_join_depth`` states it once.  The three streams are lexicographic under
``U < D < R``, so that they are deterministic and golden-testable:
``_ddp_words`` streams the DDP and Dyck words, keyed by the prefix's height;
``_ddp_one_ascents`` the same words with their 1-ascent starts;
``_plain_words`` the U/D words, keyed by twice the up steps a prefix holds,
their suffixes grouped by up steps from one pass over ``product``.
``_walk`` reads prefixes of length n // 2 and suffixes of the remaining
steps, keys each by its step counts and its k-ascents, and aggregates the
step totals and the k-ascent histogram of length n; it joins its halves by
key counts: one product per pair of distinct prefix and suffix keys, not one
count per path.  The 1-ascent stream and ``_walk`` read a prefix by one seam
rule: its body, the prefix less its trailing up-run, and that run, capped
where every longer run acts alike; each height's suffixes are matched or
keyed once per capped run, not once per word.  Every brute-force count reads
the rows' cache, one row per (n, k) and the package's only cache.  A cap
(default 26, about 10.4 million words) guards against accidental enumeration
blowups, and it is the only bound on length short of sys.maxsize, past which
no string holds a word; every entry point that enumerates takes the cap as
an argument.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from itertools import product
from operator import add, mul
from typing import Any, Callable, Iterator

from .paths import _ONE_ASCENT, PathWord, _Record, _k_ascent, _setattr

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

# the word stream's suffix length; its suffix lists hold at most 2**13 = 8192 words
# (each step from a height has two choices), whatever the length of the words
_SUFFIX_STEPS = DEFAULT_ENUMERATION_CAP // 2

# CountRow's fields in order (its __slots__), by the names its JSON keys and CSV columns print
_COLUMNS = ("n", "dD", "dyck", "U", "D", "R", "A")
CSV_HEADER = ",".join(_COLUMNS)


class CountRow(_Record):
    """Exact totals over all dispersed Dyck paths of one length.

    ``ddp`` counts the paths themselves, ``dyck`` the R-free ones, and
    ``ups``/``downs``/``rights``/``one_ascents`` are totals summed over
    every path of this length.
    """

    __slots__ = ("n", "ddp", "dyck", "ups", "downs", "rights", "one_ascents")

    def __init__(
        self, n: int, ddp: int, dyck: int, ups: int, downs: int, rights: int, one_ascents: int
    ) -> None:
        _setattr(self, "n", n)
        _setattr(self, "ddp", ddp)
        _setattr(self, "dyck", dyck)
        _setattr(self, "ups", ups)
        _setattr(self, "downs", downs)
        _setattr(self, "rights", rights)
        _setattr(self, "one_ascents", one_ascents)

    def to_json_dict(self) -> dict:
        return {name: getattr(self, field) for name, field in zip(_COLUMNS, self.__slots__)}

    def to_csv(self) -> str:
        return ",".join(str(getattr(self, field)) for field in self.__slots__)


class DistributionTable(_Record):
    """Histogram of 1-ascent counts over all DDPs of one length.

    ``row[t]`` is the number of paths with exactly ``t`` 1-ascents, so the
    values sum to the path count and ``sum(t * row[t])`` is the 1-ascent
    total.
    """

    __slots__ = ("n", "row")

    def __init__(self, n: int, row: dict[int, int]) -> None:
        _setattr(self, "n", n)
        _setattr(self, "row", row)


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
    if n >= sys.maxsize:  # a str holds fewer than sys.maxsize characters
        raise ValueError(f"a word of length n needs n below sys.maxsize = {sys.maxsize}, got {n}")


def _require_ascent_length(k: int) -> None:
    if k < 1:
        raise ValueError(f"ascent length k must be >= 1, got {k}")


def _join_depth(n: int) -> int:
    """Where the word streams join prefixes to suffixes: n // 2, or n - 13 beyond the cap."""
    return max(n // 2, n - _SUFFIX_STEPS)


def _joined(heads: Iterator[tuple[str, int]], tail: Callable[[int], Any]) -> Iterator[tuple]:
    """Each (prefix, key) of ``heads`` as the prefix with ``tail(key)``; each key's tail is
    built once, when a prefix first reaches that key, and kept for every later prefix."""
    tails = {}
    for prefix, key in heads:
        if key not in tails:
            tails[key] = tail(key)
        yield prefix, tails[key]


def _ddp_words(n: int, flat: bool = True) -> Iterator[str]:
    """All DDP words of length n, lexicographic under U < D < R.

    ``flat=False`` forbids R steps, which leaves the Dyck words (none for odd n).
    Every prefix to the join depth is followed by each suffix of its height.  All
    prefixes have the same length, so (prefix, suffix) order is word order.
    """
    if not flat and n % 2:
        return
    half = _join_depth(n)
    for prefix, tail in _joined(_moves(0, half, n, flat), lambda h: _suffixes(h, n - half, flat)):
        yield from map(prefix.__add__, tail)


def _ddp_one_ascents(n: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Each DDP word of length n with the starts of its 1-ascents, in ``_ddp_words`` order.

    The seam rule of ``_walk``: a prefix splits into its body, the prefix less its trailing
    up-run, and a lead of at most 2 U steps, that run capped where every longer run acts
    alike.  The body's starts are matched once per prefix; each height's suffixes are
    matched once per lead, behind that lead, their starts shifted back by its length.
    """
    half = _join_depth(n)
    ones_in = _ONE_ASCENT.finditer

    def seams(height: int) -> tuple[list[str], dict[str, list[tuple[int, ...]]]]:
        """The suffixes from ``height`` and, by each lead the height allows, their starts;
        tuples from lists, as tuples cut down from a generator piled up in free lists."""
        words = _suffixes(height, n - half, True)
        return words, {
            lead: [tuple([m.start() + half - len(lead) for m in ones_in(lead + w)]) for w in words]
            for lead in ("", "U", "UU")[: height + 1]
        }

    for prefix, (words, starts) in _joined(_moves(0, half, n, True), seams):
        body = prefix.rstrip("U")
        own = tuple([m.start() for m in ones_in(body)])
        ends = starts[prefix[len(body) : len(body) + 2]]
        yield from zip(map(prefix.__add__, words), map(own.__add__, ends))


def _moves(height: int, steps: int, room: int, flat: bool) -> Iterator[tuple[str, int]]:
    """Each ``steps``-step word from ``height`` that can still return to the axis within
    ``room`` steps, with its end height, in U < D < R order; walked on an explicit stack."""
    stack = [("", height)]  # the U child is pushed last so it pops first
    pop, push = stack.pop, stack.append
    while stack:
        word, height = pop()
        done = len(word)
        if done == steps:
            yield word, height
            continue
        if height:
            push((word + "D", height - 1))
        elif flat:
            push((word + "R", 0))
        if height <= room - done - 2:  # room to rise and still return to 0
            push((word + "U", height + 1))


def _suffixes(height: int, steps: int, flat: bool) -> list[str]:
    """Every ``steps``-step word from ``height`` back to the axis, in U < D < R order."""
    return [word for word, end in _moves(height, steps, steps, flat) if not end]


_Row = tuple[int, int, int, int, tuple[int, ...]]


# by (n, k), the row of that length: a deep verify run asks for 23 lengths 201 times and
# walks each once; the totals, the 1-ascent histogram and k_ascent_total(n, 1) share k = 1
_ROWS: dict[tuple[int, int], _Row] = {}


def _row(n: int, k: int) -> _Row:
    row = _ROWS.get((n, k))
    if row is None:
        row = _ROWS[n, k] = _walk(n, k)
    return row


def _walk(n: int, k: int) -> _Row:
    """Aggregate over every DDP of length n, reading the words of ``_moves``.

    The row is ``(dyck, ups, downs, rights, hist)``: the R-free path count, the
    U/D/R step totals, and ``hist[t]``, the number of paths with exactly ``t``
    maximal up-runs of length ``k``.

    A path's statistics pack into one integer key, base n + 1, counted from its
    word: its ups, its downs, its rights and its k-runs.  Each step total is
    counted, none derived from the others, so R + U + D = n * dD(n) stays a
    measured fact.  A path is a prefix of n // 2 steps from ``_moves`` followed
    by a suffix of the remaining steps from ``_suffixes``.  Which suffixes may
    follow depends only on the prefix's height, and what they add to the k-runs
    only on its trailing up-run (capped at k + 1, as a run can span the split).
    So a prefix is keyed without its trailing run, plus the run's ups, and
    counted by height and run; each height's suffixes are listed once and keyed
    once per run, behind that run and less its ups, into a count per key.  A
    prefix key plus a suffix key is the path's key, so a prefix key held
    ``times`` times and a suffix key held ``count`` times add ``times * count``
    paths to the tally of their sum: each path is counted once, as one (prefix,
    suffix) pair, and the join costs one product per pair of distinct keys
    rather than one increment per path.  Nothing recurses, so the cap is the
    only bound on n.
    """
    # a key is ups + downs * down + rights * right + runs * closed, each field below n + 1
    down, right, closed = n + 1, (n + 1) ** 2, (n + 1) ** 3
    half = n // 2
    top = k + 1  # every up-run longer than k acts alike
    runs_in = _k_ascent(k).findall

    def key(word: str) -> int:
        steps = word.count("U") + word.count("D") * down + word.count("R") * right
        return steps + len(runs_in(word)) * closed

    # by height, then by trailing up-run: how many prefixes there have each key
    frontier: dict[int, dict[int, Counter]] = defaultdict(lambda: defaultdict(Counter))
    for prefix, height in _moves(0, half, n, True):
        body = prefix.rstrip("U")  # each of its up-runs is closed by a D or an R
        run = len(prefix) - len(body)
        frontier[height][min(run, top)][key(body) + run] += 1
    tally = Counter()
    for height, groups in frontier.items():
        words = _suffixes(height, n - half, True)
        for run, starts in groups.items():
            lead = "U" * run
            ends = Counter([key(lead + word) - run for word in words])
            for start, times in starts.items():
                for end, count in ends.items():
                    tally[start + end] += times * count
    dyck = ups = downs = rights = 0
    hist = [0] * (n // 2 + 1)
    for packed, count in tally.items():
        runs, packed = divmod(packed, closed)
        steps_right, packed = divmod(packed, right)
        steps_down, steps_up = divmod(packed, down)
        dyck += count * (not steps_right)  # an R-free DDP is a Dyck path
        ups += steps_up * count
        downs += steps_down * count
        rights += steps_right * count
        hist[runs] += count
    return dyck, ups, downs, rights, tuple(hist)


def _plain_words(n: int) -> Iterator[str]:
    """All length-n words over U/D ending at height -(n % 2), lexicographic under U < D.

    Its prefixes are the walks of ``_moves`` to the join depth that start that many steps
    above the axis, so the axis stops no D step, with room for n // 2 up steps; each ends
    at twice its up steps and is followed by every U/D suffix holding the up steps it still
    needs: all of them come from one pass over ``product``, grouped by their up steps, so
    each is built once.  Beyond the cap, prefixes from ``product`` would pass at least
    2^(half - n // 2 - 1) with too many up steps before the first word; the room prunes them.
    """
    half, ups = _join_depth(n), n // 2
    by_ups = defaultdict(list)
    for word in map("".join, product("UD", repeat=n - half)):
        by_ups[word.count("U")].append(word)
    heads = _moves(half, half, half + 2 * ups, False)
    for prefix, words in _joined(heads, lambda height: by_ups[ups - height // 2]):
        yield from map(prefix.__add__, words)


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

    A DDP read backwards, with U and D swapped, is again a DDP, so the suffixes
    of b steps that fall from height h to the axis are as many as the prefixes
    of b steps that rise from the axis to h.  With a = n // 2 and b = n - a the
    count is therefore the sum over h of f_a(h) * f_b(h), where f_s(h) counts
    the s-step prefixes that end at height h: the rows run to step b only.
    After s steps only heights 0..min(s, n - s) can still meet the other half,
    so the table holds just those: about n^2/8 cells in all, exact integers no
    larger than 2**b; independent of both the enumerator and the closed formula.
    """
    if n < 0:
        raise ValueError(f"path length must be non-negative, got {n}")
    a = n // 2
    ways = half = [1]  # after 0 steps: height 0
    for s in range(1, n - a + 1):
        live = min(s, n - s)
        w = ways + [0, 0]  # heights past the last live one hold no paths
        # height 0 is reached by a right step from 0 or a down step from 1; height
        # h >= 1 by an up step from h - 1 or a down step from h + 1
        ways = [w[0] + w[1], *map(add, w[:live], w[2 : live + 2])]
        if s == a:
            half = ways
    return sum(map(mul, half, ways))


def totals_brute(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> CountRow:
    """Aggregate exact totals over the full enumeration of length ``n``."""
    _require_enumerable(n, cap)
    dyck, ups, downs, rights, hist = _row(n, 1)
    ones = sum(t * c for t, c in enumerate(hist))
    return CountRow(
        n=n, ddp=sum(hist), dyck=dyck, ups=ups, downs=downs, rights=rights, one_ascents=ones
    )


def one_ascent_distribution(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> DistributionTable:
    """Histogram of the per-path 1-ascent count over all DDPs of length ``n``."""
    _require_enumerable(n, cap)
    hist = _row(n, 1)[-1]
    return DistributionTable(n=n, row={t: c for t, c in enumerate(hist) if c})


def k_ascent_total(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Total number of maximal up-runs of exact length ``k`` over all DDPs of length ``n``."""
    _require_ascent_length(k)
    _require_enumerable(n, cap)
    k = min(k, n // 2 + 1)  # a k-run takes k U and k D steps: every longer k reads all 0
    return sum(t * c for t, c in enumerate(_row(n, k)[-1]))
