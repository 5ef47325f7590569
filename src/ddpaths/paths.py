"""Steps, path words and per-path statistics.

A word over the alphabet ``U``/``D``/``R`` describes a lattice path: ``U``
raises the height by one, ``D`` lowers it by one, ``R`` keeps it level.
Three families matter here:

* dispersed Dyck paths (DDPs): every prefix height is >= 0, the final
  height is 0, and ``R`` steps occur only at height 0;
* Dyck paths: DDPs without any ``R`` step (even lengths only);
* plain paths: ``R``-free words ending at height 0 for even length and
  height -1 for odd length, with no sign constraint along the way.

All values are immutable and all functions are pure, so everything in
this module is safe for concurrent use.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Step",
    "PathClass",
    "PathWord",
    "PathStats",
    "parse_path",
    "classify",
    "stats",
    "is_dispersed_dyck",
    "is_dyck",
    "is_plain_path",
    "one_ascent_positions",
]

_ALPHABET = frozenset("UDR")
_RISES = {"U": 1, "D": -1, "R": 0}
_UP_RUN = re.compile(r"U+")


# a maximal up-run of exactly one U; a literal run, not U{1}: the regex engine matches it faster
_ONE_ASCENT = re.compile("(?<!U)U(?!U)")


class Step(Enum):
    """One lattice step; ``rise`` is the height change it causes."""

    UP = "U"
    DOWN = "D"
    RIGHT = "R"

    @property
    def rise(self) -> int:
        return _RISES[self.value]


class PathClass(Enum):
    """Most specific family a word belongs to (``Invalid`` is a value, not an error)."""

    DISPERSED_DYCK = "DispersedDyck"
    DYCK = "Dyck"
    PLAIN_PATH = "PlainPath"
    INVALID = "Invalid"


@dataclass(frozen=True, slots=True)
class PathWord:
    """An immutable word over ``U``/``D``/``R``; the universal path object.

    The empty word is a valid path of length 0.  Construction rejects any
    other character, naming the first offending position.
    """

    word: str = ""

    def __post_init__(self) -> None:
        if not set(self.word) <= _ALPHABET:
            for i, ch in enumerate(self.word):
                if ch not in _ALPHABET:
                    raise ValueError(
                        f"invalid step character {ch!r} at position {i}; "
                        "expected one of U, D, R"
                    )

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word

    def __iter__(self):
        return (Step(ch) for ch in self.word)

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(Step(ch) for ch in self.word)

    def heights(self) -> list[int]:
        """Prefix heights; length ``n + 1``, starting at 0."""
        out = [0]
        h = 0
        for ch in self.word:
            h += _RISES[ch]
            out.append(h)
        return out

    @property
    def final_height(self) -> int:
        return self.word.count("U") - self.word.count("D")


@dataclass(frozen=True)
class PathStats:
    """Aggregate step counts and the maximal-up-run decomposition of one path.

    ``ascent_runs`` lists the maximal up-run lengths in path order;
    ``k_ascents`` maps each run length present to its multiplicity, so
    ``k_ascents.get(1, 0)`` is the path's number of 1-ascents.
    """

    n: int
    ups: int
    downs: int
    rights: int
    ascent_runs: tuple[int, ...]
    k_ascents: dict[int, int] = field(default_factory=dict)

    @property
    def one_ascents(self) -> int:
        return self.k_ascents.get(1, 0)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "ups": self.ups,
            "downs": self.downs,
            "rights": self.rights,
            "k_ascents": {str(k): self.k_ascents[k] for k in sorted(self.k_ascents)},
        }
        return json.dumps(payload)


def _word_of(path: PathWord | str) -> str:
    """Accept either a PathWord or a raw string, validating the latter."""
    if isinstance(path, PathWord):
        return path.word
    return PathWord(path).word


def parse_path(text: str) -> PathWord:
    """Parse a word over ``U``/``D``/``R`` into a :class:`PathWord`.

    The empty string denotes the length-0 path.  Any other character is
    rejected with a diagnostic naming the offending position.
    """
    return PathWord(text)


def is_dispersed_dyck(path: PathWord | str) -> bool:
    """True iff no prefix dips below 0, the path ends at 0, and every ``R`` sits at height 0."""
    h = 0
    for ch in _word_of(path):
        if ch == "U":
            h += 1
        elif ch == "D":
            h -= 1
            if h < 0:
                return False
        elif h != 0:  # R off the axis
            return False
    return h == 0


def is_dyck(path: PathWord | str) -> bool:
    """True iff the path is a dispersed Dyck path with no ``R`` step at all."""
    word = _word_of(path)
    return "R" not in word and is_dispersed_dyck(word)


def is_plain_path(path: PathWord | str) -> bool:
    """True iff the word is ``R``-free and ends at height ``-(n % 2)`` (sign unconstrained)."""
    word = _word_of(path)
    if "R" in word:
        return False
    return word.count("U") - word.count("D") == -(len(word) % 2)


def classify(path: PathWord | str) -> PathClass:
    """Return the most specific class of the word.

    A word that satisfies both the Dyck and the plain-path predicate (even
    length, never below 0, no ``R``) reports ``Dyck``; use
    :func:`is_plain_path` to query the plain predicate on its own.
    """
    word = _word_of(path)
    if is_dispersed_dyck(word):
        return PathClass.DYCK if "R" not in word else PathClass.DISPERSED_DYCK
    if is_plain_path(word):
        return PathClass.PLAIN_PATH
    return PathClass.INVALID


def stats(path: PathWord | str) -> PathStats:
    """Step counts and maximal-up-run decomposition; works on any word."""
    word = _word_of(path)
    runs = tuple(m.end() - m.start() for m in _UP_RUN.finditer(word))
    return PathStats(
        n=len(word),
        ups=word.count("U"),
        downs=word.count("D"),
        rights=word.count("R"),
        ascent_runs=runs,
        k_ascents=dict(sorted(Counter(runs).items())),
    )


def one_ascent_positions(path: PathWord | str) -> list[int]:
    """Indices of every up step that forms a maximal run of length one."""
    return [m.start() for m in _ONE_ASCENT.finditer(_word_of(path))]
