"""Path words, their classification and per-path statistics.

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
from enum import Enum
from operator import attrgetter

__all__ = [
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
_UP_RUN = re.compile(r"U+")


def _k_ascent(k: int) -> re.Pattern[str]:
    """A maximal up-run of exactly ``k`` U steps; a literal run, not U{k}: the regex engine
    matches it faster."""
    return re.compile(f"(?<!U){'U' * k}(?!U)")


_ONE_ASCENT = _k_ascent(1)


class PathClass(Enum):
    """Most specific family a word belongs to (``Invalid`` is a value, not an error)."""

    DISPERSED_DYCK = "DispersedDyck"
    DYCK = "Dyck"
    PLAIN_PATH = "PlainPath"
    INVALID = "Invalid"


# a record's __init__ sets its fields through this name: a global call is faster than
# looking up object.__setattr__ once per field
_setattr = object.__setattr__


class _Record:
    """Frozen value semantics over ``__slots__``, stated once for the package's records.

    A record names its fields, in order, as ``__slots__`` and sets each in its own
    ``__init__`` with ``_setattr``.  The rest is here: assignment raises
    AttributeError, two records are equal when they are of one class and their fields are,
    and the hash, the repr, ``__match_args__``, pickling and ``_replace`` read the same
    fields.  It is what ``@dataclass(frozen=True)`` generates, without that module's import
    of ``inspect``, which costs every run of the CLI about 1 MiB of peak memory.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._values = property(attrgetter(*cls.__slots__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes: object) -> _Record:
        """A copy with ``changes`` applied, built and checked by the record's own ``__init__``."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})


class PathWord(_Record):
    """An immutable word over ``U``/``D``/``R``; the universal path object.

    The empty word is a valid path of length 0.  Construction rejects a word
    that is not a ``str`` and any other character, naming the first offending
    position.
    """

    __slots__ = ("word",)

    def __init__(self, word: str = "") -> None:
        if not isinstance(word, str):
            raise TypeError(f"a path word must be a str, not {type(word).__name__}")
        if not set(word) <= _ALPHABET:
            for i, ch in enumerate(word):
                if ch not in _ALPHABET:
                    raise ValueError(
                        f"invalid step character {ch!r} at position {i}; "
                        "expected one of U, D, R"
                    )
        _setattr(self, "word", word)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word


class PathStats(_Record):
    """Aggregate step counts and the maximal-up-run decomposition of one path.

    ``ascent_runs`` lists the maximal up-run lengths in path order;
    ``k_ascents`` maps each run length present to its multiplicity, so
    ``k_ascents.get(1, 0)`` is the path's number of 1-ascents.
    """

    __slots__ = ("n", "ups", "downs", "rights", "ascent_runs", "k_ascents")

    def __init__(
        self,
        n: int,
        ups: int,
        downs: int,
        rights: int,
        ascent_runs: tuple[int, ...],
        k_ascents: dict[int, int] | None = None,
    ) -> None:
        _setattr(self, "n", n)
        _setattr(self, "ups", ups)
        _setattr(self, "downs", downs)
        _setattr(self, "rights", rights)
        _setattr(self, "ascent_runs", ascent_runs)
        _setattr(self, "k_ascents", {} if k_ascents is None else k_ascents)

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


def _path_of(path: PathWord | str) -> PathWord:
    """The argument if it is a PathWord, else the validated PathWord of the raw word."""
    return path if isinstance(path, PathWord) else PathWord(path)


def parse_path(text: str) -> PathWord:
    """Parse a word over ``U``/``D``/``R`` into a :class:`PathWord`.

    The empty string denotes the length-0 path.  Any other character is
    rejected with a diagnostic naming the offending position.
    """
    return PathWord(text)


def is_dispersed_dyck(path: PathWord | str) -> bool:
    """True iff no prefix dips below 0, the path ends at 0, and every ``R`` sits at height 0."""
    h = 0
    for ch in _path_of(path).word:
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
    path = _path_of(path)
    return "R" not in path.word and is_dispersed_dyck(path)


def is_plain_path(path: PathWord | str) -> bool:
    """True iff the word is ``R``-free and ends at height ``-(n % 2)`` (sign unconstrained)."""
    word = _path_of(path).word
    if "R" in word:
        return False
    return word.count("U") - word.count("D") == -(len(word) % 2)


def classify(path: PathWord | str) -> PathClass:
    """Return the most specific class of the word.

    A word that satisfies both the Dyck and the plain-path predicate (even
    length, never below 0, no ``R``) reports ``Dyck``; use
    :func:`is_plain_path` to query the plain predicate on its own.
    """
    path = _path_of(path)
    if is_dispersed_dyck(path):
        return PathClass.DYCK if "R" not in path.word else PathClass.DISPERSED_DYCK
    if is_plain_path(path):
        return PathClass.PLAIN_PATH
    return PathClass.INVALID


def stats(path: PathWord | str) -> PathStats:
    """Step counts and maximal-up-run decomposition; works on any word."""
    word = _path_of(path).word
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
    return [m.start() for m in _ONE_ASCENT.finditer(_path_of(path).word)]
