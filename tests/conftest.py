"""Shared brute-force oracles for the test suite.

Everything here recomputes validity and statistics by filtering all
3**n (or 2**n) raw words with direct index scans, deliberately avoiding
the library's pruned generators and regex shortcuts so the two routes
stay independent.  Keep n small when calling these.

The ``scans`` fixture records which words the PathWord alphabet check
runs on, so tests can count how often an argument is validated; the
``walks`` fixture records each brute-force walk, so tests can count them, and
the ``suffix_builds`` fixture each suffix list a stream builds.
"""

from itertools import product

import pytest

from ddpaths import PathWord, enumeration


def oracle_is_ddp(word: str) -> bool:
    h = 0
    for ch in word:
        if ch == "U":
            h += 1
        elif ch == "D":
            h -= 1
            if h < 0:
                return False
        else:
            if h != 0:
                return False
    return h == 0


def oracle_ddp_words(n: int) -> list[str]:
    return [w for w in map("".join, product("UDR", repeat=n)) if oracle_is_ddp(w)]


def oracle_dyck_words(n: int) -> list[str]:
    return [w for w in map("".join, product("UD", repeat=n)) if oracle_is_ddp(w)]


def oracle_plain_words(n: int) -> list[str]:
    return [
        w
        for w in map("".join, product("UD", repeat=n))
        if w.count("U") - w.count("D") == -(n % 2)
    ]


def oracle_run_lengths(word: str) -> list[int]:
    runs = []
    current = 0
    for ch in word:
        if ch == "U":
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


def oracle_one_ascent_starts(word: str) -> tuple[int, ...]:
    """Where each up-run of ``word`` starts, kept for the runs of length 1."""
    starts = [i for i, ch in enumerate(word) if ch == "U" and word[i - 1 : i] != "U"]
    return tuple(i for i, run in zip(starts, oracle_run_lengths(word)) if run == 1)


def oracle_k_ascents(word: str, k: int) -> int:
    return sum(1 for r in oracle_run_lengths(word) if r == k)


def oracle_one_ascents(word: str) -> int:
    return oracle_k_ascents(word, 1)


def lex_key(word: str) -> list[int]:
    return ["UDR".index(ch) for ch in word]


@pytest.fixture
def scans(monkeypatch):
    """The words whose PathWord alphabet check runs, in order, while the test runs."""
    scanned = []
    validate = PathWord.__init__

    def recording(self, word=""):
        scanned.append(word)
        validate(self, word)

    monkeypatch.setattr(PathWord, "__init__", recording)
    return scanned


@pytest.fixture
def walks(monkeypatch):
    """The ``(n, k)`` of each brute-force walk started while the test runs, from a cold cache."""
    started = []
    walk = enumeration._walk

    def counting(n, k):
        started.append((n, k))
        return walk(n, k)

    monkeypatch.setattr(enumeration, "_walk", counting)
    monkeypatch.setattr(enumeration, "_ROWS", {})
    return started


@pytest.fixture
def suffix_builds(monkeypatch):
    """The ``(height, steps, flat, suffixes)`` of each ``_suffixes`` call while the test runs."""
    built = []
    suffixes = enumeration._suffixes

    def recording(height, steps, flat):
        built.append((height, steps, flat, suffixes(height, steps, flat)))
        return built[-1][-1]

    monkeypatch.setattr(enumeration, "_suffixes", recording)
    return built
