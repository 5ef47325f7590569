"""Check-by-check verification harness.

Each check id covers one counting claim and compares at least two
independent routes to it (brute-force enumeration, a constructive
correspondence, or a closed formula).  Oracle-backed checks enumerate
paths and are bounded by the enumeration cap; arithmetic checks run on
exact integers and accept much larger ranges, up to a limit of their own.

A check is a function of the range ``max_n`` that returns its first
counterexample as a ``dict`` (concrete enough to replay through the CLI),
or ``None`` when it passes.  The check ids, their ranges and the text that
describes a range live in ``_CHECKS``; :func:`verify_lemma` alone turns a
check's outcome into a :class:`CheckResult`, and :func:`verify_all` alone
selects checks and builds a :class:`VerificationReport`.

Every equality of counts is one comparison of named routes, :func:`_first_mismatch`,
and each doubling ``X(n) = 2*X(n-1)`` is one rule of it, :func:`_doubles`; of the
checks, only ASYM, whose tolerances are on floats, has a loop of its own.

L1-, L3- and L5-bijection are one round-trip loop, :func:`_bijection_mismatch`,
and one onto comparison, :func:`_onto_mismatch`, on bit masks of image offsets;
each check supplies its cases, kernels, keys, codomain and public-edge check.

Checks are independent and deterministic: the report for a given
``(ids, max_n)`` is identical across runs.
"""

from __future__ import annotations

import json
import math
from itertools import islice, repeat
from typing import Callable, Iterable, NamedTuple

from .bijections import (
    _cut_ascent,
    _paste_ascent,
    _reflect,
    _slot_at,
    _slot_text,
    _trade_right,
    _trade_up,
    _unreflect,
    ascent_insert,
    ascent_remove,
    ddp_to_plain,
    plain_to_ddp,
    r_pair_decomposition,
    updown_forward,
    updown_inverse,
)
from .enumeration import (
    DEFAULT_ENUMERATION_CAP,
    _ddp_one_ascents,
    _ddp_words,
    _plain_words,
    count_ddp_dp,
    totals_brute,
)
from .formulas import (
    _closed_rows,
    a_closed,
    asymptotic_ratio,
    catalan,
    central_binomial,
    central_binomials,
    dyck_count,
    r_closed,
    r_convolution,
    u_closed,
)
from .paths import _Record, _setattr, one_ascent_positions

__all__ = ["CheckResult", "VerificationReport", "CHECK_IDS", "verify_lemma", "verify_all"]

# fixed ranges for the cheap arithmetic tails bundled into mixed checks
_CLOSED_RANGE = 400
_CATALAN_RANGE = 200
_ASYM_POINTS = (1000, 10000)  # both even: the second-order term below holds at even m
_ASYM_C = math.sqrt(math.pi / 2) / 4


class CheckResult(_Record):
    """Outcome of one check: id, human-readable range, verdict, first counterexample."""

    __slots__ = ("check_id", "range_tested", "passed", "counterexample")

    def __init__(
        self, check_id: str, range_tested: str, passed: bool, counterexample: dict | None = None
    ) -> None:
        _setattr(self, "check_id", check_id)
        _setattr(self, "range_tested", range_tested)
        _setattr(self, "passed", passed)
        _setattr(self, "counterexample", counterexample)

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "range": self.range_tested,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


class VerificationReport(_Record):
    """All check results of one run; overall passes iff every check does."""

    __slots__ = ("checks",)
    # unlike the other records a report may be reassigned, and it holds a list: no hash
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checks: list[CheckResult]) -> None:
        self.checks = checks

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "checks": [c.to_json_dict() for c in self.checks],
            "overall": self.overall,
        }
        return json.dumps(payload, indent=indent)


def _first_mismatch(
    ns: Iterable[int], sides: dict[str, Callable[[int], object]], var: str = "n"
) -> dict | None:
    """Counterexample at the first ``i`` in ``ns`` where any route of ``sides`` differs from
    the first, naming every route's value under its key, else ``None``."""
    for i in ns:
        values = [route(i) for route in sides.values()]
        if values.count(values[0]) != len(values):
            return {var: i, **dict(zip(sides, values))}
    return None


def _doubles(ns: Iterable[int], route: Callable[[int], int], name: str) -> dict | None:
    """Counterexample at the first ``n`` in ``ns`` where ``route(n) != 2 * route(n - 1)``."""
    return _first_mismatch(
        ns, {f"{name}(n)": route, f"2*{name}(n-1)": lambda n: 2 * route(n - 1)}
    )


def _bijection_mismatch(
    lengths: Iterable[int],
    cases: Callable[[int], Iterable[tuple[str, Iterable[int]]]],
    kernels: tuple[Callable[[str, int], tuple[str, int]], Callable[[str, int], str]],
    keys: tuple[str | None, str | None, str | None],
    codomain: Callable[[int], Iterable[tuple[str, int]]],
    edge: Callable[[int, dict[str, int]], dict | None],
    render: Callable[[str, int], object] = lambda word, at: word,
    check: Callable[[str, str], dict | None] | None = None,
) -> dict | None:
    """First counterexample to a bijection at the lengths in ``lengths``, else ``None``.

    Each word of ``cases(n)`` is cut at each of its starts ``pos``: the forward kernel
    gives (image, offset), the backward kernel must give the word back, and ``check``
    may name a further fault of (word, image); ``keys`` name the word, ``pos`` and the
    image in that counterexample, ``None`` leaving one out.  Then come the onto
    comparison with ``codomain`` and ``edge(n, images)``, which runs the public maps.
    The kernels trust their words: every case is enumerated, and onto proves each image.
    """
    forward, backward = kernels
    for n in lengths:
        # image word -> bit mask of its offsets, not one pair per image.  The kernels are
        # pure, so two cases with one (image, offset) get one word back and the later fails
        # its round trip.  A negative offset has no bit and names no slot; it is kept apart.
        images: dict[str, int] = {}
        strays: list[tuple[str, int]] = []
        for word, starts in cases(n):
            for pos in starts:
                image, at = forward(word, pos)
                back = backward(image, at)
                if back != word or check and check(word, image):
                    fault = {"roundtrip": back} if back != word else check(word, image)
                    named = zip(keys, (word, pos, image))
                    return {"n": n, **{key: value for key, value in named if key}, **fault}
                try:
                    images[image] = images.get(image, 0) | 1 << at
                except ValueError:  # at < 0
                    strays.append((image, at))
        mismatch = _onto_mismatch(n, images, strays, codomain, render) or edge(n, images)
        if mismatch:
            return mismatch
    return None


def _onto_mismatch(
    n: int,
    images: dict[str, int],
    strays: list[tuple[str, int]],
    codomain: Callable[[int], Iterable[tuple[str, int]]],
    render: Callable[[str, int], object],
) -> dict | None:
    """Counterexample naming up to three missed and three stray (word, offset) pairs, each
    shown by ``render``, else ``None``.  ``codomain(n)`` streams each word with the mask of
    its offsets; it is streamed once, and sets are built only for a counterexample."""
    count = 0
    for word, mask in codomain(n):
        if images.get(word) != mask:
            break
        count += 1
    else:
        if count == len(images) and not strays:
            return None

    def pairs(masks: dict[str, int]) -> set:
        bits = range(max(masks.values(), default=0).bit_length())
        return {render(w, at) for w, mask in masks.items() for at in bits if mask >> at & 1}

    got = pairs(images) | {render(w, at) for w, at in strays}
    want = pairs(dict(codomain(n)))
    return {"n": n, "missing": sorted(want - got)[:3], "extra": sorted(got - want)[:3]}


# the slot rule, stated here with its own letters, not taken from the kernels, so that the
# onto comparison in L5-bijection stays independent of them: offset 0 for the start, and
# i + 1 after the D or R at i.  Bit i of ``("D" + word)[::-1]`` read in base 2 is offset i.
_SLOT_BITS = str.maketrans("UDR", "011")


def _offset_mask(word: str) -> int:
    return int(("D" + word)[::-1].translate(_SLOT_BITS), 2)


# the --slot name of a slot after each step letter, stated here for the same reason
_NAME_AFTER = {"D": "down", "R": "right"}


def _slot_pair(word: str, at: int) -> tuple[str, str]:
    """``word`` with offset ``at`` in the CLI's ``--slot`` syntax, or ``offset K`` if no slot."""
    try:
        slot = _slot_at(word, at)
    except (LookupError, ValueError):  # after a U, past the end, or negative
        return word, f"offset {at}"
    return word, _slot_text(slot)


def _check_l1_count(max_n: int) -> dict | None:
    ns = range(max_n + 1)
    paths = {
        "enumerated": lambda n: totals_brute(n).ddp,
        "dp": count_ddp_dp,
        "closed": central_binomial,
    }
    # the R-free paths are the Dyck paths, counted by the Catalan numbers
    dyck = {"enumerated dyck": lambda n: totals_brute(n).dyck, "catalan": dyck_count}
    return _first_mismatch(ns, paths) or _first_mismatch(ns, dyck)


def _check_l1_bijection(max_n: int) -> dict | None:
    # a round trip on every plain word plus onto gives the DDP-side round trip
    return _bijection_mismatch(
        range(max_n + 1),
        lambda n: zip(_plain_words(n), repeat((0,))),
        (lambda word, pos: (_reflect(word), pos), lambda image, at: _unreflect(image)),
        ("plain", None, "image"),
        lambda n: zip(_ddp_words(n), repeat(1)),
        lambda n, images: _public_maps_mismatch(
            n, "plain", images, _unreflect, (plain_to_ddp, ddp_to_plain)
        ),
    )


def _public_maps_mismatch(
    n: int, key: str, images: Iterable[str], kernel: Callable, maps: tuple[Callable, Callable]
) -> dict | None:
    """The first of ``images`` (in case order) that holds an R, with the word the backward
    ``kernel`` takes it to, through the public ``maps``: the forward map must give that
    image from the word, and the backward map must bring it back."""
    image = next((q for q in images if "R" in q), None)
    if image is None:
        return None
    word = kernel(image)
    forward, backward = maps
    try:
        public = forward(word).word
        if public != image:
            return {"n": n, key: word, "image": public, "kernel image": image}
        back = backward(public).word
    except ValueError as exc:
        return {"n": n, key: word, "error": str(exc)}
    if back != word:
        return {"n": n, key: word, "image": public, "roundtrip": back}
    return None


def _check_l2_recursion(max_n: int) -> dict | None:
    return _doubles(range(2, max_n + 1, 2), lambda n: totals_brute(n).rights, "R")


def _check_l2_decomposition(max_n: int) -> dict | None:
    return _first_mismatch(
        range(2, max_n + 1, 2),
        {"decomposition": r_pair_decomposition, "brute": lambda n: totals_brute(n).rights},
    )


def _check_l3_recursion(max_n: int) -> dict | None:
    return _doubles(range(1, max_n + 1, 2), lambda n: totals_brute(n).ups, "U")


def _check_l3_bijection(max_n: int) -> dict | None:
    def c_low(k: int) -> int:
        return math.comb(2 * k, k - 1)

    def c_diff(k: int) -> int:
        return math.comb(2 * k + 1, k) - math.comb(2 * k, k)

    # the Catalan argument: two identities that each give C(2k,k-1)
    ks = range(1, _CATALAN_RANGE + 1)
    scaled = {"k*catalan(k)": lambda k: k * catalan(k), "C(2k,k-1)": c_low}
    differenced = {"C(2k+1,k)-C(2k,k)": c_diff, "C(2k,k-1)": c_low}
    # as in L1-bijection, and each image has one up step fewer than its word
    return (
        _bijection_mismatch(
            range(1, max_n + 1, 2),
            lambda n: ((w, (0,)) for w in _ddp_words(n) if w[-1] == "D"),
            (lambda word, pos: (_trade_up(word), pos), lambda image, at: _trade_right(image)),
            ("path", None, "image"),
            lambda n: ((w, 1) for w in _ddp_words(n - 1) if "R" in w),
            lambda n, images: _public_maps_mismatch(
                n, "path", images, _trade_right, (updown_forward, updown_inverse)
            ),
            check=lambda w, q: w.count("U") - q.count("U") != 1 and {"detail": "up count"},
        )
        or _first_mismatch(ks, scaled, var="k")
        or _first_mismatch(ks, differenced, var="k")
    )


def _stream_mismatch(max_n: int) -> dict | None:
    """The streamed B(0..max_n), then the streamed R, U and A terms, against point-wise."""
    ns = range(max_n + 1)
    bs = list(islice(central_binomials(), max_n + 1))
    mismatch = _first_mismatch(
        ns, {"stream": bs.__getitem__, "central_binomial": central_binomial}
    )
    if mismatch:  # a wrong B may make a term's numerator odd, so compare B first
        return mismatch
    rows = list(islice(_closed_rows(1), max_n + 1))
    return _first_mismatch(
        ns,
        {
            "streamed R,U,A": lambda n: [rows[n].rights, rows[n].ups, rows[n].one_ascents],
            "point-wise R,U,A": lambda n: [r_closed(n), u_closed(n), a_closed(n)],
        },
    )


def _check_l4_closed(max_n: int) -> dict | None:
    """Base cases against brute force, the recursions both sides satisfy, then the stream."""

    def odd_recursion(n: int) -> int:
        k = (n - 1) // 2
        return 2 * r_closed(n - 1) + n * math.comb(n, k) - 4 * k * math.comb(n - 1, k)

    return (
        _first_mismatch((1, 2), {"closed": r_closed, "brute": lambda n: totals_brute(n).rights})
        or _doubles(range(2, max_n + 1, 2), r_closed, "R")
        or _first_mismatch(range(3, max_n + 1, 2), {"R(n)": r_closed, "recursion": odd_recursion})
        or _doubles(range(1, max_n + 1, 2), u_closed, "U")
        or _first_mismatch(
            range(1, max_n // 2 + 1),
            {
                "(k+1)*C(2k+1,k)": lambda k: (k + 1) * math.comb(2 * k + 1, k),
                "(2k+1)*C(2k,k)": lambda k: (2 * k + 1) * math.comb(2 * k, k),
            },
            var="k",
        )
        or _first_mismatch(
            range(2, max_n + 1, 2),
            {
                "C(l,l/2)": lambda ell: math.comb(ell, ell // 2),
                "2*C(l-1,l/2-1)": lambda ell: 2 * math.comb(ell - 1, ell // 2 - 1),
            },
            var="l",
        )
        or _stream_mismatch(max_n)
    )


def _check_l5_bijection(max_n: int) -> dict | None:
    return _bijection_mismatch(
        range(2, max_n + 1),
        _ddp_one_ascents,
        (_cut_ascent, _paste_ascent),
        ("path", "pos", None),
        lambda m: ((w, _offset_mask(w)) for w in _ddp_words(m - 2)),
        lambda m, images: _public_edge_mismatch(m),
        _slot_pair,
    )


def _public_edge_mismatch(m: int) -> dict | None:
    """The first 1-ascent of length ``m`` after a D and the first after an R, through the
    public maps: each must round-trip, and its slot must read as verify renders it."""
    pending = set(_NAME_AFTER)
    for w in _ddp_words(m):  # lazily: both turn up within 230 words for every m <= 40
        for pos in one_ascent_positions(w):
            if not pos or w[pos - 1] not in pending:
                continue
            pending.remove(w[pos - 1])
            try:
                shortened, slot = ascent_remove(w, pos)
                back = ascent_insert(shortened, slot).word
            except ValueError as exc:
                return {"n": m, "path": w, "pos": pos, "error": str(exc)}
            if back != w:
                return {"n": m, "path": w, "pos": pos, "roundtrip": back}
            text, expected = _slot_text(slot), f"{_NAME_AFTER[w[pos - 1]]}:{pos - 1}"
            if text != expected:
                return {"n": m, "path": w, "pos": pos, "slot": text, "expected": expected}
            if not pending:
                return None
    return None


def _check_l5_count(max_n: int) -> dict | None:
    def brute_rhs(m: int) -> int:
        row = totals_brute(m - 2)
        return row.ddp + row.downs + row.rights

    def closed_rhs(m: int) -> int:
        return central_binomial(m - 2) + u_closed(m - 2) + r_closed(m - 2)

    return _first_mismatch(
        range(2, max_n + 1),
        {"A(n)": lambda m: totals_brute(m).one_ascents, "dD+D+R at n-2": brute_rhs},
    ) or _first_mismatch(
        range(2, _CLOSED_RANGE + 3), {"a_closed": a_closed, "dD+U+R closed at n-2": closed_rhs}
    )


def _check_thm1(max_n: int) -> dict | None:
    return _first_mismatch(
        range(2, max_n + 1),
        {"closed": a_closed, "brute": lambda m: totals_brute(m).one_ascents},
        var="m",
    )


def _check_conv(max_n: int) -> dict | None:
    return _first_mismatch(range(max_n + 1), {"convolution": r_convolution, "closed": r_closed})


def _check_eqstar(max_n: int) -> dict | None:
    def brute_steps(n: int) -> int:
        row = totals_brute(n)
        return row.rights + row.ups + row.downs

    return _first_mismatch(
        range(max_n + 1), {"n*dD(n)": lambda n: n * totals_brute(n).ddp, "R+U+D": brute_steps}
    ) or _first_mismatch(
        range(_CLOSED_RANGE + 1),
        {
            "n*dD(n) closed": lambda n: n * central_binomial(n),
            "R+2U closed": lambda n: r_closed(n) + 2 * u_closed(n),
        },
    )


def _check_asym(max_n: int) -> dict | None:
    m_lo, m_hi = _ASYM_POINTS
    ratio_lo, ratio_hi = asymptotic_ratio(m_lo), asymptotic_ratio(m_hi)
    dev_lo = abs(ratio_lo - 1.0)
    dev_hi = abs(ratio_hi - 1.0)
    if dev_lo > 0.01:
        return {"m": m_lo, "deviation": dev_lo, "tolerance": 0.01}
    if not dev_hi < dev_lo:
        return {"m": m_hi, "deviation": dev_hi, "deviation_at_smaller_m": dev_lo}
    # at even m, m * (ratio - 1) = -1/4 + c / sqrt(m) + O(1/m) with c = sqrt(pi/2) / 4; the
    # remainder times m is about -0.35 at both points, so a wrong constant in the estimate,
    # even 2**-0.01 or a 20 % larger sqrt(pi/(2m)) term, overshoots the bound of 1/m
    for m, ratio in zip(_ASYM_POINTS, (ratio_lo, ratio_hi)):
        scaled, expected = m * (ratio - 1.0), -0.25 + _ASYM_C / math.sqrt(m)
        if not abs(scaled - expected) <= 1 / m:
            return {"m": m, "m*(ratio-1)": scaled, "expected": expected, "bound": 1 / m}
    return None


class _CheckSpec(NamedTuple):
    run: Callable[[int], dict | None]  # first counterexample at the given range, or None
    default_n: int
    deep_n: int
    range_text: str  # str.format template; {n} is the range in force
    # an arithmetic check's largest range; None marks an oracle-backed check, which
    # enumerates paths and is bounded by the enumeration cap
    max_n: float | None = None


_CLOSED_TAIL = f" (brute); 0 <= n <= {_CLOSED_RANGE} (closed forms)"

# arithmetic limits: one run at the limit takes at most about two seconds (Python 3.11, 2 Xeon
# vCPUs); L4-closed takes 1.05-1.4 s at 2000 end to end with its stream comparison, CONV
# 0.05-0.1 s at 500.
# L4-closed's limit lies above the length where central_binomial switches from math.comb to
# the prime-factored product, so a run at its limit compares both routes with the stream.
_CHECKS: dict[str, _CheckSpec] = {
    "L1-count": _CheckSpec(_check_l1_count, 14, 22, "0 <= n <= {n}"),
    "L1-bijection": _CheckSpec(_check_l1_bijection, 14, 16, "0 <= n <= {n}"),
    "L2-recursion": _CheckSpec(_check_l2_recursion, 14, 20, "even 2 <= n <= {n}"),
    "L2-decomposition": _CheckSpec(_check_l2_decomposition, 14, 20, "even 2 <= n <= {n}"),
    "L3-recursion": _CheckSpec(_check_l3_recursion, 13, 21, "odd 1 <= n <= {n}"),
    "L3-bijection": _CheckSpec(
        _check_l3_bijection,
        13,
        15,
        f"odd 1 <= n <= {{n}} (bijection); 1 <= k <= {_CATALAN_RANGE} (Catalan argument)",
    ),
    "L4-closed": _CheckSpec(
        _check_l4_closed,
        400,
        400,
        "1 <= n <= {n} (recursions); 0 <= n <= {n} (stream); base cases n = 1, 2 brute",
        max_n=2000,
    ),
    "L5-bijection": _CheckSpec(_check_l5_bijection, 14, 18, "2 <= n <= {n} (longer path length)"),
    "L5-count": _CheckSpec(_check_l5_count, 14, 18, "2 <= n <= {n}" + _CLOSED_TAIL),
    "THM1": _CheckSpec(_check_thm1, 14, 22, "2 <= m <= {n}"),
    "CONV": _CheckSpec(_check_conv, 300, 300, "0 <= n <= {n}", max_n=500),
    "EQSTAR": _CheckSpec(_check_eqstar, 14, 22, "0 <= n <= {n}" + _CLOSED_TAIL),
    # fixed comparison points; max_n is not consulted, so any range is accepted
    "ASYM": _CheckSpec(
        _check_asym,
        10000,
        10000,
        "m in {{%d, %d}}; |m*(ratio-1) + 1/4 - c/sqrt(m)| <= 1/m, c = sqrt(pi/2)/4" % _ASYM_POINTS,
        max_n=math.inf,
    ),
}

CHECK_IDS = tuple(_CHECKS)


def _require_known(ids: Iterable[str]) -> None:
    unknown = [i for i in ids if i not in _CHECKS]
    if unknown:
        known = ", ".join(CHECK_IDS)
        raise ValueError(f"unknown check id(s): {', '.join(unknown)}; expected one of: {known}")


def _resolve(check_id: str, max_n: int | None, deep: bool) -> tuple[_CheckSpec, int]:
    """The spec of ``check_id`` and the range it runs at; raises if either is refused."""
    _require_known([check_id])
    spec = _CHECKS[check_id]
    if max_n is not None:
        n = max_n
    else:
        n = spec.deep_n if deep else spec.default_n
    if n < 0:
        raise ValueError(f"max_n must be non-negative, got {n}")
    if spec.max_n is None:
        kind, bound, limit = "oracle-backed", "enumeration cap", DEFAULT_ENUMERATION_CAP
    else:
        kind, bound, limit = "arithmetic", "limit", spec.max_n
    if n > limit:
        raise ValueError(f"{check_id} is {kind}; max_n {n} exceeds the {bound} of {limit}")
    return spec, n


def verify_lemma(check_id: str, max_n: int | None = None, deep: bool = False) -> CheckResult:
    """Run one check at ``max_n``, else at its widest range if ``deep``, else its standard one.

    Oracle-backed checks refuse ranges beyond the enumeration cap, and the
    arithmetic checks L4-closed and CONV refuse ranges beyond their own
    limits.  ASYM compares at fixed points and ignores ``max_n``.
    """
    spec, n = _resolve(check_id, max_n, deep)
    counterexample = spec.run(n)
    passed = counterexample is None
    return CheckResult(check_id, spec.range_text.format(n=n), passed, counterexample)


def verify_all(
    max_n: int | None = None, deep: bool = False, ids: Iterable[str] | None = None
) -> VerificationReport:
    """Run the checks in ``ids`` (default: all) in ``CHECK_IDS`` order once all are accepted."""
    wanted = CHECK_IDS if ids is None else list(ids)
    _require_known(wanted)
    selected = [i for i in CHECK_IDS if i in wanted]
    for check_id in selected:
        _resolve(check_id, max_n, deep)
    return VerificationReport(checks=[verify_lemma(i, max_n, deep) for i in selected])
