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

Checks are independent and deterministic: the report for a given
``(ids, max_n)`` is identical across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from .bijections import (
    _cut_ascent,
    _paste_ascent,
    _slot_at,
    _slot_text,
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
from .paths import _ONE_ASCENT, PathWord

__all__ = ["CheckResult", "VerificationReport", "CHECK_IDS", "verify_lemma", "verify_all"]

# fixed ranges for the cheap arithmetic tails bundled into mixed checks
_CLOSED_RANGE = 400
_CATALAN_RANGE = 200
_ASYM_POINTS = (1000, 10000)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: id, human-readable range, verdict, first counterexample."""

    check_id: str
    range_tested: str
    passed: bool
    counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "range": self.range_tested,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass
class VerificationReport:
    """All check results of one run; overall passes iff every check does."""

    checks: list[CheckResult]

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
    ns: Iterable[int],
    lhs: Callable[[int], object],
    rhs: Callable[[int], object],
    lhs_key: str,
    rhs_key: str,
    var: str = "n",
) -> dict | None:
    """Counterexample at the first ``i`` in ``ns`` where ``lhs(i) != rhs(i)``, else ``None``."""
    for i in ns:
        left, right = lhs(i), rhs(i)
        if left != right:
            return {var: i, lhs_key: left, rhs_key: right}
    return None


def _onto_mismatch(n: int, images: set, target: set) -> dict | None:
    """Counterexample naming up to three missed and three stray elements, else ``None``."""
    if images == target:
        return None
    return {"n": n, "missing": sorted(target - images)[:3], "extra": sorted(images - target)[:3]}


# stated here with its own letters, not taken from the kernels, so that the onto
# comparison in L5-bijection stays independent of them: the start, then after each D or R
def _offsets_of(word: str) -> list[int]:
    return [0] + [i + 1 for i, ch in enumerate(word) if ch == "D" or ch == "R"]


# the --slot name of a slot after each step letter, stated here for the same reason
_NAME_AFTER = {"D": "down", "R": "right"}


def _masks_onto(n: int, masks: dict[str, int]) -> bool:
    """Whether ``masks`` holds, for each DDP of length ``n``, exactly its offsets' mask."""
    count = 0
    for w in _ddp_words(n):
        if masks.get(w) != sum(1 << at for at in _offsets_of(w)):
            return False
        count += 1
    return count == len(masks)


def _mask_pairs(masks: dict[str, int]) -> set[tuple[str, int]]:
    """Each (word, bit) pair set in ``masks``."""
    return {(w, b) for w, mask in masks.items() for b in range(mask.bit_length()) if mask >> b & 1}


def _offset_text(word: str, at: int) -> str:
    """Offset ``at`` of ``word`` in the CLI's ``--slot`` syntax, or ``offset K`` if no slot."""
    try:
        slot = _slot_at(word, at)
    except (LookupError, ValueError):  # after a U, past the end, or negative
        return f"offset {at}"
    return _slot_text(slot)


def _pair_texts(pairs: set[tuple[str, int]]) -> set[tuple[str, str]]:
    """Each (word, offset) with the offset rendered by :func:`_offset_text`."""
    return {(w, _offset_text(w, at)) for w, at in pairs}


def _check_l1_count(max_n: int) -> dict | None:
    for n in range(max_n + 1):
        enumerated = totals_brute(n).ddp
        dp = count_ddp_dp(n)
        closed = central_binomial(n)
        if not enumerated == dp == closed:
            return {"n": n, "enumerated": enumerated, "dp": dp, "closed": closed}
    # the R-free paths are the Dyck paths, counted by the Catalan numbers
    return _first_mismatch(
        range(max_n + 1), lambda n: totals_brute(n).dyck, dyck_count, "enumerated dyck", "catalan"
    )


def _check_l1_bijection(max_n: int) -> dict | None:
    for n in range(max_n + 1):
        images = set()
        for w in _plain_words(n):
            q = plain_to_ddp(PathWord(w))
            back = ddp_to_plain(q)
            if back.word != w:
                return {"n": n, "plain": w, "image": q.word, "roundtrip": back.word}
            images.add(q.word)
        # a round trip on every plain word plus onto gives the DDP-side round trip
        mismatch = _onto_mismatch(n, images, set(_ddp_words(n)))
        if mismatch:
            return mismatch
    return None


def _check_l2_recursion(max_n: int) -> dict | None:
    return _first_mismatch(
        range(2, max_n + 1, 2),
        lambda n: totals_brute(n).rights,
        lambda n: 2 * totals_brute(n - 1).rights,
        "R(n)",
        "2*R(n-1)",
    )


def _check_l2_decomposition(max_n: int) -> dict | None:
    return _first_mismatch(
        range(2, max_n + 1, 2),
        r_pair_decomposition,
        lambda n: totals_brute(n).rights,
        "decomposition",
        "brute",
    )


def _check_l3_recursion(max_n: int) -> dict | None:
    return _first_mismatch(
        range(1, max_n + 1, 2),
        lambda n: totals_brute(n).ups,
        lambda n: 2 * totals_brute(n - 1).ups,
        "U(n)",
        "2*U(n-1)",
    )


def _check_l3_bijection(max_n: int) -> dict | None:
    for n in range(1, max_n + 1, 2):
        target = {w for w in _ddp_words(n - 1) if "R" in w}
        images = set()
        for w in _ddp_words(n):
            if not w.endswith("D"):
                continue
            q = updown_forward(PathWord(w))
            back = updown_inverse(q)
            if back.word != w:
                return {"n": n, "path": w, "image": q.word, "roundtrip": back.word}
            if q.word.count("U") != w.count("U") - 1:
                return {"n": n, "path": w, "image": q.word, "detail": "up count"}
            images.add(q.word)
        mismatch = _onto_mismatch(n, images, target)
        if mismatch:
            return mismatch
    for k in range(1, _CATALAN_RANGE + 1):
        c_low = math.comb(2 * k, k - 1)
        if k * catalan(k) != c_low:
            return {"k": k, "k*catalan(k)": k * catalan(k), "C(2k,k-1)": c_low}
        if math.comb(2 * k + 1, k) - math.comb(2 * k, k) != c_low:
            return {
                "k": k,
                "C(2k+1,k)-C(2k,k)": math.comb(2 * k + 1, k) - math.comb(2 * k, k),
                "C(2k,k-1)": c_low,
            }
    return None


def _stream_mismatch(max_n: int) -> dict | None:
    """The streamed B(0..max_n), then the R, U and A terms built on them, against point-wise."""
    bs = list(islice(central_binomials(), max_n + 1))
    mismatch = _first_mismatch(
        range(max_n + 1), bs.__getitem__, central_binomial, "stream", "central_binomial"
    )
    if mismatch:  # a wrong B may make a term's numerator odd, so compare B first
        return mismatch
    rows = list(_closed_rows(bs))
    return _first_mismatch(
        range(max_n + 1),
        lambda n: [rows[n].rights, rows[n].ups, rows[n].one_ascents],
        lambda n: [r_closed(n), u_closed(n), a_closed(n)],
        "streamed R,U,A",
        "point-wise R,U,A",
    )


def _check_l4_closed(max_n: int) -> dict | None:
    """Base cases against brute force, the recursions both sides satisfy, then the stream."""

    def odd_recursion(n: int) -> int:
        k = (n - 1) // 2
        return 2 * r_closed(n - 1) + n * math.comb(n, k) - 4 * k * math.comb(n - 1, k)

    return (
        _first_mismatch((1, 2), r_closed, lambda n: totals_brute(n).rights, "closed", "brute")
        or _first_mismatch(
            range(2, max_n + 1, 2), r_closed, lambda n: 2 * r_closed(n - 1), "R(n)", "2*R(n-1)"
        )
        or _first_mismatch(range(3, max_n + 1, 2), r_closed, odd_recursion, "R(n)", "recursion")
        or _first_mismatch(
            range(1, max_n + 1, 2), u_closed, lambda n: 2 * u_closed(n - 1), "U(n)", "2*U(n-1)"
        )
        or _first_mismatch(
            range(1, max_n // 2 + 1),
            lambda k: (k + 1) * math.comb(2 * k + 1, k),
            lambda k: (2 * k + 1) * math.comb(2 * k, k),
            "(k+1)*C(2k+1,k)",
            "(2k+1)*C(2k,k)",
            var="k",
        )
        or _first_mismatch(
            range(2, max_n + 1, 2),
            lambda ell: math.comb(ell, ell // 2),
            lambda ell: 2 * math.comb(ell - 1, ell // 2 - 1),
            "C(l,l/2)",
            "2*C(l-1,l/2-1)",
            var="l",
        )
        or _stream_mismatch(max_n)
    )


def _check_l5_bijection(max_n: int) -> dict | None:
    # The kernels skip the public maps' DDP scan: every input word is enumerated, and
    # the onto comparison proves each image a length-(m-2) DDP with a real slot.
    for m in range(2, max_n + 1):
        # image word -> bit mask of the offsets it was cut at, bit ``at`` for offset at:
        # one int per image word rather than one (word, offset) pair per image.  A
        # negative offset has no such bit; it names no slot and is kept apart at bit ~at.
        seen: dict[str, int] = {}
        below: dict[str, int] = {}
        for w in _ddp_words(m):
            for match in _ONE_ASCENT.finditer(w):
                pos = match.start()
                word, at = _cut_ascent(w, pos)
                masks = seen
                try:
                    bit = 1 << at
                except ValueError:  # at < 0
                    masks, bit = below, 1 << ~at
                mask = masks.get(word, 0)
                if mask & bit:
                    detail = "duplicate (path, slot) image"
                    return {"n": m, "path": w, "pos": pos, "detail": detail}
                masks[word] = mask | bit
                back = _paste_ascent(word, at)
                if back != w:
                    return {"n": m, "path": w, "pos": pos, "roundtrip": back}
        if not _masks_onto(m - 2, seen) or below:
            images = _mask_pairs(seen) | {(w, ~b) for w, b in _mask_pairs(below)}
            expected = {(w, at) for w in _ddp_words(m - 2) for at in _offsets_of(w)}
            return _onto_mismatch(m, _pair_texts(images), _pair_texts(expected))
        mismatch = _public_edge_mismatch(m)
        if mismatch:
            return mismatch
    return None


def _public_edge_mismatch(m: int) -> dict | None:
    """The first 1-ascent of length ``m`` after a D and the first after an R, through the
    public maps: each must round-trip, and its slot must read as verify renders it."""
    pending = set(_NAME_AFTER)
    for w in _ddp_words(m):
        for match in _ONE_ASCENT.finditer(w):
            pos = match.start()
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
        lambda m: totals_brute(m).one_ascents,
        brute_rhs,
        "A(n)",
        "dD+D+R at n-2",
    ) or _first_mismatch(
        range(2, _CLOSED_RANGE + 3), a_closed, closed_rhs, "a_closed", "dD+U+R closed at n-2"
    )


def _check_thm1(max_n: int) -> dict | None:
    return _first_mismatch(
        range(2, max_n + 1),
        a_closed,
        lambda m: totals_brute(m).one_ascents,
        "closed",
        "brute",
        var="m",
    )


def _check_conv(max_n: int) -> dict | None:
    return _first_mismatch(range(max_n + 1), r_convolution, r_closed, "convolution", "closed")


def _check_eqstar(max_n: int) -> dict | None:
    def brute_steps(n: int) -> int:
        row = totals_brute(n)
        return row.rights + row.ups + row.downs

    return _first_mismatch(
        range(max_n + 1), lambda n: n * totals_brute(n).ddp, brute_steps, "n*dD(n)", "R+U+D"
    ) or _first_mismatch(
        range(_CLOSED_RANGE + 1),
        lambda n: n * central_binomial(n),
        lambda n: r_closed(n) + 2 * u_closed(n),
        "n*dD(n) closed",
        "R+2U closed",
    )


def _check_asym(max_n: int) -> dict | None:
    m_lo, m_hi = _ASYM_POINTS
    dev_lo = abs(asymptotic_ratio(m_lo) - 1.0)
    dev_hi = abs(asymptotic_ratio(m_hi) - 1.0)
    if dev_lo > 0.01:
        return {"m": m_lo, "deviation": dev_lo, "tolerance": 0.01}
    if not dev_hi < dev_lo:
        return {"m": m_hi, "deviation": dev_hi, "deviation_at_smaller_m": dev_lo}
    return None


@dataclass(frozen=True)
class _CheckSpec:
    run: Callable[[int], dict | None]  # first counterexample at the given range, or None
    default_n: int
    deep_n: int
    range_text: str  # str.format template; {n} is the range in force
    # an arithmetic check's largest range; None marks an oracle-backed check, which
    # enumerates paths and is bounded by the enumeration cap
    max_n: float | None = None


_CLOSED_TAIL = f" (brute); 0 <= n <= {_CLOSED_RANGE} (closed forms)"

# arithmetic limits: one run at the limit takes one to two seconds (Python 3.11, 2 Xeon
# vCPUs); L4-closed takes 1.7-2.0 s at 2000 with its stream comparison, CONV 0.5-0.6 s at 500.
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
        _check_asym, 10000, 10000, "m in {{%d, %d}}" % _ASYM_POINTS, max_n=math.inf
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
