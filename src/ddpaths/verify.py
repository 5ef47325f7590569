"""Check-by-check verification harness.

Each check id covers one counting claim and compares at least two
independent routes to it (brute-force enumeration, a constructive
correspondence, or a closed formula).  Oracle-backed checks enumerate
paths and are bounded by the enumeration cap; arithmetic checks run on
exact integers and accept much larger ranges.  A failing check always
carries a concrete counterexample payload so it can be replayed through
the CLI.

Checks are independent and deterministic: the report for a given
``(ids, max_n)`` is identical across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from .bijections import (
    SlotKind,
    SlotRef,
    ascent_insert,
    ascent_remove,
    ddp_to_plain,
    plain_to_ddp,
    r_pair_decomposition,
    updown_forward,
    updown_inverse,
)
from .enumeration import DEFAULT_ENUMERATION_CAP, _ddp_words, _plain_words, count_ddp_dp, totals_brute
from .formulas import (
    a_closed,
    asymptotic_ratio,
    catalan,
    central_binomial,
    r_closed,
    r_convolution,
    u_closed,
)
from .paths import PathWord, one_ascent_positions

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


def _passed(check_id: str, rng: str) -> CheckResult:
    return CheckResult(check_id, rng, True)


def _failed(check_id: str, rng: str, counterexample: dict) -> CheckResult:
    return CheckResult(check_id, rng, False, counterexample)


def _slots_of(word: str) -> list[SlotRef]:
    slots = [SlotRef(SlotKind.START)]
    for i, ch in enumerate(word):
        if ch == "D":
            slots.append(SlotRef(SlotKind.DOWN_STEP, i))
        elif ch == "R":
            slots.append(SlotRef(SlotKind.RIGHT_STEP, i))
    return slots


def _check_l1_count(max_n: int) -> CheckResult:
    rng = f"0 <= n <= {max_n}"
    for n in range(max_n + 1):
        enumerated = totals_brute(n).ddp
        dp = count_ddp_dp(n)
        closed = central_binomial(n)
        if not enumerated == dp == closed:
            return _failed(
                "L1-count",
                rng,
                {"n": n, "enumerated": enumerated, "dp": dp, "closed": closed},
            )
    return _passed("L1-count", rng)


def _check_l1_bijection(max_n: int) -> CheckResult:
    rng = f"0 <= n <= {max_n}"
    for n in range(max_n + 1):
        ddps = set(_ddp_words(n))
        images = set()
        for w in _plain_words(n):
            q = plain_to_ddp(PathWord(w))
            back = ddp_to_plain(q)
            if back.word != w:
                return _failed(
                    "L1-bijection",
                    rng,
                    {"n": n, "plain": w, "image": q.word, "roundtrip": back.word},
                )
            images.add(q.word)
        if images != ddps:
            missing = sorted(ddps - images)[:3]
            extra = sorted(images - ddps)[:3]
            return _failed(
                "L1-bijection", rng, {"n": n, "missing": missing, "extra": extra}
            )
        for w in ddps:
            back = plain_to_ddp(ddp_to_plain(PathWord(w)))
            if back.word != w:
                return _failed(
                    "L1-bijection", rng, {"n": n, "ddp": w, "roundtrip": back.word}
                )
    return _passed("L1-bijection", rng)


def _check_l2_recursion(max_n: int) -> CheckResult:
    rng = f"even 2 <= n <= {max_n}"
    for n in range(2, max_n + 1, 2):
        lhs = totals_brute(n).rights
        rhs = 2 * totals_brute(n - 1).rights
        if lhs != rhs:
            return _failed("L2-recursion", rng, {"n": n, "R(n)": lhs, "2*R(n-1)": rhs})
    return _passed("L2-recursion", rng)


def _check_l2_decomposition(max_n: int) -> CheckResult:
    rng = f"even 2 <= n <= {max_n}"
    for n in range(2, max_n + 1, 2):
        decomposed = r_pair_decomposition(n)
        brute = totals_brute(n).rights
        if decomposed != brute:
            return _failed(
                "L2-decomposition", rng, {"n": n, "decomposition": decomposed, "brute": brute}
            )
    return _passed("L2-decomposition", rng)


def _check_l3_recursion(max_n: int) -> CheckResult:
    rng = f"odd 1 <= n <= {max_n}"
    for n in range(1, max_n + 1, 2):
        lhs = totals_brute(n).ups
        rhs = 2 * totals_brute(n - 1).ups
        if lhs != rhs:
            return _failed("L3-recursion", rng, {"n": n, "U(n)": lhs, "2*U(n-1)": rhs})
    return _passed("L3-recursion", rng)


def _check_l3_bijection(max_n: int) -> CheckResult:
    rng = f"odd 1 <= n <= {max_n} (bijection); 1 <= k <= {_CATALAN_RANGE} (Catalan argument)"
    for n in range(1, max_n + 1, 2):
        target = {w for w in _ddp_words(n - 1) if "R" in w}
        images = set()
        for w in _ddp_words(n):
            if not w.endswith("D"):
                continue
            q = updown_forward(PathWord(w))
            back = updown_inverse(q)
            if back.word != w:
                return _failed(
                    "L3-bijection",
                    rng,
                    {"n": n, "path": w, "image": q.word, "roundtrip": back.word},
                )
            if q.word.count("U") != w.count("U") - 1:
                return _failed(
                    "L3-bijection", rng, {"n": n, "path": w, "image": q.word, "detail": "up count"}
                )
            images.add(q.word)
        if images != target:
            missing = sorted(target - images)[:3]
            extra = sorted(images - target)[:3]
            return _failed(
                "L3-bijection", rng, {"n": n, "missing": missing, "extra": extra}
            )
    for k in range(1, _CATALAN_RANGE + 1):
        if k * catalan(k) != math.comb(2 * k, k - 1):
            return _failed(
                "L3-bijection",
                rng,
                {"k": k, "k*catalan(k)": k * catalan(k), "C(2k,k-1)": math.comb(2 * k, k - 1)},
            )
        if math.comb(2 * k + 1, k) - math.comb(2 * k, k) != math.comb(2 * k, k - 1):
            return _failed(
                "L3-bijection",
                rng,
                {
                    "k": k,
                    "C(2k+1,k)-C(2k,k)": math.comb(2 * k + 1, k) - math.comb(2 * k, k),
                    "C(2k,k-1)": math.comb(2 * k, k - 1),
                },
            )
    return _passed("L3-bijection", rng)


def _check_l4_closed(max_n: int) -> CheckResult:
    """Base cases against brute force, then the recursions both sides satisfy."""
    rng = f"1 <= n <= {max_n} (recursions); base cases n = 1, 2 brute"
    for n in (1, 2):
        if r_closed(n) != totals_brute(n).rights:
            return _failed(
                "L4-closed",
                rng,
                {"n": n, "closed": r_closed(n), "brute": totals_brute(n).rights},
            )
    for n in range(2, max_n + 1, 2):
        if r_closed(n) != 2 * r_closed(n - 1):
            return _failed(
                "L4-closed", rng, {"n": n, "R(n)": r_closed(n), "2*R(n-1)": 2 * r_closed(n - 1)}
            )
    for n in range(3, max_n + 1, 2):
        k = (n - 1) // 2
        rhs = 2 * r_closed(n - 1) + n * math.comb(n, k) - 4 * k * math.comb(n - 1, k)
        if r_closed(n) != rhs:
            return _failed("L4-closed", rng, {"n": n, "R(n)": r_closed(n), "recursion": rhs})
    for n in range(1, max_n + 1, 2):
        if u_closed(n) != 2 * u_closed(n - 1):
            return _failed(
                "L4-closed", rng, {"n": n, "U(n)": u_closed(n), "2*U(n-1)": 2 * u_closed(n - 1)}
            )
    for k in range(1, max_n // 2 + 1):
        if (k + 1) * math.comb(2 * k + 1, k) != (2 * k + 1) * math.comb(2 * k, k):
            return _failed(
                "L4-closed",
                rng,
                {
                    "k": k,
                    "(k+1)*C(2k+1,k)": (k + 1) * math.comb(2 * k + 1, k),
                    "(2k+1)*C(2k,k)": (2 * k + 1) * math.comb(2 * k, k),
                },
            )
    for ell in range(2, max_n + 1, 2):
        if math.comb(ell, ell // 2) != 2 * math.comb(ell - 1, ell // 2 - 1):
            return _failed(
                "L4-closed",
                rng,
                {
                    "l": ell,
                    "C(l,l/2)": math.comb(ell, ell // 2),
                    "2*C(l-1,l/2-1)": 2 * math.comb(ell - 1, ell // 2 - 1),
                },
            )
    return _passed("L4-closed", rng)


def _check_l5_bijection(max_n: int) -> CheckResult:
    rng = f"2 <= n <= {max_n} (longer path length)"
    for m in range(2, max_n + 1):
        n = m - 2
        seen: set[tuple[str, SlotRef]] = set()
        for w in _ddp_words(m):
            for pos in one_ascent_positions(w):
                shortened, slot = ascent_remove(PathWord(w), pos)
                key = (shortened.word, slot)
                if key in seen:
                    return _failed(
                        "L5-bijection",
                        rng,
                        {"n": m, "path": w, "pos": pos, "detail": "duplicate (path, slot) image"},
                    )
                seen.add(key)
                back = ascent_insert(shortened, slot)
                if back.word != w:
                    return _failed(
                        "L5-bijection",
                        rng,
                        {"n": m, "path": w, "pos": pos, "roundtrip": back.word},
                    )
        expected = {(w, s) for w in _ddp_words(n) for s in _slots_of(w)}
        if seen != expected:
            return _failed(
                "L5-bijection",
                rng,
                {"n": m, "images": len(seen), "slots": len(expected)},
            )
    return _passed("L5-bijection", rng)


def _check_l5_count(max_n: int) -> CheckResult:
    rng = (
        f"2 <= n <= {max_n} (brute); "
        f"0 <= n <= {_CLOSED_RANGE} (closed forms)"
    )
    for m in range(2, max_n + 1):
        n = m - 2
        row = totals_brute(n)
        lhs = totals_brute(m).one_ascents
        rhs = row.ddp + row.downs + row.rights
        if lhs != rhs:
            return _failed(
                "L5-count", rng, {"n": m, "A(n)": lhs, "dD+D+R at n-2": rhs}
            )
    for n in range(_CLOSED_RANGE + 1):
        lhs = a_closed(n + 2)
        rhs = central_binomial(n) + u_closed(n) + r_closed(n)
        if lhs != rhs:
            return _failed(
                "L5-count", rng, {"n": n + 2, "a_closed": lhs, "dD+U+R closed at n-2": rhs}
            )
    return _passed("L5-count", rng)


def _check_thm1(max_n: int) -> CheckResult:
    rng = f"2 <= m <= {max_n}"
    for m in range(2, max_n + 1):
        closed = a_closed(m)
        brute = totals_brute(m).one_ascents
        if closed != brute:
            return _failed("THM1", rng, {"m": m, "closed": closed, "brute": brute})
    return _passed("THM1", rng)


def _check_conv(max_n: int) -> CheckResult:
    rng = f"0 <= n <= {max_n}"
    for n in range(max_n + 1):
        conv = r_convolution(n)
        closed = r_closed(n)
        if conv != closed:
            return _failed("CONV", rng, {"n": n, "convolution": conv, "closed": closed})
    return _passed("CONV", rng)


def _check_eqstar(max_n: int) -> CheckResult:
    rng = f"0 <= n <= {max_n} (brute); 0 <= n <= {_CLOSED_RANGE} (closed forms)"
    for n in range(max_n + 1):
        row = totals_brute(n)
        lhs = n * row.ddp
        rhs = row.rights + row.ups + row.downs
        if lhs != rhs:
            return _failed("EQSTAR", rng, {"n": n, "n*dD(n)": lhs, "R+U+D": rhs})
    for n in range(_CLOSED_RANGE + 1):
        lhs = n * central_binomial(n)
        rhs = r_closed(n) + 2 * u_closed(n)
        if lhs != rhs:
            return _failed("EQSTAR", rng, {"n": n, "n*dD(n) closed": lhs, "R+2U closed": rhs})
    return _passed("EQSTAR", rng)


def _check_asym(max_n: int) -> CheckResult:
    m_lo, m_hi = _ASYM_POINTS
    rng = f"m in {{{m_lo}, {m_hi}}}"
    dev_lo = abs(asymptotic_ratio(m_lo) - 1.0)
    dev_hi = abs(asymptotic_ratio(m_hi) - 1.0)
    if dev_lo > 0.01:
        return _failed("ASYM", rng, {"m": m_lo, "deviation": dev_lo, "tolerance": 0.01})
    if not dev_hi < dev_lo:
        return _failed(
            "ASYM",
            rng,
            {"m": m_hi, "deviation": dev_hi, "deviation_at_smaller_m": dev_lo},
        )
    return _passed("ASYM", rng)


@dataclass(frozen=True)
class _CheckSpec:
    run: Callable[[int], CheckResult]
    oracle: bool  # oracle-backed checks enumerate paths and respect the cap
    default_n: int
    deep_n: int


_CHECKS: dict[str, _CheckSpec] = {
    "L1-count": _CheckSpec(_check_l1_count, True, 14, 22),
    "L1-bijection": _CheckSpec(_check_l1_bijection, True, 14, 16),
    "L2-recursion": _CheckSpec(_check_l2_recursion, True, 14, 20),
    "L2-decomposition": _CheckSpec(_check_l2_decomposition, True, 14, 20),
    "L3-recursion": _CheckSpec(_check_l3_recursion, True, 13, 21),
    "L3-bijection": _CheckSpec(_check_l3_bijection, True, 13, 15),
    "L4-closed": _CheckSpec(_check_l4_closed, False, 400, 400),
    "L5-bijection": _CheckSpec(_check_l5_bijection, True, 14, 18),
    "L5-count": _CheckSpec(_check_l5_count, True, 14, 18),
    "THM1": _CheckSpec(_check_thm1, True, 14, 22),
    "CONV": _CheckSpec(_check_conv, False, 300, 300),
    "EQSTAR": _CheckSpec(_check_eqstar, True, 14, 22),
    # fixed comparison points; max_n is not consulted
    "ASYM": _CheckSpec(_check_asym, False, 10000, 10000),
}

CHECK_IDS = tuple(_CHECKS)


def verify_lemma(check_id: str, max_n: int | None = None, deep: bool = False) -> CheckResult:
    """Run one check at ``max_n``, else at its widest range if ``deep``, else its standard one.

    Oracle-backed checks refuse ranges beyond the enumeration cap; the
    arithmetic checks (L4-closed, CONV, and the closed-form tails) accept
    any range.  ASYM compares at fixed points and ignores ``max_n``.
    """
    try:
        spec = _CHECKS[check_id]
    except KeyError:
        known = ", ".join(CHECK_IDS)
        raise ValueError(f"unknown check id {check_id!r}; expected one of: {known}") from None
    if max_n is not None:
        n = max_n
    else:
        n = spec.deep_n if deep else spec.default_n
    if n < 0:
        raise ValueError(f"max_n must be non-negative, got {n}")
    if spec.oracle and n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"{check_id} is oracle-backed; max_n {n} exceeds the "
            f"enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )
    return spec.run(n)


def verify_all(max_n: int | None = None, deep: bool = False) -> VerificationReport:
    """Run every check and assemble the report.

    Ranges are chosen as in :func:`verify_lemma`, except that an explicit
    ``max_n`` is clamped to the enumeration cap for oracle-backed checks.
    """
    results = []
    for check_id, spec in _CHECKS.items():
        n = max_n
        if n is not None and spec.oracle:
            n = min(n, DEFAULT_ENUMERATION_CAP)
        results.append(verify_lemma(check_id, n, deep))
    return VerificationReport(checks=results)
