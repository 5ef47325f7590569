"""Behavior of the verification harness itself."""

import inspect
import json
import math
import textwrap
import tracemalloc
from types import SimpleNamespace

import pytest

import ddpaths.bijections
import ddpaths.enumeration
import ddpaths.verify
from ddpaths import (
    CHECK_IDS,
    CheckResult,
    PathWord,
    SlotKind,
    a_asymptotic,
    a_closed,
    asymptotic_ratio,
    catalan,
    central_binomial,
    central_binomials,
    ddp_to_plain,
    one_ascent_positions,
    r_closed,
    r_convolution,
    r_pair_decomposition,
    totals_brute,
    u_closed,
    updown_forward,
    verify_all,
    verify_lemma,
)
from ddpaths.bijections import (
    _cut_ascent,
    _paste_ascent,
    _reflect,
    _trade_right,
    _trade_up,
    _unreflect,
)
from ddpaths.enumeration import count_ddp_dp
from ddpaths.formulas import _FACTOR_FROM, _closed_rows, _factored_central_binomial


ALL_IDS = (
    "L1-count",
    "L1-bijection",
    "L2-recursion",
    "L2-decomposition",
    "L3-recursion",
    "L3-bijection",
    "L4-closed",
    "L5-bijection",
    "L5-count",
    "THM1",
    "CONV",
    "EQSTAR",
    "ASYM",
)


def test_check_id_inventory():
    assert CHECK_IDS == ALL_IDS


@pytest.mark.parametrize("check_id", ALL_IDS)
def test_each_check_passes_at_small_range(check_id):
    result = verify_lemma(check_id, 10)
    assert result.passed, result.counterexample
    assert result.check_id == check_id
    assert result.counterexample is None


def test_thm1_example_range():
    result = verify_lemma("THM1", 6)
    assert result.passed
    assert result.range_tested == "2 <= m <= 6"


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown check id"):
        verify_lemma("bogus-id", 5)


def test_oracle_checks_refuse_ranges_beyond_cap():
    with pytest.raises(ValueError, match="enumeration cap"):
        verify_lemma("THM1", 40)
    # arithmetic checks accept large ranges
    assert verify_lemma("CONV", 350).passed
    assert verify_lemma("L4-closed", 500).passed


def test_verify_all_refuses_ranges_beyond_cap():
    # the same rule as verify_lemma: no silent clamp to the cap
    with pytest.raises(ValueError, match="max_n 27 exceeds the enumeration cap of 26"):
        verify_all(max_n=27)


def test_verify_all_refuses_the_whole_selection_before_running(monkeypatch):
    calls = []
    spec = ddpaths.verify._CHECKS["L4-closed"]
    spy = spec._replace(run=lambda n: calls.append(n))
    monkeypatch.setitem(ddpaths.verify._CHECKS, "L4-closed", spy)
    with pytest.raises(ValueError, match="THM1 is oracle-backed; max_n 30 exceeds"):
        verify_all(ids=["L4-closed", "THM1"], max_n=30)
    assert calls == []


def test_arithmetic_checks_refuse_ranges_beyond_their_limits(monkeypatch):
    calls = []
    for check_id in ("L4-closed", "CONV", "ASYM"):
        spec = ddpaths.verify._CHECKS[check_id]
        spy = spec._replace(run=lambda n: calls.append(n))
        monkeypatch.setitem(ddpaths.verify._CHECKS, check_id, spy)
    with pytest.raises(ValueError, match="^L4-closed is arithmetic; max_n 2001 exceeds the limit"):
        verify_all(ids=["L4-closed", "ASYM"], max_n=2001)
    with pytest.raises(ValueError, match="^CONV is arithmetic; max_n 501 exceeds the limit of 500$"):
        verify_all(ids=["ASYM", "CONV"], max_n=501)
    assert calls == []
    # ASYM ignores max_n, so it accepts any range; L4-closed and CONV accept their limits
    verify_all(ids=["ASYM"], max_n=10**9)
    verify_all(ids=["L4-closed"], max_n=2000)
    verify_lemma("CONV", 500)
    assert calls == [10**9, 2000, 500]


def test_verify_all_runs_selected_ids_in_canonical_order():
    report = verify_all(ids=["CONV", "L1-count"], max_n=8)
    assert [c.check_id for c in report.checks] == ["L1-count", "CONV"]
    assert report.overall


def test_verify_all_names_every_unknown_id():
    with pytest.raises(ValueError, match=r"unknown check id\(s\): foo, bar; expected one of: "):
        verify_all(ids=["foo", "THM1", "bar"])


def test_deep_selects_the_widest_range():
    assert verify_lemma("L3-bijection", deep=True).range_tested.startswith("odd 1 <= n <= 15")
    # an explicit max_n wins over deep
    assert verify_lemma("THM1", 6, deep=True).range_tested == "2 <= m <= 6"


def test_verify_all_passes_and_reports(capsys):
    report = verify_all(max_n=8)
    assert report.overall
    assert [c.check_id for c in report.checks] == list(ALL_IDS)
    payload = json.loads(report.to_json())
    assert payload["overall"] is True
    assert len(payload["checks"]) == len(ALL_IDS)
    for entry in payload["checks"]:
        assert set(entry) == {"id", "range", "pass", "counterexample"}
        assert entry["pass"] is True
        assert entry["counterexample"] is None


def test_verify_all_vacuous_at_zero():
    report = verify_all(max_n=0)
    assert report.overall


def test_reports_are_deterministic():
    first = verify_all(max_n=6).to_json()
    second = verify_all(max_n=6).to_json()
    assert first == second


def test_concurrent_runs_agree():
    from concurrent.futures import ThreadPoolExecutor

    serial = verify_all(max_n=7).to_json()
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: verify_all(max_n=7).to_json(), range(4)))
    assert all(r == serial for r in reports)


def _odd_ends_in_down(n: int) -> int:
    # an odd DDP ends in D or R, and those ending in R are the DDPs of length n - 1 plus an R
    return central_binomial(n) - central_binomial(n - 1) if n % 2 else 0


# one forward-kernel call per case: per plain word (L1), per odd DDP that ends in D (L3),
# per (path, 1-ascent) pair (L5), at every length in range
@pytest.mark.parametrize(
    "check_id, kernel, cases",
    [
        ("L1-bijection", "_reflect", lambda n: math.comb(n, n // 2)),
        ("L3-bijection", "_trade_up", _odd_ends_in_down),
        ("L5-bijection", "_cut_ascent", lambda n: totals_brute(n).one_ascents),
    ],
    ids=["L1", "L3", "L5"],
)
def test_bijection_check_visits_every_case(monkeypatch, check_id, kernel, cases):
    calls = []
    original = getattr(ddpaths.verify, kernel)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ddpaths.verify, kernel, counting)
    assert verify_lemma(check_id, 10).passed
    assert len(calls) == sum(cases(n) for n in range(11))


# one offset mask per image word, at each check's default range: the (word, offset) pairs
# of L5 at n = 14 traced 2.8 MiB
@pytest.mark.parametrize(
    "check_id", ["L1-bijection", "L3-bijection", "L5-bijection"], ids=["L1", "L3", "L5"]
)
def test_bijection_check_memory(check_id):
    spec = ddpaths.verify._CHECKS[check_id]
    tracemalloc.start()
    try:
        assert spec.run(spec.default_n) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestFaultInjection:
    """A fault planted in any route must surface as that check's first counterexample."""

    def test_thm1_catches_shifted_a_closed(self, monkeypatch):
        monkeypatch.setattr(
            ddpaths.verify, "a_closed", lambda m: a_closed(m) + (1 if m == 9 else 0)
        )
        result = verify_lemma("THM1", 12)
        assert not result.passed
        assert result.counterexample == {
            "m": 9,
            "closed": a_closed(9) + 1,
            "brute": a_closed(9),
        }

    def test_l4_catches_shifted_r_closed(self, monkeypatch):
        monkeypatch.setattr(ddpaths.verify, "r_closed", lambda n: r_closed(n) + 1)
        result = verify_lemma("L4-closed", 50)
        assert result == _failed(
            "L4-closed", L4_RANGE.format(50), {"n": 1, "closed": 2, "brute": 1}
        )

    # each fault below slips past every earlier L4-closed sub-check, so the
    # counterexample also pins the order in which the sub-checks run
    def test_l4_even_recursion(self, monkeypatch):
        _shift(monkeypatch, "r_closed", r_closed, at=6)
        assert verify_lemma("L4-closed", 10) == _failed(
            "L4-closed",
            L4_RANGE.format(10),
            {"n": 6, "R(n)": r_closed(6) + 1, "2*R(n-1)": 2 * r_closed(5)},
        )

    def test_l4_odd_recursion(self, monkeypatch):
        _shift(monkeypatch, "r_closed", r_closed, at=7)
        assert verify_lemma("L4-closed", 7) == _failed(
            "L4-closed",
            L4_RANGE.format(7),
            {"n": 7, "R(n)": r_closed(7) + 1, "recursion": r_closed(7)},
        )

    def test_l4_up_recursion(self, monkeypatch):
        _shift(monkeypatch, "u_closed", u_closed, at=5)
        assert verify_lemma("L4-closed", 10) == _failed(
            "L4-closed",
            L4_RANGE.format(10),
            {"n": 5, "U(n)": u_closed(5) + 1, "2*U(n-1)": 2 * u_closed(4)},
        )

    def test_l4_binomial_shift(self, monkeypatch):
        def comb(n, k):
            return math.comb(n, k) + ((n, k) == (9, 4))

        monkeypatch.setattr(ddpaths.verify, "math", SimpleNamespace(comb=comb))
        assert verify_lemma("L4-closed", 8) == _failed(
            "L4-closed",
            L4_RANGE.format(8),
            {"k": 4, "(k+1)*C(2k+1,k)": 5 * 127, "(2k+1)*C(2k,k)": 9 * 70},
        )

    def test_l4_half_even_binomial(self, monkeypatch):
        # doubling C(6,3) and C(7,3) together keeps the binomial shift identity at k = 3
        def comb(n, k):
            return math.comb(n, k) * (2 if (n, k) in ((6, 3), (7, 3)) else 1)

        monkeypatch.setattr(ddpaths.verify, "math", SimpleNamespace(comb=comb))
        assert verify_lemma("L4-closed", 6) == _failed(
            "L4-closed", L4_RANGE.format(6), {"l": 6, "C(l,l/2)": 40, "2*C(l-1,l/2-1)": 20}
        )

    def test_l4_stream_term(self, monkeypatch):
        def shifted():
            for n, b in enumerate(central_binomials()):
                yield b + (n == 7)

        monkeypatch.setattr(ddpaths.verify, "central_binomials", shifted)
        assert verify_lemma("L4-closed", 10) == _failed(
            "L4-closed", L4_RANGE.format(10), {"n": 7, "stream": 36, "central_binomial": 35}
        )

    def test_l4_streamed_row(self, monkeypatch):
        def shifted(bs):
            for row in _closed_rows(bs):
                yield row if row.n != 8 else row._replace(one_ascents=0)

        monkeypatch.setattr(ddpaths.verify, "_closed_rows", shifted)
        assert verify_lemma("L4-closed", 10) == _failed(
            "L4-closed",
            L4_RANGE.format(10),
            {
                "n": 8,
                "streamed R,U,A": [r_closed(8), u_closed(8), 0],
                "point-wise R,U,A": [r_closed(8), u_closed(8), a_closed(8)],
            },
        )

    def test_l4_factored_binomial(self, monkeypatch):
        # the first even length above the cutover; L4-closed's range reaches it only
        # while the cutover stays within the check's limit
        at = (_FACTOR_FROM // 2 + 1) * 2
        monkeypatch.setattr(
            "ddpaths.formulas._factored_central_binomial",
            lambda n: _factored_central_binomial(n) + (n == at),
        )

        def rights(n):
            return (1 << n) - math.comb(n, n // 2)

        assert verify_lemma("L4-closed", at + 1) == _failed(
            "L4-closed",
            L4_RANGE.format(at + 1),
            {"n": at, "R(n)": rights(at) - 1, "2*R(n-1)": 2 * rights(at - 1)},
        )

    def test_l1_count(self, monkeypatch):
        _shift_totals(monkeypatch, "ddp", at=5)
        assert verify_lemma("L1-count", 10) == _failed(
            "L1-count", "0 <= n <= 10", {"n": 5, "enumerated": 11, "dp": 10, "closed": 10}
        )

    # each route of the three-way path count in turn, with the other two intact
    @pytest.mark.parametrize(
        "name, fn, counterexample",
        [
            ("count_ddp_dp", count_ddp_dp, {"enumerated": 10, "dp": 11, "closed": 10}),
            ("central_binomial", central_binomial, {"enumerated": 10, "dp": 10, "closed": 11}),
        ],
        ids=["dp", "closed"],
    )
    def test_l1_count_route(self, monkeypatch, name, fn, counterexample):
        _shift(monkeypatch, name, fn, at=5)
        assert verify_lemma("L1-count", 10) == _failed(
            "L1-count", "0 <= n <= 10", {"n": 5, **counterexample}
        )

    def test_l1_count_dyck(self, monkeypatch):
        _shift_totals(monkeypatch, "dyck", at=4)
        assert verify_lemma("L1-count", 10) == _failed(
            "L1-count", "0 <= n <= 10", {"n": 4, "enumerated dyck": 3, "catalan": 2}
        )

    def test_l1_bijection(self, monkeypatch):
        def broken(word):
            return "RRR" if word == "DDU" else _reflect(word)

        monkeypatch.setattr(ddpaths.verify, "_reflect", broken)
        roundtrip = ddp_to_plain(PathWord("RRR")).word
        assert verify_lemma("L1-bijection", 10) == _failed(
            "L1-bijection",
            "0 <= n <= 10",
            {"n": 3, "plain": "DDU", "image": "RRR", "roundtrip": roundtrip},
        )

    def test_l1_bijection_onto(self, monkeypatch):
        # DDU <-> UUU round-trips, but UUU is no DDP and RUD is left without a preimage
        def forward(word):
            return "UUU" if word == "DDU" else _reflect(word)

        def backward(word):
            return "DDU" if word == "UUU" else _unreflect(word)

        monkeypatch.setattr(ddpaths.verify, "_reflect", forward)
        monkeypatch.setattr(ddpaths.verify, "_unreflect", backward)
        assert verify_lemma("L1-bijection", 10) == _failed(
            "L1-bijection", "0 <= n <= 10", {"n": 3, "missing": ["RUD"], "extra": ["UUU"]}
        )

    # the kernels are intact, so only the public edge sub-check sees the broken wrapper;
    # D, of length 1, is the first plain word that dips below the axis
    @pytest.mark.parametrize(
        "target, fault, detail",
        [
            ("verify.plain_to_ddp", PathWord, {"image": "D", "kernel image": "R"}),
            ("verify.ddp_to_plain", lambda path: PathWord("U"), {"image": "R", "roundtrip": "U"}),
            (
                "bijections.is_dispersed_dyck",
                lambda path: False,
                {"error": "'R' is not a dispersed Dyck path"},
            ),
        ],
        ids=["image", "roundtrip", "guard"],
    )
    def test_l1_bijection_public_edge(self, monkeypatch, target, fault, detail):
        monkeypatch.setattr(f"ddpaths.{target}", fault)
        assert verify_lemma("L1-bijection", 10) == _failed(
            "L1-bijection", "0 <= n <= 10", {"n": 1, "plain": "D", **detail}
        )

    def test_l2_recursion_and_decomposition(self, monkeypatch):
        _shift_totals(monkeypatch, "rights", at=6)
        rights = totals_brute(6).rights
        assert verify_lemma("L2-recursion", 10) == _failed(
            "L2-recursion",
            "even 2 <= n <= 10",
            {"n": 6, "R(n)": rights + 1, "2*R(n-1)": 2 * totals_brute(5).rights},
        )
        assert verify_lemma("L2-decomposition", 10) == _failed(
            "L2-decomposition",
            "even 2 <= n <= 10",
            {"n": 6, "decomposition": r_pair_decomposition(6), "brute": rights + 1},
        )

    def test_l3_recursion(self, monkeypatch):
        _shift_totals(monkeypatch, "ups", at=5)
        assert verify_lemma("L3-recursion", 10) == _failed(
            "L3-recursion",
            "odd 1 <= n <= 10",
            {"n": 5, "U(n)": totals_brute(5).ups + 1, "2*U(n-1)": 2 * totals_brute(4).ups},
        )

    def test_l3_bijection_roundtrip(self, monkeypatch):
        monkeypatch.setattr(ddpaths.verify, "_trade_right", lambda word: word)
        image = updown_forward(PathWord("RUD")).word
        assert verify_lemma("L3-bijection", 10) == _failed(
            "L3-bijection",
            L3_BIJECTION_RANGE.format(10),
            {"n": 3, "path": "RUD", "image": image, "roundtrip": image},
        )

    def test_l3_bijection_onto(self, monkeypatch):
        # RUD <-> DD round-trips and drops one up step, but DD has no right step
        def forward(word):
            return "DD" if word == "RUD" else _trade_up(word)

        def backward(word):
            return "RUD" if word == "DD" else _trade_right(word)

        monkeypatch.setattr(ddpaths.verify, "_trade_up", forward)
        monkeypatch.setattr(ddpaths.verify, "_trade_right", backward)
        assert verify_lemma("L3-bijection", 10) == _failed(
            "L3-bijection",
            L3_BIJECTION_RANGE.format(10),
            {"n": 3, "missing": ["RR"], "extra": ["DD"]},
        )

    # as for L1: RUD, of length 3, is the first odd word that ends in D
    @pytest.mark.parametrize(
        "target, fault, detail",
        [
            ("verify.updown_forward", PathWord, {"image": "RUD", "kernel image": "RR"}),
            (
                "verify.updown_inverse",
                lambda path: PathWord("UUD"),
                {"image": "RR", "roundtrip": "UUD"},
            ),
            (
                "bijections.is_dispersed_dyck",
                lambda path: False,
                {"error": "'RUD' is not a dispersed Dyck path"},
            ),
        ],
        ids=["image", "roundtrip", "guard"],
    )
    def test_l3_bijection_public_edge(self, monkeypatch, target, fault, detail):
        monkeypatch.setattr(f"ddpaths.{target}", fault)
        assert verify_lemma("L3-bijection", 10) == _failed(
            "L3-bijection", L3_BIJECTION_RANGE.format(10), {"n": 3, "path": "RUD", **detail}
        )

    def test_l3_bijection_catalan_argument(self, monkeypatch):
        _shift(monkeypatch, "catalan", catalan, at=7)
        assert verify_lemma("L3-bijection", 10) == _failed(
            "L3-bijection",
            L3_BIJECTION_RANGE.format(10),
            {"k": 7, "k*catalan(k)": 7 * (catalan(7) + 1), "C(2k,k-1)": math.comb(14, 6)},
        )

    def test_l3_bijection_catalan_difference(self, monkeypatch):
        # C(9,4) one too high breaks C(2k+1,k) - C(2k,k) = C(2k,k-1) at k = 4 alone
        def comb(n, k):
            return math.comb(n, k) + ((n, k) == (9, 4))

        monkeypatch.setattr(ddpaths.verify, "math", SimpleNamespace(comb=comb))
        assert verify_lemma("L3-bijection", 10) == _failed(
            "L3-bijection",
            L3_BIJECTION_RANGE.format(10),
            {"k": 4, "C(2k+1,k)-C(2k,k)": 57, "C(2k,k-1)": 56},
        )

    def test_l5_bijection(self, monkeypatch):
        monkeypatch.setattr(
            ddpaths.verify, "_paste_ascent", lambda word, at: "R" * (len(word) + 2)
        )
        pos = one_ascent_positions("UD")[0]
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection",
            L5_BIJECTION_RANGE.format(10),
            {"n": 2, "path": "UD", "pos": pos, "roundtrip": "RR"},
        )

    def test_l5_bijection_duplicate_image(self, monkeypatch):
        # RUD@1 takes the image of UDR@0, which comes first in the stream; the paste kernel
        # takes that image back to UDR, so RUD fails its round trip
        def cut(word, pos):
            return _cut_ascent("UDR", 0) if word == "RUD" else _cut_ascent(word, pos)

        monkeypatch.setattr(ddpaths.verify, "_cut_ascent", cut)
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection",
            L5_BIJECTION_RANGE.format(10),
            {"n": 3, "path": "RUD", "pos": 1, "roundtrip": "UDR"},
        )

    def test_l5_bijection_onto(self, monkeypatch):
        # UD@0 <-> (Z, 0) round-trips, but Z is no DDP and ("", 0) has no preimage
        def cut(word, pos):
            return ("Z", 0) if word == "UD" else _cut_ascent(word, pos)

        def paste(word, at):
            return "UD" if word == "Z" else _paste_ascent(word, at)

        monkeypatch.setattr(ddpaths.verify, "_cut_ascent", cut)
        monkeypatch.setattr(ddpaths.verify, "_paste_ascent", paste)
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection",
            L5_BIJECTION_RANGE.format(10),
            {"n": 2, "missing": [("", "start")], "extra": [("Z", "start")]},
        )

    # UDUD@2 <-> (UD, stray) round-trips, but the offset after a U, past the end of UD or
    # below 0 names no slot, and (UD, down:1) has no preimage
    @pytest.mark.parametrize("stray", [-1, 1, 5])
    def test_l5_bijection_stray_offset(self, monkeypatch, stray):
        def cut(word, pos):
            return ("UD", stray) if (word, pos) == ("UDUD", 2) else _cut_ascent(word, pos)

        def paste(word, at):
            return "UDUD" if (word, at) == ("UD", stray) else _paste_ascent(word, at)

        monkeypatch.setattr(ddpaths.verify, "_cut_ascent", cut)
        monkeypatch.setattr(ddpaths.verify, "_paste_ascent", paste)
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection",
            L5_BIJECTION_RANGE.format(10),
            {"n": 4, "missing": [("UD", "down:1")], "extra": [("UD", f"offset {stray}")]},
        )

    # a source copy with the slot letters swapped also swaps the table derived from them;
    # then the public maps still round-trip, but name the step before RUD's 1-ascent a
    # down step.  With only the letters swapped, ascent_insert refuses the slot that
    # ascent_remove handed out.
    @pytest.mark.parametrize(
        "derived_too, detail",
        [
            (True, {"slot": "down:0", "expected": "right:0"}),
            (False, {"error": "slot right:0 does not reference a 'D' step of 'R'"}),
        ],
    )
    def test_l5_bijection_swapped_slot_letters(self, monkeypatch, derived_too, detail):
        letters = {SlotKind.DOWN_STEP: "R", SlotKind.RIGHT_STEP: "D"}
        monkeypatch.setattr(ddpaths.bijections, "_SLOT_LETTERS", letters)
        if derived_too:
            kind_after = {letter: kind for kind, letter in letters.items()}
            monkeypatch.setattr(ddpaths.bijections, "_KIND_AFTER", kind_after)
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection",
            L5_BIJECTION_RANGE.format(10),
            {"n": 3, "path": "RUD", "pos": 1, **detail},
        )

    # the 1-ascent stream drops UD's only start, or gives UUDD a start at its 2-ascent
    @pytest.mark.parametrize(
        "word, starts, detail",
        [
            ("UD", (), {"n": 2, "missing": [("", "start")], "extra": []}),
            ("UUDD", (0,), {"n": 4, "path": "UUDD", "pos": 0, "roundtrip": "UDDD"}),
        ],
        ids=["dropped", "added"],
    )
    def test_l5_bijection_stream_starts(self, monkeypatch, word, starts, detail):
        stream = ddpaths.verify._ddp_one_ascents

        def faulty(n):
            for w, found in stream(n):
                yield w, starts if w == word else found

        monkeypatch.setattr(ddpaths.verify, "_ddp_one_ascents", faulty)
        assert verify_lemma("L5-bijection", 10) == _failed(
            "L5-bijection", L5_BIJECTION_RANGE.format(10), detail
        )

    def test_l5_count_brute(self, monkeypatch):
        _shift_totals(monkeypatch, "one_ascents", at=7)
        ones = totals_brute(7).one_ascents
        assert verify_lemma("L5-count", 10) == _failed(
            "L5-count",
            L5_COUNT_RANGE.format(10),
            {"n": 7, "A(n)": ones + 1, "dD+D+R at n-2": ones},
        )

    def test_l5_count_closed(self, monkeypatch):
        _shift(monkeypatch, "a_closed", a_closed, at=9)
        assert verify_lemma("L5-count", 10) == _failed(
            "L5-count",
            L5_COUNT_RANGE.format(10),
            {"n": 9, "a_closed": a_closed(9) + 1, "dD+U+R closed at n-2": a_closed(9)},
        )

    def test_conv(self, monkeypatch):
        _shift(monkeypatch, "r_convolution", r_convolution, at=5)
        assert verify_lemma("CONV", 10) == _failed(
            "CONV", "0 <= n <= 10", {"n": 5, "convolution": r_closed(5) + 1, "closed": r_closed(5)}
        )

    def test_eqstar_brute(self, monkeypatch):
        _shift_totals(monkeypatch, "downs", at=4)
        row = totals_brute(4)
        assert verify_lemma("EQSTAR", 10) == _failed(
            "EQSTAR",
            EQSTAR_RANGE.format(10),
            {"n": 4, "n*dD(n)": 4 * row.ddp, "R+U+D": row.rights + row.ups + row.downs + 1},
        )

    def test_eqstar_brute_walk_miscount(self, monkeypatch):
        # a copy of the walk whose key counts each R as a D too: the step totals it measures
        # must break R+U+D = n*dD(n) (at n = 1, the path R), so no total is derived from another
        source = textwrap.dedent(inspect.getsource(ddpaths.enumeration._walk))
        downs = 'word.count("D") * down'
        assert downs in source
        namespace = dict(vars(ddpaths.enumeration))
        exec(source.replace(downs, '(word.count("D") + word.count("R")) * down'), namespace)
        monkeypatch.setattr(ddpaths.enumeration, "_walk", namespace["_walk"])
        monkeypatch.setattr(ddpaths.enumeration, "_ROWS", {})
        row = totals_brute(1)
        assert (row.ups, row.downs, row.rights) == (0, 1, 1)
        assert verify_lemma("EQSTAR", 10) == _failed(
            "EQSTAR", EQSTAR_RANGE.format(10), {"n": 1, "n*dD(n)": 1, "R+U+D": 2}
        )

    def test_eqstar_closed(self, monkeypatch):
        _shift(monkeypatch, "u_closed", u_closed, at=4)
        assert verify_lemma("EQSTAR", 10) == _failed(
            "EQSTAR",
            EQSTAR_RANGE.format(10),
            {
                "n": 4,
                "n*dD(n) closed": 4 * central_binomial(4),
                "R+2U closed": r_closed(4) + 2 * (u_closed(4) + 1),
            },
        )

    def test_asym_tolerance(self, monkeypatch):
        monkeypatch.setattr(
            ddpaths.verify, "asymptotic_ratio", lambda m: asymptotic_ratio(m) * 1.02
        )
        assert verify_lemma("ASYM") == _failed(
            "ASYM",
            ASYM_RANGE,
            {"m": 1000, "deviation": abs(asymptotic_ratio(1000) * 1.02 - 1.0), "tolerance": 0.01},
        )

    def test_asym_tightening(self, monkeypatch):
        monkeypatch.setattr(ddpaths.verify, "asymptotic_ratio", lambda m: 1.005)
        deviation = abs(1.005 - 1.0)
        assert verify_lemma("ASYM") == _failed(
            "ASYM",
            ASYM_RANGE,
            {"m": 10000, "deviation": deviation, "deviation_at_smaller_m": deviation},
        )

    # two wrong estimates, each off by a log2 term, that the 1 % tolerance and the
    # tightening both let through: 2**(m - 2.49) in place of 2**(m - 5/2), and the
    # sqrt(pi/(2m)) term made 20 % too large
    @pytest.mark.parametrize(
        "wrong",
        [
            lambda m: 0.01,
            lambda m: math.log2((1 + 1.2 * _sqrt_term(m)) / (1 + _sqrt_term(m))),
        ],
        ids=["power-of-two", "sqrt-term"],
    )
    def test_asym_second_order(self, monkeypatch, wrong):
        def estimate(m):
            right = a_asymptotic(m)
            return right._replace(log2=right.log2 + wrong(m))

        monkeypatch.setattr("ddpaths.formulas.a_asymptotic", estimate)
        ratio = asymptotic_ratio(1000)
        assert abs(ratio - 1.0) < 0.01 and abs(asymptotic_ratio(10000) - 1.0) < abs(ratio - 1.0)
        scaled = 1000 * (ratio - 1.0)
        expected = -0.25 + math.sqrt(math.pi / 2) / 4 / math.sqrt(1000)
        assert verify_lemma("ASYM") == _failed(
            "ASYM",
            ASYM_RANGE,
            {"m": 1000, "m*(ratio-1)": scaled, "expected": expected, "bound": 1 / 1000},
        )

    def test_overall_fails_with_injected_fault(self, monkeypatch):
        _shift(monkeypatch, "u_closed", u_closed, at=4)
        report = verify_all(max_n=8)
        assert not report.overall
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert all(c.counterexample for c in failing)


L3_BIJECTION_RANGE = "odd 1 <= n <= {} (bijection); 1 <= k <= 200 (Catalan argument)"
L4_RANGE = "1 <= n <= {0} (recursions); 0 <= n <= {0} (stream); base cases n = 1, 2 brute"
L5_BIJECTION_RANGE = "2 <= n <= {} (longer path length)"
L5_COUNT_RANGE = "2 <= n <= {} (brute); 0 <= n <= 400 (closed forms)"
EQSTAR_RANGE = "0 <= n <= {} (brute); 0 <= n <= 400 (closed forms)"
ASYM_RANGE = "m in {1000, 10000}; |m*(ratio-1) + 1/4 - c/sqrt(m)| <= 1/m, c = sqrt(pi/2)/4"


def _sqrt_term(m):
    return math.sqrt(math.pi / (2 * m))


def _failed(check_id, rng, counterexample):
    return CheckResult(check_id, rng, False, counterexample)


def _shift(monkeypatch, name, fn, at):
    """Make ``ddpaths.verify.<name>`` return one more than ``fn`` at ``at``."""
    monkeypatch.setattr(ddpaths.verify, name, lambda n: fn(n) + (n == at))


def _shift_totals(monkeypatch, field, at):
    """Make the brute-force row of length ``at`` overcount ``field`` by one."""

    def shifted(n, *args, **kwargs):
        row = totals_brute(n, *args, **kwargs)
        if n != at:
            return row
        return row._replace(**{field: getattr(row, field) + 1})

    monkeypatch.setattr(ddpaths.verify, "totals_brute", shifted)
