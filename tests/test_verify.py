"""Behavior of the verification harness itself."""

import json

import pytest

import ddpaths.verify
from ddpaths import CHECK_IDS, a_closed, r_closed, verify_all, verify_lemma


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


class TestFaultInjection:
    """An off-by-one planted in a closed form must surface as a counterexample."""

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
        assert not result.passed
        assert result.counterexample is not None
        assert "n" in result.counterexample

    def test_overall_fails_with_injected_fault(self, monkeypatch):
        monkeypatch.setattr(ddpaths.verify, "u_closed", lambda n: u_closed_shifted(n))
        report = verify_all(max_n=8)
        assert not report.overall
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert all(c.counterexample for c in failing)


def u_closed_shifted(n):
    from ddpaths import u_closed

    return u_closed(n) + (n == 4)
