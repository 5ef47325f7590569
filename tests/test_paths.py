"""Path words, classification and per-path statistics."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpaths import (
    PathClass,
    PathWord,
    classify,
    is_dispersed_dyck,
    is_dyck,
    is_plain_path,
    one_ascent_positions,
    parse_path,
    stats,
)

from conftest import oracle_is_ddp, oracle_run_lengths

words = st.text(alphabet="UDR", max_size=32)


class TestParse:
    def test_empty_word(self):
        p = parse_path("")
        assert len(p) == 0
        assert p.word == ""

    def test_direct_transliteration(self):
        p = parse_path("UDR")
        assert p.word == "UDR"
        assert len(p) == 3

    def test_invalid_character_names_position(self):
        with pytest.raises(ValueError, match="position 1"):
            parse_path("UXD")

    # a list or a tuple of letters passed the alphabet test and then failed deep inside re
    @pytest.mark.parametrize("word", [["U", "D"], ("U", "D"), None, b"UD", 0])
    def test_non_str_word_is_refused(self, word):
        with pytest.raises(TypeError, match=f"must be a str, not {type(word).__name__}"):
            PathWord(word)
        with pytest.raises(TypeError, match="must be a str"):
            parse_path(word)

    def test_lowercase_rejected(self):
        with pytest.raises(ValueError, match="position 0"):
            parse_path("udr")

    def test_str_roundtrip(self):
        assert str(parse_path("RUDR")) == "RUDR"

    @given(st.text(alphabet="UDRXo ?", max_size=24).filter(lambda w: set(w) - set("UDR")))
    def test_first_offending_position_reported(self, word):
        first_bad = next(i for i, ch in enumerate(word) if ch not in "UDR")
        with pytest.raises(ValueError, match=f"position {first_bad}"):
            parse_path(word)


@pytest.mark.parametrize(
    "fn",
    [classify, is_dyck, is_plain_path, is_dispersed_dyck, stats, one_ascent_positions],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("word", ["UDRUD", "UUDD", "DUD", "URD"])
def test_word_is_scanned_once(fn, word, scans):
    path = parse_path(word)
    fn(path)
    assert scans.count(word) == 1  # by parse_path alone
    fn(word)
    assert scans.count(word) == 2  # a raw word is scanned once


class TestClassify:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("UDR", PathClass.DISPERSED_DYCK),
            ("UUDD", PathClass.DYCK),
            ("DU", PathClass.PLAIN_PATH),
            ("", PathClass.DYCK),
            ("R", PathClass.DISPERSED_DYCK),
            ("D", PathClass.PLAIN_PATH),
            ("UU", PathClass.INVALID),
            ("RU", PathClass.INVALID),
            ("URD", PathClass.INVALID),  # R at height 1
        ],
    )
    def test_examples(self, word, expected):
        assert classify(word) is expected

    def test_dyck_word_keeps_plain_predicate_queryable(self):
        # the tie rule: most specific class wins, the plain predicate stays separate
        assert classify("UUDD") is PathClass.DYCK
        assert is_plain_path("UUDD")
        assert is_dyck("UUDD")
        assert not is_plain_path("UDR")

    def test_predicates_agree_with_direct_scan(self):
        for word in ("", "R", "UD", "RUD", "UDRR", "DU", "UDD", "URD", "DUD"):
            assert is_dispersed_dyck(word) == oracle_is_ddp(word)


class TestStats:
    def test_alternating(self):
        s = stats("UDUD")
        assert (s.ups, s.downs, s.rights) == (2, 2, 0)
        assert s.k_ascents == {1: 2}
        assert s.one_ascents == 2

    def test_single_long_run(self):
        s = stats("UUDD")
        assert s.k_ascents == {2: 1}
        assert s.one_ascents == 0

    def test_empty(self):
        s = stats("")
        assert (s.n, s.ups, s.downs, s.rights) == (0, 0, 0, 0)
        assert s.ascent_runs == ()
        assert s.k_ascents == {}

    def test_json_rendering_key_order(self):
        rendered = stats("UDUD").to_json()
        assert rendered == '{"n": 4, "ups": 2, "downs": 2, "rights": 0, "k_ascents": {"1": 2}}'
        assert list(json.loads(rendered)) == ["n", "ups", "downs", "rights", "k_ascents"]

    def test_one_ascent_positions(self):
        assert one_ascent_positions("UDUD") == [0, 2]
        assert one_ascent_positions("UUDD") == []
        assert one_ascent_positions("RUDUUDDUD") == [1, 7]


@given(words)
def test_step_counts_partition_length(word):
    s = stats(word)
    assert s.ups + s.downs + s.rights == len(word)
    assert sum(k * c for k, c in s.k_ascents.items()) == s.ups


@given(words)
def test_run_decomposition_matches_scan(word):
    s = stats(word)
    assert list(s.ascent_runs) == oracle_run_lengths(word)
    assert s.one_ascents == len(one_ascent_positions(word))


@given(words)
def test_stats_print_parse_roundtrip(word):
    p = parse_path(word)
    assert stats(parse_path(str(p))) == stats(p)


@given(words)
def test_ddp_classification_implies_scan_conditions(word):
    if classify(word) in (PathClass.DISPERSED_DYCK, PathClass.DYCK):
        assert oracle_is_ddp(word)
        s = stats(word)
        assert s.ups == s.downs


@given(words)
def test_classify_most_specific(word):
    cls = classify(word)
    if cls is PathClass.DYCK:
        assert is_dyck(word) and is_dispersed_dyck(word)
    elif cls is PathClass.DISPERSED_DYCK:
        assert is_dispersed_dyck(word) and not is_dyck(word)
    elif cls is PathClass.PLAIN_PATH:
        assert is_plain_path(word) and not is_dispersed_dyck(word)
    else:
        assert not is_dispersed_dyck(word) and not is_plain_path(word)
