"""Generators, DP counting and brute-force totals against independent oracles."""

import math

import pytest

from ddpaths import (
    PathClass,
    classify,
    count_ddp_dp,
    enumerate_ddp,
    enumerate_dyck,
    enumerate_plain,
    k_ascent_total,
    one_ascent_distribution,
    totals_brute,
)
from ddpaths.enumeration import CSV_HEADER, CountTable

from conftest import (
    lex_key,
    oracle_ddp_words,
    oracle_dyck_words,
    oracle_k_ascents,
    oracle_one_ascents,
    oracle_plain_words,
)


def words(gen):
    return [p.word for p in gen]


class TestGenerators:
    def test_ddp_n0(self):
        assert words(enumerate_ddp(0)) == [""]

    def test_ddp_n3(self):
        assert set(words(enumerate_ddp(3))) == {"RRR", "RUD", "UDR"}

    def test_ddp_n4(self):
        assert set(words(enumerate_ddp(4))) == {
            "RRRR", "RRUD", "RUDR", "UDRR", "UDUD", "UUDD",
        }

    def test_dyck_examples(self):
        assert words(enumerate_dyck(2)) == ["UD"]
        assert set(words(enumerate_dyck(4))) == {"UDUD", "UUDD"}
        assert words(enumerate_dyck(3)) == []

    def test_plain_examples(self):
        assert words(enumerate_plain(1)) == ["D"]
        assert set(words(enumerate_plain(2))) == {"UD", "DU"}
        assert words(enumerate_plain(3)) == ["UDD", "DUD", "DDU"]

    @pytest.mark.parametrize("n", range(9))
    def test_ddp_matches_filter_oracle(self, n):
        generated = words(enumerate_ddp(n))
        assert generated == sorted(oracle_ddp_words(n), key=lex_key)
        assert len(set(generated)) == len(generated)

    @pytest.mark.parametrize("n", range(15))
    def test_dyck_matches_filter_oracle(self, n):
        assert words(enumerate_dyck(n)) == sorted(oracle_dyck_words(n), key=lex_key)

    @pytest.mark.parametrize("n", range(15))
    def test_plain_matches_filter_oracle(self, n):
        generated = words(enumerate_plain(n))
        assert generated == sorted(oracle_plain_words(n), key=lex_key)
        assert len(generated) == math.comb(n, n // 2)

    @pytest.mark.parametrize("n", range(8))
    def test_yielded_words_classify_as_their_family(self, n):
        for p in enumerate_ddp(n):
            assert classify(p) in (PathClass.DISPERSED_DYCK, PathClass.DYCK)
        for p in enumerate_dyck(n):
            assert classify(p) is PathClass.DYCK
        for p in enumerate_plain(n):
            # a plain word that never dips classifies as the more specific family
            assert is_plain(p.word)

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap of 26"):
            enumerate_ddp(27)
        with pytest.raises(ValueError, match="cap of 4"):
            enumerate_plain(5, cap=4)
        assert len(words(enumerate_ddp(5, cap=5))) == 10

    def test_negative_length(self):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_ddp(-1)

    def test_negative_cap(self):
        with pytest.raises(ValueError, match="enumeration cap must be non-negative, got -1"):
            enumerate_ddp(0, cap=-1)


def is_plain(word):
    return "R" not in word and word.count("U") - word.count("D") == -(len(word) % 2)


class TestDpCount:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 6), (5, 10)])
    def test_examples(self, n, expected):
        assert count_ddp_dp(n) == expected

    @pytest.mark.parametrize("n", range(11))
    def test_matches_enumeration(self, n):
        assert count_ddp_dp(n) == len(oracle_ddp_words(n) if n <= 8 else words(enumerate_ddp(n)))


class TestTotals:
    def test_row_n0(self):
        row = totals_brute(0)
        assert (row.ddp, row.ups, row.downs, row.rights, row.one_ascents) == (1, 0, 0, 0, 0)
        assert row.dyck == 1

    def test_row_n3(self):
        row = totals_brute(3)
        assert (row.ddp, row.ups, row.downs, row.rights, row.one_ascents) == (3, 2, 2, 5, 2)

    def test_row_n4(self):
        row = totals_brute(4)
        assert (row.ddp, row.ups, row.downs, row.rights, row.one_ascents) == (6, 7, 7, 10, 5)
        assert row.dyck == 2

    @pytest.mark.parametrize("n", range(11))
    def test_row_against_filter_oracle(self, n):
        row = totals_brute(n)
        paths = oracle_ddp_words(n)
        assert row.ddp == len(paths)
        assert row.ups == sum(w.count("U") for w in paths)
        assert row.downs == sum(w.count("D") for w in paths)
        assert row.rights == sum(w.count("R") for w in paths)
        assert row.one_ascents == sum(oracle_one_ascents(w) for w in paths)
        assert row.dyck == len(oracle_dyck_words(n))

    # beyond the 3**n oracle's reach; values from scanning every word with the 1-ascent regex
    @pytest.mark.parametrize(
        "n,expected",
        [
            (18, (48620, 4862, 330818, 330818, 213524, 142163)),
            (20, (184756, 16796, 1415650, 1415650, 863820, 592962)),
            (22, (705432, 58786, 6015316, 6015316, 3488872, 2464226)),
        ],
    )
    def test_golden_rows(self, n, expected):
        row = totals_brute(n)
        assert row.n == n
        assert (row.ddp, row.dyck, row.ups, row.downs, row.rights, row.one_ascents) == expected

    @pytest.mark.parametrize("n", range(13))
    def test_invariants(self, n):
        row = totals_brute(n)
        assert row.ups == row.downs
        assert n * row.ddp == row.rights + row.ups + row.downs

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            totals_brute(27)

    def test_csv_and_json_rendering(self):
        table = CountTable()
        table.add(totals_brute(4))
        table.add(totals_brute(3))
        assert table.to_csv() == f"{CSV_HEADER}\n3,3,0,2,2,5,2\n4,6,2,7,7,10,5"
        assert table.to_json_list() == [
            {"n": 3, "dD": 3, "dyck": 0, "U": 2, "D": 2, "R": 5, "A": 2},
            {"n": 4, "dD": 6, "dyck": 2, "U": 7, "D": 7, "R": 10, "A": 5},
        ]

    def test_row_is_frozen(self):
        row = totals_brute(2)
        with pytest.raises(AttributeError):
            row.ddp = 0


class TestOneAscentDistribution:
    def test_n2(self):
        assert one_ascent_distribution(2).row == {0: 1, 1: 1}

    def test_n4(self):
        assert one_ascent_distribution(4).row == {0: 2, 1: 3, 2: 1}

    def test_n0(self):
        assert one_ascent_distribution(0).row == {0: 1}

    @pytest.mark.parametrize("n", range(11))
    def test_marginals(self, n):
        table = one_ascent_distribution(n)
        row = totals_brute(n)
        assert sum(table.row.values()) == row.ddp
        assert sum(t * c for t, c in table.row.items()) == row.one_ascents

    @pytest.mark.parametrize("n", range(11))
    def test_against_filter_oracle(self, n):
        table = one_ascent_distribution(n)
        counts = {}
        for w in oracle_ddp_words(n):
            t = oracle_one_ascents(w)
            counts[t] = counts.get(t, 0) + 1
        assert table.row == counts

    def test_golden_n18(self):
        # beyond the 3**n oracle's reach; values from scanning every word with the 1-ascent regex
        assert one_ascent_distribution(18).row == {
            0: 1590, 1: 6367, 2: 11656, 3: 12834, 4: 9392,
            5: 4731, 6: 1638, 7: 366, 8: 45, 9: 1,
        }


class TestKAscentTotal:
    @pytest.mark.parametrize("n,k,expected", [(4, 2, 1), (4, 1, 5), (3, 3, 0)])
    def test_examples(self, n, k, expected):
        assert k_ascent_total(n, k) == expected

    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_against_filter_oracle(self, n, k):
        expected = sum(oracle_k_ascents(w, k) for w in oracle_ddp_words(n))
        assert k_ascent_total(n, k) == expected

    @pytest.mark.parametrize("n", range(11))
    def test_k1_is_the_one_ascent_total(self, n):
        assert k_ascent_total(n, 1) == totals_brute(n).one_ascents

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            k_ascent_total(4, 0)
