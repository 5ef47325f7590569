"""Generators, DP counting and brute-force totals against independent oracles."""

import hashlib
import itertools
import math
import sys
import tracemalloc

import pytest

from ddpaths import (
    PathClass,
    a_closed,
    central_binomial,
    classify,
    count_ddp_dp,
    dyck_count,
    enumerate_ddp,
    enumerate_dyck,
    enumerate_plain,
    enumeration,
    k_ascent_total,
    one_ascent_distribution,
    r_closed,
    totals_brute,
    u_closed,
    verify_all,
)
from ddpaths.enumeration import (
    CSV_HEADER,
    _ddp_one_ascents,
    _ddp_words,
    _plain_words,
    _suffixes,
    _walk,
)

from conftest import (
    lex_key,
    oracle_ddp_words,
    oracle_dyck_words,
    oracle_k_ascents,
    oracle_one_ascent_starts,
    oracle_one_ascents,
    oracle_plain_words,
)


def words(gen):
    return [p.word for p in gen]


def oracle_rows(n, k):
    """Rows ``(dyck, ups, downs, rights, hist)`` of lengths 0..n, scanning every word."""
    rows = []
    for m in range(n + 1):
        paths = list(_ddp_words(m))
        hist = [0] * (m // 2 + 1)
        for w in paths:
            hist[oracle_k_ascents(w, k)] += 1
        rows.append(
            (
                sum("R" not in w for w in paths),
                sum(w.count("U") for w in paths),
                sum(w.count("D") for w in paths),
                sum(w.count("R") for w in paths),
                tuple(hist),
            )
        )
    return rows


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

    @pytest.mark.parametrize("n", range(12))
    def test_ddp_matches_filter_oracle(self, n):
        generated = words(enumerate_ddp(n))
        assert generated == sorted(oracle_ddp_words(n), key=lex_key)
        assert len(set(generated)) == len(generated)

    # beyond the 3**n oracle's reach; the digests pin the U < D < R order of whole streams
    @pytest.mark.parametrize(
        "n,flat,digest",
        [
            (18, True, "1edd93533ca54756da8b3bd89973ebce832d63599c85f1efb903a73509757996"),
            (20, True, "cb2c28b4f4f4fb084b8bdd46928e8d0be6f65888bb5612398ddd020bea908448"),
            (20, False, "e375ff798ec1eb085746b3d42eb860de1086a52e74a442d84d93b3b0abb87dc4"),
            (22, False, "5f502d16baafcd56dde1f6e2f4d09a7156b12b538d1bf7dc816929d14c05ddeb"),
        ],
        ids=["18-ddp", "20-ddp", "20-dyck", "22-dyck"],
    )
    def test_golden_stream_digests(self, n, flat, digest):
        stream = "\n".join(_ddp_words(n, flat)).encode()
        assert hashlib.sha256(stream).hexdigest() == digest

    # the 1-ascent stream beyond the oracle's n <= 18: every pair at n = 20, and the first
    # 10**5 at n = 27, past the cap, where the prefixes grow and the suffixes stay 13 steps
    @pytest.mark.parametrize(
        "n,pairs,digest",
        [
            (20, None, "c22d961677753cd2c41bac946f26031e348abec521b5c7817f492f9c675527df"),
            (27, 10**5, "fd75f62f7fc3fa80c76ed8e89f3ddb4dc64086ad5e135d7b4928b5bd9f74df79"),
        ],
        ids=["20", "27-head"],
    )
    def test_golden_one_ascent_stream_digests(self, n, pairs, digest):
        stream = itertools.islice(_ddp_one_ascents(n), pairs)
        text = "\n".join(f"{word} {starts}" for word, starts in stream).encode()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_long_streams_start_lazily(self):
        # far beyond the interpreter's recursion limit; only the first word is built
        assert next(enumerate_ddp(1501, cap=1501)).word == "U" * 750 + "D" * 750 + "R"
        assert next(enumerate_dyck(1500, cap=1500)).word == "U" * 750 + "D" * 750
        # the room of the plain prefixes stops their up steps at n // 2, so no prefix
        # with too many of them is walked before the first word
        assert next(enumerate_plain(1501, cap=1501)).word == "U" * 750 + "D" * 751

    @pytest.mark.parametrize("stream", [_ddp_words, _ddp_one_ascents], ids=["words", "ones"])
    def test_long_streams_build_only_the_first_height(self, suffix_builds, stream):
        # a height's suffixes are listed when a prefix first reaches it, so the first item
        # at n = 1501 lists those of the first prefix's height alone, not those of all 14
        next(stream(1501))
        assert len(suffix_builds) == 1

    def test_one_ascent_stream_builds_each_height_once(self, suffix_builds):
        # as test_stream_memory pins for the word stream
        for _ in _ddp_one_ascents(20):
            pass
        heights = [height for height, *_ in suffix_builds]
        assert len(heights) == len(set(heights))

    def test_stream_memory(self, suffix_builds):
        # the stream holds its suffix lists, built once per height: 2**10 words for n = 20
        tracemalloc.start()
        try:
            for _ in _ddp_words(20):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        heights = [height for height, *_ in suffix_builds]
        assert len(heights) == len(set(heights))
        assert sum(len(tail) for *_, tail in suffix_builds) == 2**10

    def test_long_stream_memory(self, suffix_builds):
        # beyond the cap the suffixes stay 13 steps long, so the lists never pass 2**13 words
        tracemalloc.start()
        try:
            for _ in itertools.islice(_ddp_words(60), 10**5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert {steps for _, steps, *_ in suffix_builds} == {13}
        assert sum(len(_suffixes(h, 13, True)) for h in range(14)) == 2**13

    def test_plain_stream_memory(self):
        # beyond the cap the plain suffixes stay 13 steps long too: 2**13 words in all keys
        tracemalloc.start()
        try:
            for _ in itertools.islice(_plain_words(60), 10**5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_suffixes_end_on_the_axis(self):
        # one step cannot bring height 2 back to the axis, so there is no such suffix
        assert _suffixes(2, 1, True) == []
        for flat in (True, False):
            for height in range(9):
                for steps in range(9):
                    for word in _suffixes(height, steps, flat):
                        assert height + word.count("U") == word.count("D"), (height, word)

    @pytest.mark.parametrize("flat", [True, False], ids=["ddp", "dyck"])
    def test_short_suffixes_keep_the_order(self, monkeypatch, flat):
        # the join beyond the cap, moved down to n = 12 by shortening the suffixes
        expected = list(_ddp_words(12, flat))
        monkeypatch.setattr(enumeration, "_SUFFIX_STEPS", 2)
        assert list(_ddp_words(12, flat)) == expected
        oracle = oracle_ddp_words(12) if flat else oracle_dyck_words(12)
        assert expected == sorted(oracle, key=lex_key)

    @pytest.mark.parametrize("n", [11, 12])
    def test_short_plain_suffixes_keep_the_order(self, monkeypatch, n):
        # beyond the cap, moved down by shortening the suffixes to 2 steps: a prefix may
        # hold too few up steps for any suffix, and the room keeps out those with too many
        monkeypatch.setattr(enumeration, "_SUFFIX_STEPS", 2)
        assert list(_plain_words(n)) == sorted(oracle_plain_words(n), key=lex_key)

    @pytest.mark.parametrize("n", range(19))
    def test_one_ascent_stream_against_run_lengths(self, n):
        expected = [(w, oracle_one_ascent_starts(w)) for w in _ddp_words(n)]
        assert list(_ddp_one_ascents(n)) == expected

    def test_one_ascent_stream_seams_beyond_the_cap(self, monkeypatch):
        # the join beyond the cap, moved down to n = 13 and 14 by shortening the suffixes to
        # 6 steps, the fewest that let a prefix ending in UU meet a suffix starting with UU
        monkeypatch.setattr(enumeration, "_SUFFIX_STEPS", 6)
        seams = set()
        for n in range(15):
            expected = [(w, oracle_one_ascent_starts(w)) for w in _ddp_words(n)]
            assert list(_ddp_one_ascents(n)) == expected, n
            half = enumeration._join_depth(n)
            if half > n // 2:
                # the up-runs that meet at the join, each counted up to 2
                for w, _ in expected:
                    prefix, suffix = w[:half], w[half:]
                    ending = len(prefix) - len(prefix.rstrip("U"))
                    leading = len(suffix) - len(suffix.lstrip("U"))
                    seams.add((min(ending, 2), min(leading, 2)))
        assert seams == set(itertools.product(range(3), repeat=2))

    def test_one_ascent_stream_memory(self):
        # the suffix lists of the heights the prefixes reach, at most 2**13 words beyond the
        # cap, and their starts by lead, one tuple per suffix and lead; and a tuple per word
        tracemalloc.start()
        try:
            for _ in itertools.islice(_ddp_one_ascents(40), 10**5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", range(15))
    def test_dyck_matches_filter_oracle(self, n):
        assert words(enumerate_dyck(n)) == sorted(oracle_dyck_words(n), key=lex_key)

    @pytest.mark.parametrize("n", range(17))
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

    @pytest.mark.parametrize("stream", [enumerate_ddp, enumerate_dyck, enumerate_plain])
    @pytest.mark.parametrize("n", [sys.maxsize, 10**20])
    def test_lengths_past_sys_maxsize_are_refused(self, stream, n):
        # no string holds such a word, so a raised cap cannot let the stream start
        with pytest.raises(ValueError, match=rf"needs n below sys\.maxsize = \d+, got {n}$"):
            stream(n, cap=n)


def is_plain(word):
    return "R" not in word and word.count("U") - word.count("D") == -(len(word) % 2)


class TestDpCount:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 6), (5, 10)])
    def test_examples(self, n, expected):
        assert count_ddp_dp(n) == expected

    @pytest.mark.parametrize("n", range(11))
    def test_matches_enumeration(self, n):
        assert count_ddp_dp(n) == len(oracle_ddp_words(n) if n <= 8 else words(enumerate_ddp(n)))

    def test_live_heights_bound_keeps_every_count(self):
        # both parities: an odd length takes one more step past the half row than an even
        # one, and the table shrinks toward the join alike; n = 0 and 1 join at depth 0
        for n in range(401):
            assert count_ddp_dp(n) == math.comb(n, n // 2), n

    @pytest.mark.parametrize("n", [1999, 2000])
    def test_whole_rows_at_scale(self, n):
        assert count_ddp_dp(n) == math.comb(n, n // 2)


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

    def test_every_row_to_the_cap_matches_the_closed_forms(self, walks):
        cap = enumeration.DEFAULT_ENUMERATION_CAP
        for n in range(cap + 1):
            row = totals_brute(n)
            assert (row.ddp, row.dyck, row.ups, row.downs, row.rights, row.one_ascents) == (
                central_binomial(n),
                dyck_count(n),
                u_closed(n),
                u_closed(n),
                r_closed(n),
                a_closed(n),
            ), n
        hist = one_ascent_distribution(cap).row
        assert sum(hist.values()) == central_binomial(cap)
        assert sum(t * c for t, c in hist.items()) == a_closed(cap)
        # one walk per length, and the histogram at the cap reads the cached row
        assert walks == [(n, 1) for n in range(cap + 1)]

    def test_csv_and_json_rendering(self):
        rows = [totals_brute(3), totals_brute(4)]
        assert [row.to_csv() for row in rows] == ["3,3,0,2,2,5,2", "4,6,2,7,7,10,5"]
        assert [row.to_json_dict() for row in rows] == [
            {"n": 3, "dD": 3, "dyck": 0, "U": 2, "D": 2, "R": 5, "A": 2},
            {"n": 4, "dD": 6, "dyck": 2, "U": 7, "D": 7, "R": 10, "A": 5},
        ]
        # the CSV header names the JSON keys, column by column
        assert CSV_HEADER.split(",") == list(rows[0].to_json_dict())

    def test_one_cached_walk_per_length(self, walks):
        totals_brute(16)
        assert walks == [(16, 1)]
        for m in range(17):
            totals_brute(m)
            one_ascent_distribution(m)
            k_ascent_total(m, 1)
        # the totals, the histogram and k = 1 share one row per length
        assert walks == [(16, 1)] + [(m, 1) for m in range(16)]
        k_ascent_total(16, 2)
        assert walks[16:] == [(15, 1), (16, 2)]

    def test_a_deep_verify_run_walks_once(self, walks):
        ids = ["L1-count", "L2-recursion", "L3-recursion", "L5-count", "THM1", "EQSTAR"]
        assert verify_all(ids=ids, deep=True).overall
        # each (n, k) is walked once, however many checks ask for its row
        assert len(walks) == len(set(walks))
        assert {n for n, k in walks if k == 1} == set(range(23))

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

    def test_returned_row_is_a_copy(self):
        expected = dict(one_ascent_distribution(6).row)
        one_ascent_distribution(6).row[0] = -1
        assert one_ascent_distribution(6).row == expected

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

    # a k-run takes 2k steps, so k is read as at most n // 2 + 1 and no k-long pattern is built
    def test_a_huge_k_reads_zero(self, walks):
        assert k_ascent_total(10, 10**12) == 0
        assert walks == [(10, 6)]


class TestWalk:
    # k = 4..6 reach the k + 1 cap on runs that span the split at n // 2
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_rows_against_the_word_scan(self, k):
        expected = oracle_rows(16, k)
        for n in range(17):
            assert _walk(n, k) == expected[n], n

    # no run is k = n + 1 long, so each histogram sits at t = 0
    @pytest.mark.parametrize("n", range(13))
    def test_rows_for_a_run_longer_than_every_path(self, n):
        assert _walk(n, n + 1) == oracle_rows(n, n + 1)[n]

    def test_each_path_is_counted_once(self):
        # the join adds a product of a prefix count and a suffix count per pair of keys;
        # summed over the histogram, each length must still count each of its words once
        counts = [sum(_walk(m, 1)[-1]) for m in range(19)]
        assert counts == [sum(1 for _ in _ddp_words(m)) for m in range(19)]

    def test_shortest_walks(self):
        assert _walk(0, 1) == (1, 0, 0, 0, (1,))
        assert _walk(1, 1) == (0, 0, 0, 1, (1,))
        # RR has no up-run, UD one 1-ascent
        assert _walk(2, 1) == (1, 1, 1, 2, (1, 1))
        assert _walk(2, 2) == (1, 1, 1, 2, (2, 0))

    def test_the_stack_stays_flat(self):
        # the walk reads the explicit stack of _moves and recurses nowhere, so its depth does
        # not grow with n.  A tiny walk first warms what is cold only once per process (the
        # regex cache, and abc's check of whether a list is a Mapping on the first Counter
        # over a list), so the two walks measured see the same library frames
        _walk(2, 1)

        def walk_depth(n):
            depth = deepest = 0

            def profile(frame, event, arg):
                nonlocal depth, deepest
                if event == "call":
                    depth += 1
                    deepest = max(deepest, depth)
                elif event == "return":
                    depth -= 1

            hook = sys.getprofile()
            sys.setprofile(profile)
            try:
                _walk(n, 1)
            finally:
                sys.setprofile(hook)
            return deepest

        assert walk_depth(22) == walk_depth(10)

    def test_memory(self):
        # the suffix lists grow as 2**(n/2): 0.5 MiB at n = 18 is 2 MiB at n = 22; a walk
        # that held its paths would need several MiB
        tracemalloc.start()
        try:
            _walk(18, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19
