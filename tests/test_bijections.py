"""The three invertible correspondences, checked exhaustively at small lengths."""

import math
from pathlib import Path

import pytest

from ddpaths import (
    PathWord,
    SlotKind,
    SlotRef,
    ascent_insert,
    ascent_remove,
    catalan,
    ddp_to_plain,
    one_ascent_positions,
    parse_path,
    plain_to_ddp,
    r_pair_decomposition,
    totals_brute,
    updown_forward,
    updown_inverse,
)
from ddpaths.bijections import BijectionRecord
from ddpaths.enumeration import _ddp_words, _plain_words

GOLDEN = Path(__file__).parent / "golden"


def apply(fn, word, *args):
    return fn(parse_path(word), *args).word


# each map with an argument in its domain and a word of the right alphabet outside it
MAPS = [
    (plain_to_ddp, "DDU", (), "RUD", "is not a plain path"),
    (ddp_to_plain, "RUD", (), "DU", "is not a dispersed Dyck path"),
    (updown_forward, "RUD", (), "DUD", "is not a dispersed Dyck path"),
    (updown_inverse, "RR", (), "DU", "is not a dispersed Dyck path"),
    (ascent_remove, "RUD", (1,), "DUD", "is not a dispersed Dyck path"),
    (ascent_insert, "R", (SlotRef(SlotKind.RIGHT_STEP, 0),), "DU", "is not a dispersed Dyck path"),
]
MAP_IDS = [fn.__name__ for fn, *_ in MAPS]


@pytest.mark.parametrize("fn,word,args,outside,message", MAPS, ids=MAP_IDS)
class TestRawWords:
    """Every map takes a raw word as the functions of ``paths`` do."""

    def test_str_matches_pathword(self, fn, word, args, outside, message):
        assert fn(word, *args) == fn(parse_path(word), *args)

    def test_bad_character(self, fn, word, args, outside, message):
        with pytest.raises(ValueError, match="invalid step character 'X' at position 1"):
            fn(word[0] + "X" + word[1:], *args)

    def test_outside_the_domain(self, fn, word, args, outside, message):
        with pytest.raises(ValueError, match=f"^'{outside}' {message}$"):
            fn(outside, *args)

    def test_pathword_is_not_scanned_again(self, fn, word, args, outside, message, monkeypatch):
        path = parse_path(word)
        scanned = []
        validate = PathWord.__post_init__

        def recording(self):
            scanned.append(self.word)
            validate(self)

        monkeypatch.setattr(PathWord, "__post_init__", recording)
        fn(path, *args)
        assert word not in scanned


class TestReflection:
    @pytest.mark.parametrize(
        "plain,ddp",
        [
            ("DU", "RR"),
            ("DDU", "RUD"),
            ("UDD", "UDR"),
            ("", ""),
            ("UUDD", "UUDD"),
            ("D", "R"),
            ("DUD", "RRR"),
        ],
    )
    def test_examples_both_ways(self, plain, ddp):
        assert apply(plain_to_ddp, plain) == ddp
        assert apply(ddp_to_plain, ddp) == plain

    def test_right_free_paths_are_fixed_points(self):
        assert apply(ddp_to_plain, "UUDD") == "UUDD"
        assert apply(plain_to_ddp, "UDUD") == "UDUD"

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="not a plain path"):
            plain_to_ddp(parse_path("RUD"))
        with pytest.raises(ValueError, match="not a plain path"):
            plain_to_ddp(parse_path("UU"))
        with pytest.raises(ValueError, match="not a dispersed Dyck path"):
            ddp_to_plain(parse_path("DU"))

    @pytest.mark.parametrize("n", range(13))
    def test_bijective_on_full_domain(self, n):
        ddps = set(_ddp_words(n))
        images = set()
        for w in _plain_words(n):
            image = apply(plain_to_ddp, w)
            assert apply(ddp_to_plain, image) == w
            images.add(image)
        assert images == ddps
        for w in ddps:
            assert apply(plain_to_ddp, apply(ddp_to_plain, w)) == w

    @pytest.mark.parametrize("n", [9, 10])
    def test_golden_map(self, n):
        # pins the reflection map itself, not just some bijection between the families
        lines = (GOLDEN / f"reflection_{n}.txt").read_text().splitlines()
        pairs = [line.split(" ") for line in lines]
        assert [plain for plain, _ in pairs] == list(_plain_words(n))
        for plain, ddp in pairs:
            assert apply(plain_to_ddp, plain) == ddp
            assert apply(ddp_to_plain, ddp) == plain


class TestUpdown:
    @pytest.mark.parametrize(
        "odd,even",
        [
            ("RRRUD", "RRRR"),
            ("UDRUD", "UDRR"),
            ("RUUDD", "RRUD"),
            ("UUDDR", None),  # ends in R: outside the forward domain
        ],
    )
    def test_examples(self, odd, even):
        if even is None:
            with pytest.raises(ValueError, match="ending in a down step"):
                updown_forward(parse_path(odd))
            return
        assert apply(updown_forward, odd) == even
        assert apply(updown_inverse, even) == odd

    def test_inverse_domain_errors(self):
        with pytest.raises(ValueError, match="no right step"):
            updown_inverse(parse_path("UUDD"))
        with pytest.raises(ValueError, match="odd length"):
            updown_inverse(parse_path("RUD"))
        with pytest.raises(ValueError, match="not a dispersed Dyck path"):
            updown_forward(parse_path("DUD"))

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_bijective_on_full_domain(self, n):
        target = {w for w in _ddp_words(n - 1) if "R" in w}
        images = set()
        for w in _ddp_words(n):
            if not w.endswith("D"):
                continue
            image = apply(updown_forward, w)
            assert apply(updown_inverse, image) == w
            assert image.count("U") == w.count("D") - 1
            images.add(image)
        assert images == target


class TestAscentPairing:
    @pytest.mark.parametrize(
        "word,pos,short,slot",
        [
            ("RUD", 1, "R", SlotRef(SlotKind.RIGHT_STEP, 0)),
            ("UDR", 0, "R", SlotRef(SlotKind.START)),
            ("UDUD", 2, "UD", SlotRef(SlotKind.DOWN_STEP, 1)),
            ("UD", 0, "", SlotRef(SlotKind.START)),
        ],
    )
    def test_remove_examples(self, word, pos, short, slot):
        shortened, got_slot = ascent_remove(parse_path(word), pos)
        assert shortened.word == short
        assert got_slot == slot
        assert ascent_insert(shortened, got_slot).word == word

    @pytest.mark.parametrize(
        "word,slot,expected",
        [
            ("R", SlotRef(SlotKind.RIGHT_STEP, 0), "RUD"),
            ("", SlotRef(SlotKind.START), "UD"),
            ("UD", SlotRef(SlotKind.DOWN_STEP, 1), "UDUD"),
        ],
    )
    def test_insert_examples(self, word, slot, expected):
        assert apply(ascent_insert, word, slot) == expected

    def test_remove_rejects_non_one_ascents(self):
        with pytest.raises(ValueError, match="not the up step of a 1-ascent"):
            ascent_remove(parse_path("UUDD"), 0)  # run of length 2
        with pytest.raises(ValueError, match="not the up step of a 1-ascent"):
            ascent_remove(parse_path("UUDD"), 1)
        with pytest.raises(ValueError, match="not the up step of a 1-ascent"):
            ascent_remove(parse_path("RUD"), 0)  # a right step
        with pytest.raises(ValueError, match="not the up step of a 1-ascent"):
            ascent_remove(parse_path("UD"), -1)  # negative: no wrap-around, no clamp to 0
        with pytest.raises(ValueError, match="not the up step of a 1-ascent"):
            ascent_remove(parse_path("UD"), 2)  # past the end
        with pytest.raises(ValueError, match="not a dispersed Dyck path"):
            ascent_remove(parse_path("UDU"), 2)

    def test_insert_rejects_bad_slots(self):
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("UD"), SlotRef(SlotKind.DOWN_STEP, 0))  # an up step
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("R"), SlotRef(SlotKind.DOWN_STEP, 0))
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("UD"), SlotRef(SlotKind.RIGHT_STEP, 5))

    def test_slotref_validation(self):
        with pytest.raises(ValueError, match="no step index"):
            SlotRef(SlotKind.START, 0)
        with pytest.raises(ValueError, match="needs a step index"):
            SlotRef(SlotKind.DOWN_STEP)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_bijective_on_full_domain(self, m):
        n = m - 2
        seen = set()
        for w in _ddp_words(m):
            for pos in one_ascent_positions(w):
                shortened, slot = ascent_remove(parse_path(w), pos)
                key = (shortened.word, slot)
                assert key not in seen, f"duplicate image {key} from {w}@{pos}"
                seen.add(key)
                assert ascent_insert(shortened, slot).word == w
        expected = set()
        for w in _ddp_words(n):
            expected.add((w, SlotRef(SlotKind.START)))
            for i, ch in enumerate(w):
                if ch == "D":
                    expected.add((w, SlotRef(SlotKind.DOWN_STEP, i)))
                elif ch == "R":
                    expected.add((w, SlotRef(SlotKind.RIGHT_STEP, i)))
        assert seen == expected

    @pytest.mark.parametrize("m", range(2, 13))
    def test_count_consequence(self, m):
        row = totals_brute(m - 2)
        assert totals_brute(m).one_ascents == row.ddp + row.downs + row.rights


class TestPairDecomposition:
    def test_examples(self):
        assert r_pair_decomposition(2) == 2
        assert r_pair_decomposition(4) == 10

    def test_matches_brute_force(self):
        # n = 24 folds 2.7 million paths; rows are cached, so the recursion test
        # below refolds only the odd lengths
        for n in range(2, 25, 2):
            assert r_pair_decomposition(n) == totals_brute(n).rights

    def test_even_recursion_on_brute_values(self):
        for n in range(2, 25, 2):
            assert totals_brute(n).rights == 2 * totals_brute(n - 1).rights

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError, match="even length"):
            r_pair_decomposition(5)
        with pytest.raises(ValueError, match="even length"):
            r_pair_decomposition(0)


class TestCatalanArgument:
    def test_identities_exact(self):
        for k in range(1, 201):
            assert k * catalan(k) == math.comb(2 * k, k - 1)
            assert math.comb(2 * k + 1, k) - math.comb(2 * k, k) == math.comb(2 * k, k - 1)


def test_bijection_record_json():
    record = BijectionRecord(
        input=parse_path("RUD"),
        output=parse_path("R"),
        slot=SlotRef(SlotKind.RIGHT_STEP, 0),
    )
    assert record.to_json() == (
        '{"input": "RUD", "output": "R", "slot": {"kind": "RightStep", "index": 0}}'
    )
    bare = BijectionRecord(input=parse_path("DDU"), output=parse_path("RUD"))
    assert bare.to_json() == '{"input": "DDU", "output": "RUD", "slot": null}'
