"""The three invertible correspondences, checked exhaustively at small lengths."""

import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpaths import (
    PathWord,
    SlotKind,
    SlotRef,
    ascent_insert,
    ascent_remove,
    catalan,
    ddp_to_plain,
    is_dispersed_dyck,
    one_ascent_positions,
    parse_path,
    plain_to_ddp,
    r_pair_decomposition,
    totals_brute,
    updown_forward,
    updown_inverse,
)
from ddpaths.bijections import (
    START,
    BijectionRecord,
    _cut_ascent,
    _parse_slot,
    _paste_ascent,
    _reflect,
    _slot_at,
    _slot_text,
    _trade_right,
    _trade_up,
    _unreflect,
)
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

    def test_pathword_is_not_scanned_again(self, fn, word, args, outside, message, scans):
        path = parse_path(word)
        fn(path, *args)
        assert scans.count(word) == 1  # by parse_path alone
        fn(word, *args)
        assert scans.count(word) == 2  # a raw word is scanned once


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


class TestReflectionKernels:
    """The raw-word kernels behind plain_to_ddp / ddp_to_plain."""

    @pytest.mark.parametrize("n", range(13))
    def test_public_maps_wrap_the_kernels(self, n):
        for w in _plain_words(n):
            assert plain_to_ddp(w) == PathWord(_reflect(w))
        for w in _ddp_words(n):
            assert ddp_to_plain(w) == PathWord(_unreflect(w))


class TestUpdownKernels:
    """The raw-word kernels behind updown_forward / updown_inverse."""

    @pytest.mark.parametrize("n", range(13))
    def test_public_maps_wrap_the_kernels(self, n):
        for w in _ddp_words(n):
            if n % 2 and w.endswith("D"):
                assert updown_forward(w) == PathWord(_trade_up(w))
            if not n % 2 and "R" in w:
                assert updown_inverse(w) == PathWord(_trade_right(w))


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
        # one past sys.maxsize, where re would raise OverflowError instead
        with pytest.raises(ValueError, match=f"^position {10**20} is not the up step"):
            ascent_remove(parse_path("UD"), 10**20)
        with pytest.raises(ValueError, match="not a dispersed Dyck path"):
            ascent_remove(parse_path("UDU"), 2)

    # True == 1 and False == 0, so a bool would pass for a position as it would for a slot index
    @pytest.mark.parametrize("word,pos", [("RUD", True), ("UD", False)])
    def test_remove_rejects_a_bool_position(self, word, pos):
        with pytest.raises(ValueError, match=f"^position {pos} is not the up step of a 1-ascent"):
            ascent_remove(word, pos)

    def test_insert_rejects_bad_slots(self):
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("UD"), SlotRef(SlotKind.DOWN_STEP, 0))  # an up step
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("R"), SlotRef(SlotKind.DOWN_STEP, 0))  # a right step
        with pytest.raises(ValueError, match="'R' step of 'UDR'"):
            ascent_insert(parse_path("UDR"), SlotRef(SlotKind.RIGHT_STEP, 1))  # a down step
        with pytest.raises(ValueError, match="does not reference"):
            ascent_insert(parse_path("UD"), SlotRef(SlotKind.RIGHT_STEP, 5))
        message = "^slot down:0 does not reference a 'D' step of 'UD'$"
        with pytest.raises(ValueError, match=message):
            ascent_insert("UD", SlotRef(SlotKind.DOWN_STEP, 0))

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


def _fresh_slots(word):
    """Each slot of ``word`` built from the constructor, with its insertion offset."""
    yield 0, SlotRef(SlotKind.START)
    for i, ch in enumerate(word):
        if ch == "D":
            yield i + 1, SlotRef(SlotKind.DOWN_STEP, i)
        elif ch == "R":
            yield i + 1, SlotRef(SlotKind.RIGHT_STEP, i)


class TestAscentKernels:
    """The raw-word kernels behind ascent_remove / ascent_insert, which trade in offsets."""

    @pytest.mark.parametrize("n", range(13))
    def test_public_maps_wrap_the_kernels(self, n):
        for w in _ddp_words(n):
            for pos in one_ascent_positions(w):
                shortened, at = _cut_ascent(w, pos)
                assert (shortened, at) == (w[:pos] + w[pos + 2 :], pos)
                slot = _slot_at(shortened, at)
                assert ascent_remove(w, pos) == (PathWord(shortened), slot)
                fresh = SlotRef(slot.kind, slot.index)
                assert slot == fresh
                assert hash(slot) == hash(fresh)
            for at, slot in _fresh_slots(w):
                assert _slot_at(w, at) == slot
                assert ascent_insert(w, slot) == PathWord(_paste_ascent(w, at))

    @pytest.mark.parametrize("word,at", [("UD", 1), ("UD", 3), ("R", -1)])
    def test_an_offset_that_names_no_slot_raises(self, word, at):
        with pytest.raises((LookupError, ValueError)):
            _slot_at(word, at)

    # True == 1, so a bool index would pass for step 1 (ascent_insert("UD", it) -> UDUD)
    @pytest.mark.parametrize(
        "kind,index",
        [
            (SlotKind.DOWN_STEP, True),
            (SlotKind.RIGHT_STEP, False),
            (SlotKind.START, False),
            (SlotKind.DOWN_STEP, 1.0),
            (SlotKind.DOWN_STEP, "1"),
        ],
    )
    def test_slotref_rejects_non_int_index(self, kind, index):
        with pytest.raises(ValueError, match=f"a slot index must be an int, got {index!r}"):
            SlotRef(kind, index)

    # a kind's value is not the kind: SlotRef("DownStep", 1) made ascent_insert fail later with
    # a bare KeyError, and "Start" or None failed on a missing attribute
    @pytest.mark.parametrize("kind,index", [("DownStep", 1), ("Start", None), (None, None)])
    def test_slotref_refuses_a_kind_that_is_not_a_slot_kind(self, kind, index):
        message = f"^a slot kind must be a SlotKind, not {type(kind).__name__}$"
        with pytest.raises(TypeError, match=message):
            SlotRef(kind, index)


@st.composite
def _long_ddp_words(draw):
    """A DDP word of up to 300 steps: free moves, then down steps back to the axis."""
    word, height = [], 0
    for rise in draw(st.lists(st.booleans(), max_size=150)):
        if rise:
            word.append("U")
            height += 1
        elif height:
            word.append("D")
            height -= 1
        else:
            word.append("R")
    return "".join(word) + "D" * height


class TestLongWords:
    """The maps beyond the exhaustive range, on random words of up to 300 steps."""

    @given(_long_ddp_words())
    def test_reflection_round_trips(self, w):
        plain = _unreflect(w)
        assert ddp_to_plain(w).word == plain
        assert _reflect(plain) == w
        assert plain_to_ddp(plain).word == w

    @given(_long_ddp_words())
    def test_every_one_ascent_round_trips(self, w):
        assert is_dispersed_dyck(w)
        for pos in one_ascent_positions(w):
            shortened, slot = ascent_remove(w, pos)
            assert ascent_insert(shortened, slot).word == w
            assert _paste_ascent(*_cut_ascent(w, pos)) == w
            assert _parse_slot(_slot_text(slot)) == slot


class TestSlotSyntax:
    """The ``--slot`` syntax: parsed by ``_parse_slot`` and rendered back by ``_slot_text``."""

    @pytest.mark.parametrize("text", ["start", "down:0", "right:7"])
    def test_parse_then_render_round_trips(self, text):
        assert _slot_text(_parse_slot(text)) == text

    def test_kind_names_ignore_case(self):
        assert _parse_slot("Down:1") == SlotRef(SlotKind.DOWN_STEP, 1)

    @pytest.mark.parametrize("kind", list(SlotKind), ids=lambda k: k.name)
    def test_every_kind_renders(self, kind):
        slot = START if kind is SlotKind.START else SlotRef(kind, 3)
        assert _parse_slot(_slot_text(slot)) == slot


class TestPairDecomposition:
    def test_examples(self):
        assert r_pair_decomposition(2) == 2
        assert r_pair_decomposition(4) == 10

    def test_matches_brute_force(self):
        # n = 24 walks 2.7 million paths; the rows stay cached, so the recursion test
        # below walks only its odd lengths
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
