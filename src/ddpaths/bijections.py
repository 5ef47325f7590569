"""Invertible correspondences between the path families.

Three constructions, each with its exact inverse:

* ``plain_to_ddp`` / ``ddp_to_plain`` — the reflection map.  Every
  below-axis excursion of a plain path is turned into a pair of right
  steps bracketing its flipped interior (an unclosed final excursion
  yields a single right step).  This matches plain paths of length ``n``
  one-to-one with DDPs of length ``n``.
* ``updown_forward`` / ``updown_inverse`` — trades the last up step off
  the axis for a right step and drops the trailing down step, matching
  odd-length DDPs that end in a down step with even-length DDPs that
  contain a right step.
* ``ascent_remove`` / ``ascent_insert`` — deletes a 1-ascent together
  with the down step that must follow it, remembering what preceded it
  (path start, a down step, or a right step).  This pairs (path,
  1-ascent) choices of length ``n + 2`` with (path, slot) choices of
  length ``n``.

``r_pair_decomposition`` is not a map but a counting consequence: it
totals right steps of even length by summing, over all admissible
position pairs, the product of the free-segment counts.

Every map takes a :class:`PathWord` or a raw word, as the functions of
``paths`` do.  The public maps validate their domain eagerly and only ever
emit valid paths, so downstream checks can assume class validity.  The
1-ascent pairing is done by two private kernels on raw words,
``_cut_ascent`` and ``_paste_ascent``, which trust their input: the public
maps guard them, and the verify harness feeds them enumerated words only.
The kernels trade in insertion offsets: 0 for the start, ``i + 1`` after the
down or right step at ``i``.  A :class:`SlotRef` is built only where a public
map hands one out or takes one in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .formulas import central_binomial, dyck_count
from .paths import _ONE_ASCENT, PathWord, _path_of, is_dispersed_dyck, is_plain_path

__all__ = [
    "SlotKind",
    "SlotRef",
    "BijectionRecord",
    "plain_to_ddp",
    "ddp_to_plain",
    "updown_forward",
    "updown_inverse",
    "ascent_remove",
    "ascent_insert",
    "r_pair_decomposition",
]

_FLIP = {"U": "D", "D": "U"}


class SlotKind(Enum):
    """What precedes an insertion point: the path start, a down step, or a right step."""

    START = "Start"
    DOWN_STEP = "DownStep"
    RIGHT_STEP = "RightStep"

    # members are singletons, so identity hashing agrees with equality; callers keep
    # SlotRefs in sets and dicts, and each such hash would otherwise call the
    # Python-level Enum.__hash__
    __hash__ = object.__hash__


# The CLI's --slot syntax, stated only here: a kind's name, then ":IDX" for the 0-based
# index of the step the slot follows; that step's letter is the kind's entry in _SLOT_LETTERS.
_SLOT_NAMES = {SlotKind.START: "start", SlotKind.DOWN_STEP: "down", SlotKind.RIGHT_STEP: "right"}
_SLOT_LETTERS = {SlotKind.DOWN_STEP: "D", SlotKind.RIGHT_STEP: "R"}
_SLOT_SYNTAX = "{}, {}:IDX or {}:IDX".format(*_SLOT_NAMES.values())
_KIND_NAMED = {name: kind for kind, name in _SLOT_NAMES.items()}


def _is_index(value: object) -> bool:
    # a bool is an int, but True must not pass for step 1 nor False for step 0
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class SlotRef:
    """An insertion point in a path; ``index`` is the 0-based step position, None for Start."""

    kind: SlotKind
    index: int | None = None

    def __post_init__(self) -> None:
        index = self.index
        if index is not None and not _is_index(index):
            raise ValueError(f"a slot index must be an int, got {index!r}")
        if self.kind is SlotKind.START:
            if index is not None:
                raise ValueError("a Start slot carries no step index")
        elif index is None or index < 0:
            raise ValueError(f"a {self.kind.value} slot needs a step index >= 0")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "index": self.index}


START = SlotRef(SlotKind.START)


def _parse_slot(text: str) -> SlotRef:
    """Parse a slot written in the ``--slot`` syntax into a :class:`SlotRef`."""
    name, sep, idx = text.partition(":")
    name = name.lower()
    kind = _KIND_NAMED.get(name)
    if kind is SlotKind.START:
        if sep:
            raise ValueError(f"slot {name!r} carries no index")
        return START
    if kind is None:
        raise ValueError(f"unknown slot kind {text!r}; expected {_SLOT_SYNTAX}")
    if not idx.isdecimal():
        raise ValueError(f"slot {text!r} needs a non-negative step index, e.g. {name}:0")
    return SlotRef(kind, int(idx))


def _slot_text(slot: SlotRef) -> str:
    """``slot`` in the ``--slot`` syntax, as :func:`_parse_slot` reads it back."""
    name = _SLOT_NAMES[slot.kind]
    return name if slot.index is None else f"{name}:{slot.index}"


@dataclass(frozen=True)
class BijectionRecord:
    """One application of a map: input word, output word, and the slot if one is involved."""

    input: PathWord
    output: PathWord
    slot: SlotRef | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "input": self.input.word,
                "output": self.output.word,
                "slot": self.slot.to_json_dict() if self.slot else None,
            }
        )


def _require_ddp(path: PathWord | str) -> str:
    path = _path_of(path)
    if not is_dispersed_dyck(path):
        raise ValueError(f"{path.word!r} is not a dispersed Dyck path")
    return path.word


def plain_to_ddp(path: PathWord | str) -> PathWord:
    """Reflect a plain path into a dispersed Dyck path of the same length.

    One left-to-right pass with a running height decides each step on its
    own: a step between heights 0 and -1 (in either direction) becomes a
    right step, a step strictly below the axis is flipped (U <-> D), and
    every other step is kept.  So each below-axis excursion turns into a
    pair of right steps bracketing its flipped interior, and an excursion
    that never returns contributes a single right step.
    """
    path = _path_of(path)
    if not is_plain_path(path):
        raise ValueError(f"{path.word!r} is not a plain path")
    out = []
    height = 0
    for step in path.word:
        # low is the lower of the step's two endpoint heights
        if step == "U":
            low = height
            height += 1
        else:
            height -= 1
            low = height
        if low == -1:
            out.append("R")
        elif low < -1:
            out.append(_FLIP[step])
        else:
            out.append(step)
    return PathWord("".join(out))


def ddp_to_plain(path: PathWord | str) -> PathWord:
    """Exact inverse of :func:`plain_to_ddp`.

    One pass with a parity flag that toggles at each right step: numbering
    right steps from 0, an even-numbered one becomes a down step and an
    odd-numbered one an up step, and the steps between the two (or after a
    final unpaired even right step) are flipped back.
    """
    out = []
    inside = False  # past an even-numbered right step whose partner is still ahead
    for step in _require_ddp(path):
        if step == "R":
            out.append("U" if inside else "D")
            inside = not inside
        elif inside:
            out.append(_FLIP[step])
        else:
            out.append(step)
    return PathWord("".join(out))


def updown_forward(path: PathWord | str) -> PathWord:
    """Map an odd-length DDP ending in a down step to an even-length DDP with a right step.

    The greatest-position up step leaving height 0 becomes a right step
    and the trailing down step is deleted; everything after the replaced
    step ran strictly above the axis, so the result is a valid DDP with
    one up step fewer.
    """
    word = _require_ddp(path)
    n = len(word)
    if n % 2 == 0 or not word.endswith("D"):
        raise ValueError(
            f"{word!r} is not an odd-length dispersed Dyck path ending in a down step"
        )
    height = 0
    last_up_from_axis = -1
    for i, ch in enumerate(word):
        if ch == "U":
            if height == 0:
                last_up_from_axis = i
            height += 1
        elif ch == "D":
            height -= 1
    # a DDP ending in a down step left the axis at least once
    return PathWord(word[:last_up_from_axis] + "R" + word[last_up_from_axis + 1 : n - 1])


def updown_inverse(path: PathWord | str) -> PathWord:
    """Exact inverse of :func:`updown_forward`.

    The greatest-position right step becomes an up step and a trailing
    down step is appended.
    """
    word = _require_ddp(path)
    if len(word) % 2:
        raise ValueError(f"{word!r} has odd length; expected an even-length path")
    last_right = word.rfind("R")
    if last_right < 0:
        raise ValueError(f"{word!r} has no right step to trade for an up step")
    return PathWord(word[:last_right] + "U" + word[last_right + 1 :] + "D")


_KIND_AFTER = {letter: kind for kind, letter in _SLOT_LETTERS.items()}


def _slot_at(word: str, at: int) -> SlotRef:
    """The slot of ``word`` at insertion offset ``at``; raises if ``at`` names no slot."""
    return START if at == 0 else SlotRef(_KIND_AFTER[word[at - 1]], at - 1)


def _cut_ascent(word: str, pos: int) -> tuple[str, int]:
    """Kernel of :func:`ascent_remove`; trusts ``word`` to be a DDP with a 1-ascent at ``pos``."""
    # word[pos + 1] is "D": a DDP never ends right after a U, and an R sits only on the
    # axis; the step before a 1-ascent, if any, is a D or an R, so offset pos is a slot
    return word[:pos] + word[pos + 2 :], pos


def _paste_ascent(word: str, at: int) -> str:
    """Kernel of :func:`ascent_insert`; trusts that offset ``at`` is a slot of ``word``."""
    return word[:at] + "UD" + word[at:]


def ascent_remove(path: PathWord | str, pos: int) -> tuple[PathWord, SlotRef]:
    """Delete the 1-ascent at ``pos`` and its following down step.

    Returns the shortened path plus the slot describing what precedes the
    deletion point there: ``Start`` when ``pos`` is 0, otherwise the down
    or right step at ``pos - 1`` (same index in the shortened path).
    """
    word = _require_ddp(path)
    # re clamps a negative pos to 0, so the guard keeps pos -1 from matching at 0
    if not (_is_index(pos) and 0 <= pos and _ONE_ASCENT.match(word, pos)):
        raise ValueError(f"position {pos} is not the up step of a 1-ascent in {word!r}")
    shortened, at = _cut_ascent(word, pos)
    return PathWord(shortened), _slot_at(shortened, at)


def ascent_insert(path: PathWord | str, slot: SlotRef) -> PathWord:
    """Insert an up-down pair right after ``slot``; exact inverse of :func:`ascent_remove`.

    The inserted up step is a 1-ascent of the result because the step in
    front of it is the path start, a down step, or a right step.
    """
    word = _require_ddp(path)
    idx = slot.index
    if slot.kind is not SlotKind.START:
        expected = _SLOT_LETTERS[slot.kind]
        if idx is None or not 0 <= idx < len(word) or word[idx] != expected:
            article = "an" if expected == "R" else "a"
            raise ValueError(
                f"slot {_slot_text(slot)} does not reference {article} "
                f"{expected!r} step of {word!r}"
            )
    return PathWord(_paste_ascent(word, 0 if idx is None else idx + 1))


def r_pair_decomposition(n: int) -> int:
    """Right-step total of even length ``n`` via the consecutive-pair decomposition.

    Right steps come in consecutive pairs at positions ``(x, x')`` with
    ``x`` even and ``x'`` odd; the segments before, between and after the
    pair are a free DDP, a free Dyck path and a free DDP.  Summing the
    product of those counts over all admissible pairs and doubling counts
    every right step of every path of length ``n`` exactly once.
    """
    if n < 2 or n % 2:
        raise ValueError(f"pair decomposition needs an even length >= 2, got {n}")
    total = 0
    for x in range(0, n, 2):
        for xp in range(x + 1, n, 2):
            total += (
                central_binomial(x)
                * dyck_count(xp - x - 1)
                * central_binomial(n - xp - 1)
            )
    return 2 * total
