"""Acceptance suite: the headline counting results reproduced at desk scale.

Each criterion prints one ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``) and then asserts.  The brute-force rows are cached by length,
so the heavy enumeration work (every dispersed Dyck path up to length 22,
about 1.4 million words) happens once per length for the whole suite.
"""

import json
import math
import time
from pathlib import Path

import ddpaths.verify
from ddpaths import (
    SlotKind,
    SlotRef,
    a_closed,
    ascent_insert,
    ascent_remove,
    asymptotic_ratio,
    catalan,
    central_binomial,
    count_ddp_dp,
    ddp_to_plain,
    one_ascent_positions,
    parse_path,
    plain_to_ddp,
    r_closed,
    r_convolution,
    r_pair_decomposition,
    totals_brute,
    u_closed,
    updown_forward,
    updown_inverse,
    verify_lemma,
)
from ddpaths.cli import main
from ddpaths.enumeration import _ddp_words, _plain_words

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {name}")
    assert not failures, f"criterion {num} ({name}); first failure: {failures[0]}"


def test_criterion_01_one_ascent_closed_form_matches_brute_force():
    failures = []
    for m in range(2, 23):
        closed = a_closed(m)
        brute = totals_brute(m).one_ascents
        if closed != brute:
            failures.append({"m": m, "closed": closed, "brute": brute})
    spot = tuple(a_closed(m) for m in range(2, 7))
    if spot != (1, 2, 5, 10, 23):
        failures.append({"spot_values": spot})
    _report(1, "1-ascent total closed form, exact for 2 <= m <= 22", failures)


def test_criterion_02_path_count_and_reflection_bijection():
    failures = []
    for n in range(23):
        enumerated = totals_brute(n).ddp
        dp = count_ddp_dp(n)
        closed = central_binomial(n)
        if not enumerated == dp == closed:
            failures.append({"n": n, "enumerated": enumerated, "dp": dp, "closed": closed})
    for n in range(17):
        ddps = set(_ddp_words(n))
        images = set()
        for w in _plain_words(n):
            image = plain_to_ddp(parse_path(w))
            if ddp_to_plain(image).word != w:
                failures.append({"n": n, "plain": w, "roundtrip": ddp_to_plain(image).word})
                break
            images.add(image.word)
        if images != ddps:
            failures.append({"n": n, "missing": sorted(ddps - images)[:3]})
    _report(2, "path counts to n = 22 and reflection bijectivity to n = 16", failures)


def test_criterion_03_right_step_recursion_and_pair_decomposition():
    failures = []
    for k in range(1, 11):
        brute_even = totals_brute(2 * k).rights
        brute_odd = totals_brute(2 * k - 1).rights
        if brute_even != 2 * brute_odd:
            failures.append({"k": k, "R(2k)": brute_even, "2*R(2k-1)": 2 * brute_odd})
        decomposed = r_pair_decomposition(2 * k)
        if decomposed != brute_even:
            failures.append({"k": k, "decomposition": decomposed, "brute": brute_even})
    _report(3, "right-step doubling and pair decomposition for k <= 10", failures)


def test_criterion_04_up_step_recursion_updown_bijection_catalan():
    failures = []
    for k in range(1, 11):
        brute_odd = totals_brute(2 * k + 1).ups
        brute_even = totals_brute(2 * k).ups
        if brute_odd != 2 * brute_even:
            failures.append({"k": k, "U(2k+1)": brute_odd, "2*U(2k)": 2 * brute_even})
    for n in range(1, 16, 2):
        target = {w for w in _ddp_words(n - 1) if "R" in w}
        images = set()
        for w in _ddp_words(n):
            if not w.endswith("D"):
                continue
            image = updown_forward(parse_path(w))
            if updown_inverse(image).word != w:
                failures.append({"n": n, "path": w, "roundtrip": updown_inverse(image).word})
                break
            images.add(image.word)
        if images != target:
            failures.append({"n": n, "image_size": len(images), "target_size": len(target)})
    for k in range(1, 201):
        if k * catalan(k) != math.comb(2 * k, k - 1):
            failures.append({"k": k, "identity": "k*catalan"})
        if math.comb(2 * k + 1, k) - math.comb(2 * k, k) != math.comb(2 * k, k - 1):
            failures.append({"k": k, "identity": "binomial difference"})
    _report(4, "up-step doubling, up/down bijection to n = 15, Catalan identities", failures)


def test_criterion_05_right_step_closed_form_and_step_total_identity():
    failures = []
    for n in range(23):
        row = totals_brute(n)
        if r_closed(n) != row.rights:
            failures.append({"n": n, "closed": r_closed(n), "brute": row.rights})
        if n * row.ddp != row.rights + 2 * row.ups:
            failures.append({"n": n, "n*dD": n * row.ddp, "R+2U": row.rights + 2 * row.ups})
    for k in range(1, 201):
        if r_closed(2 * k) != 2 * r_closed(2 * k - 1):
            failures.append({"k": k, "recursion": "right"})
        if u_closed(2 * k + 1) != 2 * u_closed(2 * k):
            failures.append({"k": k, "recursion": "up"})
    _report(5, "right-step closed form to n = 22, recursions to n = 400", failures)


def test_criterion_06_ascent_slot_bijection_and_closed_consistency():
    failures = []
    for n in range(17):
        m = n + 2
        seen = set()
        ok = True
        for w in _ddp_words(m):
            for pos in one_ascent_positions(w):
                shortened, slot = ascent_remove(parse_path(w), pos)
                key = (shortened.word, slot)
                if key in seen or ascent_insert(shortened, slot).word != w:
                    failures.append({"m": m, "path": w, "pos": pos})
                    ok = False
                    break
                seen.add(key)
            if not ok:
                break
        expected = set()
        for w in _ddp_words(n):
            expected.add((w, SlotRef(SlotKind.START)))
            for i, ch in enumerate(w):
                if ch == "D":
                    expected.add((w, SlotRef(SlotKind.DOWN_STEP, i)))
                elif ch == "R":
                    expected.add((w, SlotRef(SlotKind.RIGHT_STEP, i)))
        if ok and seen != expected:
            failures.append({"n": n, "images": len(seen), "slots": len(expected)})
    for n in range(401):
        if a_closed(n + 2) != central_binomial(n) + u_closed(n) + r_closed(n):
            failures.append({"n": n, "identity": "a_closed decomposition"})
    _report(6, "ascent/slot bijection to n = 16 and closed-form count to n = 400", failures)


def test_criterion_07_convolution_identity():
    failures = []
    started = time.monotonic()
    for n in range(301):
        if r_convolution(n) != r_closed(n):
            failures.append({"n": n, "convolution": r_convolution(n), "closed": r_closed(n)})
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append({"elapsed_seconds": elapsed, "budget": "sub-second"})
    _report(7, "convolution equals the right-step closed form to n = 300, sub-second", failures)


def test_criterion_08_asymptotic_agreement():
    failures = []
    dev_1000 = abs(asymptotic_ratio(1000) - 1.0)
    dev_10000 = abs(asymptotic_ratio(10000) - 1.0)
    if dev_1000 > 0.01:
        failures.append({"m": 1000, "deviation": dev_1000, "tolerance": 0.01})
    if not dev_10000 < dev_1000:
        failures.append({"deviation_1e3": dev_1000, "deviation_1e4": dev_10000})
    _report(8, "asymptotic within 1% at m = 1000 and tightening at m = 10000", failures)


def test_criterion_09_harness_integrity(capsys, monkeypatch):
    failures = []
    started = time.monotonic()
    code = main(["verify", "all"])
    elapsed = time.monotonic() - started
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    if code != 0 or payload["overall"] is not True:
        failures.append({"exit_code": code, "overall": payload["overall"]})
    if elapsed >= 300.0:
        failures.append({"elapsed_seconds": elapsed, "budget": 300})
    # a planted off-by-one must surface as a concrete counterexample
    monkeypatch.setattr(
        ddpaths.verify, "a_closed", lambda m: a_closed(m) + (1 if m == 10 else 0)
    )
    broken = verify_lemma("THM1", 12)
    monkeypatch.undo()
    if broken.passed or broken.counterexample != {
        "m": 10,
        "closed": a_closed(10) + 1,
        "brute": a_closed(10),
    }:
        failures.append({"injected_fault": broken.counterexample})
    _report(9, "verify all passes quickly; injected faults yield counterexamples", failures)


def test_criterion_10_cli_golden_outputs(capsys):
    failures = []

    def run(*argv):
        code = main(list(argv))
        out, _ = capsys.readouterr()
        return code, out

    for n in range(5):
        code, out = run("enumerate", str(n))
        expected = (GOLDEN / f"enum_ddp_{n}.txt").read_text()
        if code != 0 or out != expected:
            failures.append({"command": f"enumerate {n}", "got": out, "expected": expected})
    for which, golden in [
        ("one-ascents", "seq_one_ascents.bfile"),
        ("right-steps", "seq_right_steps.bfile"),
        ("ddp-count", "seq_ddp_count.bfile"),
        ("convolution", "seq_convolution.bfile"),
    ]:
        code, out = run("sequence", which, "--terms", "20", "--format", "bfile")
        expected = (GOLDEN / golden).read_text()
        if code != 0 or out != expected:
            failures.append({"command": f"sequence {which}", "got": out[:80]})
    _report(10, "sequence exports and small enumerations match pinned files", failures)
