"""CLI behavior: golden outputs, exit codes, format switches."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ddpaths.cli
import ddpaths.verify
from ddpaths import a_closed, central_binomial, r_closed, r_convolution, totals_closed
from ddpaths.cli import main
from ddpaths.enumeration import CSV_HEADER
from ddpaths.verify import CheckResult, VerificationReport

GOLDEN = Path(__file__).parent / "golden"

# a child interpreter imports the same ddpaths as this suite, installed or not
_PACKAGE_ROOT = str(Path(ddpaths.cli.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestEnumerateGolden:
    @pytest.mark.parametrize("n", range(5))
    def test_ddp_byte_for_byte(self, capsys, n):
        code, out, _ = run_cli(capsys, "enumerate", str(n))
        assert code == 0
        assert out == (GOLDEN / f"enum_ddp_{n}.txt").read_text()

    def test_dyck_byte_for_byte(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "4", "--family", "dyck")
        assert code == 0
        assert out == (GOLDEN / "enum_dyck_4.txt").read_text()

    def test_plain_byte_for_byte(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "--family", "plain")
        assert code == 0
        assert out == (GOLDEN / "enum_plain_3.txt").read_text()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["UDR", "RUD", "RRR"]

    def test_negative_cap_rejected(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "3", "--cap", "-1")
        assert code == 2
        assert out == ""
        assert "enumeration cap must be non-negative, got -1" in err


class TestSequenceGolden:
    @pytest.mark.parametrize(
        "which,golden",
        [
            ("one-ascents", "seq_one_ascents.bfile"),
            ("right-steps", "seq_right_steps.bfile"),
            ("ddp-count", "seq_ddp_count.bfile"),
            ("convolution", "seq_convolution.bfile"),
        ],
    )
    def test_bfile_byte_for_byte(self, capsys, which, golden):
        code, out, _ = run_cli(capsys, "sequence", which, "--terms", "20", "--format", "bfile")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_text_example(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "one-ascents", "--terms", "7")
        assert code == 0
        assert out == "0 0 1 2 5 10 23\n"

    def test_right_steps_text(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "right-steps", "--terms", "5")
        assert out == "0 1 2 5 10\n"

    def test_ddp_count_text(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "ddp-count", "--terms", "5")
        assert out == "1 1 2 3 6\n"

    def test_offset_relabels_without_changing_values(self, capsys):
        _, base, _ = run_cli(capsys, "sequence", "ddp-count", "--terms", "4", "--format", "bfile")
        _, shifted, _ = run_cli(
            capsys, "sequence", "ddp-count", "--terms", "4", "--offset", "1", "--format", "bfile"
        )
        assert base == "0 1\n1 1\n2 2\n3 3\n"
        assert shifted == "1 1\n2 1\n3 2\n4 3\n"

    def test_csv_and_json_formats(self, capsys):
        _, out, _ = run_cli(capsys, "sequence", "right-steps", "--terms", "3", "--format", "csv")
        assert out == "n,value\n0,0\n1,1\n2,2\n"
        _, out, _ = run_cli(capsys, "sequence", "right-steps", "--terms", "3", "--format", "json")
        assert json.loads(out) == {"sequence": "right-steps", "offset": 0, "values": [0, 1, 2]}

    def test_terms_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "ddp-count", "--terms", "0")
        assert code == 2
        assert "terms" in err


class TestStreamedOutput:
    """Streamed sequences and closed totals agree term by term with the point-wise forms."""

    @pytest.mark.parametrize(
        "which,pointwise",
        [("one-ascents", a_closed), ("right-steps", r_closed), ("ddp-count", central_binomial)],
    )
    def test_sequence_matches_pointwise(self, capsys, which, pointwise):
        code, out, _ = run_cli(capsys, "sequence", which, "--terms", "2000", "--format", "bfile")
        assert code == 0
        assert out == "".join(f"{m} {pointwise(m)}\n" for m in range(2000))

    def test_convolution_matches_pointwise(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", "convolution", "--terms", "300")
        assert code == 0
        assert out == " ".join(str(r_convolution(n)) for n in range(300)) + "\n"

    @pytest.mark.parametrize("terms,expected", [(1, "0"), (2, "0 0"), (3, "0 0 1")])
    def test_one_ascents_below_the_stream_lag(self, capsys, terms, expected):
        # A(m) reads B(m - 2), so the first two terms come before any streamed value
        code, out, _ = run_cli(capsys, "sequence", "one-ascents", "--terms", str(terms))
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("n", [0, 500])
    def test_closed_totals_match_pointwise(self, capsys, n):
        code, out, _ = run_cli(capsys, "totals", str(n), "--method", "closed")
        assert code == 0
        rows = [totals_closed(k).to_csv() for k in range(n + 1)]
        assert out == "\n".join([CSV_HEADER, *rows]) + "\n"


class TestCount:
    @pytest.mark.parametrize(
        "stat,n,method,expected",
        [
            ("one-ascents", "5", "closed", "10"),
            ("paths", "4", "brute", "6"),
            ("right", "0", "closed", "0"),
            ("paths", "5", "dp", "10"),
            ("dyck", "4", "brute", "2"),
            ("up", "4", "closed", "7"),
            ("down", "4", "brute", "7"),
        ],
    )
    def test_values(self, capsys, stat, n, method, expected):
        code, out, _ = run_cli(capsys, "count", stat, n, "--method", method)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("stat", ["paths", "dyck", "up", "down", "right", "one-ascents"])
    @pytest.mark.parametrize("n", range(15))
    def test_closed_equals_brute(self, capsys, stat, n):
        _, closed, _ = run_cli(capsys, "count", stat, str(n), "--method", "closed")
        _, brute, _ = run_cli(capsys, "count", stat, str(n), "--method", "brute")
        assert closed == brute
        if stat == "paths":
            _, dp, _ = run_cli(capsys, "count", stat, str(n), "--method", "dp")
            assert dp == closed

    def test_k_ascents_brute(self, capsys):
        code, out, _ = run_cli(capsys, "count", "k-ascents", "4", "--method", "brute", "-k", "2")
        assert code == 0
        assert out == "1\n"

    def test_k_ascents_closed_is_an_open_problem(self, capsys):
        code, _, err = run_cli(capsys, "count", "k-ascents", "8", "-k", "2")
        assert code == 2
        assert "no closed form" in err
        assert "open problem" in err

    def test_k_ascents_requires_k(self, capsys):
        code, _, err = run_cli(capsys, "count", "k-ascents", "8", "--method", "brute")
        assert code == 2
        assert "error: -k is required for stat k-ascents" in err

    def test_k_only_applies_to_k_ascents(self, capsys):
        code, _, err = run_cli(capsys, "count", "paths", "8", "-k", "2")
        assert code == 2
        assert "error: -k only applies to stat k-ascents" in err

    def test_dp_only_counts_paths(self, capsys):
        code, _, err = run_cli(capsys, "count", "dyck", "4", "--method", "dp")
        assert code == 2
        assert "dp" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "count", "paths", "30", "--method", "brute")
        assert code == 2
        assert "cap" in err

    def test_dp_is_not_capped(self, capsys):
        code, out, _ = run_cli(capsys, "count", "paths", "30", "--method", "dp")
        assert code == 0
        assert out == "155117520\n"  # C(30, 15)

    def test_cap_override(self, capsys):
        code, out, err = run_cli(capsys, "count", "paths", "5", "--method", "brute", "--cap", "4")
        assert code == 2
        assert out == ""
        assert "cap of 4" in err
        code, out, _ = run_cli(capsys, "count", "paths", "5", "--method", "brute", "--cap", "5")
        assert code == 0
        assert out == "10\n"  # C(5, 2)


class TestStats:
    def test_json_line(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "UDUD")
        assert code == 0
        assert out == '{"n": 4, "ups": 2, "downs": 2, "rights": 0, "k_ascents": {"1": 2}}\n'

    def test_empty_path(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "")
        assert code == 0
        assert json.loads(out) == {"n": 0, "ups": 0, "downs": 0, "rights": 0, "k_ascents": {}}

    def test_invalid_word(self, capsys):
        code, _, err = run_cli(capsys, "stats", "UDX")
        assert code == 2
        assert "position 2" in err


class TestTotals:
    def test_closed_csv(self, capsys):
        code, out, _ = run_cli(capsys, "totals", "4")
        assert code == 0
        assert out == (
            "n,dD,dyck,U,D,R,A\n"
            "0,1,1,0,0,0,0\n"
            "1,1,0,0,0,1,0\n"
            "2,2,1,1,1,2,1\n"
            "3,3,0,2,2,5,2\n"
            "4,6,2,7,7,10,5\n"
        )

    def test_brute_matches_closed(self, capsys):
        _, closed, _ = run_cli(capsys, "totals", "8")
        _, brute, _ = run_cli(capsys, "totals", "8", "--method", "brute")
        assert closed == brute

    def test_negative_length_rejected(self, capsys):
        code, out, err = run_cli(capsys, "totals", "-2")
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_brute_over_cap_refused_before_any_row(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(ddpaths.cli, "totals_brute", lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(capsys, "totals", "18", "--method", "brute", "--cap", "16")
        assert code == 2
        assert out == ""
        assert "length 18 exceeds the enumeration cap of 16" in err
        assert calls == []

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "totals", "1", "--format", "json")
        assert json.loads(out) == [
            {"n": 0, "dD": 1, "dyck": 1, "U": 0, "D": 0, "R": 0, "A": 0},
            {"n": 1, "dD": 1, "dyck": 0, "U": 0, "D": 0, "R": 1, "A": 0},
        ]


_POS_ONLY = "--pos only applies to ascent-remove"
_SLOT_ONLY = "--slot only applies to ascent-insert"


class TestBijection:
    def test_reflection(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "reflection", "DDU")
        assert code == 0
        assert out == '{"input": "DDU", "output": "RUD", "slot": null}\n'

    def test_updown(self, capsys):
        _, out, _ = run_cli(capsys, "bijection", "updown", "RRRUD")
        assert json.loads(out)["output"] == "RRRR"

    def test_updown_inverse(self, capsys):
        _, out, _ = run_cli(capsys, "bijection", "updown-inv", "UDRR")
        assert json.loads(out)["output"] == "UDRUD"

    def test_ascent_remove(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "ascent-remove", "RUD", "--pos", "1")
        assert code == 0
        assert json.loads(out) == {
            "input": "RUD",
            "output": "R",
            "slot": {"kind": "RightStep", "index": 0},
        }

    def test_ascent_insert(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "ascent-insert", "UD", "--slot", "down:1")
        assert code == 0
        assert json.loads(out)["output"] == "UDUD"

    def test_ascent_insert_start(self, capsys):
        _, out, _ = run_cli(capsys, "bijection", "ascent-insert", "", "--slot", "start")
        assert json.loads(out)["output"] == "UD"

    def test_domain_violation(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "reflection", "RUD")
        assert code == 2
        assert "not a plain path" in err

    def test_missing_pos(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "ascent-remove", "RUD")
        assert code == 2
        assert "--pos" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("ascent-insert", "UD", "--slot", "start", "--pos", "3"), _POS_ONLY),
            (("reflection", "UD", "--pos", "0"), _POS_ONLY),
            (("updown-inv", "RR", "--pos", "0"), _POS_ONLY),
            (("ascent-remove", "UD", "--pos", "0", "--slot", "start"), _SLOT_ONLY),
            (("reflection-inv", "UD", "--slot", "start"), _SLOT_ONLY),
        ],
    )
    def test_option_of_another_map(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bijection", *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    def test_slot_off_its_step(self, capsys):
        code, out, err = run_cli(capsys, "bijection", "ascent-insert", "UD", "--slot", "right:0")
        assert code == 2
        assert out == ""
        assert err == "error: slot right:0 does not reference an 'R' step of 'UD'\n"

    def test_bad_slot_spec(self, capsys):
        for spec, message in [
            ("middle:1", "unknown slot kind 'middle:1'"),
            # '²' passes str.isdigit() but int() rejects it
            ("down:²", "slot 'down:²' needs a non-negative step index"),
        ]:
            code, _, err = run_cli(capsys, "bijection", "ascent-insert", "UD", "--slot", spec)
            assert code == 2
            assert f"error: {message}" in err


class TestVerify:
    def test_all_passes_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True

    def test_single_id(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "THM1", "--max-n", "6")
        assert code == 0
        payload = json.loads(out)
        assert [c["id"] for c in payload["checks"]] == ["THM1"]
        assert payload["checks"][0]["range"] == "2 <= m <= 6"

    def test_multiple_ids_in_canonical_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "CONV", "L1-count", "--max-n", "8")
        assert code == 0
        assert [c["id"] for c in json.loads(out)["checks"]] == ["L1-count", "CONV"]

    def test_bogus_id_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus-id")
        assert code == 2
        assert "unknown check id" in err

    def test_request_is_refused_before_any_check_runs(self, capsys, monkeypatch):
        # L4-closed accepts N = 2000 and would run for a second; THM1 refuses it
        calls = []
        spec = ddpaths.verify._CHECKS["L4-closed"]
        monkeypatch.setitem(
            ddpaths.verify._CHECKS, "L4-closed", replace(spec, run=lambda n: calls.append(n))
        )
        code, out, err = run_cli(capsys, "verify", "L4-closed", "THM1", "--max-n", "2000")
        assert code == 2
        assert out == ""
        assert "THM1 is oracle-backed; max_n 2000 exceeds the enumeration cap" in err
        assert calls == []

    def test_arithmetic_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "L4-closed", "--max-n", "100000")
        assert code == 2
        assert out == ""
        assert "L4-closed is arithmetic; max_n 100000 exceeds the limit of 2000" in err

    def test_all_mixed_with_ids_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "THM1")
        assert code == 2
        assert out == ""
        assert "'all' cannot be combined" in err

    def test_default_runs_everything(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert len(json.loads(out)["checks"]) == 13

    def test_failure_exits_one(self, capsys, monkeypatch):
        failing = VerificationReport(
            checks=[
                CheckResult(
                    "THM1", "2 <= m <= 9", False, {"m": 9, "closed": 205, "brute": 204}
                )
            ]
        )
        monkeypatch.setattr(ddpaths.cli, "verify_all", lambda **kw: failing)
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 1
        assert json.loads(out)["overall"] is False

    def test_deep_conflicts_with_max_n(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--deep", "--max-n", "5")
        assert code == 2
        assert "mutually exclusive" in err

    @pytest.mark.parametrize("check_id", ["all", "THM1"])
    def test_max_n_beyond_cap_is_usage_error(self, capsys, check_id):
        code, out, err = run_cli(capsys, "verify", check_id, "--max-n", "30")
        assert code == 2
        assert out == ""
        assert "max_n 30 exceeds the enumeration cap of 26" in err


class TestAsymptotic:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotic", "10", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,log2_exact,log2_estimate,ratio"
        assert len(lines) == 3
        ratio_1000 = float(lines[2].split(",")[3])
        assert abs(ratio_1000 - 1.0) <= 0.01

    def test_table_text_is_pinned(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotic", "2", "100", "1000", "10000")
        assert out == (
            "m,log2_exact,log2_estimate,ratio\n"
            "2,0.000000,0.089755,0.93968219\n"
            "100,100.163325,100.166530,0.99778124\n"
            "1000,1001.712872,1001.713219,0.99975956\n"
            "10000,10003.336042,10003.336077,0.99997531\n"
        )

    def test_sweep_converges(self, capsys):
        _, out, _ = run_cli(capsys, "asymptotic", "100", "1000", "10000")
        ratios = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations == sorted(deviations, reverse=True)

    def test_m_below_two_rejected(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "1")
        assert code == 2
        assert "m >= 2" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_stat(self, capsys):
        code, _, _ = run_cli(capsys, "count", "widgets", "4")
        assert code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddpaths", "count", "one-ascents", "5"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == "10\n"


class TestOutputBoundary:
    # the fold recurses once per step: past the recursion limit it is a usage error, not a crash
    @pytest.mark.parametrize("stat", [["paths"], ["k-ascents", "-k", "2"]], ids=lambda a: a[0])
    def test_brute_force_beyond_the_recursion_limit_exits_two(self, stat):
        argv = ["count", *stat, "1200", "--method", "brute", "--cap", "1200"]
        proc = subprocess.run(
            [sys.executable, "-m", "ddpaths", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: length 1200 is too long for the brute-force walk")
        assert "Traceback" not in proc.stderr

    def test_values_beyond_the_int_str_limit_print(self, capsys):
        code, out, _ = run_cli(capsys, "count", "paths", "20000")
        assert code == 0
        digits = out.strip()
        assert len(digits) == 6019
        assert digits == str(math.comb(20000, 10000))

    # 1500 steps lie far beyond the interpreter's recursion limit: the stream must not recurse;
    # totals and the b-file print row by row, so their first line comes before the last row
    @pytest.mark.parametrize(
        "argv,first",
        [
            (["enumerate", "22"], "U" * 11 + "D" * 11),
            (["enumerate", "1500", "--cap", "1500"], "U" * 750 + "D" * 750),
            (["totals", "3000"], CSV_HEADER),
            (["sequence", "one-ascents", "--terms", "20000", "--format", "bfile"], "0 0"),
        ],
        ids=["22", "1500", "totals", "sequence"],
    )
    def test_closed_pipe_ends_quietly(self, argv, first):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ddpaths", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            text=True,
        )
        assert proc.stdout.readline() == first + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
