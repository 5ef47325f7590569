"""CLI behavior: golden outputs, exit codes, format switches."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddpaths.cli
from ddpaths.cli import main
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
        code, out, _ = run_cli(
            capsys, "count", "paths", "27", "--method", "dp", "--cap", "27"
        )
        assert code == 0
        assert out == "20058300\n"  # C(27, 13)


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

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "totals", "1", "--format", "json")
        assert json.loads(out) == [
            {"n": 0, "dD": 1, "dyck": 1, "U": 0, "D": 0, "R": 0, "A": 0},
            {"n": 1, "dD": 1, "dyck": 0, "U": 0, "D": 0, "R": 1, "A": 0},
        ]


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
    def test_values_beyond_the_int_str_limit_print(self, capsys):
        code, out, _ = run_cli(capsys, "count", "paths", "20000")
        assert code == 0
        digits = out.strip()
        assert len(digits) == 6019
        assert digits == str(math.comb(20000, 10000))

    def test_closed_pipe_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ddpaths", "enumerate", "22"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            text=True,
        )
        assert proc.stdout.readline() == "UUUUUUUUUUUDDDDDDDDDDD\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
