"""Command-line front end.

One entry point with subcommands for counting, enumeration, per-path
statistics, the invertible correspondences, the verification harness,
sequence export (including OEIS-style b-files) and the asymptotic
comparison.  All output is line-oriented, locale-independent decimal.

Exit codes: 0 on success, 1 when verification fails or stdout is closed
early, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bijections import (
    BijectionRecord,
    SlotKind,
    SlotRef,
    ascent_insert,
    ascent_remove,
    ddp_to_plain,
    plain_to_ddp,
    updown_forward,
    updown_inverse,
)
from .enumeration import (
    DEFAULT_ENUMERATION_CAP,
    CountTable,
    count_ddp_dp,
    enumerate_ddp,
    enumerate_dyck,
    enumerate_plain,
    k_ascent_total,
    totals_brute,
)
from .formulas import (
    a_asymptotic,
    a_closed,
    central_binomial,
    dyck_count,
    r_closed,
    r_convolution,
    totals_closed,
    u_closed,
)
from .paths import parse_path, stats
from .verify import CHECK_IDS, VerificationReport, verify_all, verify_lemma

__all__ = ["main", "build_parser"]

# count stat -> (its field in a brute-force CountRow, its closed form)
_STATS = {
    "paths": ("ddp", central_binomial),
    "dyck": ("dyck", dyck_count),
    "up": ("ups", u_closed),
    "down": ("downs", u_closed),
    "right": ("rights", r_closed),
    "one-ascents": ("one_ascents", a_closed),
}

_MAPS = {
    "reflection": plain_to_ddp,
    "reflection-inv": ddp_to_plain,
    "updown": updown_forward,
    "updown-inv": updown_inverse,
}

_SEQUENCES = {
    "one-ascents": a_closed,
    "right-steps": r_closed,
    "ddp-count": central_binomial,
    "convolution": r_convolution,
}

_FAMILIES = {
    "ddp": enumerate_ddp,
    "dyck": enumerate_dyck,
    "plain": enumerate_plain,
}


def _cmd_count(args: argparse.Namespace) -> int:
    n, method = args.n, args.method
    if args.stat == "k-ascents":
        if args.k is None:
            raise ValueError("-k is required for stat k-ascents")
        if method != "brute":
            if args.k > 1:
                raise ValueError(
                    "no closed form is known for k-ascent totals with k > 1 "
                    "(open problem); use --method brute"
                )
            raise ValueError(
                "k-ascent totals are enumerated by brute force only; use "
                "--method brute (the k = 1 closed form is stat one-ascents)"
            )
        print(k_ascent_total(n, args.k, cap=args.cap))
        return 0
    if args.k is not None:
        raise ValueError("-k only applies to stat k-ascents")
    field, closed = _STATS[args.stat]
    if method == "closed":
        print(closed(n))
        return 0
    if method == "dp":
        if field != "ddp":  # the DP counter counts paths only
            raise ValueError(f"method dp only supports stat paths, not {args.stat}")
        print(count_ddp_dp(n))
        return 0
    print(getattr(totals_brute(n, cap=args.cap), field))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    paths = _FAMILIES[args.family](args.n, cap=args.cap)
    if args.format == "json":
        print(json.dumps([p.word for p in paths]))
    else:
        for p in paths:
            print(p.word)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    print(stats(parse_path(args.path)).to_json())
    return 0


def _cmd_totals(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"largest length must be non-negative, got {args.n}")
    table = CountTable()
    for n in range(args.n + 1):
        if args.method == "brute":
            table.add(totals_brute(n, cap=args.cap))
        else:
            table.add(totals_closed(n))
    if args.format == "json":
        print(json.dumps(table.to_json_list()))
    else:
        print(table.to_csv())
    return 0


def _parse_slot(text: str) -> SlotRef:
    """Parse 'start', 'down:IDX' or 'right:IDX' into a SlotRef."""
    kind, sep, idx = text.partition(":")
    kind = kind.lower()
    if kind == "start":
        if sep:
            raise ValueError("slot 'start' carries no index")
        return SlotRef(SlotKind.START)
    if kind not in ("down", "right"):
        raise ValueError(f"unknown slot kind {text!r}; expected start, down:IDX or right:IDX")
    if not idx.isdecimal():
        raise ValueError(f"slot {text!r} needs a non-negative step index, e.g. {kind}:0")
    step_kind = SlotKind.DOWN_STEP if kind == "down" else SlotKind.RIGHT_STEP
    return SlotRef(step_kind, int(idx))


def _cmd_bijection(args: argparse.Namespace) -> int:
    path = parse_path(args.path)
    name = args.name
    if name == "ascent-remove":
        if args.pos is None:
            raise ValueError("--pos is required for ascent-remove")
        output, slot = ascent_remove(path, args.pos)
        record = BijectionRecord(input=path, output=output, slot=slot)
    elif name == "ascent-insert":
        if args.slot is None:
            raise ValueError("--slot is required for ascent-insert")
        slot = _parse_slot(args.slot)
        record = BijectionRecord(input=path, output=ascent_insert(path, slot), slot=slot)
    else:
        record = BijectionRecord(input=path, output=_MAPS[name](path))
    print(record.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.deep and args.max_n is not None:
        raise ValueError("--deep and --max-n are mutually exclusive")
    requested = args.ids or ["all"]
    unknown = [i for i in requested if i != "all" and i not in CHECK_IDS]
    if unknown:
        known = ", ".join(CHECK_IDS)
        raise ValueError(
            f"unknown check id(s): {', '.join(unknown)}; expected 'all' or one of: {known}"
        )
    if "all" in requested:
        if len(requested) > 1:
            raise ValueError("'all' cannot be combined with individual check ids")
        report = verify_all(max_n=args.max_n, deep=args.deep)
    else:
        wanted = set(requested)
        report = VerificationReport(
            checks=[
                verify_lemma(check_id, args.max_n, args.deep)
                for check_id in CHECK_IDS
                if check_id in wanted
            ]
        )
    print(report.to_json())
    return 0 if report.overall else 1


def _cmd_sequence(args: argparse.Namespace) -> int:
    if args.terms < 1:
        raise ValueError(f"--terms must be >= 1, got {args.terms}")
    fn = _SEQUENCES[args.which]
    values = [fn(m) for m in range(args.terms)]
    indices = range(args.offset, args.offset + args.terms)
    if args.format == "text":
        print(" ".join(str(v) for v in values))
    elif args.format == "bfile":
        for i, v in zip(indices, values):
            print(f"{i} {v}")
    elif args.format == "csv":
        print("n,value")
        for i, v in zip(indices, values):
            print(f"{i},{v}")
    else:
        print(json.dumps({"sequence": args.which, "offset": args.offset, "values": values}))
    return 0


def _cmd_asymptotic(args: argparse.Namespace) -> int:
    for m in args.m:
        if m < 2:
            raise ValueError(f"asymptotic comparison needs m >= 2, got {m}")
    print("m,log2_exact,log2_estimate,ratio")
    for m in args.m:
        exact_log2 = math.log2(a_closed(m))
        estimate = a_asymptotic(m)
        ratio = 2.0 ** (exact_log2 - estimate.log2)
        print(f"{m},{exact_log2:.6f},{estimate.log2:.6f},{ratio:.8f}")
    return 0


def _add_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help=f"enumeration size guard (default {DEFAULT_ENUMERATION_CAP})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddpaths",
        description=(
            "Exact counting, enumeration, statistics, invertible "
            "correspondences and verification for dispersed Dyck paths: "
            "lattice paths of up/down steps that never dip below the axis "
            "and return to it, plus flat steps allowed on the axis only."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print one exact total for a given length")
    p.add_argument(
        "stat",
        choices=[*_STATS, "k-ascents"],
        help="which total to compute",
    )
    p.add_argument("n", type=int, help="path length")
    p.add_argument(
        "--method",
        choices=["closed", "dp", "brute"],
        default="closed",
        help="closed formula, dynamic programming (paths only), or full enumeration",
    )
    p.add_argument("-k", type=int, default=None, help="ascent length for stat k-ascents")
    _add_cap(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="stream every path of a family, one word per line")
    p.add_argument("n", type=int, help="path length")
    p.add_argument("--family", choices=sorted(_FAMILIES), default="ddp")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_cap(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("stats", help="step counts and ascent decomposition of one path, as JSON")
    p.add_argument("path", help="path word over U/D/R; empty string for the length-0 path")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("totals", help="table of all totals for lengths 0..N")
    p.add_argument("n", type=int, help="largest length")
    p.add_argument("--method", choices=["closed", "brute"], default="closed")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_cap(p)
    p.set_defaults(handler=_cmd_totals)

    p = sub.add_parser("bijection", help="apply one invertible correspondence to a path")
    p.add_argument(
        "name",
        choices=[*_MAPS, "ascent-remove", "ascent-insert"],
        help="which map to apply",
    )
    p.add_argument("path", help="input path word")
    p.add_argument("--pos", type=int, default=None, help="1-ascent position for ascent-remove")
    p.add_argument(
        "--slot",
        default=None,
        help="insertion slot for ascent-insert: start, down:IDX or right:IDX",
    )
    p.set_defaults(handler=_cmd_bijection)

    p = sub.add_parser("verify", help="run the verification harness and print a JSON report")
    p.add_argument(
        "ids",
        nargs="*",
        metavar="ID",
        help=f"check ids to run (default: all); known ids: {', '.join(CHECK_IDS)}",
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=(
            "range override for every check; oracle-backed checks refuse N above "
            f"the enumeration cap ({DEFAULT_ENUMERATION_CAP}) and ASYM ignores N"
        ),
    )
    p.add_argument("--deep", action="store_true", help="run each check at its widest range")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "sequence",
        help="export a counting sequence indexed by path length",
        description=(
            "Sequences are indexed by path length starting at 0; --offset only "
            "relabels the printed indices (as OEIS offsets differ), never the "
            "values. one-ascents: total 1-ascents (cf. OEIS A191386); "
            "right-steps: total flat steps (cf. OEIS A045621); ddp-count: "
            "number of paths, the central binomial coefficients (cf. OEIS "
            "A001405); convolution: right-step totals via the self-convolution "
            "of ddp-count."
        ),
    )
    p.add_argument("which", choices=sorted(_SEQUENCES))
    p.add_argument("--terms", type=int, default=20, help="number of terms (default 20)")
    p.add_argument(
        "--offset", type=int, default=0, help="index label of the first term (default 0)"
    )
    p.add_argument(
        "--format",
        choices=["text", "csv", "json", "bfile"],
        default="text",
        help="bfile prints OEIS-style 'index value' lines",
    )
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser(
        "asymptotic",
        help="compare the exact 1-ascent total with its asymptotic estimate",
    )
    p.add_argument("m", type=int, nargs="+", help="lengths to evaluate (m >= 2)")
    p.set_defaults(handler=_cmd_asymptotic)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # CPython >= 3.10.7 caps int->str at 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); silence the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
