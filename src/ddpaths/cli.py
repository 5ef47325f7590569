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
import os
import sys
from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterable, Iterator

from .bijections import (
    _SLOT_SYNTAX,
    BijectionRecord,
    _parse_slot,
    ascent_insert,
    ascent_remove,
    ddp_to_plain,
    plain_to_ddp,
    updown_forward,
    updown_inverse,
)
from .enumeration import (
    CSV_HEADER,
    CountRow,
    DEFAULT_ENUMERATION_CAP,
    _require_ascent_length,
    _require_enumerable,
    count_ddp_dp,
    enumerate_ddp,
    enumerate_dyck,
    enumerate_plain,
    k_ascent_total,
    totals_brute,
)
from .formulas import (
    _central_binomials,
    _closed_rows,
    _convolution_terms,
    _log2_comparison,
    _one_ascent_terms,
    _right_terms,
    a_closed,
    central_binomial,
    dyck_count,
    r_closed,
    u_closed,
)
from .paths import parse_path, stats
from .verify import CHECK_IDS, verify_all

__all__ = ["main", "build_parser"]

# (count stat, method) -> the route that computes it; a pair with no route has no entry.
# Each route calls its counter by name, so a counter rebound in this module is the one called.
_COUNT = {
    ("paths", "closed"): lambda a: central_binomial(a.n),
    ("paths", "dp"): lambda a: count_ddp_dp(a.n),
    ("paths", "brute"): lambda a: totals_brute(a.n, cap=a.cap).ddp,
    ("dyck", "closed"): lambda a: dyck_count(a.n),
    ("dyck", "brute"): lambda a: totals_brute(a.n, cap=a.cap).dyck,
    ("up", "closed"): lambda a: u_closed(a.n),
    ("up", "brute"): lambda a: totals_brute(a.n, cap=a.cap).ups,
    ("down", "closed"): lambda a: u_closed(a.n),
    ("down", "brute"): lambda a: totals_brute(a.n, cap=a.cap).downs,
    ("right", "closed"): lambda a: r_closed(a.n),
    ("right", "brute"): lambda a: totals_brute(a.n, cap=a.cap).rights,
    ("one-ascents", "closed"): lambda a: a_closed(a.n),
    ("one-ascents", "brute"): lambda a: totals_brute(a.n, cap=a.cap).one_ascents,
    ("k-ascents", "brute"): lambda a: k_ascent_total(a.n, a.k, cap=a.cap),
}

_MAPS = {
    "reflection": plain_to_ddp,
    "reflection-inv": ddp_to_plain,
    "updown": updown_forward,
    "updown-inv": updown_inverse,
}

# sequence -> its terms at lengths 0, 1, 2, ..., in the number type of the 1 it starts from;
# convolution stays a self-convolution of B values, the route CONV checks against R(n)
_SEQUENCES = {
    "one-ascents": _one_ascent_terms,
    "right-steps": _right_terms,
    "ddp-count": _central_binomials,
    "convolution": lambda one: _convolution_terms(_central_binomials(one)),
}

_FAMILIES = {
    "ddp": enumerate_ddp,
    "dyck": enumerate_dyck,
    "plain": enumerate_plain,
}


@contextmanager
def _exact_decimals() -> Iterator[Any]:
    """Decimal 1, under a context in which every operation is exact or raises.

    ``sequence`` and ``totals --method closed`` print terms computed in ``decimal``, whose
    str() takes linear time where CPython's int.__str__ is quadratic.  The precision and
    exponent range are at their limits and Inexact and Rounded are trapped, so a term that
    would round raises instead of printing.  ``decimal`` is imported here, so that set-up,
    ``count`` and ``verify`` never load it.
    """
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
    with decimal.localcontext(exact):
        yield decimal.Decimal(1)


def _json_row(row: CountRow) -> str:
    """The JSON object json.dumps writes for ``row.to_json_dict()``, from str() of each total;
    its keys are column names, letters only, so none needs escaping."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in row.to_json_dict().items()) + "}"


def _cmd_count(args: argparse.Namespace) -> int:
    if args.stat == "k-ascents":
        if args.k is None:
            raise ValueError("-k is required for stat k-ascents")
        _require_ascent_length(args.k)  # a bad k is named first, whatever the method
    elif args.k is not None:
        raise ValueError("-k only applies to stat k-ascents")
    route = _COUNT.get((args.stat, args.method))
    if route is None:
        methods = ", ".join(m for stat, m in _COUNT if stat == args.stat)
        raise ValueError(f"stat {args.stat} has no method {args.method}; its methods: {methods}")
    print(route(args))
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
    if args.method == "brute":
        _require_enumerable(args.n, args.cap)  # refuse a length over the cap before any row
        _print_rows(args.format, (totals_brute(n, cap=args.cap) for n in range(args.n + 1)))
    else:
        with _exact_decimals() as one:
            _print_rows(args.format, islice(_closed_rows(one), args.n + 1))
    return 0


def _print_rows(fmt: str, rows: Iterable[CountRow]) -> None:
    if fmt == "json":  # the text json.dumps writes for the rows' dicts
        print("[", end="")
        print(*map(_json_row, rows), sep=", ", end="]\n")
    else:  # each row prints as soon as it is computed
        print(CSV_HEADER)
        for row in rows:
            print(row.to_csv())


def _cmd_bijection(args: argparse.Namespace) -> int:
    name = args.name
    if args.pos is not None and name != "ascent-remove":
        raise ValueError("--pos only applies to ascent-remove")
    if args.slot is not None and name != "ascent-insert":
        raise ValueError("--slot only applies to ascent-insert")
    path = parse_path(args.path)
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
    if "all" in args.ids and len(args.ids) > 1:
        raise ValueError("'all' cannot be combined with individual check ids")
    ids = [i for i in args.ids if i != "all"] or None  # no ids, or just "all": every check
    report = verify_all(ids=ids, max_n=args.max_n, deep=args.deep)
    print(report.to_json())
    return 0 if report.overall else 1


def _cmd_sequence(args: argparse.Namespace) -> int:
    if args.terms < 1:
        raise ValueError(f"--terms must be >= 1, got {args.terms}")
    if args.terms > sys.maxsize:  # islice counts its terms in a C ssize_t
        raise ValueError(f"--terms must be at most sys.maxsize = {sys.maxsize}, got {args.terms}")
    with _exact_decimals() as one:
        values = islice(_SEQUENCES[args.which](one), args.terms)
        # b-file and CSV lines print term by term; text and JSON collect the terms
        if args.format == "text":
            print(*values)
        elif args.format == "bfile":
            for i, v in enumerate(values, args.offset):
                print(f"{i} {v}")
        elif args.format == "csv":
            print("n,value")
            for i, v in enumerate(values, args.offset):
                print(f"{i},{v}")
        else:
            head = json.dumps({"sequence": args.which, "offset": args.offset, "values": []})
            print(head[:-2], end="")  # the text json.dumps writes, less the closing "]}"
            print(*values, sep=", ", end="]}\n")
    return 0


def _cmd_asymptotic(args: argparse.Namespace) -> int:
    rows = [(m, *_log2_comparison(m)) for m in args.m]  # every m is refused before any output
    print("m,log2_exact,log2_estimate,ratio")
    for m, exact_log2, estimate_log2, ratio in rows:
        print(f"{m},{exact_log2:.6f},{estimate_log2:.6f},{ratio:.8f}")
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
        choices=list(dict.fromkeys(stat for stat, _ in _COUNT)),
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
        help=f"insertion slot for ascent-insert: {_SLOT_SYNTAX}",
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
            f"the enumeration cap ({DEFAULT_ENUMERATION_CAP}), L4-closed and CONV "
            "refuse N above their own limits, and ASYM ignores N"
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
