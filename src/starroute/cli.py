"""Command-line front end.

One executable, eight subcommands::

    starroute neighbors 12345
    starroute classify 21435 12345
    starroute route 21345 12345 --trace
    starroute distance 21345 12345 --directed
    starroute diameter 6 --directed --scheme day-tripathi
    starroute verify 5
    starroute table 3..7 --format csv
    starroute witness 7 --bound

Exit status: 0 on success, 1 when a verification-style command finds
violations or standard output is closed before the output is written
(``| head``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .classify import classify
from .harness import (
    ALL_CHECKS,
    SPLIT_MERGE_SAMPLES,
    CheckResult,
    VerificationReport,
    diameter_table,
    format_table,
    hop_cap,
    lower_bound_check,
    verify,
    witness,
)
from .oracle import MAX_TABLE_ORDER, diameter, distance
from .perm import format_perm, parse_perm
from .routing import RouteTrace, classic_route, oriented_route
from .topology import Scheme, arc_direction, neighbors


def _scheme_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in Scheme],
        default=Scheme.FUJITA.value,
        help="orientation scheme (default: %(default)s)",
    )


def _cmd_neighbors(args: argparse.Namespace) -> int:
    p = parse_perm(args.perm)
    scheme = Scheme.parse(args.scheme)
    rows = [
        (link, format_perm(q), arc_direction(p, link, scheme).value)
        for link, q in neighbors(p)
    ]
    if args.json:
        print(json.dumps([{"link": l, "neighbor": q, "direction": d} for l, q, d in rows]))
    else:
        for link, q, d in rows:
            print(f"{link} {q} {d}")
    return 0


def _set_line(label: str, values: frozenset[int]) -> str:
    return f"{label}: {' '.join(map(str, sorted(values)))}".rstrip()


def _cmd_classify(args: argparse.Namespace) -> int:
    s, t = parse_perm(args.source), parse_perm(args.target)
    sets = classify(s, t)
    if args.json:
        print(
            json.dumps(
                {
                    "settled": sorted(sets.settled),
                    "sl": sorted(sets.sl),
                    "sr": sorted(sets.sr),
                    "ull": sorted(sets.ull),
                    "urr": sorted(sets.urr),
                    "ulr": sorted(sets.ulr),
                    "url": sorted(sets.url),
                    "crossed": sorted(sets.crossed),
                    "chi": sets.alternating_count,
                    "cycles": sets.nonsingleton_cycles,
                }
            )
        )
        return 0
    for label, values in (
        ("S", sets.settled),
        ("SL", sets.sl),
        ("SR", sets.sr),
        ("ULL", sets.ull),
        ("URR", sets.urr),
        ("ULR", sets.ulr),
        ("URL", sets.url),
        ("X", sets.crossed),
    ):
        print(_set_line(label, values))
    print(f"chi={sets.alternating_count} cycles={sets.nonsingleton_cycles}")
    return 0


def _trace_json(trace: RouteTrace) -> dict:
    return {
        "source": format_perm(trace.source),
        "target": format_perm(trace.target),
        "scheme": trace.scheme.value if trace.scheme else None,
        "length": trace.length,
        "hops": [
            {
                "index": j,
                "node": format_perm(node),
                "link": link,
                "move": move.value,
                "case": case,
                "phase": phase,
            }
            for j, (node, link, move, case, phase) in enumerate(
                zip(trace.nodes, trace.links, trace.moves, trace.cases, trace.phases), 1
            )
        ],
    }


def _cmd_route(args: argparse.Namespace) -> int:
    s, t = parse_perm(args.source), parse_perm(args.target)
    if args.classic:
        trace = classic_route(s, t)
    else:
        trace = oriented_route(s, t)
    if args.json:
        print(json.dumps(_trace_json(trace), indent=2))
        return 0
    if args.trace:
        nodes = trace.nodes
        hops = zip(trace.links, trace.moves, trace.cases, trace.phases)
        for j, (link, move, case, phase) in enumerate(hops, 1):
            print(
                f"{j} {format_perm(nodes[j - 1])} --{link}--> {format_perm(nodes[j])} "
                f"{move.value} case={case} phase={phase}"
            )
    print(f"hops={trace.length}")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    s, t = parse_perm(args.source), parse_perm(args.target)
    print(distance(s, t, directed=args.directed, scheme=Scheme.parse(args.scheme)))
    return 0


def _cmd_diameter(args: argparse.Namespace) -> int:
    result = diameter(
        args.n, directed=args.directed, scheme=Scheme.parse(args.scheme), mode=args.mode
    )
    if args.json:
        print(
            json.dumps(
                {
                    "n": result.n,
                    "scheme": result.scheme.value if result.scheme else None,
                    "directed": result.directed,
                    "mode": result.mode,
                    "diameter": result.value,
                    "witness_source": format_perm(result.witness_source),
                    "witness_target": format_perm(result.witness_target),
                }
            )
        )
        return 0
    witness_pair = f"{format_perm(result.witness_source)}->{format_perm(result.witness_target)}"
    print(
        f"n={result.n} scheme={result.scheme.value if result.scheme else '-'} "
        f"directed={str(result.directed).lower()} diameter={result.value} "
        f"witness={witness_pair}"
    )
    return 0


def _report_json(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "sources": report.sources,
        "ok": report.ok,
        "checks": [_check_json(c, report.n) for c in report.checks],
    }


def _histogram(counts: dict) -> str:
    """A histogram as one compact string: ``label:count`` pairs, comma
    separated, in the order of the keys."""
    return ",".join(f"{label}:{count}" for label, count in counts.items())


def _figures(c: CheckResult, n: int) -> dict:
    """The figures a check reports beside its population, by key."""
    figures: dict = {}
    if c.extended is not None:
        figures["extended"] = c.extended
    if c.cases is not None:
        figures["cases"] = _histogram(c.cases)
    if c.longest is not None:
        figures["longest"] = c.longest
        figures["hop_cap"] = hop_cap(n)
    if c.lengths is not None:
        figures["lengths"] = _histogram(c.lengths)
    return figures


def _check_json(c: CheckResult, n: int) -> dict:
    entry: dict = {"name": c.name, "population": c.population, **_figures(c, n)}
    entry["violations"] = len(c.violations)
    entry["elapsed"] = round(c.elapsed, 3)
    entry["examples"] = [
        {
            "source": format_perm(v.source),
            "target": format_perm(v.target),
            "observed": str(v.observed),
            "bound": str(v.bound),
        }
        for v in c.violations[:10]
    ]
    return entry


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = None if args.checks is None else [name for name in args.checks.split(",") if name]
    report = verify(
        args.n,
        checks=checks,
        sources=args.sources,
        seed=args.seed,
        sample_size=args.sample_size,
    )
    if args.json:
        print(json.dumps(_report_json(report), indent=2))
        return 0 if report.ok else 1
    for c in report.checks:
        status = "pass" if c.ok else f"FAIL ({len(c.violations)} violations)"
        figures = "".join(f" {key}={value}" for key, value in _figures(c, report.n).items())
        print(f"{c.name}: {status} population={c.population}{figures} elapsed={c.elapsed:.2f}s")
        for v in c.violations[:5]:
            print(
                f"  {format_perm(v.source)} -> {format_perm(v.target)}: "
                f"observed {v.observed}, bound {v.bound}"
            )
    print(f"overall: {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _parse_orders(text: str) -> list[int]:
    """Orders named by ``6``, ``3..7`` or ``5,7,9``; every order and range end
    is checked against 3..MAX_TABLE_ORDER before any range is expanded."""
    spans: list[tuple[int, int]] = []
    for item in text.split(","):
        lo, dots, hi = item.partition("..")
        span = (int(lo), int(hi if dots else lo))
        for order in span:
            if not 3 <= order <= MAX_TABLE_ORDER:
                raise ValueError(f"table covers orders 3..{MAX_TABLE_ORDER}, got {order}")
        spans.append(span)
    out = [n for lo, hi in spans for n in range(lo, hi + 1)]
    if not out:
        raise ValueError("empty order list")
    return out


def _cmd_table(args: argparse.Namespace) -> int:
    ns = _parse_orders(args.orders)
    rows = diameter_table(ns, mode=args.mode)
    print(format_table(rows, args.format))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.bound:
        report = lower_bound_check(args.n, scheme=Scheme.parse(args.scheme))
        if args.json:
            print(
                json.dumps(
                    {
                        "n": report.n,
                        "witness": format_perm(report.witness),
                        "variant": report.variant,
                        "distance": report.distance,
                        "required": report.required,
                        "ok": report.ok,
                        "supports_2n": report.supports_2n,
                    }
                )
            )
        else:
            print(
                f"n={report.n} witness={format_perm(report.witness)} "
                f"variant={report.variant} distance={report.distance} "
                f"required={report.required} ok={str(report.ok).lower()} "
                f"supports_2n={str(report.supports_2n).lower()}"
            )
        return 0 if report.ok else 1
    w = witness(args.n, args.variant)
    if args.json:
        print(json.dumps({"n": args.n, "variant": args.variant, "witness": format_perm(w)}))
    else:
        print(format_perm(w))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starroute",
        description="Routing and diameter experiments on oriented star graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("neighbors", help="list the neighbors of a node with arc directions")
    p.add_argument("perm", help="node permutation, e.g. 12345")
    _scheme_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("classify", help="half-partition sets of a node pair")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("route", help="route a packet and optionally show the hops")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--classic", action="store_true", help="undirected greedy router")
    p.add_argument("--trace", action="store_true", help="print one line per hop")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("distance", help="BFS distance between two nodes")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--directed", action="store_true")
    _scheme_arg(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("diameter", help="graph diameter by BFS sweep")
    p.add_argument("n", type=int)
    p.add_argument("--directed", action="store_true")
    _scheme_arg(p)
    p.add_argument("--mode", choices=["exhaustive", "orbit"], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("verify", help="run bound and law checks over node pairs")
    p.add_argument("n", type=int)
    p.add_argument(
        "--checks",
        default=None,
        metavar="LIST",
        help=f"comma-separated subset of: {', '.join(ALL_CHECKS)}",
    )
    p.add_argument(
        "--sources",
        choices=["all", "reduced"],
        default=None,
        help="all: every ordered pair (default through n=6); reduced: one pair per orbit "
        "under even relabeling, 2*n! pairs (default from n=7): route checks route every "
        "node into the two canonical targets, distance checks measure from them",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-size", type=int, default=SPLIT_MERGE_SAMPLES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="diameter table across orders")
    p.add_argument("orders", help="orders, e.g. 6 or 3..7 or 5,7,9")
    p.add_argument("--mode", choices=["exhaustive", "orbit"], default=None)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("witness", help="lower-bound witness permutation")
    p.add_argument("n", type=int)
    p.add_argument("--variant", choices=["default", "even-refined"], default="default")
    p.add_argument("--bound", action="store_true", help="also measure its directed distance")
    _scheme_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_witness)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once: a parser is a web of reference cycles, which a build per
    # call would leave to the cyclic collector
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that went away raises here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python signal docs: later writes to stdout,
        # including the one at exit, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
