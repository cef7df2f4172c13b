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
import dataclasses
import functools
import json
import os
import sys
from typing import Sequence

from .classify import classify
from .harness import (
    ALL_CHECKS,
    ALL_SOURCES_DEFAULT_ORDER,
    ALL_SOURCES_ORDER,
    SPLIT_MERGE_SAMPLES,
    UNSAMPLED_ORDER,
    CheckResult,
    VerificationReport,
    diameter_table,
    format_table,
    lower_bound_check,
    verify,
    witness,
)
from .oracle import EXHAUSTIVE_DEFAULT_ORDER, check_order, diameter, distance
from .perm import format_perm, parse_perm
from .routing import RouteTrace, classic_route, oriented_route
from .topology import Scheme, arc_direction, neighbors


def _scheme_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in Scheme],
        default=None,
        help=f"orientation scheme (default: {Scheme.FUJITA.value})",
    )


def _scheme(args: argparse.Namespace, needs: str | None = None) -> Scheme:
    """The ``--scheme`` of ``args``, fujita when it is not given.  Given
    without the flag ``needs``, which makes the orientation count, it is a
    usage error rather than an option silently ignored."""
    if args.scheme is None:
        return Scheme.FUJITA
    if needs is not None and not getattr(args, needs):
        raise ValueError(f"--scheme needs --{needs}")
    return Scheme.parse(args.scheme)


def _cmd_neighbors(args: argparse.Namespace) -> int:
    p = parse_perm(args.perm)
    scheme = _scheme(args)
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


# the sets of a classification: the attribute, which is also the --json
# key, and the label of the text line
_SETS = (
    ("settled", "S"),
    ("sl", "SL"),
    ("sr", "SR"),
    ("ull", "ULL"),
    ("urr", "URR"),
    ("ulr", "ULR"),
    ("url", "URL"),
    ("crossed", "X"),
)


def _cmd_classify(args: argparse.Namespace) -> int:
    s, t = parse_perm(args.source), parse_perm(args.target)
    sets = classify(s, t)
    if args.json:
        record: dict = {key: sorted(getattr(sets, key)) for key, _ in _SETS}
        record.update(chi=sets.alternating_count, cycles=sets.nonsingleton_cycles)
        print(json.dumps(record))
        return 0
    for key, label in _SETS:
        print(_set_line(label, getattr(sets, key)))
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
    trace = classic_route(s, t) if args.classic else oriented_route(s, t)
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
    scheme = _scheme(args, "directed")
    s, t = parse_perm(args.source), parse_perm(args.target)
    print(distance(s, t, scheme if args.directed else None))
    return 0


def _cmd_diameter(args: argparse.Namespace) -> int:
    scheme = _scheme(args, "directed")
    result = diameter(args.n, scheme if args.directed else None, args.mode)
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
        "checks": [_check_json(c) for c in report.checks],
    }


def _figures(c: CheckResult) -> dict:
    """The figures a check reports beside its population, by key.  A
    histogram (a dict of counts by label) becomes one compact string,
    ``label:count`` pairs comma separated in the order of the keys; any
    other figure is reported as it is."""
    return {
        key: ",".join(f"{label}:{count}" for label, count in value.items())
        if isinstance(value, dict)
        else value
        for key, value in c.figures.items()
    }


def _check_json(c: CheckResult) -> dict:
    entry: dict = {"name": c.name, "population": c.population, **_figures(c)}
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
        figures = "".join(f" {key}={value}" for key, value in _figures(c).items())
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
    is checked against 3..MAX_TABLE_ORDER before any range is expanded, and
    a reversed range or an order named twice is rejected."""
    spans: list[tuple[int, int]] = []
    for item in text.split(","):
        lo, dots, hi = item.partition("..")
        try:
            span = (int(lo), int(hi if dots else lo))
        except ValueError:
            raise ValueError(f"malformed order list {text!r}") from None
        for order in span:
            check_order(order, "table covers orders")
        if span[0] > span[1]:
            raise ValueError(f"reversed range {item!r}")
        spans.append(span)
    out = [n for lo, hi in spans for n in range(lo, hi + 1)]
    for n in out:
        if out.count(n) > 1:
            raise ValueError(f"order {n} named twice")
    return out


def _cmd_table(args: argparse.Namespace) -> int:
    ns = _parse_orders(args.orders)
    rows = diameter_table(ns, mode=args.mode)
    print(format_table(rows, args.format))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    scheme = _scheme(args, "bound")
    if args.bound:
        # the bound measures the farther variant itself
        if args.variant is not None:
            raise ValueError("--variant does not apply with --bound")
        report = lower_bound_check(args.n, scheme=scheme)
        record = {**dataclasses.asdict(report), "witness": format_perm(report.witness)}
        if args.json:
            print(json.dumps(record))
        else:
            print(
                " ".join(
                    f"{key}={str(value).lower() if isinstance(value, bool) else value}"
                    for key, value in record.items()
                )
            )
        return 0 if report.ok else 1
    variant = args.variant or "default"
    w = witness(args.n, variant)
    if args.json:
        print(json.dumps({"n": args.n, "variant": variant, "witness": format_perm(w)}))
    else:
        print(format_perm(w))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starroute",
        description="Routing and diameter experiments on oriented star graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mode_help = f"default: exhaustive through n={EXHAUSTIVE_DEFAULT_ORDER}, orbit beyond"

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
    p.add_argument("--mode", choices=["exhaustive", "orbit"], default=None, help=mode_help)
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
        help=f"all: every ordered pair (default through n={ALL_SOURCES_DEFAULT_ORDER}; route and "
        f"distance checks through n={ALL_SOURCES_ORDER}); reduced: one pair per orbit under even "
        "relabeling, 2*n! pairs, every node into the two canonical targets (default beyond)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the samples split-merge and router-equivariance draw beyond "
        f"n={UNSAMPLED_ORDER} (default 0); its sign counts: -S draws another sample than S",
    )
    p.add_argument(
        "--sample-size",
        type=int,
        default=SPLIT_MERGE_SAMPLES,
        help=f"triples split-merge and pairs router-equivariance draw beyond n={UNSAMPLED_ORDER} "
        f"(default {SPLIT_MERGE_SAMPLES}); both are exhaustive through it",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="diameter table across orders")
    p.add_argument("orders", help="orders, e.g. 6 or 3..7 or 5,7,9")
    p.add_argument("--mode", choices=["exhaustive", "orbit"], default=None, help=mode_help)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("witness", help="lower-bound witness permutation")
    p.add_argument("n", type=int)
    p.add_argument(
        "--variant",
        choices=["default", "even-refined"],
        default=None,
        help="witness form (default: default); --bound picks the farther one itself",
    )
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
