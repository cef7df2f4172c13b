"""The four benchmark workloads and the known answers their outputs must match.

Every call goes through ``starroute.cli.main`` with an argv list, so a run
exercises exactly what a user of the command-line tool would.  A workload's
population is fixed; only ``formula-check`` takes the seed (its split/merge
samples are drawn from it).  No call passes ``--threads``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

ROUTE_CHECKS = (
    "route-validity",
    "hop-bound",
    "stretch-bound",
    "diameter-bound",
    "phase-structure",
    "crossing-monotone",
)
FORMULA_CHECKS = ("distance-vs-bfs", "set-formula", "split-merge")
ALL_CHECKS = ROUTE_CHECKS + FORMULA_CHECKS
SPLIT_MERGE_SAMPLES = 10_000

# checker(exit_code, stdout) -> one message per failed result
Checker = Callable[[int, str], list[str]]


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]
    pairs: int  # ordered (source, target) pairs whose result the call establishes
    results: int  # checked results; each can fail once
    check: Checker


@dataclass(frozen=True)
class Workload:
    name: str
    orders: tuple[int, ...]  # move tables filled during set-up
    route_pairs: int  # pairs routed per pass (denominator of routes_per_pair)
    distance_pairs: int  # pairs looked up per pass (denominator of rank_per_pair)
    calls: Callable[[int], list[Call]]  # seed -> the calls of one pass

    def pairs_per_pass(self, seed: int) -> int:
        return sum(c.pairs for c in self.calls(seed))


def _verify_checker(populations: dict[str, int]) -> Checker:
    def check(code: int, out: str) -> list[str]:
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        failures = []
        for name, population in populations.items():
            got = by_name.get(name)
            if got is None:
                failures.append(f"{name}: missing from the report")
            elif got["population"] != population:
                failures.append(f"{name}: population {got['population']} != {population}")
            elif got["violations"]:
                failures.append(f"{name}: {got['violations']} violations")
        if code != 0 and not failures:
            failures.append(f"exit code {code} with every check clean")
        return failures

    return check


def _verify_call(label: str, argv: list[str], populations: dict[str, int], pairs: int) -> Call:
    argv = argv + ["--checks", ",".join(populations), "--json"]
    return Call(label, tuple(argv), pairs, len(populations), _verify_checker(populations))


def _diameter_call(label: str, argv: list[str], n: int, expected: int) -> Call:
    def check(code: int, out: str) -> list[str]:
        got = json.loads(out)["diameter"]
        if code != 0 or got != expected:
            return [f"{label}: diameter {got} (exit {code}), expected {expected}"]
        return []

    # one BFS per source, each settling n! pairs
    return Call(label, tuple(argv + ["--json"]), factorial(n) ** 2, 1, check)


def _read_rows(text: str) -> dict[str, dict[str, str]]:
    return {row["n"]: row for row in csv.DictReader(io.StringIO(text))}


def _committed_table(root: Path) -> dict[str, dict[str, str]]:
    """Rows of the committed diameter table, keyed by order."""
    return _read_rows((root / "results" / "diameter_table.csv").read_text())


def _table_call(expected: dict[str, dict[str, str]], orders: tuple[int, ...]) -> Call:
    def check(code: int, out: str) -> list[str]:
        got = _read_rows(out)
        failures = []
        for n in orders:
            if got.get(str(n)) != expected[str(n)]:
                failures.append(f"table row {n}: {got.get(str(n))} != {expected[str(n)]}")
        if code != 0 and not failures:
            failures.append(f"table exit code {code}")
        return failures

    # orbit mode: two sources for each of three diameters per order
    pairs = sum(6 * factorial(n) for n in orders)
    argv = ("table", f"{orders[0]}..{orders[-1]}", "--mode", "orbit", "--format", "csv")
    return Call("table-8..9", argv, pairs, len(orders), check)


def build(root: Path) -> dict[str, Workload]:
    """All workloads; ``root`` is the checkout holding ``results/``."""
    table = _committed_table(root)
    n5, n6, n7 = factorial(5), factorial(6), factorial(7)

    def route_sweep(seed: int) -> list[Call]:
        return [
            _verify_call("verify-5", ["verify", "5"], dict.fromkeys(ROUTE_CHECKS, n5 * n5), n5 * n5),
            _verify_call("verify-7-reduced", ["verify", "7", "--sources", "reduced"],
                         dict.fromkeys(ROUTE_CHECKS, 2 * n7), 2 * n7),
        ]

    def bfs_exhaustive(seed: int) -> list[Call]:
        return [
            _diameter_call("diameter-7", ["diameter", "7"], 7, 9),
            _diameter_call("diameter-7-directed", ["diameter", "7", "--directed"], 7, 14),
        ]

    def bfs_large(seed: int) -> list[Call]:
        return [_table_call(table, (8, 9))]

    def formula_check(seed: int) -> list[Call]:
        populations = {"distance-vs-bfs": n6 * n6, "set-formula": n6 * n6, "split-merge": SPLIT_MERGE_SAMPLES}
        argv = ["verify", "6", "--seed", str(seed)]
        return [_verify_call("verify-6-formulas", argv, populations, n6 * n6 + SPLIT_MERGE_SAMPLES)]

    return {
        w.name: w
        for w in (
            Workload("route-sweep", (5, 7), n5 * n5 + 2 * n7, 0, route_sweep),
            Workload("bfs-exhaustive", (7,), 0, 0, bfs_exhaustive),
            Workload("bfs-large", (8, 9), 0, 0, bfs_large),
            Workload("formula-check", (6,), 0, n6 * n6, formula_check),
        )
    }
