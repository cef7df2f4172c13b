"""Verification sweeps, lower-bound witnesses, and diameter tables.

Everything here re-derives what the other modules promise and counts the
exceptions.  ``verify`` runs named checks over ordered node pairs and returns
a report object; ``witness``/``lower_bound_check`` build the rotated-halves
permutation that realises the directed lower bound; ``diameter_table``
measures both orientation schemes side by side.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .classify import _counts
from .oracle import MAX_TABLE_ORDER, UNREACHABLE, diameter, distance_fields, orbit_sources
from .perm import Perm, apply_generator, identity, positions, relative_cycles
from .routing import (
    _bound_from_counts,
    _phase_laws,
    _walk,
    classic_distance,
    classic_distance_sets,
    oriented_route,
)
from .topology import Scheme, boundary

ROUTE_CHECKS: tuple[str, ...] = (
    "route-validity",
    "hop-bound",
    "stretch-bound",
    "diameter-bound",
    "phase-structure",
    "crossing-monotone",
)
DISTANCE_CHECKS: tuple[str, ...] = ("distance-vs-bfs", "set-formula")
ALL_CHECKS: tuple[str, ...] = ROUTE_CHECKS + DISTANCE_CHECKS + ("split-merge",)

SPLIT_MERGE_SAMPLES = 10_000


@dataclass(frozen=True)
class Violation:
    source: Perm
    target: Perm
    observed: object
    bound: object


@dataclass(frozen=True)
class CheckResult:
    name: str
    population: int
    violations: tuple[Violation, ...]
    elapsed: float
    # phase-structure only: traces where law (b) and the all-crossing part
    # of law (d) were skipped (PhaseReport.extended); None for other checks
    extended: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class VerificationReport:
    n: int
    sources: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def hop_cap(n: int) -> int:
    """Worst-case oriented route length: ``2n+2`` for odd n, ``2n+4`` for even."""
    return 2 * n + 2 if n % 2 else 2 * n + 4


def _route_violations(
    n: int, sources: list[Perm], targets: list[Perm]
) -> tuple[dict[str, list[Violation]], int]:
    """Violations of every route check by name, and the number of traces
    whose phase report is ``extended``."""
    half = boundary(n).half
    cap = hop_cap(n)
    found: dict[str, list[Violation]] = {name: [] for name in ROUTE_CHECKS}
    extended = 0
    for s in sources:
        for t in targets:
            trace = oriented_route(s, t)
            length = trace.length
            # one target index and one count of the source per pair, shared
            # by the route walk, the hop bound and the phase laws
            tpos = positions(t)
            problems, rise = _walk(trace, tpos)
            if problems:
                found["route-validity"].append(
                    Violation(s, t, "; ".join(problems), "valid directed route")
                )
            if rise:
                hop, prev, cur = rise
                found["crossing-monotone"].append(
                    Violation(s, t, f"{prev} -> {cur} at hop {hop}", "non-increasing")
                )
            counts = _counts(s, tpos, half)
            cutoff = _bound_from_counts(counts)
            if length > cutoff:
                found["hop-bound"].append(Violation(s, t, length, cutoff))
            cutoff = 4 * classic_distance(s, t) + 4
            if length > cutoff:
                found["stretch-bound"].append(Violation(s, t, length, cutoff))
            if length > cap:
                found["diameter-bound"].append(Violation(s, t, length, cap))
            report = _phase_laws(trace, tpos, half, counts)
            extended += report.extended
            if not report.ok:
                found["phase-structure"].append(
                    Violation(s, t, "; ".join(report.violations), "phase invariants")
                )
    return found, extended


def _distance_violations(
    n: int, sources: list[Perm], targets: list[Perm]
) -> tuple[dict[str, list[Violation]], None]:
    """Violations of every distance check by name.  ``targets`` is every
    permutation in ``itertools.permutations`` order, which is rank order, so
    target j's BFS distance is ``dist[j]``."""
    found: dict[str, list[Violation]] = {name: [] for name in DISTANCE_CHECKS}
    for s, field in zip(sources, distance_fields(sources)):
        for t, actual in zip(targets, field.dist.tolist()):
            d = classic_distance(s, t)
            if d != actual:
                actual = None if actual == UNREACHABLE else actual
                found["distance-vs-bfs"].append(Violation(s, t, d, actual))
            via_sets = classic_distance_sets(s, t)
            if via_sets != d:
                found["set-formula"].append(Violation(s, t, via_sets, d))
    return found, None


def _cycle_family(c: Perm, t: Perm) -> set[frozenset[int]]:
    return {frozenset(cy) for cy in relative_cycles(c, t).cycles}


def _split_merge_problem(c: Perm, t: Perm, link: int) -> str | None:
    """One swap must split the shared relative cycle or merge two, leaving
    every other cycle untouched; returns a description of any departure."""
    u, v = c[0], c[link - 1]
    before = _cycle_family(c, t)
    after = _cycle_family(apply_generator(c, link), t)
    cyc_u = next(cy for cy in before if u in cy)
    cyc_v = next(cy for cy in before if v in cy)
    if cyc_u == cyc_v:
        rest = before - {cyc_u}
        if not rest <= after:
            return "split disturbed an unrelated cycle"
        new = after - rest
        if len(new) != 2 or frozenset().union(*new) != cyc_u:
            return f"expected {set(cyc_u)} to split in two, got {[set(x) for x in new]}"
    else:
        rest = before - {cyc_u, cyc_v}
        if not rest <= after:
            return "merge disturbed an unrelated cycle"
        new = after - rest
        if len(new) != 1 or next(iter(new)) != cyc_u | cyc_v:
            return f"expected {set(cyc_u)} and {set(cyc_v)} to merge, got {[set(x) for x in new]}"
    return None


def _split_merge_violations(
    n: int, seed: int, sample_size: int
) -> tuple[list[Violation], int]:
    values = list(range(1, n + 1))
    found: list[Violation] = []
    if n <= 5:
        perms = [tuple(p) for p in itertools.permutations(values)]
        population = len(perms) * len(perms) * (n - 1)
        for c in perms:
            for t in perms:
                for link in range(2, n + 1):
                    problem = _split_merge_problem(c, t, link)
                    if problem:
                        found.append(Violation(c, t, f"link {link}: {problem}", "split/merge law"))
        return found, population
    rng = random.Random(seed)
    for _ in range(sample_size):
        c = values[:]
        t = values[:]
        rng.shuffle(c)
        rng.shuffle(t)
        link = rng.randint(2, n)
        problem = _split_merge_problem(tuple(c), tuple(t), link)
        if problem:
            found.append(Violation(tuple(c), tuple(t), f"link {link}: {problem}", "split/merge law"))
    return found, sample_size


def verify(
    n: int,
    checks: Iterable[str] | None = None,
    sources: str | None = None,
    seed: int = 0,
    sample_size: int = SPLIT_MERGE_SAMPLES,
) -> VerificationReport:
    """Run the named checks over ordered node pairs of the order-``n`` graph.

    ``sources`` is ``"all"`` (every permutation, default through n=6) or
    ``"reduced"`` (the identity plus one odd node, default from n=7 on; the
    two parity classes are interchangeable under even left-translations).
    Route checks follow the contiguous-half scheme.  ``seed`` and
    ``sample_size`` control the sampled split/merge law at n >= 6.

    The route checks (:data:`ROUTE_CHECKS`) are one sweep and the distance
    checks (:data:`DISTANCE_CHECKS`) another: selecting any check of a family
    runs the whole family, every check of it reports the family's ``elapsed``
    wall time, and the report holds just the selected checks in the order
    given.
    """
    if not 3 <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"verify covers orders 3..{MAX_TABLE_ORDER}, got {n}")
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    selected = list(ALL_CHECKS) if checks is None else list(checks)
    if not selected:
        raise ValueError(f"no checks selected; valid: {', '.join(ALL_CHECKS)}")
    unknown = [name for name in selected if name not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid: {', '.join(ALL_CHECKS)}")
    duplicates = [name for name, count in Counter(selected).items() if count > 1]
    if duplicates:
        raise ValueError(f"duplicate checks {duplicates}")
    if sources is None:
        sources = "all" if n <= 6 else "reduced"
    if sources not in ("all", "reduced"):
        raise ValueError(f"sources must be 'all' or 'reduced', not {sources!r}")
    targets = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    source_list = targets if sources == "all" else list(orbit_sources(n))

    results: dict[str, CheckResult] = {}
    population = len(source_list) * len(targets)
    for family, sweep in (
        (ROUTE_CHECKS, _route_violations),
        (DISTANCE_CHECKS, _distance_violations),
    ):
        if not set(family).isdisjoint(selected):
            start = time.perf_counter()
            by_name, extended = sweep(n, source_list, targets)
            elapsed = time.perf_counter() - start
            for name in family:
                skipped = extended if name == "phase-structure" else None
                violations = tuple(by_name[name])
                results[name] = CheckResult(name, population, violations, elapsed, skipped)
    if "split-merge" in selected:
        start = time.perf_counter()
        found, sampled = _split_merge_violations(n, seed, sample_size)
        results["split-merge"] = CheckResult(
            "split-merge", sampled, tuple(found), time.perf_counter() - start
        )
    return VerificationReport(n, sources, tuple(results[name] for name in selected))


# ---------------------------------------------------------------------------
# lower-bound witness


def witness(n: int, variant: str = "default") -> Perm:
    """The rotated-halves permutation used for the directed lower bound, at
    orders 5..MAX_TABLE_ORDER (the orders whose distances can be measured).

    ``default`` cycles each half by one position: (1)(2..k)(k+1..n).  The
    ``even-refined`` form peels (2,3) off the left half — (1)(2,3)(4..k)
    (k+1..n) — and needs even n >= 8.

    >>> witness(5)
    (1, 3, 2, 5, 4)
    >>> witness(8, "even-refined")
    (1, 3, 2, 5, 4, 7, 8, 6)
    """
    if variant not in ("default", "even-refined"):
        raise ValueError(f"variant must be 'default' or 'even-refined', not {variant!r}")
    if not 5 <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"witness covers orders 5..{MAX_TABLE_ORDER}, got {n}")
    if variant == "even-refined" and (n % 2 or n < 8):
        raise ValueError(f"even-refined witness needs even n >= 8, got {n}")
    k = boundary(n).k
    w = list(range(1, n + 1))

    def rotate(lo: int, hi: int) -> None:
        for p in range(lo, hi):
            w[p - 1] = p + 1
        w[hi - 1] = lo

    if variant == "even-refined":
        rotate(2, 3)
        rotate(4, k)
    else:
        rotate(2, k)
    rotate(k + 1, n)
    return tuple(w)


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    witness: Perm
    variant: str
    distance: int
    required: int
    ok: bool
    supports_2n: bool


def lower_bound_check(n: int, scheme: Scheme | str = Scheme.FUJITA) -> LowerBoundReport:
    """Measure the directed distance from the witness to the identity.

    That distance lower-bounds the directed diameter; the report requires
    2n-1 at n in {5,6} and 2n from n=7 on.  ``supports_2n`` records whether
    the measured distance reaches 2n even where only 2n-1 is required.
    At even n >= 8 both witness variants are measured and the farther wins.
    """
    if not 5 <= n <= 9:
        raise ValueError(f"lower_bound_check covers n in 5..9, got {n}")
    if isinstance(scheme, str):
        scheme = Scheme.parse(scheme)
    variants = ["default"]
    if n % 2 == 0 and n >= 8:
        variants.append("even-refined")
    witnesses = [witness(n, variant) for variant in variants]
    fields = distance_fields(witnesses, directed=True, scheme=scheme)
    distances = [field.distance(identity(n)) for field in fields]
    # the farther variant wins; a tie keeps the default
    distance, w, variant = max(zip(distances, witnesses, variants), key=lambda m: m[0])
    required = 2 * n - 1 if n in (5, 6) else 2 * n
    return LowerBoundReport(
        n, w, variant, distance, required, distance >= required, distance >= 2 * n
    )


# ---------------------------------------------------------------------------
# scheme-comparison table


@dataclass(frozen=True)
class DiameterRow:
    n: int
    undirected: int
    fujita: int
    daytripathi: int
    lower: int | None
    upper: int | None
    mode: str


def diameter_table(ns: Iterable[int], mode: str | None = None) -> list[DiameterRow]:
    """Measured diameters per order: undirected and both schemes directed.

    ``lower``/``upper`` are the proven directed brackets for the
    contiguous-half scheme (blank below n=5, where they do not apply).
    ``mode`` takes the default of :func:`oracle.diameter`.
    """
    rows = []
    for n in ns:
        und = diameter(n, directed=False, mode=mode)
        fuj = diameter(n, directed=True, scheme=Scheme.FUJITA, mode=mode)
        day = diameter(n, directed=True, scheme=Scheme.DAY_TRIPATHI, mode=mode)
        lower = None if n < 5 else (2 * n - 1 if n in (5, 6) else 2 * n)
        upper = None if n < 5 else hop_cap(n)
        rows.append(DiameterRow(n, und.value, fuj.value, day.value, lower, upper, und.mode))
    return rows


def format_table(rows: Sequence[DiameterRow], fmt: str = "text") -> str:
    """Render diameter rows as aligned text, CSV, or a JSON array."""
    if fmt == "csv":
        lines = ["n,undirected,fujita,daytripathi,lower,upper,mode"]
        for r in rows:
            lower = "" if r.lower is None else r.lower
            upper = "" if r.upper is None else r.upper
            lines.append(
                f"{r.n},{r.undirected},{r.fujita},{r.daytripathi},{lower},{upper},{r.mode}"
            )
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps([r.__dict__ for r in rows], indent=2)
    if fmt == "text":
        header = ("n", "undirected", "fujita", "daytripathi", "lower", "upper", "mode")
        table = [header]
        for r in rows:
            table.append(
                tuple(
                    "-" if v is None else str(v)
                    for v in (r.n, r.undirected, r.fujita, r.daytripathi, r.lower, r.upper, r.mode)
                )
            )
        widths = [max(len(row[c]) for row in table) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
        )
    raise ValueError(f"format must be text, csv or json, not {fmt!r}")
