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
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import _ROW_BLOCK, _count_rows
from .oracle import (
    MAX_TABLE_ORDER,
    SWEEP_WIDTH,
    UNREACHABLE,
    diameter,
    distance_fields,
    move_table,
    orbit_sources,
)
from . import routing
from .perm import Perm, _apply_generator, _cycles, _relative_map, compose, identity, inverse, parity
from .routetree import _CASES, _NO_CASE, RouteTree
from .routing import (
    _bound_from_counts,
    _fault_texts,
    _phase_faults,
    oriented_step,
    validate_trace,
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
ALL_CHECKS: tuple[str, ...] = (
    ROUTE_CHECKS + DISTANCE_CHECKS + ("split-merge", "router-equivariance")
)

SPLIT_MERGE_SAMPLES = 10_000


@dataclass(frozen=True)
class Violation:
    source: Perm
    target: Perm
    observed: object
    bound: object


# what a family's sweep returns: its population, its violations by check
# name, and per check any extra figures for CheckResult
_Sweep = tuple[int, dict[str, list[Violation]], dict[str, dict[str, int]]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    population: int
    violations: tuple[Violation, ...]
    elapsed: float
    # phase-structure only: traces where law (b) and the all-crossing part
    # of law (d) were skipped (PhaseReport.extended); None for other checks
    extended: int | None = None
    # diameter-bound only: the longest route, to set beside hop_cap(n)
    longest: int | None = None
    # phase-structure only: how many (node, target) pairs each decision case
    # of the first hop served, by case label
    cases: dict[str, int] | None = None
    # diameter-bound only: how many routes have each length, 1 to longest
    lengths: dict[int, int] | None = None

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


# rows of the route trees built at once: bounds the columns a group holds.
# Larger groups run faster below order 7, where a target has few rows, but
# perfbench's worker keeps every pass's report, so a faster route-sweep
# reads a higher peak RSS there (ROADMAP items 1 and 5)
_GROUP_ROWS = 512


def _route_violations(n: int, targets: list[Perm]) -> _Sweep:
    """Every route check for every ordered pair (s, t) with s any node of
    order ``n`` and t in ``targets``: the population, the violations by
    check name, and the figures of ``phase-structure`` and
    ``diameter-bound``.

    The targets are taken in groups of at most ``_GROUP_ROWS`` rows (one
    target at least), one :class:`routetree.RouteTree` per group.  The hop,
    stretch and cap bounds, the incoming-arc and load-rise flags and the
    phase laws of :func:`routing._phase_faults` are masks over the rows;
    the classic distances of the stretch bound are the tree's own, from
    its one :func:`classify._count_rows` call.  A :class:`Violation` is
    built only for a flagged row.  A route that meets a cycle or would
    exceed the runaway limit is a ``route-validity`` violation, and no other
    check reads it.

    Each law is evaluated once: a ``phase-structure`` text joins the faults
    of that one evaluation, and a ``crossing-monotone`` text is the tree's
    first load rise.  Only a ``route-validity`` text is written from the
    :class:`RouteTrace` rebuilt from the tree, by
    :func:`routing.validate_trace`, so it reads exactly as for a routed
    trace.  The figures are the count of extended routes, the decision
    cases of every pair's first hop and the route lengths.
    """
    cap = hop_cap(n)
    found: dict[str, list[Violation]] = {name: [] for name in ROUTE_CHECKS}
    extended = 0
    cases = np.zeros(_NO_CASE + 1, dtype=np.int64)  # the last bin counts the targets
    lengths = np.zeros(routing._runaway_limit(n) + 1, dtype=np.int64)
    per = max(1, _GROUP_ROWS // factorial(n))
    for lo in range(0, len(targets), per):
        tree = RouteTree(n, targets[lo : lo + per])
        summary = tree.summary()
        length = summary.length
        live = length > 0

        def flag(name: str, row: int, observed: object, bound: object) -> None:
            found[name].append(Violation(tree.node(row), tree.target(row), observed, bound))

        for row in np.flatnonzero((length < 0) | tree.incoming).tolist():
            problems = validate_trace(tree.trace(row))
            flag("route-validity", row, "; ".join(problems), "valid directed route")
        for row in np.flatnonzero(tree.rising).tolist():
            hop, before, after = tree.first_rise(row)
            flag("crossing-monotone", row, f"{before} -> {after} at hop {hop}", "non-increasing")
        for name, cutoff in (
            ("hop-bound", _bound_from_counts(summary.source)),
            ("stretch-bound", 4 * tree.counts.distance.astype(np.int16) + 4),
            ("diameter-bound", np.full(len(length), cap, dtype=np.int16)),
        ):
            for row in np.flatnonzero(length > cutoff).tolist():
                flag(name, row, int(length[row]), int(cutoff[row]))
        laws = _phase_faults(summary)
        for row in np.flatnonzero(np.logical_or.reduce([broken for broken, _ in laws])).tolist():
            flag("phase-structure", row, "; ".join(_fault_texts(laws, row)), "phase invariants")
        extended += int(np.count_nonzero(summary.extended & live))
        cases += np.bincount(tree.case, minlength=len(cases))
        lengths += np.bincount(length[live], minlength=len(lengths))
    longest = int(np.flatnonzero(lengths)[-1]) if lengths.any() else 0
    extras = {
        "phase-structure": {
            "extended": extended,
            "cases": dict(zip(_CASES, cases[:_NO_CASE].tolist())),
        },
        "diameter-bound": {
            "longest": longest,
            "lengths": dict(enumerate(lengths[1 : longest + 1].tolist(), 1)),
        },
    }
    return factorial(n) * len(targets), found, extras


def _distance_violations(
    n: int, sources: list[Perm], targets: list[Perm]
) -> _Sweep:
    """The population and the violations of every distance check by name.
    ``targets`` is every permutation in ``itertools.permutations`` order,
    which is rank order, so target j's BFS distance is ``dist[j]``.

    This is the sweep path of the closed forms; ``routing.classic_distance``
    and ``classic_distance_sets`` serve single pairs.  The pairs of each
    :func:`oracle.distance_fields` batch, source by source and each
    source's targets in rank order, go to :func:`classify._count_rows`
    ``_ROW_BLOCK`` rows at a time.  ``distance-vs-bfs`` compares the
    kernel's classic distance with BFS and ``set-formula`` compares the
    half-partition sum ``ull + urr + ulr + url + nonsingleton`` with it, as
    arrays; a :class:`Violation` is built only for a pair that differs.
    """
    found: dict[str, list[Violation]] = {name: [] for name in DISTANCE_CHECKS}
    half = boundary(n).half
    size = len(targets)
    # where[j, v - 1]: the position of value v in target j, row j of perms
    perms = move_table(n).perms
    where = np.empty_like(perms)
    for lo in range(0, size, _ROW_BLOCK):
        block = perms[lo : lo + _ROW_BLOCK]
        np.put_along_axis(where[lo : lo + _ROW_BLOCK], block - 1, np.arange(1, n + 1), axis=1)
    fields = distance_fields(sources)
    for lo in range(0, len(sources), SWEEP_WIDTH):
        batch = sources[lo : lo + SWEEP_WIDTH]
        values = np.array(batch, dtype=np.intp) - 1
        bfs = np.concatenate([field.dist for field in itertools.islice(fields, len(batch))])
        for start in range(0, len(bfs), _ROW_BLOCK):
            src, tgt = np.divmod(np.arange(start, min(start + _ROW_BLOCK, len(bfs))), size)
            rows = _count_rows(where[tgt[:, None], values[src]], half)
            d = rows.distance
            actual = bfs[start : start + len(d)]
            for i in np.flatnonzero(d != actual).tolist():
                bound = None if actual[i] == UNREACHABLE else int(actual[i])
                found["distance-vs-bfs"].append(
                    Violation(batch[src[i]], targets[tgt[i]], int(d[i]), bound)
                )
            via_sets = rows.ull + rows.urr + rows.ulr + rows.url + rows.nonsingleton
            for i in np.flatnonzero(via_sets != d).tolist():
                found["set-formula"].append(
                    Violation(batch[src[i]], targets[tgt[i]], int(via_sets[i]), int(d[i]))
                )
    return len(sources) * len(targets), found, {}


def _decision(s: Perm, t: Perm) -> tuple[int, str, str]:
    link, kind, case = oriented_step(s, t)
    return link, case, kind.value


def _equivariance_violations(
    n: int, nodes: list[Perm], seed: int, sample_size: int
) -> _Sweep:
    """Router equivariance under even relabeling, the property that lets
    ``sources="reduced"`` route into two canonical targets only.

    Each target t has the parity of one canonical target c in
    :func:`oracle.orbit_sources`, so h = t c^-1 is even and relabels c to
    t.  The decision (link, case, move kind) at node s toward t must equal
    the one at h^-1 s = c t^-1 s toward c.  Every node and target is
    compared through order 5; from order 6 on, ``sample_size`` (node,
    target) pairs drawn from ``seed``.
    """

    def sampled() -> Iterator[tuple[Perm, Perm]]:
        rng = random.Random(seed)
        for _ in range(sample_size):
            t = s = tuple(rng.sample(range(1, n + 1), n))
            while s == t:
                s = tuple(rng.sample(range(1, n + 1), n))
            yield s, t

    if n <= 5:
        population = len(nodes) * (len(nodes) - 1)
        pairs: Iterable[tuple[Perm, Perm]] = ((s, t) for t in nodes for s in nodes if s != t)
    else:
        population, pairs = sample_size, sampled()
    canonical = orbit_sources(n)
    found: list[Violation] = []
    for s, t in pairs:
        c = canonical[parity(t)]
        relabeled = compose(c, compose(inverse(t), s))
        expected, got = _decision(relabeled, c), _decision(s, t)
        if got != expected:
            found.append(Violation(s, t, got, f"{expected} at {relabeled} toward {c}"))
    return population, {"router-equivariance": found}, {}


def _cycle_family(c: Perm, t: Perm) -> set[frozenset[int]]:
    """The relative cycles of ``c`` toward ``t`` as sets; unchecked, as the
    sampler draws only permutations."""
    return {frozenset(cy) for cy in _cycles(_relative_map(c, t)).cycles}


def _split_merge_problem(c: Perm, t: Perm, link: int) -> str | None:
    """One swap must split the shared relative cycle or merge two, leaving
    every other cycle untouched; returns a description of any departure."""
    u, v = c[0], c[link - 1]
    before = _cycle_family(c, t)
    after = _cycle_family(_apply_generator(c, link), t)
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
    n: int, nodes: list[Perm], seed: int, sample_size: int
) -> _Sweep:
    found: list[Violation] = []
    if n <= 5:
        population = len(nodes) * len(nodes) * (n - 1)
        for c in nodes:
            for t in nodes:
                for link in range(2, n + 1):
                    problem = _split_merge_problem(c, t, link)
                    if problem:
                        found.append(Violation(c, t, f"link {link}: {problem}", "split/merge law"))
        return population, {"split-merge": found}, {}
    values = list(range(1, n + 1))
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
    return sample_size, {"split-merge": found}, {}


def verify(
    n: int,
    checks: Iterable[str] | None = None,
    sources: str | None = None,
    seed: int = 0,
    sample_size: int = SPLIT_MERGE_SAMPLES,
) -> VerificationReport:
    """Run the named checks over ordered node pairs of the order-``n`` graph.

    ``sources`` is ``"all"`` (every ordered pair, default through n=6) or
    ``"reduced"`` (default from n=7 on): one pair from each orbit of ordered
    pairs under even relabeling, which the router respects
    (``router-equivariance`` checks that), 2·n! pairs in all.  The route
    checks take every node as source into the two canonical targets of
    :func:`oracle.orbit_sources`; the distance checks take those two as
    sources toward every node.  Route checks follow the contiguous-half
    scheme.  ``seed`` and ``sample_size`` control the sampled
    ``router-equivariance`` and ``split-merge`` checks at n >= 6; both are
    exhaustive below.

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
    nodes = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    chosen = nodes if sources == "all" else list(orbit_sources(n))

    results: dict[str, CheckResult] = {}
    for family, sweep in (
        (ROUTE_CHECKS, lambda: _route_violations(n, chosen)),
        (DISTANCE_CHECKS, lambda: _distance_violations(n, chosen, nodes)),
        (("router-equivariance",), lambda: _equivariance_violations(n, nodes, seed, sample_size)),
        (("split-merge",), lambda: _split_merge_violations(n, nodes, seed, sample_size)),
    ):
        if not set(family).isdisjoint(selected):
            start = time.perf_counter()
            population, by_name, extras = sweep()
            elapsed = time.perf_counter() - start
            for name in family:
                violations = tuple(by_name[name])
                results[name] = CheckResult(
                    name, population, violations, elapsed, **extras.get(name, {})
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
    if not 5 <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"lower_bound_check covers n in 5..{MAX_TABLE_ORDER}, got {n}")
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
