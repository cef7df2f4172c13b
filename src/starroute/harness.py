"""Verification sweeps, lower-bound witnesses, and diameter tables.

Everything here re-derives what the other modules promise and counts the
exceptions.  ``verify`` runs named checks over ordered node pairs and returns
a report object; ``witness``/``lower_bound_check`` build the rotated-halves
permutation that realises the directed lower bound; ``diameter_table``
measures both orientation schemes side by side.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field, fields
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import _ROW_BLOCK, _count_rows, _cycle_cols, _dest_rows, crossing_load
from .oracle import (
    UNREACHABLE,
    _distance_blocks,
    check_order,
    diameters,
    distance_fields,
    move_table,
    orbit_sources,
)
from . import routing
from .perm import Perm, apply_generator, compose, cycles, identity, inverse, parity, relative_map
from .routetree import RouteTree
from .routing import (
    _bound_from_counts,
    _fault_texts,
    _phase_faults,
    oriented_step,
    validate_trace,
)
from .topology import Scheme, boundary, relabelling

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
# the largest order a route or distance check sweeps every ordered pair at:
# (n!)^2 pairs, 2.5e7 at order 7 and 1.6e9 at order 8
ALL_SOURCES_ORDER = 7
ALL_SOURCES_DEFAULT_ORDER = 6  # verify takes every ordered pair by default through it
UNSAMPLED_ORDER = 5  # split-merge and router-equivariance take every row through it


@dataclass(frozen=True)
class Violation:
    source: Perm
    target: Perm
    observed: object
    bound: object


# what a family's sweep returns: its population, its violations by check
# name, and per check its figures for CheckResult
_Sweep = tuple[int, dict[str, list[Violation]], dict[str, dict[str, object]]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    population: int
    violations: tuple[Violation, ...]
    elapsed: float
    # what the check reports beside its population, by name in report
    # order: a number, or a histogram as counts by label; empty for most.
    # Left out of the hash, so a result stays hashable
    figures: dict[str, object] = field(default_factory=dict, hash=False)

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


def _nodes(n: int) -> list[Perm]:
    """Every node of order ``n`` as a tuple, in rank order: n! tuples, so
    built only where a check enumerates them."""
    return list(map(tuple, move_table(n).perms.tolist()))


def hop_cap(n: int) -> int:
    """Worst-case oriented route length: ``2n+2`` for odd n, ``2n+4`` for even."""
    return 2 * n + 2 if n % 2 else 2 * n + 4


def _required_distance(n: int) -> int:
    """The directed distance the lower-bound witness must reach: ``2n-1``
    at n in {5, 6}, ``2n`` from n=7 on."""
    return 2 * n - 1 if n in (5, 6) else 2 * n


# rows of the route trees built at once: bounds the columns a group holds.
# Larger groups run faster below order 7, where a target has few rows, but
# perfbench's worker keeps every pass's report, so a faster route-sweep
# reads a higher peak RSS there (ROADMAP item 2)
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
    its one :func:`routetree._pick_rows` pass.  A :class:`Violation` is
    built only for a flagged row.  A route that meets a cycle or would
    exceed the runaway limit is a ``route-validity`` violation, and no other
    check reads it.

    Each law is evaluated once: a ``phase-structure`` text joins the faults
    of that one evaluation.  A text that walks a flagged row's route is
    written from the :class:`RouteTrace` the tree rebuilds, so it reads
    exactly as for a routed trace: ``route-validity`` by
    :func:`routing.validate_trace`, ``crossing-monotone`` at the first hop
    where :func:`classify.crossing_load` rises, and the inside hops of
    ``phase-structure`` by :func:`routing._inside_hops`.  The figures are
    the count of extended routes, the decision cases of every pair's first
    hop, the longest route beside the cap and the route lengths.
    """
    cap = hop_cap(n)
    found: dict[str, list[Violation]] = {name: [] for name in ROUTE_CHECKS}
    extended = 0
    cases = np.zeros(len(routing.CASES) + 1, dtype=np.int64)  # the last bin counts the targets
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
            trace = tree.trace(row)
            loads = [crossing_load(node, trace.target) for node in trace.nodes]
            hop = next(j for j in range(1, len(loads)) if loads[j] > loads[j - 1])
            rise = f"{loads[hop - 1]} -> {loads[hop]} at hop {hop}"
            flag("crossing-monotone", row, rise, "non-increasing")
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
        del tree, summary, laws  # before the next group's columns are built
    longest = int(np.flatnonzero(lengths)[-1]) if lengths.any() else 0
    extras = {
        "phase-structure": {
            "extended": extended,
            "cases": dict(zip(routing.CASES, cases.tolist())),
        },
        "diameter-bound": {
            "longest": longest,
            "hop_cap": cap,
            "lengths": dict(enumerate(lengths[1 : longest + 1].tolist(), 1)),
        },
    }
    return factorial(n) * len(targets), found, extras


def _distance_violations(n: int, targets: list[Perm]) -> _Sweep:
    """The population and the violations of every distance check by name,
    over the route family's pairs: every node into each of ``targets``, row
    ``j * n! + v`` being node v of ``move_table(n).perms`` into target j, as
    in :class:`routetree.RouteTree`.  BFS distance is symmetric, so row j of an
    :func:`oracle._distance_blocks` block is every node's distance into j.

    A block's targets go to :func:`classify._count_rows` as
    :func:`classify._dest_rows`, at most ``_ROW_BLOCK`` rows (one target at
    least) at a time.  ``distance-vs-bfs`` compares the kernel's classic
    distance with BFS and ``set-formula`` the half-partition sum ``ull +
    urr + ulr + url + nonsingleton`` with it; a :class:`Violation` is built
    only for a pair that differs.  ``routing.classic_distance`` and
    ``classic_distance_sets`` serve single pairs.
    """
    found: dict[str, list[Violation]] = {name: [] for name in DISTANCE_CHECKS}
    perms = move_table(n).perms
    size = len(perms)
    per = max(1, _ROW_BLOCK // size)
    for batch, block in _distance_blocks(targets):
        for lo in range(0, len(batch), per):
            group, bfs = batch[lo : lo + per], block[lo : lo + per].ravel()

            def flag(name: str, row: int, observed: int, bound: int | None) -> None:
                node = tuple(perms[row % size].tolist())
                found[name].append(Violation(node, group[row // size], observed, bound))

            rows = _count_rows(_dest_rows(group, perms))
            d = rows.distance
            for i in np.flatnonzero(d != bfs).tolist():
                bound = None if bfs[i] == UNREACHABLE else int(bfs[i])
                flag("distance-vs-bfs", i, int(d[i]), bound)
            via_sets = rows.ull + rows.urr + rows.ulr + rows.url + rows.nonsingleton
            for i in np.flatnonzero(via_sets != d).tolist():
                flag("set-formula", i, int(via_sets[i]), int(d[i]))
    return len(targets) * size, found, {}


def _decision(s: Perm, t: Perm) -> tuple[int, str, str]:
    link, kind, case = oriented_step(s, t)
    return link, case, kind.value


# rows split-merge and router-equivariance take at once: bounds memory at any sample size
_SPLIT_MERGE_ROWS = 1024


def _rng(seed: int) -> random.Random:
    """``random.Random(seed)``, a negative seed by its string: an int seed loses its sign."""
    return random.Random(seed if seed >= 0 else str(seed))


def _draw(rng: random.Random, m: int, n: int) -> np.ndarray:
    """``m`` permutations of 1..n as an ``(m, n)`` uint8 block, each row the
    stable argsort (plus one) of n random 32-bit keys from ``rng.randbytes``."""
    keys = np.frombuffer(rng.randbytes(4 * m * n), dtype="<u4").reshape(m, n)
    return (np.argsort(keys, axis=1, kind="stable") + 1).astype(np.uint8)


def _drawn_pairs(n: int, seed: int, sample_size: int) -> Iterator[tuple[Perm, Perm]]:
    """``sample_size`` pairs (s, t), s != t, from :func:`_rng`: per
    ``_SPLIT_MERGE_ROWS`` rows t and then s by :func:`_draw`, s redrawn where s = t."""
    rng = _rng(seed)
    for lo in range(0, sample_size, _SPLIT_MERGE_ROWS):
        m = min(_SPLIT_MERGE_ROWS, sample_size - lo)
        t, s = _draw(rng, m, n), _draw(rng, m, n)
        while (same := np.flatnonzero((s == t).all(axis=1))).size:
            s[same] = _draw(rng, same.size, n)
        yield from zip(map(tuple, s.tolist()), map(tuple, t.tolist()))


def _equivariance_violations(n: int, seed: int, sample_size: int) -> _Sweep:
    """Router equivariance under even relabeling, the property that lets
    ``sources="reduced"`` route into two canonical targets only.

    Each target t has the parity of one canonical target c in
    :func:`oracle.orbit_sources`, so h = t c^-1 is even and relabels c to
    t.  The decision (link, case, move kind) at node s toward t must equal
    the one at h^-1 s = c t^-1 s toward c.  Every node and target is
    compared through :data:`UNSAMPLED_ORDER`; beyond, ``sample_size``
    (node, target) pairs from :func:`_drawn_pairs`.
    """
    if n <= UNSAMPLED_ORDER:
        nodes = _nodes(n)
        population = len(nodes) * (len(nodes) - 1)
        pairs: Iterable[tuple[Perm, Perm]] = ((s, t) for t in nodes for s in nodes if s != t)
    else:
        population, pairs = sample_size, _drawn_pairs(n, seed, sample_size)
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
    """The relative cycles of ``c`` toward ``t`` as sets."""
    return {frozenset(cy) for cy in cycles(relative_map(c, t)).cycles}


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


def _split_merge_rows(dest: np.ndarray, link: np.ndarray) -> np.ndarray:
    """Which rows break the split/merge law: True exactly where
    :func:`_split_merge_problem` returns a text.

    ``dest`` is an ``(m, n)`` uint8 block of :func:`classify._count_rows`
    rows, for pairs (c, t), and ``link`` the ``(m,)`` link of each row's hop.
    A value is named by its position in c, so a relative cycle is a set of
    positions.  The hop moves the value at position τ(p) to position p, with
    τ = (1 link) read from the hop itself.  After it, position dest[q], the
    one the value named q is bound for, holds the value named τ(dest[q]), so
    the cycles after the hop are those of ``τ(dest)``, in the same names.
    :func:`classify._cycle_cols` labels each position with the lowest
    position on its cycle, before (L) and after (L') the hop.

    With U the union of the cycles through positions 1 and ``link``, the law
    holds iff every cycle off U is kept, every cycle meeting U after the hop
    lies in U, and U holds two cycles after a split (1 and ``link`` shared a
    cycle) or one after a merge.  Over the labels: L'(q) = L(q) at every q
    off U, L'(q) lies in U at every q in U, and the positions of U with
    L'(q) = q, the leaders of its cycles after the hop, number 2 or 1.
    """
    m, n = dest.shape
    at = link.astype(np.intp)
    # hops[l - 2, x] = τ(x) for the hop on link l, read from the hop itself
    hops = np.zeros((n - 1, n + 1), dtype=np.uint8)
    hops[:, 1:] = [apply_generator(identity(n), l) for l in range(2, n + 1)]
    still = np.zeros((n, m), dtype=bool)
    label, _ = _cycle_cols(np.ascontiguousarray(dest.T), still)
    relabel, _ = _cycle_cols(np.ascontiguousarray(hops[at[:, None] - 2, dest].T), still)
    row = np.arange(m)
    first, other = label[0], label[at - 1, row]
    shared = (label == first) | (label == other)
    # whether the lowest position on each position's cycle after the hop is in U
    inside = shared.ravel()[(relabel.astype(np.intp) - 1) * m + row].reshape(n, m)
    broken = np.where(shared, ~inside, relabel != label)
    pos = np.arange(1, n + 1, dtype=np.uint8)[:, None]
    cycles = np.sum(shared & (relabel == pos), axis=0)
    return broken.any(axis=0) | (cycles != 1 + (first == other))


def _split_merge_blocks(n: int, seed: int, sample_size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The split/merge check's (c, t, link) rows, ``_SPLIT_MERGE_ROWS`` at a
    time: through :data:`UNSAMPLED_ORDER` every triple, c then t in rank order,
    links ascending; beyond, ``sample_size`` from :func:`_rng`, c and t by
    :func:`_draw` and the link 1 + the first entry of a drawn permutation of
    1..n-1."""
    rng = _rng(seed)
    nodes = move_table(n).perms if n <= UNSAMPLED_ORDER else None
    size = sample_size if nodes is None else len(nodes) ** 2 * (n - 1)
    for lo in range(0, size, _SPLIT_MERGE_ROWS):
        m = min(_SPLIT_MERGE_ROWS, size - lo)
        if nodes is None:
            yield _draw(rng, m, n), _draw(rng, m, n), _draw(rng, m, n - 1)[:, 0] + 1
        else:
            pair, link = np.divmod(np.arange(lo, lo + m), n - 1)
            yield nodes[pair // len(nodes)], nodes[pair % len(nodes)], (link + 2).astype(np.uint8)


def _split_merge_violations(n: int, seed: int, sample_size: int) -> _Sweep:
    """The split/merge law for one hop from c toward t: every (c, t, link)
    through order 5, ``sample_size`` triples drawn from ``seed`` beyond.

    Each block of :func:`_split_merge_blocks` is drawn just before it is
    used, so memory does not grow with the sample size.  A block becomes
    ``dest`` rows, and :func:`_split_merge_rows` applies the law to them at
    once: it labels the cycles before and after the hop with
    :func:`classify._cycle_cols`, names the cycles after it by their
    positions before (the τ = (1 link) relabelling), and flags a row where a
    cycle off the two at positions 1 and ``link`` changes, a cycle reaches
    into or out of those two, or they do not become two (a split) or one (a
    merge).  A flagged row's text is :func:`_split_merge_problem`'s, the
    per-triple reference, so violations read and come in the same order as
    from a loop over the triples.
    """
    population = 0
    found: list[Violation] = []
    for c, t, link in _split_merge_blocks(n, seed, sample_size):
        population += len(link)
        # argsort(t)[v - 1] + 1: the position of value v in t, so dest is that at c
        dest = np.take_along_axis(np.argsort(t, axis=1) + 1, c - 1, axis=1).astype(np.uint8)
        for i in np.flatnonzero(_split_merge_rows(dest, link)).tolist():
            s, d, hop = tuple(c[i].tolist()), tuple(t[i].tolist()), int(link[i])
            problem = _split_merge_problem(s, d, hop)
            found.append(Violation(s, d, f"link {hop}: {problem}", "split/merge law"))
    return population, {"split-merge": found}, {}


def verify(
    n: int,
    checks: Iterable[str] | None = None,
    sources: str | None = None,
    seed: int = 0,
    sample_size: int = SPLIT_MERGE_SAMPLES,
) -> VerificationReport:
    """Run the named checks over ordered node pairs of the order-``n`` graph.

    ``sources`` is ``"all"`` (every ordered pair, default through
    :data:`ALL_SOURCES_DEFAULT_ORDER` and for the route and distance checks allowed
    through :data:`ALL_SOURCES_ORDER`) or ``"reduced"`` (the default beyond): every
    node into the two canonical targets of :func:`oracle.orbit_sources`, one pair
    from each orbit of ordered pairs under even relabeling, 2·n! pairs in all.  The
    router respects that relabeling (``router-equivariance`` checks it).  Both
    families take the same pairs.  Route checks follow the contiguous-half
    scheme.  ``seed`` and ``sample_size`` control the sampled ``router-equivariance``
    and ``split-merge`` checks above :data:`UNSAMPLED_ORDER`, whose rows
    :func:`_draw` takes from :func:`_rng` (the sign counts); both are exhaustive through it.

    The route checks (:data:`ROUTE_CHECKS`) are one sweep and the distance
    checks (:data:`DISTANCE_CHECKS`) another: selecting any check of a family
    runs the whole family, every check of it reports the family's ``elapsed``
    wall time, and the report holds just the selected checks in the order
    given.  A check's figures are those its family's sweep reports for it,
    as :attr:`CheckResult.figures`.
    """
    check_order(n, "verify covers orders")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if isinstance(sample_size, bool) or not isinstance(sample_size, int) or sample_size < 1:
        raise ValueError(f"sample size must be an int of at least 1, got {sample_size!r}")
    if isinstance(checks, str):
        raise ValueError(f"checks must be a collection of names, not the string {checks!r}")
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
        sources = "all" if n <= ALL_SOURCES_DEFAULT_ORDER else "reduced"
    if sources not in ("all", "reduced"):
        raise ValueError(f"sources must be 'all' or 'reduced', not {sources!r}")
    if sources == "reduced":
        chosen = list(orbit_sources(n))
    elif set(ROUTE_CHECKS + DISTANCE_CHECKS).isdisjoint(selected):
        chosen = []  # only the sampled checks run, and they take no sources
    elif n > ALL_SOURCES_ORDER:
        raise ValueError(
            f"sources 'all' at order {n} means {factorial(n) ** 2:,} pairs; "
            f"use --sources reduced above order {ALL_SOURCES_ORDER}"
        )
    else:
        chosen = _nodes(n)

    results: dict[str, CheckResult] = {}
    for family, sweep in (
        (ROUTE_CHECKS, lambda: _route_violations(n, chosen)),
        (DISTANCE_CHECKS, lambda: _distance_violations(n, chosen)),
        (("router-equivariance",), lambda: _equivariance_violations(n, seed, sample_size)),
        (("split-merge",), lambda: _split_merge_violations(n, seed, sample_size)),
    ):
        if not set(family).isdisjoint(selected):
            start = time.perf_counter()
            population, by_name, extras = sweep()
            elapsed = time.perf_counter() - start
            for name in family:
                violations = tuple(by_name[name])
                results[name] = CheckResult(
                    name, population, violations, elapsed, extras.get(name, {})
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
    check_order(n, "witness covers orders", 5)
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


def lower_bound_check(n: int, scheme: Scheme = Scheme.FUJITA) -> LowerBoundReport:
    """Measure the directed distance from the witness to the identity.

    That distance lower-bounds the directed diameter; the report requires
    2n-1 at n in {5,6} and 2n from n=7 on.  ``supports_2n`` records whether
    the measured distance reaches 2n even where only 2n-1 is required.
    At even n >= 8 both witness variants are measured and the farther wins.
    The witness is taken as s^-1∘w∘s, with s the scheme's
    :func:`topology.relabelling`: under the scheme it lies as far from the
    identity as w does under Fujita's (w itself there), and the report
    names the permutation measured.  The bound is on a directed diameter,
    so ``scheme`` must be a :class:`Scheme`.
    """
    check_order(n, "lower_bound_check covers n in", 5)
    if not isinstance(scheme, Scheme):
        raise ValueError(f"the lower bound needs an orientation Scheme, got {scheme!r}")
    variants = ["default"]
    if n % 2 == 0 and n >= 8:
        variants.append("even-refined")
    s = relabelling(n, scheme)
    witnesses = [compose(inverse(s), compose(witness(n, variant), s)) for variant in variants]
    distances = [d.distance(identity(n)) for d in distance_fields(witnesses, scheme)]
    # the farther variant wins; a tie keeps the default
    distance, w, variant = max(zip(distances, witnesses, variants), key=lambda m: m[0])
    required = _required_distance(n)
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
    ``mode`` takes the default of :func:`oracle.diameter`; in orbit mode
    the three graphs of an order share one sweep (:func:`oracle.diameters`).
    """
    rows = []
    for n in ns:
        und, fuj, day = diameters(n, (None, Scheme.FUJITA, Scheme.DAY_TRIPATHI), mode)
        lower = None if n < 5 else _required_distance(n)
        upper = None if n < 5 else hop_cap(n)
        rows.append(DiameterRow(n, und.value, fuj.value, day.value, lower, upper, und.mode))
    return rows


def format_table(rows: Sequence[DiameterRow], fmt: str = "text") -> str:
    """Render diameter rows as aligned text, CSV, or a JSON array; the
    columns are the fields of :class:`DiameterRow`, and a blank is empty
    in CSV and ``-`` in text."""
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2)
    if fmt not in ("csv", "text"):
        raise ValueError(f"format must be text, csv or json, not {fmt!r}")
    blank = "" if fmt == "csv" else "-"
    table = [tuple(f.name for f in fields(DiameterRow))]
    table += [tuple(blank if v is None else str(v) for v in astuple(r)) for r in rows]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in table)
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
    )
