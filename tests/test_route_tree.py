"""The route-tree rows against the single-trace checks, route by route.

Every order-5 pair, the routes into one order-5 target under tampered
picks (where the laws and arcs fail), and at n = 6..9 the routes from
seeded sources into seeded targets: there the tree holds every node, and
each node those routes visit is compared as a source.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from starroute.classify import crossing_load
from starroute.harness import hop_cap
from starroute.oracle import rank
from starroute.routetree import RouteTree
from starroute.routing import (
    MoveKind,
    _bound_from_counts,
    _fault_texts,
    _phase_faults,
    _phase_summary,
    check_phase_invariants,
    classic_distance,
    hop_bound,
    oriented_route,
    validate_trace,
)

from conftest import all_perms, tamper_picks


def _route(summary, i: int) -> tuple:
    """Route ``i`` of a summary as plain values, its inside hops listed."""
    *columns, source, alpha, gamma, alpha_odd, inside_hops = summary
    return (
        *(int(column[i]) for column in columns),
        *(tuple(int(count[i]) for count in counts) for counts in (source, alpha, gamma)),
        int(alpha_odd[i]),
        tuple(inside_hops(i)) if summary.inside[i] else (),
    )


def _compare_tree(n: int, t: tuple[int, ...], sources=None) -> Counter:
    """Compare the route into ``t`` from every node (or from each of
    ``sources``) with its routed trace and the single-trace checks; returns
    how many routes were compared and how many of them fail each check."""
    tree = RouteTree(n, [t])
    summary = tree.summary()
    laws = _phase_faults(summary)
    cutoffs = _bound_from_counts(summary.source)
    rows = range(tree.size) if sources is None else [rank(s) for s in sources]
    seen: Counter = Counter()
    for row in rows:
        s = tree.node(row)
        if s == t:
            continue
        trace = oriented_route(s, t)
        assert tree.trace(row) == trace, (s, t)
        assert _route(summary, row) == _route(_phase_summary(trace), 0), (s, t)
        report = check_phase_invariants(trace)
        assert tuple(int(phase[row]) for phase in summary.lengths) == report.phase_lengths
        assert bool(summary.extended[row]) == report.extended
        # the sweep's phase-structure text is these faults, joined
        assert _fault_texts(laws, row) == list(report.violations), (s, t)
        incoming = bool(tree.incoming[row])
        assert incoming == bool(validate_trace(trace))
        loads = [crossing_load(node, t) for node in trace.nodes]
        rises = [(j, a, b) for j, (a, b) in enumerate(zip(loads, loads[1:]), 1) if b > a]
        rise = tree.first_rise(row) if tree.rising[row] else None
        assert rise == (rises[0] if rises else None), (s, t)
        # the three bounds: the same length against the same cutoffs
        length, cutoff, distance = int(summary.length[row]), hop_bound(s, t), classic_distance(s, t)
        assert length == trace.length
        assert (cutoffs[row], tree.counts.distance[row]) == (cutoff, distance)
        seen.update(
            routes=1,
            incoming=incoming,
            rise=rise is not None,
            phase=not report.ok,
            inside=bool(summary.inside[row]),
            hop=length > cutoff,
            stretch=length > 4 * distance + 4,
            cap=length > hop_cap(n),
        )
    return seen


def test_tree_matches_traces_on_every_order_five_pair():
    seen = sum((_compare_tree(5, t) for t in all_perms(5)), Counter())
    assert seen == Counter(routes=120 * 119)


T5 = (1, 2, 3, 4, 5)
RELINK = {(5, 4, 3, 1, 2): 4, (4, 5, 1, 3, 2): 5}


@pytest.mark.parametrize(
    "change, failing",
    [
        # every case-4 seeding hop claims to cross, so Phase Two reaches
        # over the settling and seeding hops before it
        pytest.param(
            lambda node, decision: (decision[0], MoveKind.CROSSING, "4")
            if decision[2] == "4"
            else decision,
            {"phase", "inside"},
            id="seeding-claims-crossing",
        ),
        # an inner node steps along incoming link 4; seven routes pass it
        pytest.param(
            lambda node, decision: (4, *decision[1:]) if node == (4, 5, 3, 1, 2) else decision,
            {"incoming"},
            id="incoming-arc",
        ),
        # two inner nodes take their other outgoing link, where the crossing
        # load rises 0 -> 1; the seventeen routes through the first pass the
        # second later on and rise twice, the first rise being reported
        pytest.param(
            lambda node, decision: (RELINK[node], *decision[1:]) if node in RELINK else decision,
            {"rise"},
            id="load-rise",
        ),
    ],
)
def test_tree_matches_traces_under_a_tampered_pick(monkeypatch, change, failing):
    tamper_picks(monkeypatch, T5, change)
    seen = _compare_tree(5, T5)
    assert seen["routes"] == 119
    assert all(seen[name] > 1 for name in failing), seen


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_tree_matches_traces_on_seeded_pairs(n):
    rng = random.Random(n)
    values = list(range(1, n + 1))

    def draw() -> tuple[int, ...]:
        rng.shuffle(values)
        return tuple(values)

    for _ in range(3):
        t = draw()
        visited = {t}
        for _ in range(40):
            visited.update(oriented_route(draw(), t).nodes)
        seen = _compare_tree(n, t, sorted(visited))
        assert seen == Counter(routes=len(visited) - 1)
