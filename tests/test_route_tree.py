"""The route-tree sweep against the single-trace checks, route by route.

Every order-5 pair, the routes into one order-5 target under tampered
picks (where the laws and arcs fail), and at n = 6..9 the routes from
seeded sources into seeded targets: there the tree is built over the nodes
those routes visit, and every one of them is compared as a source.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

from starroute import routing
from starroute.classify import crossing_load
from starroute.harness import hop_cap
from starroute.routetree import NodeTable, RouteTree
from starroute.routing import (
    MoveKind,
    _bound_from_counts,
    _phase_faults,
    _phase_summary,
    check_phase_invariants,
    classic_distance,
    hop_bound,
    oriented_route,
    validate_trace,
)

from conftest import all_perms


def _compare_tree(table: NodeTable, t: tuple[int, ...]) -> Counter:
    """Compare every route of the tree into ``t`` with its routed trace and
    the single-trace checks; returns how many routes were compared and how
    many of them fail each check."""
    n = len(t)
    tree = RouteTree(table, t)
    seen: Counter = Counter()
    for v, summary, incoming, rise in tree.routes():
        s = table.nodes[v]
        trace = oriented_route(s, t)
        assert tree.trace(v) == trace, (s, t)
        assert summary == _phase_summary(trace), (s, t)
        report = check_phase_invariants(trace)
        assert summary.lengths == report.phase_lengths
        assert summary.extended == report.extended
        # the sweep's phase-structure text is these faults, joined
        assert _phase_faults(summary) == list(report.violations), (s, t)
        assert incoming == bool(validate_trace(trace))
        loads = [crossing_load(node, t) for node in trace.nodes]
        rises = [(j, a, b) for j, (a, b) in enumerate(zip(loads, loads[1:]), 1) if b > a]
        assert rise == (rises[0] if rises else None), (s, t)
        # the three bounds: the same length against the same cutoffs
        length = summary.length
        assert length == trace.length
        assert _bound_from_counts(summary.source) == hop_bound(s, t)
        seen.update(
            routes=1,
            incoming=incoming,
            rise=rise is not None,
            phase=not report.ok,
            inside=bool(summary.inside),
            hop=length > hop_bound(s, t),
            stretch=length > 4 * classic_distance(s, t) + 4,
            cap=length > hop_cap(n),
        )
    return seen


def test_tree_matches_traces_on_every_order_five_pair():
    nodes = all_perms(5)
    table = NodeTable(nodes)
    seen = sum((_compare_tree(table, t) for t in nodes), Counter())
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
    pick = routing._oriented_pick

    def tampered_pick(c, cpos, odd, t, tpos, half):
        decision = pick(c, cpos, odd, t, tpos, half)
        return change(tuple(c), decision) if tuple(t) == T5 else decision

    monkeypatch.setattr(routing, "_oriented_pick", tampered_pick)
    seen = _compare_tree(NodeTable(all_perms(5)), T5)
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
        nodes = sorted(visited)
        seen = _compare_tree(NodeTable(nodes), t)
        assert seen == Counter(routes=len(nodes) - 1)
