from __future__ import annotations

import gc
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from starroute import harness, routetree, routing
from starroute.classify import _ROW_BLOCK, _dest_rows
from starroute.harness import (
    ALL_CHECKS,
    DISTANCE_CHECKS,
    ROUTE_CHECKS,
    Violation,
    diameter_table,
    format_table,
    hop_cap,
    lower_bound_check,
    verify,
    witness,
)
from starroute.classify import crossing_load
from starroute.oracle import UNREACHABLE, diameter, move_table, orbit_sources
from starroute.perm import compose, inverse, parity, positions
from starroute.routing import (
    MoveKind,
    RoutingInvariantError,
    check_phase_invariants,
    classic_distance,
    hop_bound,
    oriented_route,
    validate_trace,
)
from starroute.topology import Scheme, relabelling

from conftest import all_perms, tamper_picks


def test_hop_cap_values():
    assert [hop_cap(n) for n in range(3, 10)] == [8, 12, 12, 16, 16, 20, 20]


def test_check_names_are_stable():
    assert ALL_CHECKS == (
        "route-validity",
        "hop-bound",
        "stretch-bound",
        "diameter-bound",
        "phase-structure",
        "crossing-monotone",
        "distance-vs-bfs",
        "set-formula",
        "split-merge",
        "router-equivariance",
    )


def test_witness_values():
    assert witness(5) == (1, 3, 2, 5, 4)
    assert witness(6) == (1, 3, 4, 2, 6, 5)
    assert witness(7) == (1, 3, 4, 2, 6, 7, 5)
    assert witness(8, "even-refined") == (1, 3, 2, 5, 4, 7, 8, 6)


def test_witness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        witness(5, "even-refined")  # refinement needs even order >= 8
    with pytest.raises(ValueError):
        witness(6, "something-else")
    for n in (4, 10, 100_000_000_000):
        with pytest.raises(ValueError, match="witness covers orders 5..9"):
            witness(n)


def test_lower_bound_order_five():
    report = lower_bound_check(5)
    assert report.witness == (1, 3, 2, 5, 4)
    assert report.variant == "default"
    assert report.distance == 10
    assert report.required == 9
    assert report.ok
    assert report.supports_2n


def test_lower_bound_order_six():
    report = lower_bound_check(6)
    assert report.distance == 11
    assert report.required == 11
    assert report.ok
    assert not report.supports_2n


@pytest.mark.parametrize("n,variant,value", [
    (7, "default", 14),
    (8, "even-refined", 16),
    (9, "default", 18),
])
def test_lower_bound_fujita_orders_seven_to_nine(n, variant, value):
    # at n = 8 both variants are measured in one sweep and the farther wins
    report = lower_bound_check(n)
    assert (report.variant, report.distance) == (variant, value)
    assert report.witness == witness(n, variant)
    assert report.required == 2 * n and report.ok and report.supports_2n


@pytest.mark.parametrize("n", range(5, 10))
def test_lower_bound_holds_under_both_schemes(n):
    # the Day-Tripathi witness is Fujita's relabelled, so it lies as far out
    fujita, day_tripathi = (lower_bound_check(n, scheme) for scheme in Scheme)
    assert day_tripathi.distance == fujita.distance and fujita.ok and day_tripathi.ok
    assert day_tripathi.variant == fujita.variant
    s = relabelling(n, Scheme.DAY_TRIPATHI)
    assert day_tripathi.witness == compose(inverse(s), compose(fujita.witness, s))


def test_lower_bound_range():
    with pytest.raises(ValueError):
        lower_bound_check(4)
    with pytest.raises(ValueError):
        lower_bound_check(10)


@pytest.mark.parametrize("scheme", [None, "fujita"])
def test_lower_bound_needs_an_orientation(scheme):
    # the witness bounds a directed diameter: the undirected graph has none
    with pytest.raises(ValueError, match="needs an orientation Scheme"):
        lower_bound_check(5, scheme)


def test_verify_order_four_full():
    report = verify(4)
    assert report.ok
    assert report.n == 4 and report.sources == "all"
    populations = {c.name: c.population for c in report.checks}
    assert populations["route-validity"] == 576
    assert populations["split-merge"] == 1728
    assert all(not c.violations for c in report.checks)
    assert report.check("hop-bound").ok
    assert report.check("phase-structure").figures == {
        "extended": 72,
        # every decision case fires at order 4, case 2.5 only there
        "cases": {
            "1": 216, "2.1": 48, "2.2": 24, "2.3": 36, "2.4": 24, "2.5": 24,
            "3.1": 48, "3.2": 84, "4": 48,
        },
    }
    assert report.check("route-validity").figures == {}
    hash(report)  # a dict of figures leaves the report hashable
    with pytest.raises(KeyError):
        report.check("no-such-check")


def test_verify_counts_extended_traces_order_six_reduced():
    report = verify(6, checks=["phase-structure"], sources="reduced")
    result = report.check("phase-structure")
    assert result.ok
    assert (result.population, result.figures["extended"]) == (1440, 196)


T4 = (1, 2, 3, 4)
PAIR = ((2, 4, 1, 3), T4)  # route: links 4 3 4 2 4, phases (0, 1, 4)
LEAF = (4, 1, 2, 3)  # no other route into T4 passes through it


def _relink(link: int):
    return lambda _, kind, case: (link, kind, case)


def _recross(link, kind, case):
    return link, MoveKind.CROSSING, case


def _routed_nodes(s, t) -> tuple:
    """The nodes a route leaves, by the untampered router."""
    return oriented_route(s, t).nodes[:-1]


def _per_trace_flags(s, t) -> set[str]:
    """The route checks that the pair fails by its routed trace and the
    single-trace checks; a runaway route fails route-validity only."""
    try:
        trace = oriented_route(s, t)
    except RoutingInvariantError:
        return {"route-validity"}
    loads = [crossing_load(node, t) for node in trace.nodes]
    length = trace.length
    failed = {
        "route-validity": bool(validate_trace(trace)),
        "crossing-monotone": any(b > a for a, b in zip(loads, loads[1:])),
        "hop-bound": length > hop_bound(s, t),
        "stretch-bound": length > 4 * classic_distance(s, t) + 4,
        "diameter-bound": length > hop_cap(len(s)),
        "phase-structure": not check_phase_invariants(trace).ok,
    }
    return {name for name, fails in failed.items() if fails}


def _summary(result) -> tuple:
    return result.name, result.population, result.violations, result.figures


CYCLE_TEXT = "; ".join(
    [f"hop {j}: link 2 is not an outgoing arc" for j in range(1, 26, 2)]
    + ["route does not terminate at the target", "route exceeds the runaway limit"]
)


@pytest.mark.parametrize(
    "checks",
    [
        pytest.param(ROUTE_CHECKS, id="all"),
        *(pytest.param((name,), id=name) for name in ROUTE_CHECKS),
    ],
)
@pytest.mark.parametrize(
    "entries, designed, texts",
    [
        # a leaf steps along incoming link 2 instead of outgoing link 4
        pytest.param(
            {LEAF: _relink(2)},
            "route-validity",
            {("route-validity", LEAF): "hop 1: link 2 is not an outgoing arc"},
            id="incoming-arc",
        ),
        # PAIR's second node (even) takes its other outgoing link, 2, where
        # the crossing load rises 0 -> 1; one of the routes through it
        # grows to 13 hops, past the cap of 12
        pytest.param(
            {(3, 4, 1, 2): _relink(2)},
            "crossing-monotone",
            {
                ("crossing-monotone", PAIR[0]): "0 -> 1 at hop 2",
                ("diameter-bound", (1, 3, 2, 4)): 13,
            },
            id="load-rise",
        ),
        # PAIR's fourth hop, a seeding hop in Phase Three, claims to cross
        pytest.param(
            {(2, 4, 3, 1): _recross},
            "phase-structure",
            {
                ("phase-structure", PAIR[0]): (
                    "Phase Two has 4 hops, expected <= 1; hop 2 inside Phase Two is settling; "
                    "hop 3 inside Phase Two is seeding; final crossing is not the last hop of "
                    "Phase Two"
                )
            },
            id="cross-in-phase-three",
        ),
        # the leaf and its link-2 neighbour point at each other: the routes
        # through either never arrive
        pytest.param(
            {LEAF: _relink(2), (1, 4, 2, 3): _relink(2)},
            "route-validity",
            {("route-validity", LEAF): CYCLE_TEXT},
            id="cycle",
        ),
    ],
)
def test_route_checks_report_exactly_the_pairs_through_a_tampered_pick(
    monkeypatch, entries, designed, texts, checks
):
    # the pairs whose route uses a tampered tree entry, by the untouched router
    users = {(s, T4) for s in all_perms(4) if s != T4 and set(entries) & set(_routed_nodes(s, T4))}
    tamper_picks(
        monkeypatch,
        T4,
        lambda node, decision: entries[node](*decision) if node in entries else decision,
    )
    report = verify(4, checks=ROUTE_CHECKS)
    flagged = set()
    for result in report.checks:
        pairs = {(v.source, v.target) for v in result.violations}
        assert len(pairs) == len(result.violations), result.name
        # the routed traces, under the same tampered pick, fail the same checks
        expected = {(s, t) for s, t in users if result.name in _per_trace_flags(s, t)}
        assert pairs == expected, result.name
        flagged |= pairs
    assert flagged == users
    assert {(v.source, v.target) for v in report.check(designed).violations} == users
    observed = {
        (result.name, v.source): v.observed for result in report.checks for v in result.violations
    }
    for key, text in texts.items():
        assert observed[key] == text, key
    # 9 hops is the longest route at order 4; runaway routes have no length
    assert report.check("diameter-bound").figures["longest"] == max(
        [9] + [v.observed for v in report.check("diameter-bound").violations]
    )
    # a selection only filters the report: the family is swept whole either way
    subset = verify(4, checks=checks)
    assert [_summary(r) for r in subset.checks] == [_summary(report.check(name)) for name in checks]


def test_law_b_covers_a_route_a_fallback_hop_extends(monkeypatch):
    # (1, 3, 4, 2) takes link 3 as a crossing move, where it seeds over link
    # 2.  Its own route then settles twice inside Phase Two.  So does the
    # route from (2, 3, 4, 1), which passes it after a case-2.5 fallback hop:
    # there the two settling hops are its settling run, which law (d) allows,
    # and 4 of its 6 Phase Two hops are left for law (b)'s bound of 3
    source = (2, 3, 4, 1)
    assert check_phase_invariants(oriented_route(source, T4)).extended
    tamper_picks(
        monkeypatch,
        T4,
        lambda node, decision: (3, MoveKind.CROSSING, decision[2])
        if node == (1, 3, 4, 2)
        else decision,
    )
    result = verify(4, checks=["phase-structure"]).check("phase-structure")
    assert {v.source: v.observed for v in result.violations} == {
        (1, 3, 4, 2): "Phase Two has 5 hops, expected <= 3; hop 2 inside Phase Two is settling; "
        "hop 3 inside Phase Two is settling",
        source: "Phase Two has 6 hops, expected <= 5",
    }
    report = check_phase_invariants(oriented_route(source, T4))
    assert report.extended and report.violations == ("Phase Two has 6 hops, expected <= 5",)


def test_routes_past_the_runaway_limit_fail_route_validity_only(monkeypatch):
    lengths = {(s, t): len(_routed_nodes(s, t)) for t in all_perms(4) for s in all_perms(4)}
    # with a limit of 5 hops, every longer route counts as a runaway: its
    # chain is cut after 6 hops, as oriented_route would cut it, and only a
    # 6-hop route reaches the target there
    expected = {
        pair: ("" if length == 6 else "route does not terminate at the target; ")
        + "route exceeds the runaway limit"
        for pair, length in lengths.items()
        if length > 5
    }
    assert len(set(expected.values())) == 2
    monkeypatch.setattr(routing, "_runaway_limit", lambda n: 5)
    report = verify(4, checks=ROUTE_CHECKS)
    validity = report.check("route-validity").violations
    assert {(v.source, v.target): v.observed for v in validity} == expected
    assert all(report.check(name).ok for name in ROUTE_CHECKS if name != "route-validity")
    assert report.check("diameter-bound").figures["longest"] == 5


def test_router_equivariance_is_exhaustive_through_order_five():
    for n, population in ((4, 24 * 23), (5, 120 * 119)):
        result = verify(n, checks=["router-equivariance"]).check("router-equivariance")
        assert result.ok and result.population == population


def test_router_equivariance_is_sampled_from_order_six():
    result = verify(6, checks=["router-equivariance"], seed=3, sample_size=300)
    assert result.ok and result.check("router-equivariance").population == 300


def test_router_equivariance_flags_a_decision_the_relabeling_does_not_carry(monkeypatch):
    # an odd target other than the canonical (2, 1, 3, 4): one node's
    # decision toward it changes, so that one pair differs from the
    # canonical tree at the relabeled node
    target, node = (2, 4, 1, 3), (3, 1, 4, 2)
    pick = routing._oriented_pick
    target_pos = positions(target)

    def tampered_pick(c, odd, tpos, half):
        link, kind, case = pick(c, odd, tpos, half)
        if (tuple(c), tpos) == (node, target_pos):
            return link, MoveKind.CROSSING if kind is MoveKind.SETTLING else MoveKind.SETTLING, case
        return link, kind, case

    monkeypatch.setattr(routing, "_oriented_pick", tampered_pick)
    result = verify(4, checks=["router-equivariance"]).check("router-equivariance")
    assert [(v.source, v.target) for v in result.violations] == [(node, target)]


def test_stretch_bound_reads_the_classic_distance_of_every_pair(monkeypatch):
    nodes = all_perms(5)
    pick_rows = routetree._pick_rows
    read = []  # the distances of each route tree's rows: by target, then by node

    def recording(dest, odd):
        counts, *decision = pick_rows(dest, odd)
        read.extend(counts.distance.tolist())
        return counts, *decision

    monkeypatch.setattr(routetree, "_pick_rows", recording)
    assert verify(5, checks=["stretch-bound"]).ok
    assert read == [classic_distance(s, t) for t in nodes for s in nodes]


def test_distance_checks_read_the_classic_distance_of_every_pair(monkeypatch):
    # the distance family's rows are the route trees' rows: by target, then
    # by node, each read from the one kernel pass at the rank it is given
    nodes = all_perms(5)
    count_rows, lehmer = harness._count_rows, harness._lehmer
    tables, ranks = [], []

    def counting(dest):
        tables.append(count_rows(dest))
        return tables[-1]

    def ranking(columns):
        ranked = lehmer(columns)
        ranks.append(ranked[0])
        return ranked

    monkeypatch.setattr(harness, "_count_rows", counting)
    monkeypatch.setattr(harness, "_lehmer", ranking)
    assert verify(5, checks=DISTANCE_CHECKS).ok
    (table,) = tables
    read = table.distance[np.concatenate(ranks)].tolist()
    assert read == [classic_distance(s, t) for t in nodes for s in nodes]


def test_both_families_read_the_same_reduced_rows(monkeypatch):
    # the distance family reads a row through its Lehmer rank
    pick_rows, lehmer = routetree._pick_rows, harness._lehmer
    seen = {"route": [], "distance": []}

    def route_rows(dest, odd):
        seen["route"].append(dest.copy())
        return pick_rows(dest, odd)

    def distance_rows(columns):
        seen["distance"].append(np.stack(columns, axis=1))
        return lehmer(columns)

    monkeypatch.setattr(routetree, "_pick_rows", route_rows)
    monkeypatch.setattr(harness, "_lehmer", distance_rows)
    report = verify(7, checks=["hop-bound", "set-formula"], sources="reduced")
    assert report.ok and [c.population for c in report.checks] == [2 * 5040] * 2
    route, distance = (np.concatenate(seen[family]) for family in ("route", "distance"))
    assert route.shape == (2 * 5040, 7)
    assert np.array_equal(route, distance)


@pytest.mark.parametrize("n", [4, 5])
def test_reduced_pairs_hit_each_orbit_exactly_once(n):
    # (s, t) and (h s, h t) with h even share the dest row and the target's
    # parity, and two pairs with equal keys are related by h = t' t^-1
    perms = move_table(n).perms

    def keys(targets):
        dest = _dest_rows(targets, perms)
        odd = np.repeat([parity(t) for t in targets], len(perms))
        return [(row.tobytes(), bool(p)) for row, p in zip(dest, odd)]

    reduced = keys(orbit_sources(n))
    assert len(set(reduced)) == len(reduced) == 2 * len(perms)
    assert set(reduced) == set(keys(all_perms(n)))


def test_distance_vs_bfs_reports_exactly_the_planted_bfs_entries(monkeypatch):
    # block entry (j, v) is node v's BFS distance into target j
    nodes = all_perms(4)
    wrong, lost = (5, 7), (20, 13)  # (target, node) indices
    blocks = harness._distance_blocks

    def tampered(targets):
        ((batch, block),) = blocks(targets)  # the 24 order-4 targets sweep at once
        block[wrong] += 1
        block[lost] = UNREACHABLE
        yield batch, block

    monkeypatch.setattr(harness, "_distance_blocks", tampered)
    report = verify(4, checks=DISTANCE_CHECKS)
    (s, t), (u, w) = [(nodes[v], nodes[j]) for j, v in (wrong, lost)]
    assert report.check("distance-vs-bfs").violations == (
        Violation(s, t, classic_distance(s, t), classic_distance(s, t) + 1),
        Violation(u, w, classic_distance(u, w), None),
    )
    assert report.check("set-formula").ok


def test_set_formula_reports_exactly_a_planted_kernel_row(monkeypatch):
    # the kernel runs once, on every relative permutation in rank order, and
    # each pair (s, t) reads the entry of t^-1 s: a fault planted at rank u
    # shows at the one node t u of every target t, in row order
    nodes = all_perms(5)
    planted = 77
    u = nodes[planted]
    count_rows = harness._count_rows
    calls = []

    def tampered(dest):
        rows = count_rows(dest)
        rows.ulr[planted] += 1
        calls.append(len(dest))
        return rows

    monkeypatch.setattr(harness, "_count_rows", tampered)
    report = verify(5, checks=DISTANCE_CHECKS)
    assert calls == [len(nodes)]
    expected = []
    for t in nodes:
        s = compose(t, u)
        d = classic_distance(s, t)
        expected.append(Violation(s, t, d + 1, d))
    assert report.check("set-formula").violations == tuple(expected)
    assert report.check("distance-vs-bfs").ok


def test_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        verify(4, checks=["route-validity", "bogus"])


def test_verify_rejects_a_bare_string_of_checks():
    # a string is a collection of characters, not of check names
    with pytest.raises(ValueError, match="not the string 'hop-bound'"):
        verify(4, checks="hop-bound")


@pytest.mark.parametrize("n,checks", [(6, ["split-merge"]), (5, None)])
def test_verify_rejects_a_sample_size_that_is_not_an_int(n, checks):
    # at order 5 no check samples, but the size is checked all the same
    with pytest.raises(ValueError, match="sample size must be an int of at least 1, got 2.5"):
        verify(n, checks=checks, sample_size=2.5)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        # no seed would sample from OS entropy, a run that cannot be repeated
        ({"seed": None}, "seed must be an int, got None"),
        ({"seed": [1]}, r"seed must be an int, got \[1\]"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"sample_size": True}, "sample size must be an int of at least 1, got True"),
    ],
)
def test_verify_rejects_a_seed_or_sample_size_that_is_not_an_int(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify(6, checks=["router-equivariance", "split-merge"], **kwargs)


@pytest.mark.parametrize(
    "entry,args,covers",
    [
        (verify, (5.0,), "verify covers orders 3..9"),
        (move_table, (5.0,), "BFS oracle supports orders 3..9"),
        (diameter, (5.0,), "BFS oracle supports orders 3..9"),
        (diameter, (5.0, Scheme.FUJITA), "BFS oracle supports orders 3..9"),
        (diameter_table, ([5.0],), "BFS oracle supports orders 3..9"),
        (witness, (5.0,), "witness covers orders 5..9"),
        (lower_bound_check, (5.0,), "lower_bound_check covers n in 5..9"),
    ],
)
def test_an_order_that_is_not_an_int_is_rejected(entry, args, covers):
    with pytest.raises(ValueError, match=f"{covers}, got 5.0"):
        entry(*args)


def test_verify_subset_and_reduced_sources():
    report = verify(5, checks=["set-formula"], sources="reduced")
    assert report.ok
    assert report.sources == "reduced"
    assert report.check("set-formula").population == 2 * 120


@pytest.mark.parametrize(
    "n,checks,sources",
    [
        (9, ROUTE_CHECKS, "reduced"),
        (6, ALL_CHECKS, "reduced"),
        # neither sampled check reads the sources, whatever they are
        (9, ("split-merge", "router-equivariance"), "all"),
    ],
)
def test_reduced_verify_never_builds_the_node_list(monkeypatch, n, checks, sources):
    # the n! node tuples are for sweeps that enumerate every node
    def no_nodes(order):
        raise AssertionError(f"node list of order {order} built")

    monkeypatch.setattr(harness, "_nodes", no_nodes)
    report = verify(n, checks=checks, sources=sources, sample_size=100)
    assert report.ok and report.sources == sources


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("checks", [ROUTE_CHECKS, DISTANCE_CHECKS, ALL_CHECKS])
def test_verify_rejects_all_sources_past_order_seven(monkeypatch, n, checks):
    def no_nodes(order):
        raise AssertionError(f"node list of order {order} built")

    monkeypatch.setattr(harness, "_nodes", no_nodes)
    with pytest.raises(ValueError, match="use --sources reduced"):
        verify(n, checks=checks, sources="all")


def test_verify_split_merge_sampled():
    report = verify(6, checks=["split-merge"], seed=7, sample_size=500)
    assert report.ok
    assert report.check("split-merge").population == 500


def _three_cycle(p, link):
    """A planted fault in place of the hop: the 3-cycle sending the values
    at positions link, 2 and 1 to positions 1, link and 2 (the swap itself
    when link is 2)."""
    q = list(p)
    q[0], q[link - 1], q[1] = q[link - 1], q[1], q[0]
    return tuple(q)


def _swap_and_tail(p, link):
    """A planted fault in place of the hop: the swap, then the last two
    positions exchanged too when neither is ``link``, which can split or
    merge a cycle off the two the swap touches."""
    q = list(p)
    q[0], q[link - 1] = q[link - 1], q[0]
    if link < len(q) - 1:
        q[-2], q[-1] = q[-1], q[-2]
    return tuple(q)


def _wrong_pair(p, link):
    """A planted fault in place of the hop: positions link - 1 and link
    exchanged instead of 1 and link, which can draw a cycle off the two
    through positions 1 and link into them."""
    q = list(p)
    q[link - 2], q[link - 1] = q[link - 1], q[link - 2]
    return tuple(q)


def _flags(triples):
    """Per (c, t, link) triple: the block law's flag and whether the
    per-triple reference returns a text, ``_ROW_BLOCK`` triples at a time."""
    triples = iter(triples)
    got: list[bool] = []
    want: list[bool] = []
    while chunk := list(itertools.islice(triples, _ROW_BLOCK)):
        dest = np.array([[t.index(v) + 1 for v in c] for c, t, _ in chunk], dtype=np.uint8)
        link = np.array([link for _, _, link in chunk], dtype=np.uint8)
        got += harness._split_merge_rows(dest, link).tolist()
        want += [harness._split_merge_problem(c, t, link) is not None for c, t, link in chunk]
    return got, want


def _every_triple(n):
    nodes = all_perms(n)
    return ((c, t, link) for c in nodes for t in nodes for link in range(2, n + 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_split_merge_rows_match_the_reference_on_every_triple(n):
    got, want = _flags(_every_triple(n))
    assert len(got) == len(all_perms(n)) ** 2 * (n - 1)
    assert got == want and not any(got)


def _triples(blocks):
    """The (c, t, link) triples of ``_split_merge_blocks`` blocks, as tuples."""
    for c, t, link in blocks:
        yield from zip(map(tuple, c.tolist()), map(tuple, t.tolist()), link.tolist())


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_split_merge_rows_match_the_reference_on_seeded_samples(n):
    for seed in (0, 1):
        got, want = _flags(_triples(harness._split_merge_blocks(n, seed, 10_000)))
        assert len(got) == 10_000 and got == want


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_every_drawn_row_is_a_permutation(n):
    rows = harness._draw(random.Random(n), 2_000, n)
    assert rows.shape == (2_000, n) and rows.dtype == np.uint8
    assert (np.sort(rows, axis=1) == np.arange(1, n + 1)).all()


def test_draws_hit_every_permutation_evenly():
    # 24 000 draws at order 4: 1 000 expected per permutation, standard
    # deviation about 31; the band is about five deviations each way
    rows = harness._draw(random.Random(0), 24_000, 4)
    counts = Counter(map(tuple, rows.tolist()))
    assert set(counts) == set(all_perms(4))
    assert all(850 <= k <= 1_150 for k in counts.values()), sorted(counts.values())


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_drawn_links_cover_two_to_n(n):
    links = np.concatenate([link for _, _, link in harness._split_merge_blocks(n, 0, 5_000)])
    assert links.dtype == np.uint8 and set(links.tolist()) == set(range(2, n + 1))


def test_a_seed_repeats_its_population_and_two_seeds_differ():
    def blocks(seed):
        return np.vstack([np.column_stack(b) for b in harness._split_merge_blocks(7, seed, 3_000)])

    def pairs(seed):
        return list(harness._drawn_pairs(7, seed, 3_000))

    assert np.array_equal(blocks(5), blocks(5)) and not np.array_equal(blocks(5), blocks(6))
    assert pairs(-3) == pairs(-3) != pairs(4)
    # the sign counts: a negative seed draws another sample than its absolute value
    assert pairs(-3) != pairs(3) and not np.array_equal(blocks(-3), blocks(3))
    # every seed from 0 up draws as random.Random(seed)
    assert harness._rng(5).random() == random.Random(5).random()


def test_drawn_pairs_redraw_a_node_equal_to_its_target():
    # at order 3 a sixth of the first draws of s equal t
    pairs = list(harness._drawn_pairs(3, 0, 3_000))
    assert len(pairs) == 3_000 and all(s != t for s, t in pairs)
    assert {s for s, _ in pairs} == {t for _, t in pairs} == set(all_perms(3))


def test_the_exhaustive_blocks_list_the_triples_in_rank_order():
    # c, then t in rank order, links ascending; the seed and sample size are
    # not read
    triples = list(_triples(harness._split_merge_blocks(4, 0, 1)))
    assert triples == list(_every_triple(4))
    assert [len(b[0]) for b in harness._split_merge_blocks(4, 0, 1)] == [1024, 704]


@pytest.mark.parametrize(
    "fault,n,flagged",
    [
        (_three_cycle, 4, 1152),
        (_three_cycle, 5, 43_200),
        (_swap_and_tail, 4, 576),
        (_wrong_pair, 4, 576),
    ],
)
def test_a_planted_fault_flags_the_same_rows_on_both_sides(monkeypatch, fault, n, flagged):
    # the block law reads the hop through the same name as the reference
    monkeypatch.setattr(harness, "apply_generator", fault)
    got, want = _flags(_every_triple(n))
    assert got == want and sum(got) == flagged


@pytest.mark.parametrize("size", [500, 2_500])  # one block, and several
def test_split_merge_keeps_the_seeded_population(monkeypatch, size):
    def per_sample(n, seed, sample_size):
        # a per-triple loop over the rows the sweep draws: per block, c,
        # then t, then the links from one more than a drawn permutation's
        # first entry
        found = []
        rng = harness._rng(seed)
        for lo in range(0, sample_size, harness._SPLIT_MERGE_ROWS):
            m = min(harness._SPLIT_MERGE_ROWS, sample_size - lo)
            cs, ts = harness._draw(rng, m, n).tolist(), harness._draw(rng, m, n).tolist()
            links = (harness._draw(rng, m, n - 1)[:, 0] + 1).tolist()
            for c, t, link in zip(map(tuple, cs), map(tuple, ts), links):
                problem = harness._split_merge_problem(c, t, link)
                if problem:
                    found.append(Violation(c, t, f"link {link}: {problem}", "split/merge law"))
        return found

    monkeypatch.setattr(harness, "apply_generator", _three_cycle)
    result = verify(6, checks=["split-merge"], seed=7, sample_size=size).check("split-merge")
    expected = per_sample(6, 7, size)
    assert result.population == size and 0 < len(expected) < size
    assert result.violations == tuple(expected)


def test_split_merge_memory_does_not_grow_with_the_sample():
    def peak(size):
        tracemalloc.start()
        try:
            verify(6, checks=["split-merge"], sample_size=size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verify(6, checks=["split-merge"], sample_size=10)  # the caches a first call fills
    small, large = peak(4_096), peak(40_960)
    assert large <= 1.1 * small, (small, large)


def test_router_equivariance_memory_does_not_grow_with_the_sample():
    def peak(size):
        # a full collection empties the interpreter's free list of 6-tuples,
        # and the per-pair tuples that refill it would be counted in one peak
        # but not the other: collection is off while tracing, and the list is
        # filled (at most 2 000 tuples) before
        gc.disable()
        spare = [tuple(range(i, i + 6)) for i in range(4_000)]
        del spare
        tracemalloc.start()
        try:
            verify(6, checks=["router-equivariance"], sample_size=size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    verify(6, checks=["router-equivariance"], sample_size=10)  # the caches a first call fills
    small, large = peak(4_096), peak(40_960)
    assert large <= 1.1 * small, (small, large)


def test_distance_checks_rank_pairs_in_bounded_blocks():
    # the relative ranks are taken _RANK_ROWS pairs at a time, so the peak
    # stays under 16 bytes a pair at order 8 (about 13); ranking a whole
    # order-8 target at once reads about 34
    n = 8
    targets = list(orbit_sources(n))
    harness._distance_violations(n, targets)  # the move table and its rows
    tracemalloc.start()
    try:
        harness._distance_violations(n, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(targets) * math.factorial(n), peak


def test_one_graph_directed_sweep_holds_no_full_length_column():
    # every in-arc column is the move table's own block index, so a directed
    # orbit sweep peaks within one int32 per vertex of the undirected one; an
    # n!-long intp index copy would pass that
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    move_table(8)  # the table a first call builds
    undirected = peak(lambda: diameter(8, None, "orbit"))
    fujita = peak(lambda: diameter(8, Scheme.FUJITA, "orbit"))
    assert fujita <= undirected + 4 * math.factorial(8), (fujita, undirected)


def test_diameter_table_frozen_rows():
    rows = diameter_table([3, 4, 5])
    assert [(r.n, r.undirected, r.fujita, r.daytripathi) for r in rows] == [
        (3, 3, 5, 5),
        (4, 4, 9, 9),
        (5, 6, 10, 10),
    ]
    assert rows[0].lower is None and rows[0].upper is None
    assert rows[2].lower == 9 and rows[2].upper == 12
    assert all(r.mode == "exhaustive" for r in rows)


def test_format_table_csv_header_and_blanks():
    rows = diameter_table([3, 5])
    csv_text = format_table(rows, "csv")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,undirected,fujita,daytripathi,lower,upper,mode"
    assert lines[1] == "3,3,5,5,,,exhaustive"
    assert lines[2] == "5,6,10,10,9,12,exhaustive"


def test_format_table_json_round_trips():
    rows = diameter_table([4])
    data = json.loads(format_table(rows, "json"))
    assert data == [
        {
            "n": 4,
            "undirected": 4,
            "fujita": 9,
            "daytripathi": 9,
            "lower": None,
            "upper": None,
            "mode": "exhaustive",
        }
    ]


def test_format_table_text_aligns_headers():
    rows = diameter_table([4])
    text = format_table(rows, "text")
    head, body = text.strip().splitlines()
    assert head.split() == ["n", "undirected", "fujita", "daytripathi", "lower", "upper", "mode"]
    assert body.split() == ["4", "4", "9", "9", "-", "-", "exhaustive"]
    with pytest.raises(ValueError):
        format_table(rows, "yaml")


def test_format_table_text_exact():
    # each column as wide as its widest cell, two spaces apart, no trailing
    # space, and a blank as "-"
    assert format_table(diameter_table([3, 5]), "text") == (
        "n  undirected  fujita  daytripathi  lower  upper  mode\n"
        "3  3           5       5            -      -      exhaustive\n"
        "5  6           10      10           9      12     exhaustive"
    )
