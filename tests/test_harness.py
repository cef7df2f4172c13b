from __future__ import annotations

import dataclasses
import json

import pytest

from starroute import harness, routetree, routing
from starroute.classify import _ROW_BLOCK
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
from starroute.oracle import SWEEP_WIDTH, UNREACHABLE
from starroute.routing import (
    MoveKind,
    RoutingInvariantError,
    check_phase_invariants,
    classic_distance,
    hop_bound,
    oriented_route,
    validate_trace,
)

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


def test_lower_bound_range():
    with pytest.raises(ValueError):
        lower_bound_check(4)
    with pytest.raises(ValueError):
        lower_bound_check(10)


def test_verify_order_four_full():
    report = verify(4)
    assert report.ok
    assert report.n == 4 and report.sources == "all"
    populations = {c.name: c.population for c in report.checks}
    assert populations["route-validity"] == 576
    assert populations["split-merge"] == 1728
    assert all(not c.violations for c in report.checks)
    assert report.check("hop-bound").ok
    assert report.check("phase-structure").extended == 72
    assert report.check("route-validity").extended is None
    with pytest.raises(KeyError):
        report.check("no-such-check")


def test_verify_counts_extended_traces_order_six_reduced():
    report = verify(6, checks=["phase-structure"], sources="reduced")
    result = report.check("phase-structure")
    assert result.ok
    assert (result.population, result.extended) == (1440, 196)


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
    return result.name, result.population, result.violations, result.extended, result.longest


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
    assert report.check("diameter-bound").longest == max(
        [9] + [v.observed for v in report.check("diameter-bound").violations]
    )
    # a selection only filters the report: the family is swept whole either way
    subset = verify(4, checks=checks)
    assert [_summary(r) for r in subset.checks] == [_summary(report.check(name)) for name in checks]


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
    assert report.check("diameter-bound").longest == 5


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

    def tampered_pick(c, cpos, odd, t, tpos, half):
        link, kind, case = pick(c, cpos, odd, t, tpos, half)
        if (tuple(c), tuple(t)) == (node, target):
            return link, MoveKind.CROSSING if kind is MoveKind.SETTLING else MoveKind.SETTLING, case
        return link, kind, case

    monkeypatch.setattr(routing, "_oriented_pick", tampered_pick)
    result = verify(4, checks=["router-equivariance"]).check("router-equivariance")
    assert [(v.source, v.target) for v in result.violations] == [(node, target)]


def test_stretch_bound_reads_the_classic_distance_of_every_pair(monkeypatch):
    nodes = all_perms(5)
    count_rows = routetree._count_rows
    read = []  # the distances of each route tree's rows: by target, then by node

    def recording(dest, half):
        rows = count_rows(dest, half)
        read.extend(rows.distance.tolist())
        return rows

    monkeypatch.setattr(routetree, "_count_rows", recording)
    assert verify(5, checks=["stretch-bound"]).ok
    assert read == [classic_distance(s, t) for t in nodes for s in nodes]


def test_distance_vs_bfs_reports_exactly_the_planted_bfs_entries(monkeypatch):
    nodes = all_perms(4)
    wrong, lost = (5, 7), (20, 13)  # (source, target) indices
    fields = harness.distance_fields

    def tampered(sources):
        for i, field in enumerate(fields(sources)):
            dist = field.dist.copy()
            if i == wrong[0]:
                dist[wrong[1]] += 1
            if i == lost[0]:
                dist[lost[1]] = UNREACHABLE
            yield dataclasses.replace(field, dist=dist)

    monkeypatch.setattr(harness, "distance_fields", tampered)
    report = verify(4, checks=DISTANCE_CHECKS)
    (s, t), (u, w) = [(nodes[i], nodes[j]) for i, j in (wrong, lost)]
    assert report.check("distance-vs-bfs").violations == (
        Violation(s, t, classic_distance(s, t), classic_distance(s, t) + 1),
        Violation(u, w, classic_distance(u, w), None),
    )
    assert report.check("set-formula").ok


def test_set_formula_reports_exactly_a_planted_kernel_row(monkeypatch):
    # the second block of the first batch starts at pair _ROW_BLOCK
    nodes = all_perms(5)
    assert min(SWEEP_WIDTH, len(nodes)) * len(nodes) > _ROW_BLOCK
    count_rows = harness._count_rows
    calls = []

    def tampered(dest, half):
        rows = count_rows(dest, half)
        if len(calls) == 1:
            rows.ulr[0] += 1
        calls.append(len(dest))
        return rows

    monkeypatch.setattr(harness, "_count_rows", tampered)
    report = verify(5, checks=DISTANCE_CHECKS)
    assert sum(calls) == len(nodes) ** 2 and max(calls) == _ROW_BLOCK
    s, t = nodes[_ROW_BLOCK // len(nodes)], nodes[_ROW_BLOCK % len(nodes)]
    d = classic_distance(s, t)
    assert report.check("set-formula").violations == (Violation(s, t, d + 1, d),)
    assert report.check("distance-vs-bfs").ok


def test_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        verify(4, checks=["route-validity", "bogus"])


def test_verify_subset_and_reduced_sources():
    report = verify(5, checks=["set-formula"], sources="reduced")
    assert report.ok
    assert report.sources == "reduced"
    assert report.check("set-formula").population == 2 * 120


def test_verify_split_merge_sampled():
    report = verify(6, checks=["split-merge"], seed=7, sample_size=500)
    assert report.ok
    assert report.check("split-merge").population == 500


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
