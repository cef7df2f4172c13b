from __future__ import annotations

import dataclasses
import json

import pytest

from starroute import harness
from starroute.harness import (
    ALL_CHECKS,
    ROUTE_CHECKS,
    diameter_table,
    format_table,
    hop_cap,
    lower_bound_check,
    verify,
    witness,
)
from starroute.perm import apply_generator
from starroute.routing import MoveKind, RouteTrace


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


PAIR = ((2, 4, 1, 3), (1, 2, 3, 4))  # route: links 4 3 4 2 4, phases (0, 1, 4)


def _replace_at(column: tuple, j: int, value) -> tuple:
    return column[:j] + (value,) + column[j + 1 :]


def _relink(trace: RouteTrace) -> RouteTrace:
    # the third node is odd, so link 2 is incoming there, and leads elsewhere
    return dataclasses.replace(trace, links=_replace_at(trace.links, 2, 2))


def _unchain_with_load(trace: RouteTrace) -> RouteTrace:
    # a stored Phase Three node swapped for one with crossing load 2 (values 2
    # and 3 both unsettled in the left half); the rest of the route has load 0
    return dataclasses.replace(trace, nodes=_replace_at(trace.nodes, 3, (1, 3, 2, 4)))


def _cross_in_phase_three(trace: RouteTrace) -> RouteTrace:
    # phases follow the moves, so Phase Two now runs through hop 4 and holds
    # a settling and a seeding hop, and the final crossing is not its last
    return dataclasses.replace(trace, moves=_replace_at(trace.moves, 3, MoveKind.CROSSING))


PADDING = (2, 4, 2, 4, 3, 4, 3, 4, 3, 4, 2, 4)  # a directed cycle through the target


def _pad_past_cap(trace: RouteTrace) -> RouteTrace:
    # 17 hops, over the cap 12, the stretch bound 16 and the hop bound 8, yet
    # a chained directed route ending at the target; the crossing load along
    # the cycle rises 0 -> 1 at its fifth hop, so the load is carried across
    # hops that chain
    nodes = list(trace.nodes)
    for link in PADDING:
        nodes.append(apply_generator(nodes[-1], link))
    return dataclasses.replace(
        trace,
        nodes=tuple(nodes),
        links=trace.links + PADDING,
        moves=trace.moves + (MoveKind.SEEDING,) * len(PADDING),
        cases=trace.cases + ("4",) * len(PADDING),
    )


def _summary(result) -> tuple:
    return result.name, result.population, result.violations, result.extended


@pytest.mark.parametrize(
    "checks",
    [
        pytest.param(ROUTE_CHECKS, id="all"),
        *(pytest.param((name,), id=name) for name in ROUTE_CHECKS),
    ],
)
@pytest.mark.parametrize(
    "tamper, flagged, rise",
    [
        (_relink, {"route-validity"}, None),
        (_unchain_with_load, {"route-validity", "crossing-monotone"}, "0 -> 2 at hop 3"),
        (_cross_in_phase_three, {"phase-structure"}, None),
        (
            _pad_past_cap,
            {"hop-bound", "stretch-bound", "diameter-bound", "phase-structure", "crossing-monotone"},
            "0 -> 1 at hop 10",
        ),
    ],
)
def test_route_checks_report_exactly_the_tampered_pair(monkeypatch, tamper, flagged, rise, checks):
    route = harness.oriented_route

    def tampered_route(s, t):
        trace = route(s, t)
        return tamper(trace) if (s, t) == PAIR else trace

    monkeypatch.setattr(harness, "oriented_route", tampered_route)
    report = verify(4, checks=ROUTE_CHECKS)
    for result in report.checks:
        pairs = [(v.source, v.target) for v in result.violations]
        assert pairs == ([PAIR] if result.name in flagged else []), result.name
    if rise is not None:
        assert report.check("crossing-monotone").violations[0].observed == rise
    if "route-validity" in flagged:
        assert "node chain broken" in report.check("route-validity").violations[0].observed
    if tamper is _cross_in_phase_three:
        assert report.check("phase-structure").violations[0].observed == (
            "Phase Two has 4 hops, expected <= 1; hop 2 inside Phase Two is settling; "
            "hop 3 inside Phase Two is seeding; final crossing is not the last hop of Phase Two"
        )
    # a selection only filters the report: the family is swept whole either way
    subset = verify(4, checks=checks)
    assert [_summary(r) for r in subset.checks] == [_summary(report.check(name)) for name in checks]


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
