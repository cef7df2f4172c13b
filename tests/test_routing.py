from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starroute.classify import Counts
from starroute.oracle import distance
from starroute.perm import apply_generator, compose, parity, parse_perm
from starroute.routing import (
    CROSSING_KINDS,
    MoveKind,
    PhaseSummary,
    RouteTrace,
    _fault_texts,
    _phase_faults,
    check_phase_invariants,
    classic_distance,
    classic_distance_sets,
    classic_route,
    classic_step,
    hop_bound,
    oriented_route,
    oriented_step,
    validate_trace,
)

from conftest import all_perms, perms_of

ID5 = (1, 2, 3, 4, 5)


def test_classic_step_settles_front_value_first():
    assert classic_step((2, 1, 3, 4, 5), ID5) == (2, MoveKind.SETTLING)


def test_classic_step_seeds_when_front_is_home():
    link, kind = classic_step((1, 3, 2, 4, 5), ID5)
    assert kind is MoveKind.SEEDING
    assert link in (2, 3)


def test_classic_route_frozen_example():
    trace = classic_route(parse_perm("14523"), ID5)
    assert trace.length == 6
    assert trace.links == (2, 4, 2, 3, 5, 3)
    assert trace.scheme is None
    assert validate_trace(trace) == []


def test_classic_distance_frozen_values():
    assert classic_distance(ID5, ID5) == 0
    assert classic_distance((2, 1, 3, 4, 5), ID5) == 1
    assert classic_distance((1, 3, 2, 4, 5), ID5) == 3
    assert classic_distance(parse_perm("14523"), ID5) == 6


def test_classic_route_is_optimal_everywhere_n4():
    target = (2, 4, 1, 3)
    for s in all_perms(4):
        trace = classic_route(s, target)
        assert validate_trace(trace) == []
        assert trace.length == classic_distance(s, target)
        assert trace.length == distance(s, target)


@given(perms_of(5), perms_of(5))
def test_classic_matches_breadth_first_search(s, t):
    assert classic_distance(s, t) == distance(s, t)


@given(perms_of(6), perms_of(6))
def test_distance_formulas_agree(s, t):
    assert classic_distance(s, t) == classic_distance_sets(s, t)


def test_hop_bound_frozen_values():
    assert hop_bound(ID5, ID5) == 6
    # two crossed values in one alternating pair: 2 + max(6, 0 + 1 + 4)
    assert hop_bound(parse_perm("21435"), ID5) == 8
    # pure burn-down, two per half: 0 + max(6, 4*2 + 0 + 4)
    assert hop_bound(parse_perm("13254"), ID5) == 12


def test_oriented_route_frozen_example():
    trace = oriented_route(parse_perm("24135"), ID5)
    assert trace.length == 5
    assert trace.links == (4, 3, 4, 2, 4)
    assert trace.cases == ("3.1", "1", "4", "1", "1")
    assert trace.moves == (
        MoveKind.FINAL_CROSSING,
        MoveKind.SETTLING,
        MoveKind.SEEDING,
        MoveKind.SETTLING,
        MoveKind.SETTLING,
    )
    assert trace.phases == [2, 3, 3, 3, 3]
    assert validate_trace(trace) == []
    report = check_phase_invariants(trace)
    assert report.ok and not report.extended
    assert report.phase_lengths == (0, 1, 4)


def test_oriented_route_empty_at_target():
    trace = oriented_route(ID5, ID5)
    assert trace.length == 0
    assert validate_trace(trace) == []
    report = check_phase_invariants(trace)
    assert report.ok and report.phase_lengths == (0, 0, 0)


def test_oriented_step_refuses_at_target():
    with pytest.raises(ValueError):
        oriented_step(ID5, ID5)


def test_extension_pair_routes_cleanly():
    # the reachable half can be all crossed values; the router then swaps
    # one of them in (case 2.4) rather than wedging.
    s, t = parse_perm("123456"), parse_perm("532614")
    trace = oriented_route(s, t)
    assert validate_trace(trace) == []
    assert trace.length == 9
    assert trace.cases == ("2.1", "2.4", "1", "1", "1", "3.2", "4", "1", "1")
    assert trace.length <= hop_bound(s, t) == 15
    report = check_phase_invariants(trace)
    assert report.ok
    assert report.extended
    assert report.phase_lengths == (0, 6, 3)


def test_settling_start_pair_satisfies_phase_laws():
    # phase one of length 1: the crossed-drop allowance (a) is exercised
    # with a nonzero budget.
    trace = oriented_route(ID5, parse_perm("41235"))
    assert validate_trace(trace) == []
    assert trace.length == 5
    report = check_phase_invariants(trace)
    assert report.ok and not report.extended
    assert report.phase_lengths == (1, 1, 3)


@settings(max_examples=300)
@given(perms_of(5), perms_of(5))
def test_oriented_route_properties_order_five(s, t):
    trace = oriented_route(s, t)
    assert validate_trace(trace) == []
    assert trace.length <= hop_bound(s, t) <= 12
    report = check_phase_invariants(trace)
    assert report.ok, report.violations


@settings(max_examples=150, deadline=None)
@given(perms_of(6), perms_of(6))
def test_oriented_route_properties_order_six(s, t):
    trace = oriented_route(s, t)
    assert validate_trace(trace) == []
    assert trace.length <= hop_bound(s, t) <= 16
    report = check_phase_invariants(trace)
    assert report.ok, report.violations


@given(perms_of(5), perms_of(5))
def test_at_most_one_final_crossing(s, t):
    moves = oriented_route(s, t).moves
    finals = [j for j, move in enumerate(moves) if move is MoveKind.FINAL_CROSSING]
    crossings = [j for j, move in enumerate(moves) if move in CROSSING_KINDS]
    assert len(finals) == (1 if crossings else 0)
    if finals:
        assert finals[-1] == crossings[-1]


@given(perms_of(5), perms_of(5))
def test_phases_are_monotone(s, t):
    phases = oriented_route(s, t).phases
    assert phases == sorted(phases)
    assert all(p in (1, 2, 3) for p in phases)


def _tamper(trace: RouteTrace, **changes) -> RouteTrace:
    return dataclasses.replace(trace, **changes)


def _replace_at(column: tuple, j: int, value) -> tuple:
    return column[:j] + (value,) + column[j + 1 :]


def test_validate_trace_flags_tampering():
    trace = oriented_route(parse_perm("24135"), ID5)
    assert validate_trace(trace) == []

    # link 3 is not outgoing at the third node, and it leads elsewhere
    relinked = _tamper(trace, links=_replace_at(trace.links, 2, 3))
    faults = validate_trace(relinked)
    assert faults == ["hop 3: link 3 is not an outgoing arc", "hop 3: node chain broken"]

    unchained = _tamper(trace, nodes=_replace_at(trace.nodes, 2, parse_perm("12345")))
    faults = validate_trace(unchained)
    assert "hop 2: node chain broken" in faults and "hop 3: node chain broken" in faults

    wrong_target = _tamper(trace, target=parse_perm("12354"))
    assert validate_trace(wrong_target) == ["route does not terminate at the target"]

    ragged = _tamper(trace, cases=trace.cases[:-1])
    assert validate_trace(ragged) == ["columns have unequal lengths"]

    no_nodes = _tamper(trace, nodes=())
    assert validate_trace(no_nodes) == ["columns have unequal lengths"]


def test_phase_check_reports_ragged_columns():
    trace = oriented_route(parse_perm("24135"), ID5)
    for ragged in (
        _tamper(trace, nodes=trace.nodes[:2]),
        _tamper(trace, nodes=()),
        _tamper(trace, moves=trace.moves + (MoveKind.CROSSING,)),
    ):
        report = check_phase_invariants(ragged)
        assert not report.ok
        assert report.violations == ("columns have unequal lengths",)
    assert check_phase_invariants(_tamper(trace, nodes=trace.nodes[:2])).phase_lengths == (0, 1, 4)


def test_law_b_texts_in_either_regime():
    # three routes that break nothing but law (b): a quiet alpha (no
    # burn-down, nothing crossed in its reach), a burning one with
    # max(ull, urr) = 1, and the quiet one on an extended route, which law
    # (b) covers too.  Each starts Phase Two at its source and ends it with
    # its one final crossing at gamma, whose 3 crossed values Phase Three
    # settles.  The quiet alpha has chi = 1, so that its chi limit, 1, is
    # not the burning one, chi + 1.  Two more quiet extended routes have 4
    # Phase Two hops and gamma with 2 crossed values: the length bound
    # leaves out their settling run, of 2 hops on the first and 1 on the
    # second, so it allows them 4 and 3 hops, and law (d) does not read it
    def counts(*rows):
        return Counts(*np.array(rows, dtype=np.uint8).T)

    def column(*values):
        return np.array(values, dtype=np.int16)

    quiet = (0, 0, 0, 0, 1, 1, 1)  # ull, urr, ulr, url, chi, c, distance
    burning = (1, 0, 0, 0, 1, 1, 1)
    alpha = counts(quiet, burning, quiet, quiet, quiet)
    settled = (0, 0, 2, 0, 1, 0, 2)
    gamma = counts(
        (0, 0, 3, 0, 2, 0, 3), (0, 0, 3, 0, 3, 0, 3), (0, 0, 3, 0, 2, 0, 3), settled, settled
    )
    summary = PhaseSummary(
        column(6, 7, 6, 6, 6), column(0, 0, 0, 0, 0), column(3, 4, 3, 4, 4),
        np.array([False, False, True, True, True]),
        column(1, 1, 1, 1, 1), column(2, 3, 2, 3, 3), column(0, 0, 0, 0, 0),
        column(-1, -1, -1, -1, -1), column(0, 0, 0, 2, 1), alpha, alpha, gamma,
        column(0, 0, 0, 0, 0), None,
    )
    laws = _phase_faults(summary)
    quiet_texts = [
        "chi(gamma) = 2 > 1 with no burn-down at alpha",
        "Phase Two has 3 hops, expected <= 2",
        "crossed count 0 -> 3 over Phase Two, expected <= +2",
    ]
    assert _fault_texts(laws, 0) == quiet_texts
    assert _fault_texts(laws, 1) == [
        "chi grew 1 -> 3 over Phase Two, expected <= +1",
        "Phase Two has 4 hops, expected <= 3",
        "crossed count 0 -> 3 over Phase Two, expected <= +2",
    ]
    assert _fault_texts(laws, 2) == quiet_texts
    assert _fault_texts(laws, 3) == []
    assert _fault_texts(laws, 4) == ["Phase Two has 4 hops, expected <= 3"]


def test_validate_trace_accepts_classic_even_against_arcs():
    # classic traces carry no scheme, so arc directions are not checked.
    trace = classic_route(parse_perm("53412"), ID5)
    assert trace.scheme is None
    assert validate_trace(trace) == []


@given(perms_of(5), perms_of(5))
def test_trace_nodes_walk_matches_hops(s, t):
    trace = oriented_route(s, t)
    nodes = trace.nodes
    assert nodes[0] == trace.source == s and nodes[-1] == t
    assert len(nodes) == trace.length + 1
    for j in range(trace.length):
        assert apply_generator(nodes[j], trace.links[j]) == nodes[j + 1]


def _decisions(trace: RouteTrace) -> list[tuple[int, str, MoveKind]]:
    return list(zip(trace.links, trace.cases, trace.moves))


@pytest.mark.parametrize("n", [6, 7])
def test_router_is_equivariant_under_even_relabeling(n):
    # sources="reduced" sweeps route into two targets only; that covers every
    # pair because relabeling values by an even h maps routes to routes
    rng = random.Random(n)
    values = list(range(1, n + 1))

    def draw() -> tuple[int, ...]:
        rng.shuffle(values)
        return tuple(values)

    for _ in range(2000):
        s, t, h = draw(), draw(), draw()
        if parity(h):
            h = (h[1], h[0]) + h[2:]
        moved = oriented_route(compose(h, s), compose(h, t))
        assert _decisions(moved) == _decisions(oriented_route(s, t)), (s, t, h)
