from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from starroute.classify import classify, crossing_load
from starroute.oracle import bfs, distance, rank
from starroute.perm import (
    apply_generator,
    check_pair,
    check_perm,
    compose,
    cycles,
    format_perm,
    identity,
    inverse,
    parity,
    parse_perm,
    positions,
    relative_cycles,
    relative_map,
)
from starroute.perm import _parity

from starroute.routing import (
    classic_distance,
    classic_distance_sets,
    classic_route,
    classic_step,
    hop_bound,
    oriented_route,
    oriented_step,
)

from conftest import perm_pairs, perms_of


def test_parse_compact():
    assert parse_perm("21435") == (2, 1, 4, 3, 5)


def test_parse_separated():
    assert parse_perm("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert parse_perm(" 3,1,2 ") == (3, 1, 2)


def test_parse_rejects_garbage():
    for bad in ("", "11", "123a", "1,2,2", "0,1,2"):
        with pytest.raises(ValueError):
            parse_perm(bad)


def test_check_perm_rejects_short_and_nonbijective():
    with pytest.raises(ValueError):
        check_perm((1, 2))
    with pytest.raises(ValueError):
        check_perm((1, 2, 2, 4))


def test_check_pair_checks_the_orders_then_each_permutation():
    assert check_pair([2, 1, 3], (1, 2, 3)) == ((2, 1, 3), (1, 2, 3))
    with pytest.raises(ValueError, match=r"^order mismatch: 3 vs 4$"):
        check_pair((1, 2, 3), (1, 2, 3, 4))
    with pytest.raises(ValueError, match="not a permutation"):
        check_pair((1, 2, 3), (1, 1, 3))


REPEATED, GOOD = (1, 1, 3), (1, 2, 3)
PAIR_FUNCTIONS = (
    compose,
    relative_map,
    relative_cycles,
    classify,
    crossing_load,
    classic_step,
    oriented_step,
    classic_distance,
    classic_distance_sets,
    hop_bound,
    classic_route,
    oriented_route,
    distance,
)


@pytest.mark.parametrize("fn", PAIR_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_pair_functions_reject_a_repeated_value(fn):
    # unchecked, a repeated value sends the cycle walks round forever and the
    # BFS lookup to the wrong vertex
    for s, t in ((REPEATED, GOOD), (GOOD, REPEATED)):
        with pytest.raises(ValueError, match="not a permutation"):
            fn(s, t)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(cycles, id="cycles"),
        pytest.param(rank, id="rank"),
        pytest.param(bfs, id="bfs"),
        pytest.param(lambda p: bfs(GOOD).distance(p), id="field-distance"),
        # these four used to answer: inverse((1, 1, 3)) gave (2, 0, 3)
        pytest.param(inverse, id="inverse"),
        pytest.param(parity, id="parity"),
        pytest.param(positions, id="positions"),
        pytest.param(lambda p: apply_generator(p, 2), id="apply-generator"),
    ],
)
def test_single_perm_functions_reject_a_repeated_value(call):
    for p in (REPEATED, (9, 9, 9)):
        with pytest.raises(ValueError, match="not a permutation"):
            call(p)


@given(perms_of(6))
def test_format_parse_round_trip(p):
    assert parse_perm(format_perm(p)) == p


@given(perms_of(11))
def test_format_parse_round_trip_two_digit(p):
    assert parse_perm(format_perm(p)) == p


@given(perm_pairs())
def test_compose_then_invert(pair):
    p, q = pair
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert compose(inverse(p), p) == identity(n)
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@given(perm_pairs())
def test_parity_is_a_homomorphism(pair):
    p, q = pair
    assert parity(compose(p, q)) == parity(p) ^ parity(q)
    assert parity(inverse(p)) == parity(p)


def test_parity_anchor_values():
    assert parity((1, 2, 3, 4, 5)) == 0
    assert parity((2, 1, 3, 4, 5)) == 1
    assert parity((2, 3, 1, 4, 5)) == 0


@given(st.lists(st.integers(0, 9), max_size=9))
def test_parity_is_the_inversion_count_parity(values):
    # the pairwise count is the reference; the unchecked form takes any
    # sequence, ties included, so a malformed node in a tampered trace still
    # gets a parity from validate_trace
    inversions = sum(
        values[j] < values[i] for i in range(len(values)) for j in range(i + 1, len(values))
    )
    assert _parity(values) == inversions & 1


@given(perms_of(7))
def test_cycles_cover_and_canonical_form(p):
    dec = cycles(p)
    seen = sorted(v for c in dec.cycles for v in c)
    assert seen == list(range(1, 8))
    starts = [c[0] for c in dec.cycles]
    assert all(c[0] == min(c) for c in dec.cycles)
    assert starts == sorted(starts)
    # each cycle really is an orbit of the map i -> p(i)
    for c in dec.cycles:
        for i, v in enumerate(c):
            assert p[v - 1] == c[(i + 1) % len(c)]


def test_cycles_fixed_points_and_lookup():
    dec = cycles((2, 1, 3, 5, 4))
    assert [c for c in dec.cycles if len(c) == 1] == [(3,)]
    assert sum(len(c) > 1 for c in dec.cycles) == 2
    assert next(c for c in dec.cycles if 5 in c) == (4, 5)


@given(perm_pairs())
def test_relative_map_fixed_points_are_settled_values(pair):
    s, t = pair
    sigma = relative_map(s, t)
    settled = {t[i] for i in range(len(s)) if s[i] == t[i]}
    fixed = {c[0] for c in relative_cycles(s, t).cycles if len(c) == 1}
    assert fixed == settled
    assert frozenset(v for v in range(1, len(s) + 1) if sigma[v - 1] == v) == frozenset(settled)


@given(perms_of(6))
def test_relative_map_to_self_is_identity(p):
    assert relative_map(p, p) == identity(6)


def test_relative_map_order_mismatch():
    with pytest.raises(ValueError):
        relative_map((1, 2, 3), (1, 2, 3, 4))


@given(perms_of(6), st.integers(2, 6))
def test_apply_generator_is_an_involution(p, link):
    q = apply_generator(p, link)
    assert q != p
    assert apply_generator(q, link) == p
    assert parity(q) == parity(p) ^ 1


def test_apply_generator_rejects_bad_link():
    with pytest.raises(ValueError):
        apply_generator((1, 2, 3), 1)
    with pytest.raises(ValueError):
        apply_generator((1, 2, 3), 4)


@given(perm_pairs(max_n=6), st.integers(2, 6))
def test_hop_left_multiplies_relative_map_by_front_transposition(pair, link):
    s, t = pair
    n = len(s)
    if link > n:
        link = 2 + (link % (n - 1))
    sigma = relative_map(s, t)
    after = relative_map(apply_generator(s, link), t)
    # swapping positions 1 and link exchanges the images of the two values
    # that map there, i.e. left-multiplies sigma by a transposition.
    moved = [v for v in range(1, n + 1) if sigma[v - 1] != after[v - 1]]
    assert len(moved) == 2
    a, b = moved
    assert after[a - 1] == sigma[b - 1] and after[b - 1] == sigma[a - 1]
