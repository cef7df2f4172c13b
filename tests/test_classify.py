from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given

from starroute.classify import (
    _ROW_BLOCK,
    _SETTLED,
    Counts,
    _count_rows,
    _counts,
    _slots,
    classify,
    crossing_load,
    is_alternating,
)
from starroute.perm import positions, relative_cycles
from starroute.routing import classic_distance, classic_distance_sets
from starroute.topology import boundary

from conftest import all_perms, perm_pairs, perms_of


def test_crossed_pair_example():
    sets = classify((2, 1, 4, 3, 5), (1, 2, 3, 4, 5))
    assert sets.k == 3
    assert sets.settled == {5}
    assert sets.sr == {5} and not sets.sl
    assert sets.ulr == {4} and sets.url == {3}
    assert not sets.ull and not sets.urr
    assert sets.crossed == {3, 4}
    assert sets.alternating_count == 1
    assert sets.nonsingleton_cycles == 2


def test_fully_crossed_example():
    sets = classify((1, 4, 5, 2, 3), (1, 2, 3, 4, 5))
    assert sets.settled == {1}
    assert sets.ulr == {4, 5} and sets.url == {2, 3}
    assert sets.alternating_count == 2
    assert sets.nonsingleton_cycles == 2


def test_burn_down_example():
    sets = classify((1, 3, 2, 5, 4), (1, 2, 3, 4, 5))
    assert sets.ull == {2, 3} and sets.urr == {4, 5}
    assert not sets.crossed
    assert sets.alternating_count == 0


def test_classify_order_mismatch():
    with pytest.raises(ValueError):
        classify((1, 2, 3), (1, 2, 3, 4))


def test_is_alternating_edge_cases():
    c = (2, 1, 4, 3, 5)
    assert not is_alternating((5,), c)
    # any cycle touching position 1 is disqualified
    assert not is_alternating((1, 2), c)
    assert is_alternating((3, 4), c)
    assert not is_alternating((), c)


@pytest.mark.parametrize("cycle", [(1, 9), (0, 2), (6,), (2, 2), (3, 4, 3)])
def test_is_alternating_rejects_a_value_outside_the_order_or_named_twice(cycle):
    with pytest.raises(ValueError):
        is_alternating(cycle, (2, 1, 4, 3, 5))


@given(perm_pairs())
def test_partition_is_exhaustive_and_disjoint(pair):
    c, t = pair
    n = len(c)
    sets = classify(c, t)
    parts = [sets.settled, sets.ull, sets.urr, sets.ulr, sets.url]
    union = frozenset().union(*parts)
    assert sum(len(p) for p in parts) == len(union)
    # the only values outside the five sets are the front value and the
    # front-destined value, and only while they are out of place.
    if c[0] == t[0]:
        assert union == frozenset(range(1, n + 1))
    else:
        assert frozenset(range(1, n + 1)) - union == {c[0], t[0]}


@given(perm_pairs())
def test_settled_matches_relative_fixed_points(pair):
    c, t = pair
    sets = classify(c, t)
    assert sets.settled == {cy[0] for cy in relative_cycles(c, t).cycles if len(cy) == 1}
    assert sets.sl | sets.sr <= sets.settled
    front = sets.settled - (sets.sl | sets.sr)
    assert front == ({c[0]} if c[0] == t[0] else frozenset())


@given(perm_pairs())
def test_slots_hold_every_position_once_in_ascending_order(pair):
    c, t = pair
    n = len(c)
    half = boundary(n).half
    slots, dest = _slots(c, positions(t), half)
    assert sorted(p for slot in slots for p in slot) == list(range(1, n + 1))
    assert all(slot == sorted(slot) for slot in slots)
    # the settled slots, one per half, hold exactly the fixed points
    fixed = [p for p in range(1, n + 1) if c[p - 1] == t[p - 1]]
    assert slots[_SETTLED:] == [[p for p in fixed if half[p] == h] for h in range(3)]
    assert dest[1:] == [t.index(v) + 1 for v in c]


@given(perm_pairs())
def test_crossing_load_agrees_with_full_partition(pair):
    c, t = pair
    sets = classify(c, t)
    assert crossing_load(c, t) == len(sets.ull) + len(sets.urr)


@given(perm_pairs())
def test_alternating_count_bounded_by_cycles(pair):
    c, t = pair
    sets = classify(c, t)
    assert 0 <= sets.alternating_count <= sets.nonsingleton_cycles
    assert sets.mismatched == sets.n - len(sets.settled)
    assert sets.unsettled == frozenset(range(1, sets.n + 1)) - sets.settled


@given(perms_of(6))
def test_self_pair_is_fully_settled(p):
    sets = classify(p, p)
    assert sets.settled == frozenset(range(1, 7))
    assert not sets.unsettled and not sets.crossed
    assert sets.alternating_count == 0 and sets.nonsingleton_cycles == 0


def _pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered pair through order 5, 20 000 seeded pairs beyond."""
    if n <= 5:
        return [(c, t) for c in all_perms(n) for t in all_perms(n)]
    rng = random.Random(n)
    values = range(1, n + 1)
    return [(tuple(rng.sample(values, n)), tuple(rng.sample(values, n))) for _ in range(20_000)]


@pytest.mark.parametrize("n", range(3, 10))
def test_count_rows_matches_the_scalar_counts(n):
    half = boundary(n).half
    pairs = _pairs(n)
    targets = [positions(t) for _, t in pairs]
    dest = np.array([[tpos[v] for v in c] for (c, _), tpos in zip(pairs, targets)], dtype=np.uint8)
    assert n < 5 or len(pairs) > _ROW_BLOCK  # several blocks per call
    got = _count_rows(dest)
    expected = [_counts(c, tpos, half) for (c, _), tpos in zip(pairs, targets)]
    for field in Counts._fields:
        assert getattr(got, field).tolist() == [getattr(e, field) for e in expected], field
    # the distance both forms give is the classic one, and so is the half-partition sum
    distances = [classic_distance(c, t) for c, t in pairs]
    assert got.distance.tolist() == distances
    assert [classic_distance_sets(c, t) for c, t in pairs] == distances

