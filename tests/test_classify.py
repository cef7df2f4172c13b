from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given

from starroute.classify import (
    _ROW_BLOCK,
    _count_rows,
    _counts,
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
    got = np.stack(_count_rows(dest, half), axis=1).tolist()
    expected = []
    for (c, t), tpos in zip(pairs, targets):
        ull, urr, ulr, url, chi, nonsingleton = _counts(c, tpos, half)
        expected.append([ull, urr, ulr, url, nonsingleton, classic_distance(c, t), chi])
    assert got == expected
    # the half-partition form of the distance, from the same rows
    assert [sum(row[:5]) for row in got] == [classic_distance_sets(c, t) for c, t in pairs]

