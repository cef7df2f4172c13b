"""The route trees' row kernels against the scalar forms they replace.

The one pass of ``routetree._pick_rows``: its picks against
``routing._oriented_pick`` (link, move kind and case), its counts against
``classify._count_rows``, and their alternating-cycle count against
``classify._counts``: every ordered pair through order 6, 20 000 seeded
pairs at orders 7 to 9.  Also the distance checks' lookup: each pair's
counts gathered at the Lehmer rank of its dest row against the kernel.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from starroute.classify import Counts, _count_rows, _counts, _dest_rows
from starroute.oracle import _lehmer, move_table
from starroute.perm import parity, positions
from starroute.routetree import _KINDS, _NO_CASE, _pick_rows
from starroute.routing import CASES, _oriented_pick
from starroute.topology import boundary

from conftest import all_perms


def _pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every ordered pair (c, t) through order 6, target by target in rank
    order, each target's nodes in rank order; 20 000 seeded pairs beyond."""
    if n <= 6:
        nodes = all_perms(n)
        return [(c, t) for t in nodes for c in nodes]
    rng = random.Random(n)
    values = range(1, n + 1)
    return [(tuple(rng.sample(values, n)), tuple(rng.sample(values, n))) for _ in range(20_000)]


def _rows(n: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The ``dest`` rows and node parities of ``pairs``."""
    if n <= 6:  # every pair: each target's position index over the move table
        table = move_table(n)
        tpos = np.array([positions(t) for t in all_perms(n)], dtype=np.uint8)
        return tpos[:, table.perms].reshape(-1, n), np.tile(table.odd, len(tpos))
    dest = [[tpos[v] for v in c] for c, tpos in ((c, positions(t)) for c, t in pairs)]
    return np.array(dest, dtype=np.uint8), np.array([parity(c) for c, _ in pairs], dtype=bool)


@pytest.mark.parametrize("n", range(3, 10))
def test_row_kernels_match_the_scalar_pick_and_counts(n):
    half = boundary(n).half
    pairs = _pairs(n)
    dest, odd = _rows(n, pairs)
    counts, link, move, case = _pick_rows(dest, odd)
    # the one pass gives the counts of the distance sweep's kernel
    assert all((a == b).all() for a, b in zip(counts, _count_rows(dest)))
    alternating = counts.alternating
    # the scalar forms, each node's position index and parity taken once
    nodes = all_perms(n) if n <= 6 else {p for pair in pairs for p in pair}
    index = {p: (positions(p), parity(p)) for p in nodes}
    kinds = {kind: code for code, kind in enumerate(_KINDS)}
    cases = {label: code for code, label in enumerate(CASES)}
    expected, chi = [], []
    for c, t in pairs:
        (_, c_odd), (tpos, _) = index[c], index[t]
        chi.append(_counts(c, tpos, half).alternating)
        if c == t:
            expected.append((0, len(_KINDS), _NO_CASE))
            continue
        link_, kind, label = _oriented_pick(c, c_odd, tpos, half)
        expected.append((link_, kinds[kind], cases[label]))
    assert list(zip(link.tolist(), move.tolist(), case.tolist())) == expected
    assert alternating.tolist() == chi


@pytest.mark.parametrize("n", range(4, 9))
def test_counts_at_the_relative_rank_match_the_kernel(n):
    # a pair's dest row is its relative permutation t^-1 s, so the distance
    # checks gather its counts at that row's Lehmer rank from one kernel
    # pass over every permutation in rank order: every pair through order
    # 5, three seeded targets beyond
    perms = move_table(n).perms
    identity = tuple(range(1, n + 1))
    ranks, _ = _lehmer(list(_dest_rows([identity], perms).T))
    assert (ranks == np.arange(len(perms))).all()
    if n <= 5:
        targets = all_perms(n)
    else:
        rng = random.Random(n)
        targets = [tuple(rng.sample(identity, n)) for _ in range(3)]
    dest = _dest_rows(targets, perms)
    at, _ = _lehmer(list(dest.T))
    table = _count_rows(perms)
    for name, gathered, direct in zip(Counts._fields, table, _count_rows(dest)):
        assert (gathered[at] == direct).all(), name
