"""Classification of value positions for a (current, target) permutation pair.

Fix a current permutation ``c`` and target ``t`` of the same order.  A value
is *settled* when it already sits at its target position.  The unsettled
values other than ``c(1)`` and ``t(1)`` split four ways by which half they
occupy now versus which half they are destined for:

- ``ull``: now in the left half of ``c``, destined for the left half of ``t``
- ``urr``: now right, destined right
- ``ulr``: now left, destined right (crossed)
- ``url``: now right, destined left (crossed)

``crossed`` is ``ulr | url``.  ``sl``/``sr`` are the settled values in the
left/right half (a value settled at position 1 is in neither).  A relative
cycle is *alternating* when it has at least two elements and their current
positions alternate between the halves all the way around; position 1 breaks
alternation since it belongs to neither half.

:func:`_counts` counts one pair in plain Python; :func:`_count_rows` gives
the same counts, and the classic distance, for a block of pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .perm import check_pair, positions
from .topology import boundary


@dataclass(frozen=True)
class ClassifiedSets:
    n: int
    k: int
    settled: frozenset[int]
    ull: frozenset[int]
    urr: frozenset[int]
    ulr: frozenset[int]
    url: frozenset[int]
    sl: frozenset[int]
    sr: frozenset[int]
    alternating_count: int
    nonsingleton_cycles: int

    @property
    def crossed(self) -> frozenset[int]:
        return self.ulr | self.url

    @property
    def unsettled(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.settled

    @property
    def mismatched(self) -> int:
        return self.n - len(self.settled)


# An unsettled value at current position p with target position tp falls in
# slot 3 * half[p] + half[tp]; slots touching position 1 belong to no set.
_ULL, _ULR, _URL, _URR = 4, 5, 7, 8


def _alternates(start: int, dest: Sequence[int], half: Sequence[int], seen: list[bool]) -> bool:
    """Walk the cycle of positions ``p -> dest[p]`` through ``start``, marking
    each position in ``seen``; True when the halves of those positions
    alternate all the way around.

    For a current node c and target t, ``dest[p]`` is the target position of
    the value at position p, and its cycles are the relative cycles of c
    written as the current positions of their values.
    """
    seen[start] = True
    first = prev = half[start]
    alternating = first != 0
    p = dest[start]
    while p != start:
        seen[p] = True
        h = half[p]
        if h == prev or not h:
            alternating = False
        prev = h
        p = dest[p]
    return alternating and prev != first


def is_alternating(cycle: Sequence[int], c: Sequence[int]) -> bool:
    """Whether a relative cycle alternates between the halves of ``c``.

    ``cycle`` is a cyclically ordered tuple of values; ``c`` supplies their
    current positions.  Singletons never alternate, and neither does any
    cycle with an element at position 1.
    """
    if not cycle:
        return False
    cpos = positions(c)
    dest = [0] * len(cpos)
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        dest[cpos[v]] = cpos[w]
    return _alternates(cpos[cycle[0]], dest, boundary(len(c)).half, [False] * len(cpos))


def classify(c: Sequence[int], t: Sequence[int]) -> ClassifiedSets:
    """Full set partition of values for the pair ``(c, t)``.

    >>> sets = classify((2, 1, 4, 3, 5), (1, 2, 3, 4, 5))
    >>> sorted(sets.settled), sorted(sets.ulr), sorted(sets.url)
    ([5], [4], [3])
    """
    c, t = check_pair(c, t)
    n = len(c)
    b = boundary(n)
    half = b.half
    tpos = positions(t)
    settled: list[int] = []
    settled_in: list[list[int]] = [[], [], []]  # by half
    slots: list[list[int]] = [[] for _ in range(9)]
    for p, v in enumerate(c, 1):
        tp = tpos[v]
        if tp == p:
            settled.append(v)
            settled_in[half[p]].append(v)
        else:
            slots[3 * half[p] + half[tp]].append(v)
    *_, chi, nonsingleton = _counts(c, tpos, half)
    return ClassifiedSets(
        n=n,
        k=b.k,
        settled=frozenset(settled),
        ull=frozenset(slots[_ULL]),
        urr=frozenset(slots[_URR]),
        ulr=frozenset(slots[_ULR]),
        url=frozenset(slots[_URL]),
        sl=frozenset(settled_in[1]),
        sr=frozenset(settled_in[2]),
        alternating_count=chi,
        nonsingleton_cycles=nonsingleton,
    )


def crossing_load(c: Sequence[int], t: Sequence[int]) -> int:
    """``|ull| + |urr|`` computed without building the full partition.

    This is the quantity the oriented router burns down before its final
    crossing move; it never increases along a well-formed route.  The route
    sweep reads it from :func:`_counts`; this loop is the independent
    reference the tests compare that with.
    """
    c, t = check_pair(c, t)
    tpos, half = positions(t), boundary(len(c)).half
    load = 0
    for p, v in enumerate(c, 1):
        tp = tpos[v]
        if tp != p and half[p] and half[p] == half[tp]:
            load += 1
    return load


def _counts(
    c: Sequence[int], tpos: Sequence[int], half: Sequence[int]
) -> tuple[int, int, int, int, int, int]:
    """Lean counterpart of :func:`classify` for hot loops, against a prebuilt
    target position index and half table.  :func:`_count_rows` is its block
    form.

    Returns ``(ull, urr, ulr, url, alternating, nonsingleton)`` as plain ints.
    """
    dest = [0] * len(tpos)
    tally = [0] * 9
    for p, v in enumerate(c, 1):
        tp = dest[p] = tpos[v]
        if tp != p:
            tally[3 * half[p] + half[tp]] += 1
    seen = [False] * len(dest)
    chi = nonsingleton = 0
    for p in range(1, len(dest)):
        if not seen[p] and dest[p] != p:
            nonsingleton += 1
            chi += _alternates(p, dest, half, seen)
    return tally[_ULL], tally[_URR], tally[_ULR], tally[_URL], chi, nonsingleton


# rows per pass of _count_rows: bounds its temporaries (a few hundred kB)
_ROW_BLOCK = 4096


class RowCounts(NamedTuple):
    """What :func:`_count_rows` gives per row, each an ``(m,)`` uint8 array."""

    ull: np.ndarray
    urr: np.ndarray
    ulr: np.ndarray
    url: np.ndarray
    nonsingleton: np.ndarray
    distance: np.ndarray  # routing.classic_distance
    alternating: np.ndarray


def _halves(x: np.ndarray, k: int) -> np.ndarray:
    """The half of each position in ``x``, as ``boundary(n).half`` gives it
    for the boundary ``k``: 0 for position 1, 1 up to k, 2 beyond."""
    return (x > 1).view(np.uint8) + (x > k)


def _cycle_cols(cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The cycles of a block of pairs in column layout: ``cols`` is the
    ``(n, r)`` transpose of a block of ``dest`` rows, so entry ``[p - 1, i]``
    is the target position of the value at position p of pair i.  Returns
    each position's label, the lowest position on its cycle, and whether
    its cycle alternates (as :func:`_alternates` decides), both ``(n, r)``.

    Pointer doubling, ``ceil(log2 n)`` gathers per array: a position is
    *bad* when it is position 1 or its value is destined for its own half
    (a singleton is), and a cycle alternates when none of its positions is
    bad.  ``k`` is the boundary of ``boundary(n)``.
    """
    n, r = cols.shape
    pos = np.arange(1, n + 1, dtype=np.uint8)
    # flat index of each entry's target position in the block
    ptr = cols.astype(np.intp)
    ptr -= 1
    ptr *= r
    ptr += np.arange(r)
    ptr = ptr.ravel()
    label = np.repeat(pos, r)
    bad = _halves(cols, k) == _halves(pos, k)[:, None]
    bad[0] = True
    bad = bad.ravel()
    steps = (n - 1).bit_length()
    for step in range(steps):
        np.minimum(label, label[ptr], out=label)
        np.logical_or(bad, bad[ptr], out=bad)
        if step + 1 < steps:
            ptr = ptr[ptr]
    return label.reshape(n, r), ~bad.reshape(n, r)


def _count_rows(dest: np.ndarray, half: Sequence[int]) -> RowCounts:
    """:func:`_counts` and the classic distance for every row of ``dest``.

    ``dest`` is an ``(m, n)`` uint8 block, one row per (current, target)
    pair: entry ``i`` is the target position (1-based) of the value at
    position ``i + 1``, the ``dest`` that :func:`_counts` builds.  ``half``
    is ``boundary(n).half``.

    Rows are taken ``_ROW_BLOCK`` at a time, each block in column layout,
    so that every count is a sum over the ``n`` rows of a mask.  The slot
    counts read the halves of the left positions (2..k) and the right ones.
    The cycle counts read the labels and alternation flags of
    :func:`_cycle_cols`: a moved position that is its own label stands for
    one non-singleton cycle, and for an alternating one when its cycle
    alternates.  The distance is mismatches plus non-singleton cycles,
    minus 2 when position 1 is unsettled.
    """
    m, n = dest.shape
    k = list(half).count(1) + 1
    pos = np.arange(1, n + 1, dtype=np.uint8)[:, None]
    left, right = slice(1, k), slice(k, n)
    out = np.empty((7, m), dtype=np.uint8)
    for lo in range(0, m, _ROW_BLOCK):
        cols = np.ascontiguousarray(dest[lo : lo + _ROW_BLOCK].T)
        ull, urr, ulr, url, nonsingleton, distance, alternating = out[:, lo : lo + cols.shape[1]]
        there = _halves(cols, k)  # the half each value is destined for
        moved = cols != pos
        label, alternates = _cycle_cols(cols, k)
        leader = label == pos
        for mask, total in (
            ((there[left] == 1) & moved[left], ull),
            ((there[right] == 2) & moved[right], urr),
            (there[left] == 2, ulr),
            (there[right] == 1, url),
            (leader & moved, nonsingleton),
            (moved, distance),
            (leader & alternates, alternating),
        ):
            np.sum(mask, axis=0, dtype=np.uint8, out=total)
        distance += nonsingleton
        distance -= 2 * moved[0].view(np.uint8)
    return RowCounts(*out)
