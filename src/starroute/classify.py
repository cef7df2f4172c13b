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

:func:`_slots` sorts the positions of one pair into these sets in one pass,
and :func:`classify`, :func:`_counts` and the router's scalar pick read it;
:func:`_count_rows` gives the same :class:`Counts` for a block of pairs at
once.
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
# slot 3 * half[p] + half[tp], and a settled one in slot _SETTLED + half[p];
# the unsettled slots touching position 1 belong to no set.
_ULL, _ULR, _URL, _URR = 4, 5, 7, 8
_SETTLED = 9


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
    cycle with an element at position 1.  Raises ValueError for a value
    outside 1..n or one named twice.
    """
    if not cycle:
        return False
    cpos = positions(c)
    if len(set(cycle)) != len(cycle) or not all(1 <= v < len(cpos) for v in cycle):
        raise ValueError(f"not a cycle of distinct values in 1..{len(c)}: {tuple(cycle)}")
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
    b = boundary(len(c))
    slots, dest = _slots(c, positions(t), b.half)
    chi, nonsingleton = _cycle_counts(dest, b.half)

    def values(*at: int) -> frozenset[int]:
        return frozenset(c[p - 1] for slot in at for p in slots[slot])

    return ClassifiedSets(
        n=b.n,
        k=b.k,
        settled=values(_SETTLED, _SETTLED + 1, _SETTLED + 2),
        ull=values(_ULL),
        urr=values(_URR),
        ulr=values(_ULR),
        url=values(_URL),
        sl=values(_SETTLED + 1),
        sr=values(_SETTLED + 2),
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


def _slots(
    c: Sequence[int], tpos: Sequence[int], half: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """The partition of the positions of ``c`` toward the target whose
    position index is ``tpos``: ``slots[j]`` holds, in ascending order, the
    positions whose value falls in slot j (see ``_ULL``), and ``dest[p]`` is
    the target position of the value at position p (``dest[0]`` unused)."""
    dest = [0] * len(tpos)
    slots: list[list[int]] = [[] for _ in range(_SETTLED + 3)]
    for p, v in enumerate(c, 1):
        tp = dest[p] = tpos[v]
        slots[_SETTLED + half[p] if tp == p else 3 * half[p] + half[tp]].append(p)
    return slots, dest


def _cycle_counts(dest: Sequence[int], half: Sequence[int]) -> tuple[int, int]:
    """``(alternating, nonsingleton)``: the relative cycles of ``dest`` (as
    :func:`_slots` gives it) that alternate, and those of two or more."""
    seen = [False] * len(dest)
    chi = nonsingleton = 0
    for p in range(1, len(dest)):
        if not seen[p] and dest[p] != p:
            nonsingleton += 1
            chi += _alternates(p, dest, half, seen)
    return chi, nonsingleton


class Counts(NamedTuple):
    """The counts of a (current, target) pair that the router's bounds and
    phase laws read: the four unsettled sets, the alternating and the
    non-singleton relative cycles, and the classic distance
    (``routing.classic_distance``).  Plain ints for one pair
    (:func:`_counts`), ``(m,)`` arrays for a block of pairs
    (:func:`_count_rows`)."""

    ull: int | np.ndarray
    urr: int | np.ndarray
    ulr: int | np.ndarray
    url: int | np.ndarray
    alternating: int | np.ndarray
    nonsingleton: int | np.ndarray
    distance: int | np.ndarray


def _counts(c: Sequence[int], tpos: Sequence[int], half: Sequence[int]) -> Counts:
    """Lean counterpart of :func:`classify` for hot loops, against a prebuilt
    target position index and half table.  :func:`_count_rows` is its block
    form; both take the distance as moved positions plus non-singleton
    cycles, minus 2 when position 1 is unsettled."""
    slots, dest = _slots(c, tpos, half)
    chi, nonsingleton = _cycle_counts(dest, half)
    moved = len(c) - sum(map(len, slots[_SETTLED:]))
    distance = moved + nonsingleton - 2 * (dest[1] != 1)
    ull, urr, ulr, url = (len(slots[j]) for j in (_ULL, _URR, _ULR, _URL))
    return Counts(ull, urr, ulr, url, chi, nonsingleton, distance)


# rows per pass of _count_rows: bounds its temporaries (a few hundred kB)
_ROW_BLOCK = 4096


def _halves(x: np.ndarray, k: int) -> np.ndarray:
    """The half of each position in ``x``, as ``boundary(n).half`` gives it
    for the boundary ``k``: 0 for position 1, 1 up to k, 2 beyond."""
    return (x > 1).view(np.uint8) + (x > k)


def _cycle_cols(cols: np.ndarray, stay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cycles of a block of pairs in column layout: ``cols`` is the
    ``(n, r)`` transpose of a block of ``dest`` rows, so entry ``[p - 1, i]``
    is the target position of the value at position p of pair i, and
    ``stay`` marks where that value is destined for the half it sits in.
    Returns each position's label, the lowest position on its cycle, and
    whether its cycle alternates (as :func:`_alternates` decides), both ``(n, r)``.

    Pointer doubling, ``ceil(log2 n)`` gathers per array: a position is
    *bad* when it is position 1 or it stays in its half (a singleton does),
    and a cycle alternates when none of its positions is bad.
    """
    n, r = cols.shape
    # flat index of each entry's target position in the block
    ptr = cols.astype(np.intp)
    ptr -= 1
    ptr *= r
    ptr += np.arange(r)
    ptr = ptr.ravel()
    label = np.repeat(np.arange(1, n + 1, dtype=np.uint8), r)
    bad = stay.copy()
    bad[0] = True
    bad = bad.ravel()
    steps = (n - 1).bit_length()
    for step in range(steps):
        np.minimum(label, label[ptr], out=label)
        np.logical_or(bad, bad[ptr], out=bad)
        if step + 1 < steps:
            ptr = ptr[ptr]
    return label.reshape(n, r), ~bad.reshape(n, r)


def _count_block(block: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, ...]:
    """The :class:`Counts` of up to ``_ROW_BLOCK`` rows of ``dest``, into
    the ``(7, r)`` ``out``, a row per field.  Returns the partition the pick
    kernel reads too, each ``(n, r)``: the block in column layout, the moved,
    burn-down (moved within its half) and crossed masks, and
    :func:`_cycle_cols`'s labels and flags."""
    cols = np.ascontiguousarray(block.T)
    n = len(cols)
    k = boundary(n).k
    pos = np.arange(1, n + 1, dtype=np.uint8)[:, None]
    here, there = _halves(pos, k), _halves(cols, k)
    stay, moved = there == here, cols != pos
    same, crossed = stay & moved, there + here == 3
    label, alternates = _cycle_cols(cols, stay)
    leader = label == pos
    left, right = slice(1, k), slice(k, n)
    total = Counts(*out)
    for mask, into in (
        (same[left], total.ull),
        (same[right], total.urr),
        (crossed[left], total.ulr),
        (crossed[right], total.url),
        (leader & alternates, total.alternating),
        (leader & moved, total.nonsingleton),
        (moved, total.distance),
    ):
        np.sum(mask, axis=0, dtype=np.uint8, out=into)
    distance = total.distance
    distance += total.nonsingleton
    distance -= 2 * moved[0].view(np.uint8)
    return cols, moved, same, crossed, label, alternates


def _dest_rows(targets: Sequence[Sequence[int]], perms: np.ndarray) -> np.ndarray:
    """The ``dest`` rows of every node of ``perms`` toward each of ``targets``,
    an ``(m, n)`` uint8 block: row ``j * len(perms) + v`` is ``perms[v]``
    toward ``targets[j]``."""
    tpos = np.array([positions(t) for t in targets], dtype=np.uint8)
    return tpos[:, perms].reshape(-1, perms.shape[1])


def _count_rows(dest: np.ndarray) -> Counts:
    """:func:`_counts` for every row of ``dest``, each field an ``(m,)``
    uint8 array.

    ``dest`` is an ``(m, n)`` uint8 block, one row per (current, target)
    pair: entry ``i`` is the target position (1-based) of the value at
    position ``i + 1``, the ``dest`` that :func:`_counts` builds.

    Rows are taken ``_ROW_BLOCK`` at a time by :func:`_count_block`, each
    block in column layout, so that every count is a sum over the ``n``
    rows of a mask.  The slot counts sum the burn-down and crossed masks
    over the left positions (2..k of ``boundary(n)``) and the right ones.
    The cycle counts read the labels and alternation flags of
    :func:`_cycle_cols`: a moved position that is its own label stands for
    one non-singleton cycle, and for an alternating one when its cycle
    alternates.  The distance is mismatches plus non-singleton cycles,
    minus 2 when position 1 is unsettled.
    """
    out = np.empty((7, len(dest)), dtype=np.uint8)
    for lo in range(0, len(dest), _ROW_BLOCK):
        _count_block(dest[lo : lo + _ROW_BLOCK], out[:, lo : lo + _ROW_BLOCK])
    return Counts(*out)
