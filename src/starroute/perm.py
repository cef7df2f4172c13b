"""Permutations in one-line notation, as plain tuples of 1-based values.

A permutation ``p`` of order ``n`` is a tuple ``(p(1), ..., p(n))`` where
``p(i)`` is the value sitting at position ``i``.  Positions and values both
run from 1 to n.  Composition is function composition: ``compose(p, q)`` maps
``i`` to ``p(q(i))``.

Text form: a contiguous digit string for n <= 9 ("21345"), comma-separated
values for larger orders ("2,1,3,4,5,6,7,8,9,10").
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

Perm = tuple[int, ...]

MIN_ORDER = 3


def check_perm(values: Iterable[int]) -> Perm:
    """Validate and normalise ``values`` as a permutation of 1..n.

    Raises ValueError for duplicates, zeros, out-of-range entries, or
    orders below 3 (the smallest star graph lives on 3 symbols).
    """
    p = tuple(values)
    n = len(p)
    if n < MIN_ORDER:
        raise ValueError(f"permutation order must be at least {MIN_ORDER}, got {n}")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")
    return p


def check_pair(s: Iterable[int], t: Iterable[int]) -> tuple[Perm, Perm]:
    """Validate ``s`` and ``t`` as permutations of one order, as
    :func:`check_perm` does each; the checked input of every public
    function that takes a (current, target) pair.

    >>> check_pair((1, 2, 3), (1, 2, 3, 4))
    Traceback (most recent call last):
    ...
    ValueError: order mismatch: 3 vs 4
    """
    s, t = tuple(s), tuple(t)
    if len(s) != len(t):
        raise ValueError(f"order mismatch: {len(s)} vs {len(t)}")
    return check_perm(s), check_perm(t)


def parse_perm(text: str) -> Perm:
    """Parse the text form of a permutation.

    >>> parse_perm("21345")
    (2, 1, 3, 4, 5)
    >>> parse_perm("2,1,3,4,5,6,7,8,9,10")[-1]
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    try:
        if "," in text:
            values = [int(part) for part in text.split(",")]
        else:
            values = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"malformed permutation string: {text!r}") from None
    return check_perm(values)


def format_perm(p: Sequence[int]) -> str:
    """Inverse of :func:`parse_perm`.

    >>> format_perm((2, 1, 3, 4, 5))
    '21345'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Composition p after q: ``compose(p, q)(i) == p(q(i))``.

    >>> format_perm(compose(parse_perm("23145"), parse_perm("21345")))
    '32145'
    """
    check_pair(p, q)
    return tuple(p[v - 1] for v in q)


def positions(p: Sequence[int]) -> list[int]:
    """Position index: ``positions(p)[v]`` is the position holding value ``v``.

    Entry 0 is unused, so the list has length n+1.

    >>> positions((2, 3, 1))
    [0, 3, 1, 2]
    """
    p = check_perm(p)
    pos = [0] * (len(p) + 1)
    for i, v in enumerate(p, 1):
        pos[v] = i
    return pos


def inverse(p: Sequence[int]) -> Perm:
    """The inverse permutation: ``compose(p, inverse(p))`` is the identity.

    >>> format_perm(inverse(parse_perm("23145")))
    '31245'
    """
    return tuple(positions(p)[1:])


def parity(p: Sequence[int]) -> int:
    """Parity of the inversion count: 0 for even permutations, 1 for odd.

    >>> parity((1, 2, 3, 4, 5)), parity((2, 1, 3, 4, 5))
    (0, 1)
    """
    return _parity(check_perm(p))


def _parity(p: Sequence[int]) -> int:
    """:func:`parity` without the input check: any sequence, ties included,
    so that :func:`routing.validate_trace` gives a malformed node a parity."""
    inversions = 0
    right: list[int] = []  # the values to the right of the current one, sorted
    for v in reversed(p):
        smaller = bisect_left(right, v)
        inversions += smaller
        right.insert(smaller, v)
    return inversions & 1


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation, over values 1..n.

    Each cycle ``(a_0, ..., a_{m-1})`` means the underlying map sends
    ``a_j`` to ``a_{j+1 mod m}``.  Cycles are rotated to start at their
    smallest element and listed in increasing order of that element,
    fixed points included as singletons.
    """

    cycles: tuple[tuple[int, ...], ...]


def cycles(p: Sequence[int]) -> CycleDecomposition:
    """Disjoint cycle decomposition of the map ``i -> p(i)``.

    >>> cycles((2, 3, 1, 4, 5)).cycles
    ((1, 2, 3), (4,), (5,))
    """
    p = check_perm(p)
    n = len(p)
    seen = [False] * (n + 1)
    out: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start - 1]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v - 1]
        out.append(tuple(cyc))
    return CycleDecomposition(tuple(out))


def relative_map(s: Sequence[int], t: Sequence[int]) -> Perm:
    """The permutation ``s o t^-1``, acting on values.

    It sends the value that *should* occupy a position (per ``t``) to the
    value that *currently* occupies it (per ``s``); its fixed points are
    exactly the settled values, i.e. values at the same position in both.
    """
    s, t = check_pair(s, t)
    return tuple(s[v - 1] for v in inverse(t))


def relative_cycles(s: Sequence[int], t: Sequence[int]) -> CycleDecomposition:
    """Cycle decomposition of ``s`` relative to ``t`` (cycles of ``s o t^-1``).

    >>> relative_cycles(parse_perm("21345"), parse_perm("21435")).cycles
    ((1,), (2,), (3, 4), (5,))
    """
    return cycles(relative_map(s, t))


def apply_generator(p: Sequence[int], link: int) -> Perm:
    """Swap the values at positions 1 and ``link`` (2 <= link <= n).

    This is one hop in the star graph: right multiplication by the
    transposition exchanging positions 1 and ``link``.

    >>> format_perm(apply_generator((1, 2, 3, 4, 5), 5))
    '52341'
    """
    p = check_perm(p)
    n = len(p)
    if not 2 <= link <= n:
        raise ValueError(f"link must be within 2..{n}, got {link}")
    q = list(p)
    q[0], q[link - 1] = q[link - 1], q[0]
    return tuple(q)
