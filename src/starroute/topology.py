"""Star-graph adjacency and the two unidirectional orientation schemes.

The star graph on n symbols has every permutation of 1..n as a vertex and an
edge labelled ``i`` between ``u`` and ``apply_generator(u, i)`` for each
``i`` in 2..n.  Positions 2..k with ``k = ceil((n-1)/2) + 1`` form the *left
half*, positions k+1..n the *right half*; position 1 belongs to neither.

Each edge carries one direction.  Both schemes are *parity-link*
orientations: even vertices send on a link set L, the *send set*, and odd
vertices send on the other links.  Every generator flips parity, so each
edge is directed from one parity class to the other.

- ``Scheme.FUJITA``: L is the left half, 2..k.
- ``Scheme.DAY_TRIPATHI``: L is the even links.

The two schemes are one graph.  For a permutation s of positions 2..n, the
map v -> v∘s takes the edge at v labelled i to the edge at v∘s labelled
s^-1(i).  An even s keeps parity, so it maps the orientation of L onto that
of s^-1(L); an odd s maps it onto that of the complement.  So the graph
depends only on |L|, up to |L| <-> n-1-|L|, and both send sets have
ceil((n-1)/2) links.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Sequence

from .perm import Perm, apply_generator, parity


class Scheme(enum.Enum):
    FUJITA = "fujita"
    DAY_TRIPATHI = "day-tripathi"

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown scheme {text!r} (expected 'fujita' or 'day-tripathi')")


class Direction(enum.Enum):
    OUTGOING = "out"
    INCOMING = "in"


@dataclass(frozen=True)
class HalfBoundary:
    """The left/right split of link positions for order ``n``.

    ``half[p]`` names the half of position ``p``: 0 for position 1 (which
    belongs to neither), 1 for the left half, 2 for the right half.  Entry 0
    is unused.
    """

    n: int
    k: int
    left_positions: tuple[int, ...]
    right_positions: tuple[int, ...]
    half: tuple[int, ...]


@lru_cache(maxsize=None)
def boundary(n: int) -> HalfBoundary:
    """Half boundary for order ``n``: left = 2..k, right = k+1..n.

    >>> boundary(5).k, boundary(5).left_positions, boundary(5).right_positions
    (3, (2, 3), (4, 5))
    >>> boundary(5).half
    (0, 0, 1, 1, 2, 2)
    """
    if n < 3:
        raise ValueError(f"order must be at least 3, got {n}")
    k = ceil((n - 1) / 2) + 1
    half = (0, 0) + (1,) * (k - 1) + (2,) * (n - k)
    return HalfBoundary(n, k, tuple(range(2, k + 1)), tuple(range(k + 1, n + 1)), half)


def neighbors(u: Sequence[int]) -> list[tuple[int, Perm]]:
    """All ``(link, neighbor)`` pairs of ``u``, links ascending."""
    return [(link, apply_generator(u, link)) for link in range(2, len(u) + 1)]


@lru_cache(maxsize=None)
def out_links(n: int, scheme: Scheme = Scheme.FUJITA) -> tuple[frozenset[int], frozenset[int]]:
    """Outgoing links of an order-``n`` vertex, indexed by its parity:
    ``out_links(n, scheme)[odd]``.  The even vertices' links are the
    scheme's send set and the odd vertices' links its complement.

    >>> [sorted(links) for links in out_links(5)]
    [[2, 3], [4, 5]]
    """
    links = frozenset(range(2, n + 1))
    if scheme is Scheme.FUJITA:
        sends = frozenset(boundary(n).left_positions)
    elif scheme is Scheme.DAY_TRIPATHI:
        sends = frozenset(l for l in links if l % 2 == 0)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown scheme: {scheme!r}")
    return sends, links - sends


@lru_cache(maxsize=None)
def relabelling(n: int, scheme: Scheme = Scheme.FUJITA) -> Perm:
    """An even permutation s of positions 2..n (fixing 1) with
    s^-1(L) = the send set of ``scheme``, L being Fujita's: v -> v∘s maps
    Fujita's orientation onto the scheme's, so a distance measured under
    Fujita's between u and v is the scheme's between u∘s and v∘s.  The
    identity for Fujita's scheme.

    >>> relabelling(5, Scheme.DAY_TRIPATHI)
    (1, 3, 4, 2, 5)
    """
    fujita, sends = (out_links(n, s)[0] for s in (Scheme.FUJITA, scheme))
    rest = frozenset(range(2, n + 1))
    s = [1] * (n + 1)
    for links, images in ((sends, fujita), (rest - sends, rest - fujita)):
        for link, image in zip(sorted(links), sorted(images)):
            s[link] = image
    if parity(s[1:]):  # swap two images inside L, which has two links from n = 4 on
        a, b = sorted(sends)[:2]
        s[a], s[b] = s[b], s[a]
    return tuple(s[1:])


def arc_direction(u: Sequence[int], link: int, scheme: Scheme = Scheme.FUJITA) -> Direction:
    """Direction of the edge at ``u`` labelled ``link`` under ``scheme``."""
    n = len(u)
    if not 2 <= link <= n:
        raise ValueError(f"link must be within 2..{n}, got {link}")
    if link in out_links(n, scheme)[parity(u)]:
        return Direction.OUTGOING
    return Direction.INCOMING


def out_neighbors(u: Sequence[int], scheme: Scheme = Scheme.FUJITA) -> list[tuple[int, Perm]]:
    """Neighbors reached by following outgoing arcs from ``u``."""
    return [
        (link, v)
        for link, v in neighbors(u)
        if arc_direction(u, link, scheme) is Direction.OUTGOING
    ]


def in_neighbors(u: Sequence[int], scheme: Scheme = Scheme.FUJITA) -> list[tuple[int, Perm]]:
    """Neighbors with an arc pointing *into* ``u``."""
    return [
        (link, v)
        for link, v in neighbors(u)
        if arc_direction(u, link, scheme) is Direction.INCOMING
    ]
