"""Exact distances on the star graph by brute-force breadth-first search.

Vertices are indexed by Lehmer-code rank (lexicographic order of one-line
notation, identity = 0).  For each order a move table is built once: row r,
column j holds the rank of vertex r after swapping positions 1 and j+2.
BFS then expands whole frontiers with numpy gathers, storing distances one
byte per vertex, so full distance fields stay cheap up to 9! vertices.

Everything here is deliberately independent of the routing formulas it is
used to check: vertex parity comes from Lehmer digit sums and the per-scheme
outgoing-link columns are re-derived from the orientation rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, factorial
from typing import Iterable, Sequence

import numpy as np

from .perm import Perm
from .topology import Scheme

UNREACHABLE = 0xFF

MAX_RANK_ORDER = 12  # rank arithmetic stays within machine ints
MAX_TABLE_ORDER = 9  # 9! vertices ~ a few MB per table / distance field


def rank(p: Sequence[int]) -> int:
    """Lehmer-code rank of ``p`` among all n! permutations, identity first.

    >>> rank((1, 2, 3)), rank((3, 2, 1))
    (0, 5)
    """
    n = len(p)
    if n > MAX_RANK_ORDER:
        raise ValueError(f"rank arithmetic supported up to order {MAX_RANK_ORDER}")
    r = 0
    for i in range(n):
        smaller = 0
        for j in range(i + 1, n):
            if p[j] < p[i]:
                smaller += 1
        r += smaller * factorial(n - 1 - i)
    return r


def unrank(r: int, n: int) -> Perm:
    """Permutation of order ``n`` with rank ``r``; inverse of :func:`rank`.

    >>> unrank(5, 3)
    (3, 2, 1)
    """
    if n > MAX_RANK_ORDER:
        raise ValueError(f"rank arithmetic supported up to order {MAX_RANK_ORDER}")
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for order {n}")
    remaining = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        digit, r = divmod(r, factorial(i - 1))
        out.append(remaining.pop(digit))
    return tuple(out)


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorised Lehmer rank of each row of an (m, n) array."""
    m, n = rows.shape
    out = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        smaller = np.zeros(m, dtype=np.int64)
        col = rows[:, i]
        for j in range(i + 1, n):
            smaller += rows[:, j] < col
        out += smaller * factorial(n - 1 - i)
    return out


@dataclass(frozen=True)
class MoveTable:
    n: int
    k: int
    perms: np.ndarray  # (n!, n) uint8, row r = unrank(r)
    moves: np.ndarray  # (n!, n-1) int32, column j = generator j+2
    odd: np.ndarray  # (n!,) bool, True at odd vertices

    def out_columns(self, scheme: Scheme) -> tuple[list[int], list[int]]:
        """Outgoing move-table columns for (even, odd) vertices."""
        links = range(2, self.n + 1)
        if scheme is Scheme.FUJITA:
            even = [l - 2 for l in links if l <= self.k]
            odd = [l - 2 for l in links if l > self.k]
        else:
            even = [l - 2 for l in links if l % 2 == 0]
            odd = [l - 2 for l in links if l % 2 == 1]
        return even, odd


_tables: dict[int, MoveTable] = {}


def move_table(n: int) -> MoveTable:
    if not 3 <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"BFS oracle supports orders 3..{MAX_TABLE_ORDER}, got {n}")
    table = _tables.get(n)
    if table is None:
        perms = np.array(
            list(itertools.permutations(range(1, n + 1))), dtype=np.uint8
        )
        moves = np.empty((len(perms), n - 1), dtype=np.int32)
        for link in range(2, n + 1):
            swapped = perms.copy()
            swapped[:, [0, link - 1]] = swapped[:, [link - 1, 0]]
            moves[:, link - 2] = _rank_rows(swapped)
        # parity = Lehmer digit sum mod 2 = inversion count mod 2
        inversions = np.zeros(len(perms), dtype=np.int64)
        for i in range(n - 1):
            col = perms[:, i]
            for j in range(i + 1, n):
                inversions += perms[:, j] < col
        table = MoveTable(
            n=n,
            k=ceil((n - 1) / 2) + 1,
            perms=perms,
            moves=moves,
            odd=(inversions & 1).astype(bool),
        )
        _tables[n] = table
    return table


@dataclass
class DistanceField:
    """Distances from one source to every vertex, one byte each."""

    n: int
    source: Perm
    directed: bool
    scheme: Scheme | None
    dist: np.ndarray  # (n!,) uint8, UNREACHABLE where no path exists

    def distance(self, target: Sequence[int]) -> int | None:
        if len(target) != self.n:
            raise ValueError(f"order mismatch: field is {self.n}, target {len(target)}")
        d = int(self.dist[rank(target)])
        return None if d == UNREACHABLE else d

    def eccentricity(self) -> int:
        reachable = self.dist[self.dist != UNREACHABLE]
        return int(reachable.max())

    def unreachable_count(self) -> int:
        return int((self.dist == UNREACHABLE).sum())

    def farthest(self) -> Perm:
        """Some vertex realising the eccentricity."""
        masked = np.where(self.dist == UNREACHABLE, 0, self.dist)
        return unrank(int(masked.argmax()), self.n)


def bfs(
    source: Sequence[int],
    directed: bool = False,
    scheme: Scheme = Scheme.FUJITA,
) -> DistanceField:
    """Breadth-first distance field from ``source``.

    Undirected by default; with ``directed=True`` only outgoing arcs of
    ``scheme`` are followed.
    """
    n = len(source)
    table = move_table(n)
    dist = np.full(len(table.perms), UNREACHABLE, dtype=np.uint8)
    src = rank(source)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    even_cols, odd_cols = table.out_columns(scheme)
    d = 0
    while frontier.size:
        d += 1
        if directed:
            odd_mask = table.odd[frontier]
            parts = []
            evens = frontier[~odd_mask]
            odds = frontier[odd_mask]
            if evens.size and even_cols:
                parts.append(table.moves[evens][:, even_cols].ravel())
            if odds.size and odd_cols:
                parts.append(table.moves[odds][:, odd_cols].ravel())
            if not parts:
                break
            candidates = np.concatenate(parts)
        else:
            candidates = table.moves[frontier].ravel()
        fresh = candidates[dist[candidates] == UNREACHABLE]
        if not fresh.size:
            break
        frontier = np.unique(fresh)
        dist[frontier] = d
    return DistanceField(
        n=n,
        source=tuple(source),
        directed=directed,
        scheme=scheme if directed else None,
        dist=dist,
    )


def distance(
    s: Sequence[int],
    t: Sequence[int],
    directed: bool = False,
    scheme: Scheme = Scheme.FUJITA,
) -> int | None:
    """BFS distance between one pair (None if unreachable)."""
    if len(s) != len(t):
        raise ValueError(f"order mismatch: {len(s)} vs {len(t)}")
    return bfs(s, directed=directed, scheme=scheme).distance(t)


def eccentricity(
    source: Sequence[int],
    directed: bool = False,
    scheme: Scheme = Scheme.FUJITA,
) -> int:
    return bfs(source, directed=directed, scheme=scheme).eccentricity()


@dataclass(frozen=True)
class DiameterResult:
    n: int
    directed: bool
    scheme: Scheme | None
    mode: str  # "exhaustive" or "orbit"
    value: int
    witness_source: Perm
    witness_target: Perm


def orbit_sources(n: int) -> tuple[Perm, Perm]:
    """One even and one odd source: the identity and (2, 1, 3, ..., n).

    Left translation by any even permutation is a label-preserving
    automorphism of both orientations, so these two realise every
    eccentricity.
    """
    ident = tuple(range(1, n + 1))
    return ident, (2, 1) + ident[2:]


def diameter(
    n: int,
    directed: bool = False,
    scheme: Scheme = Scheme.FUJITA,
    mode: str | None = None,
) -> DiameterResult:
    """Largest finite BFS distance over the chosen source set.

    ``mode="exhaustive"`` scans every source (practical through order 7,
    slow at 8); ``mode="orbit"`` uses the two-source symmetry reduction and
    stays fast through order 9.  The default is exhaustive through order 7
    and orbit beyond.
    """
    if mode is None:
        mode = "exhaustive" if n <= 7 else "orbit"
    if mode == "orbit":
        sources: Iterable[Perm] = orbit_sources(n)
    elif mode == "exhaustive":
        sources = itertools.permutations(range(1, n + 1))
    else:
        raise ValueError(f"unknown diameter mode {mode!r}")
    best = -1
    witness: tuple[Perm, Perm] | None = None
    for source in sources:
        field = bfs(source, directed=directed, scheme=scheme)
        ecc = field.eccentricity()
        if ecc > best:
            best = ecc
            witness = (tuple(source), field.farthest())
    assert witness is not None
    return DiameterResult(
        n=n,
        directed=directed,
        scheme=scheme if directed else None,
        mode=mode,
        value=best,
        witness_source=witness[0],
        witness_target=witness[1],
    )
