"""Exact distances on the star graph by brute-force breadth-first search.

Vertices are indexed by Lehmer-code rank (lexicographic order of one-line
notation, identity = 0).  For each order a move table is built once, each
link j held as a permutation of Lehmer blocks: swapping positions 1 and j
moves whole blocks of (n - j)! consecutive ranks (:class:`MoveTable`).  The
build ranks no row: link 2 swaps the first two Lehmer digits, and each later
link is the one before conjugated by an adjacent swap (:func:`move_table`);
the (n!, n) array of the permutations themselves is built only when read,
and only the table's methods read a link's block index.

One search runs over that table: the bit-parallel multi-source BFS of
Akiba, Iwata & Yoshida (SIGMOD 2013).  It follows any number of sources at
once, one bit each, in one frontier form: an (n!, words) array of the
narrowest unsigned word with a bit per source.  Up to 64 sources that is one
word per vertex, uint8 up to 8 sources, so the two-source orbit sweep and the
one-source :func:`bfs` move one byte per vertex; beyond 64 it is a row of
uint64 words.  Each level pulls whole rows along in-arcs, one gather per
in-link into buffers allocated once per sweep, so a wider row follows more
sources for the same number of numpy calls.  A dense gather moves the
link's Lehmer blocks, n!/(n - j)! block rows, 72 at link 2 of order 9, and
only the last two links gather row by row.  An orientation is a send set,
the links even vertices send on (None undirected), and :class:`_InArcs`
groups the link numbers by the graphs that enter an even and an odd vertex
over them; each level masks a group by the graphs whose sources' frontier
has that parity, and skips it where none has.  A level pulls in one of
three forms, chosen by counting rows against n! (:meth:`_InArcs.sweep`):
into the neighbours of the frontier's rows while those are few (the sparse
head), over all n! rows (the dense middle), and into the rows still holding
an unseen source bit once those are few (the sparse tail).  Every entry
point names its graph with one value, ``scheme``: None for the undirected
star graph, a :class:`Scheme` for that orientation.
:func:`diameters` keeps only each graph's last level and frontier.  In orbit
mode one sweep carries every graph asked for, two sources each, so the
undirected graph and both orientations share one byte per vertex, six bits of
it, over the move table's Lehmer blocks; an exhaustive run sweeps one
graph at a time, the even ranks and then the odd ones, batched by the byte
bound :data:`SWEEP_BYTES`: 128 sources per sweep at order 7, 64 from 8 on.
:func:`distance_fields` sweeps 64 sources at a time into bit planes, one
per distance bit, and unpacks each plane once into one byte per vertex and
source.  On a 2-core Xeon a one-source order-9 field takes about 0.01 s
undirected or directed (one source has one parity, so a directed level
gathers only its in-links), nearly all of it the sweep; all 720 order-6
distance fields take about 0.006 s.

Everything here is deliberately independent of the routing formulas it is
used to check: vertex parity comes from Lehmer digit sums and each scheme's
send set is re-derived from the orientation rules (:func:`_sends`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .perm import MIN_ORDER, Perm, check_pair, check_perm
from .topology import Scheme

UNREACHABLE = 0xFF

MAX_RANK_ORDER = 12  # rank arithmetic stays within machine ints
# 9! vertices: 8.3 MB per move table (3.3 MB more once its rows are read),
# 363 kB per distance field
MAX_TABLE_ORDER = 9
EXHAUSTIVE_DEFAULT_ORDER = 7  # diameters sweeps every source by default through it


def check_order(n: int, covers: str, lo: int = 3) -> None:
    """Raise ValueError unless ``n`` is an int in ``lo..MAX_TABLE_ORDER``;
    ``covers`` opens the message, as ``"witness covers orders"``."""
    if not isinstance(n, int) or not lo <= n <= MAX_TABLE_ORDER:
        raise ValueError(f"{covers} {lo}..{MAX_TABLE_ORDER}, got {n!r}")


def rank(p: Sequence[int]) -> int:
    """Lehmer-code rank of ``p`` among all n! permutations, identity first.

    >>> rank((1, 2, 3)), rank((3, 2, 1))
    (0, 5)
    """
    p = check_perm(p)
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
    if n < MIN_ORDER:
        raise ValueError(f"permutation order must be at least {MIN_ORDER}, got {n}")
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


def _lehmer(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Lehmer rank and parity of the rows whose positions are ``columns``.

    Digit i counts the later positions holding a smaller value; the rank is
    the sum of digit i times (n-1-i)!, and the parity is the digit sum mod 2
    (it equals the inversion count).  One pass over the position pairs, with
    uint8 digits and an intp rank, the index type ``np.take`` reads.
    """
    n, m = len(columns), len(columns[0])
    ranks = np.zeros(m, dtype=np.intp)
    digit_sum = np.zeros(m, dtype=np.uint8)
    for i in range(n - 1):
        digit = np.zeros(m, dtype=np.uint8)
        for later in columns[i + 1 :]:
            digit += later < columns[i]
        ranks += digit.astype(np.intp) * factorial(n - 1 - i)
        digit_sum += digit
    return ranks, (digit_sum & 1).astype(bool)


@dataclass(frozen=True)
class MoveTable:
    """Every vertex of order ``n`` and its links, each held once.  Swapping
    positions 1 and j keeps the Lehmer digits of positions j+1..n, the rank
    modulo b = (n - j)!, and the higher digits depend only on the block
    ``v // b``.  So link j takes rank v to ``index[v // b] * b + v % b``,
    ``links[j - 2] == (index, b)``, with ``index`` a permutation of the n!/b
    blocks: n!-long only at the last two links, where b = 1.  Only the build
    and :meth:`step` (ranks) and :meth:`move_rows` (frontier rows) read
    ``links``.  The rows, ``perms``, are built on first read."""

    n: int
    links: tuple[tuple[np.ndarray, int], ...]  # (intp block index, b) of links 2..n
    odd: np.ndarray  # (n!,) bool, True at odd vertices

    @cached_property
    def perms(self) -> np.ndarray:
        """(n!, n) uint8, row r = unrank(r)."""
        return _lexicographic_perms(self.n)

    def _link(self, link: int) -> tuple[np.ndarray, int]:
        if not 2 <= link <= self.n:
            raise ValueError(f"a link of order {self.n} lies in 2..{self.n}, got {link!r}")
        return self.links[link - 2]

    def step(self, ranks: np.ndarray | int, link: int) -> np.ndarray:
        """The rank each of ``ranks`` moves to over ``link``, one of 2..n."""
        index, b = self._link(link)
        if b == 1:
            return index[ranks]
        # index[q] * b + ranks % b, with one integer division
        q = ranks // b
        moved = index[q]
        moved -= q
        moved *= b
        moved += ranks
        return moved

    def move_rows(
        self, frontier: np.ndarray, link: int, out: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        """Write into row i of ``out`` the row of the (n!, words) ``frontier`` at
        ``step(rows[i], link)``; with no ``rows``, into every row v of a C-contiguous
        ``out`` shaped like the frontier its row at ``step(v, link)``, as one ``take``
        of whole Lehmer blocks: n!/b rows of b * words, 72 at link 2 of order 9.
        ``mode="clip"`` skips fancy indexing's bounds check, about twice as fast.
        The array method skips ``np.take``'s Python wrapper, about 1 us of each
        of a sweep's gathers: measured on a 2-core Xeon, two exhaustive order-7
        diameters (about 4 200 gathers) took about 42 ms against 46 ms."""
        if rows is not None:
            frontier.take(self.step(rows, link), axis=0, mode="clip", out=out)
            return
        index, _ = self._link(link)
        blocks = (len(index), -1)
        frontier.reshape(blocks).take(index, axis=0, mode="clip", out=out.reshape(blocks))


_tables: dict[int, MoveTable] = {}


def _lexicographic_perms(n: int) -> np.ndarray:
    """All permutations of 1..n as an (n!, n) uint8 array, row r = unrank(r).

    Grown one symbol at a time: the order-k rows are k blocks, one per first
    value f, each followed by the order-(k-1) rows relabeled onto the values
    other than f, which keeps lexicographic order.  No Python tuple per row.
    """
    perms = np.zeros((1, 1), dtype=np.uint8)  # values 0..k-1
    for k in range(2, n + 1):
        rest = len(perms)
        grown = np.empty((k * rest, k), dtype=np.uint8)
        for first in range(k):
            block = grown[first * rest : (first + 1) * rest]
            block[:, 0] = first
            block[:, 1:] = perms + (perms >= first)
        perms = grown
    perms += 1
    return perms


def _adjacent_swap(g: int) -> np.ndarray:
    """Swapping two adjacent positions, whose Lehmer digits (d, e) have radixes
    g + 1 and g, as a permutation of the (g + 1) * g local indexes d * g + e:
    (d, e) becomes (e + 1, d) if d <= e, else (e, d - 1).  Only the pair's
    digits change, so on ranks this permutes each run of (g + 1) * g blocks
    of the lower digits' size."""
    d, e = np.divmod(np.arange((g + 1) * g, dtype=np.intp), g)
    return np.where(d <= e, (e + 1) * g + d, e * g + d - 1)


def _next_link(index: np.ndarray, g: int) -> np.ndarray:
    """Link j's block index from link j - 1's ``index``, g = n - j + 1.

    (1 j) = (j-1 j)(1 j-1)(j-1 j), so link j is A L A: L is link j - 1 and A
    the swap of positions j - 1 and j, both on link j's blocks of (n - j)!
    ranks, where A permutes each run of m = (g + 1) * g blocks by
    :func:`_adjacent_swap`.  L takes block q to ``index[q // g] * g + q % g``,
    which lies in run ``index[q // g] // (g + 1)`` at local index
    ``index[q // g] % (g + 1) * g + q % g``.  So A L is one divmod of the
    coarse ``index`` and one row gather of the swap, and the last A is a
    column permutation of the (-1, m) view: no row is ranked.  At g = 1, A
    is rank ^ 1, so link n is link n - 1 with its pairs swapped and each
    value's low bit flipped, with no divmod temporaries n! entries long."""
    swap = _adjacent_swap(g)
    m = len(swap)
    # np.take keeps C order, where a fancy index on axis 1 returns a
    # transposed layout that the ravel would copy
    if g == 1:
        moved = np.take(index.reshape(-1, m), swap, axis=1).ravel()
        moved ^= 1
        return moved
    run, local = np.divmod(index, g + 1)
    run *= m
    moved = np.take(swap.reshape(g + 1, g), local, axis=0)  # A L, one row per coarse block
    del local
    moved += run[:, None]
    del run
    return np.take(moved.reshape(-1, m), swap, axis=1).ravel()


def move_table(n: int) -> MoveTable:
    """The move table of order ``n``, built once from index arithmetic alone.

    Link 2 swaps the first two positions, :func:`_adjacent_swap` of the
    first two Lehmer digits, and each later link comes from the one before
    (:func:`_next_link`), so no row is ranked.  A vertex's parity is its
    Lehmer digit sum mod 2 (the digit sum is the inversion count), built by
    one outer sum per digit.  Measured on a 2-core Xeon, order 9 builds in
    about 0.01 s, its ``tracemalloc`` peak within 50 kB of the 8.3 MB it
    holds.
    """
    check_order(n, "BFS oracle supports orders")
    table = _tables.get(n)
    if table is None:
        links = [(_adjacent_swap(n - 1), factorial(n - 2))]
        for link in range(3, n + 1):
            links.append((_next_link(links[-1][0], n - link + 1), factorial(n - link)))
        # least significant digit first, so each outer sum's inner loop is long
        odd = np.zeros(1, dtype=bool)
        for radix in range(2, n + 1):
            odd = np.logical_xor.outer(np.arange(radix) % 2 == 1, odd).ravel()
        table = MoveTable(n, tuple(links), odd)
        _tables[n] = table
    return table


@dataclass
class DistanceField:
    """Distances from one source to every vertex, one byte each."""

    n: int
    source: Perm
    scheme: Scheme | None  # None for the undirected graph
    dist: np.ndarray  # (n!,) uint8, UNREACHABLE where no path exists

    @property
    def directed(self) -> bool:
        return self.scheme is not None

    def distance(self, target: Sequence[int]) -> int | None:
        check_pair(self.source, target)
        d = int(self.dist[rank(target)])
        return None if d == UNREACHABLE else d

    def eccentricity(self) -> int:
        reachable = self.dist[self.dist != UNREACHABLE]
        return int(reachable.max())

    def farthest(self) -> Perm:
        """Some vertex realising the eccentricity."""
        masked = np.where(self.dist == UNREACHABLE, 0, self.dist)
        return unrank(int(masked.argmax()), self.n)


def bfs(source: Sequence[int], scheme: Scheme | None = None) -> DistanceField:
    """Breadth-first distance field from ``source``: one-source :func:`distance_fields`."""
    return next(distance_fields([source], scheme))


def distance(s: Sequence[int], t: Sequence[int], scheme: Scheme | None = None) -> int | None:
    """BFS distance between one pair (None if unreachable)."""
    check_pair(s, t)
    return bfs(s, scheme).distance(t)


SWEEP_WIDTH = 64  # sources per distance block: one (width, n!) byte block each
# Bytes of one exhaustive frontier array, (n!, words): 2 uint64 words (128
# sources) at order 7 and one word from order 8 on.  Each level costs one
# gather per in-link whatever the width, so wider rows mean fewer numpy
# calls.  Measured on a 2-core Xeon: 2 words against 1 took the two order-7
# diameters from about 0.075 s to 0.047 s; 4 words ran faster again but the four
# n!-row arrays of a sweep raised a diameter process's peak RSS by 0.7-0.9 MB
# more; at order 8, 2 words took 4.7 s to 3.6 s but cost 1.5 MB of peak.
SWEEP_BYTES = 96 * 1024
# A sweep level pulls into a list of rows, not all n! of them, while the
# list is at most 1/SPARSE_SHARE of n!: at the head the frontier's rows times
# the level's in-links, at the tail the rows still holding an unseen
# source bit (:meth:`_InArcs.sweep`).  Measured per level on a 2-core Xeon at
# order 9, against about 1.2 ms dense, a sparse level took 0.1-0.8 ms below
# 1/20 of n!, about as long near 1/11, and 1.8 ms or more from 1/9 up; 16, 24
# and 32 timed alike on the orbit sweeps.  32 keeps every exhaustive batch
# at order 7 (128 or 88 sources) and every distance block at order 6 (64 or
# 16 sources) dense from the start.
SPARSE_SHARE = 32
_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)


def _word(width: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned word with one bit for each of ``width`` sources,
    uint64 beyond 64: a wider sweep takes a row of uint64 words per vertex."""
    for word in _WORDS:
        if width <= np.iinfo(word).bits:
            return word
    return np.uint64


def _sends(n: int, scheme: Scheme | None) -> frozenset[int] | None:
    """The links even vertices send on, None undirected: Fujita's left half
    2..k, k = ceil((n-1)/2) + 1 = n//2 + 1, or Day-Tripathi's even links.
    Any value other than None or a Scheme raises ValueError, so a stray
    flag cannot pass for an orientation."""
    if scheme is None:
        return None
    if not isinstance(scheme, Scheme):
        raise ValueError(f"scheme must be None (undirected) or a Scheme, got {scheme!r}")
    every = range(2, n + 1)
    return frozenset(every[: n // 2] if scheme is Scheme.FUJITA else every[::2])


@dataclass(frozen=True)
class _InArcs:
    """In-arcs of every vertex in the graphs of one sweep, for bit-parallel
    BFS: the move table, and the link numbers grouped by the graphs that
    enter over them.  Every generator is an involution, so rank v is entered
    over link j from the rank it moves to, and the sweep pulls those rows
    with :meth:`MoveTable.move_rows`, the only reader of a link's blocks.

    Under a send set L, even vertices send on L and odd ones on the other
    links, and every generator flips parity, so an even vertex is entered
    over the links outside L and an odd one over L; undirected (L None) a
    vertex is entered over every link.  Parity is not a property of a
    Lehmer block, so a link serves both parities, and the build groups
    the links by the pair (graphs that enter an even vertex over the link,
    graphs that enter an odd one).  The undirected graph has one group; a
    directed graph alone has two, its even and its odd in-links; the
    undirected graph with both orientations has at most four.  The sweep
    turns each group into one mask per level (:meth:`sweep`).
    """

    table: MoveTable
    graphs: int
    # ((graphs entering an even vertex, an odd one) over the links, links ascending)
    groups: list[tuple[tuple[frozenset[int], frozenset[int]], list[int]]]

    @classmethod
    def build(cls, table: MoveTable, sends: Sequence[frozenset[int] | None]) -> _InArcs:
        groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
        for link in range(2, table.n + 1):
            # the graphs that enter an even, and an odd, vertex over the link
            entered = tuple(
                frozenset(g for g, ls in enumerate(sends) if ls is None or (link in ls) == odd)
                for odd in (False, True)
            )
            groups.setdefault(entered, []).append(link)
        return cls(table, len(sends), list(groups.items()))

    def owned(self, width: int) -> list[int]:
        """Each graph's source bits in a sweep of ``width`` sources: graph g
        owns an equal share of them, from bit g * share on."""
        share = width // self.graphs
        return [((1 << share) - 1) << (g * share) for g in range(self.graphs)]

    def sweep(self, sources: np.ndarray) -> Iterator[np.ndarray]:
        """BFS from any number of source ranks at once, bit i of the row for
        ``sources[i]``; in a build of several graphs graph g's sources sit at
        its bits (:meth:`owned`).

        The frontier is an (n!, words) array of the narrowest unsigned word
        with a bit per source (:func:`_word`): one word per vertex up to 64
        sources, so a two-source sweep moves one byte per vertex, and beyond
        that a row of uint64 words, source i at bit i % 64 of word i // 64.
        Yields the frontier for each level d = 0, 1, ... in turn: bit i of
        row v is set when v is at distance exactly d from ``sources[i]``.
        Stops after the last level that set a new bit, so the number of
        levels after level 0 is the largest finite eccentricity among the
        sources.  Each level gathers whole rows into buffers allocated once
        per sweep, so a yielded frontier is overwritten two levels on; copy
        it to keep it.  Each link is one :meth:`MoveTable.move_rows`.

        Every arc flips parity, so level d + 1 of source i lies on vertices
        of parity ``odd[i] ^ (d + 1) % 2``: a group comes down to one mask row
        per level parity, one word per frontier word, bit i set when source
        i's graph enters that parity over the group's links.  A level skips a
        group whose row is all zero and ANDs no row that is all ones, so one
        directed graph swept from sources of one parity gathers only the
        in-links of each level's parity, with no mask op.

        Each level takes one of three forms, all with the same group masks
        and all yielding the full frontier, zero off the rows they pull into
        (direction-optimizing BFS, Beamer, Asanovic & Patterson, SC 2012):

        - sparse head (top-down), while the frontier's rows times the
          level's in-links are at most n!/:data:`SPARSE_SHARE`: the
          frontier rows' neighbours over those links are marked, one
          byte per row, and the level gathers only into the marked rows;
        - dense middle: every link over all n! rows;
        - sparse tail (bottom-up), from the first level after the head at
          which the rows still holding an unseen source bit are at most
          n!/:data:`SPARSE_SHARE`: the level gathers only into those rows,
          and their list shrinks level by level.

        A sweep whose sources times the first level's in-links already
        exceed the share carries many sources per vertex, such as an
        exhaustive batch at order 7 or a 64-source distance block at order
        6: it runs every level dense and counts no rows.
        """
        table = self.table
        size = len(table.odd)
        word = _word(len(sources))
        bits = np.iinfo(word).bits
        index = np.arange(len(sources))
        frontier = np.zeros((size, -(-len(sources) // bits)), dtype=word)
        np.bitwise_or.at(
            frontier, (sources, index // bits), np.left_shift(word(1), (index % bits).astype(word))
        )
        words = frontier.shape[1]

        def row(mask: int) -> np.ndarray:
            """``mask`` as one row of frontier words."""
            return np.array([mask >> bits * w & (1 << bits) - 1 for w in range(words)], dtype=word)

        full = (1 << len(sources)) - 1
        odd = int.from_bytes(np.packbits(table.odd[sources], bitorder="little").tobytes(), "little")
        even = full ^ odd
        owned = self.owned(len(sources))
        # per level parity: each group the level gathers, with its mask row
        # (None where it holds every bit)
        levels: tuple[list[tuple[np.ndarray | None, list[int]]], ...] = ([], [])
        for entered, links in self.groups:
            into_even, into_odd = (sum(owned[g] for g in graphs) for graphs in entered)
            masks = (into_even & odd | into_odd & even, into_even & even | into_odd & odd)
            for gathers, mask in zip(levels, masks):
                if mask:
                    gathers.append((None if mask == full else row(mask), links))
        in_degree = [sum(len(links) for _, links in gathers) for gathers in levels]
        unseen = ~frontier
        pulled, gathered = np.empty_like(frontier), np.empty_like(frontier)
        grouped = np.empty_like(frontier) if max(map(len, levels)) > 1 else None
        # the sparse forms' row lists: the head's frontier rows while it
        # lasts, then the tail's rows still holding an unseen bit; many
        # sources per vertex keep nearly every row unseen to the last levels,
        # so a sweep that starts dense keeps none
        def few(rows: int) -> bool:
            """Whether ``rows`` are within a sparse level's share of n!."""
            return rows * SPARSE_SHARE <= size

        head = tail = None
        sparse = few(len(sources) * in_degree[0])
        if sparse:
            head = sources  # level 0's rows, a repeated source marking twice
            # a bit no graph owns, such as a high bit of a partial last word,
            # is never reached: cleared, a row holds an unseen bit only while
            # some source can still reach it
            unseen &= row(sum(owned))
        # one bool per row for the head's marks and the tail's count: the
        # gather buffer's first n! bytes, which a level reads before it gathers
        # (np.flatnonzero reads a bool array several times faster than uint8)
        mark = gathered.reshape(-1).view(bool)[:size]
        level = 0
        while frontier.any():
            yield frontier
            parity = level & 1
            rows = tail
            if sparse and tail is None:
                if head is not None and few(len(head) * in_degree[parity]):
                    # top-down: a row is reached only from a frontier row
                    mark.fill(0)
                    for _, links in levels[parity]:
                        for link in links:
                            mark[table.step(head, link)] = True
                    rows = np.flatnonzero(mark)
                else:
                    head = None
                    # bottom-up once few rows are left to reach
                    unreached = _held(unseen, out=mark)
                    if few(np.count_nonzero(unreached)):
                        rows = tail = np.flatnonzero(unreached)
            # a sparse level pulls into the first len(rows) rows of each buffer
            m = None if rows is None else len(rows)
            pull, gather = pulled[:m], gathered[:m]
            group = None if grouped is None else grouped[:m]
            for g, (mask, links) in enumerate(levels[parity]):
                into = group if g else pull
                for i, link in enumerate(links):
                    table.move_rows(frontier, link, gather if i else into, rows)
                    if i:
                        into |= gather
                if mask is not None:
                    into &= mask
                if g:
                    pull |= into
            if rows is None:
                pulled &= unseen
                unseen ^= pulled
            else:
                left = unseen[rows]
                new = left & pull
                left ^= new
                unseen[rows] = left
                # a full frontier again, zero off the level's rows
                pulled.fill(0)
                pulled[rows] = new
                if tail is None:
                    head = rows[_held(new)]
                else:
                    tail = rows[_held(left)]
            frontier, pulled = pulled, frontier
            level += 1


def _held(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """True at each row of an (m, words) array that holds a set bit,
    written into the bool array ``out`` if given."""
    held = np.not_equal(rows[:, 0], 0, out=out)
    for w in range(1, rows.shape[1]):
        held |= rows[:, w] != 0
    return held


def _distance_blocks(
    sources: Sequence[Sequence[int]], scheme: Scheme | None = None
) -> Iterator[tuple[list[Perm], np.ndarray]]:
    """Breadth-first distances from ``sources``, 64 sources per sweep: each
    batch of sources, in order, with its (width, n!) byte block, row i the
    distances from ``batch[i]`` in rank order.

    A sweep writes its levels into bit planes, each shaped like its frontier:
    a reached plane ORs in every level, and plane k ORs in level d when bit
    k of d is set, so a level costs one word op per plane it touches and
    scans no row.  After the sweep each plane is unpacked once, bit i of its
    rows into row i of the block at bit k (:func:`_source_bits`); a row the
    reached plane never covers stays :data:`UNREACHABLE`."""
    sources = [tuple(s) for s in sources]
    n = len(sources[0]) if sources else 0
    sends = _sends(n, scheme)  # checked first, with no source too
    if not sources:
        return
    if any(len(s) != n for s in sources):
        raise ValueError(f"order mismatch among sources: {sorted({len(s) for s in sources})}")
    arcs = _InArcs.build(move_table(n), [sends])
    sources = [check_perm(s) for s in sources]
    ranks, _ = _lehmer(list(np.array(sources, dtype=np.uint8).T))
    for lo in range(0, len(sources), SWEEP_WIDTH):
        batch = sources[lo : lo + SWEEP_WIDTH]
        sweep = arcs.sweep(ranks[lo : lo + SWEEP_WIDTH])
        reached = next(sweep).copy()  # level 0: the sources
        planes: list[np.ndarray] = []  # plane k: the rows at a distance with bit k set
        for d, level in enumerate(sweep, 1):
            reached |= level
            if d == 1 << len(planes):  # bit k's first level, d = 2**k
                planes.append(level.copy())
            else:
                for k, plane in enumerate(planes):
                    if d >> k & 1:
                        plane |= level
        block = _source_bits(reached, len(batch), 0)
        block -= 1  # 1 - 1 = 0 where reached, 0 - 1 = 0xFF = UNREACHABLE elsewhere
        for k, plane in enumerate(planes):
            block |= _source_bits(plane, len(batch), k)
        yield batch, block


def _source_bits(plane: np.ndarray, width: int, k: int) -> np.ndarray:
    """A (width, n!) byte array holding bit i of each row of the (n!, words)
    ``plane`` at bit ``k`` of its row i: source i's bit sits in byte i // 8
    of the row's little-endian bytes, at bit i % 8.  One row gather of those
    bytes and three in-place shifts and masks: measured on a 2-core Xeon,
    ``np.unpackbits`` with ``count=width`` and the same shift and OR took
    about 8x as long for one source at order 9 and 1.1-3.6x for 64 sources
    at orders 6 to 8."""
    octets = plane.astype(plane.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    source = np.arange(width)
    bits = np.take(octets.T, source // 8, axis=0)
    bits >>= (source % 8).astype(np.uint8)[:, None]
    bits &= 1
    bits <<= k
    return bits


def distance_fields(
    sources: Sequence[Sequence[int]], scheme: Scheme | None = None
) -> Iterator[DistanceField]:
    """Breadth-first distance fields from each of ``sources``, in order.

    Undirected by default; under a ``scheme`` only its outgoing arcs are
    followed.  Each field's ``dist`` is one row of a block of
    :func:`_distance_blocks`.
    """
    for batch, block in _distance_blocks(sources, scheme):
        for s, dist in zip(batch, block):
            yield DistanceField(len(s), s, scheme, dist)


def _witness(frontier: np.ndarray) -> tuple[int, int]:
    """First source set in the (n!, words) ``frontier`` and the lowest rank
    holding it: the first word with a set bit, the lowest bit in that word,
    and the lowest rank where that bit is set."""
    reached = np.bitwise_or.reduce(frontier, axis=0)
    word = int(np.flatnonzero(reached)[0])
    low = int(reached[word])
    bit = (low & -low).bit_length() - 1
    # every masked entry is 0 or the bit, and argmax returns the first
    # maximum: the lowest rank holding the bit (a bool mask of it raised an
    # exhaustive diameter process's peak RSS by 0.1-0.25 MB)
    target = int(np.argmax(frontier[:, word] & frontier.dtype.type(1 << bit)))
    return word * frontier.dtype.itemsize * 8 + bit, target


@dataclass(frozen=True)
class DiameterResult:
    n: int
    scheme: Scheme | None  # None for the undirected graph
    mode: str  # "exhaustive" or "orbit"
    value: int
    witness_source: Perm
    witness_target: Perm

    @property
    def directed(self) -> bool:
        return self.scheme is not None


def orbit_sources(n: int) -> tuple[Perm, Perm]:
    """One even and one odd source: the identity and (2, 1, 3, ..., n).

    Left translation by any even permutation is a label-preserving
    automorphism of every parity-link orientation, so these two realise
    every eccentricity.
    """
    ident = tuple(range(1, n + 1))
    return ident, (2, 1) + ident[2:]


def _last_levels(arcs: _InArcs, sources: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each graph's largest eccentricity over one sweep of ``sources``, each
    graph of ``arcs`` owning its share of them (:meth:`_InArcs.owned`), with
    the frontier of that level cut to the graph's bits, for :func:`_witness`.

    A lone graph's last level is the sweep's.  Several graphs' are read from
    the OR of each level's rows: a graph whose bits first come up empty at
    level d ended at d - 1, whose frontier the sweep has not yet overwritten.
    """
    word = _word(len(sources))
    owned = [word(bits) for bits in arcs.owned(len(sources))] if arcs.graphs > 1 else []
    ended: dict[int, tuple[int, np.ndarray]] = {}
    for level, frontier in enumerate(arcs.sweep(sources)):
        if owned:
            reached = np.bitwise_or.reduce(frontier, axis=0)
            for g, bits in enumerate(owned):
                if g not in ended and not (reached & bits).any():
                    ended[g] = level - 1, previous & bits
            previous = frontier
    if not owned:
        return [(level, frontier)]
    return [ended.get(g) or (level, frontier & bits) for g, bits in enumerate(owned)]


def diameters(
    n: int, schemes: Sequence[Scheme | None], mode: str | None = None
) -> tuple[DiameterResult, ...]:
    """:func:`diameter` of each graph of ``schemes``, named once each, in order.

    In orbit mode one sweep carries every graph's two orbit sources, graph g
    on bits 2g and 2g + 1: the undirected graph and both orientations share
    one byte per vertex, over the move table's links, each masked by
    the graphs that enter over it.  An exhaustive run sweeps one graph at a
    time, since a full word gains nothing from sharing: the even ranks and
    then the odd ones, each in rank order, so every sweep's sources have one
    parity and a directed graph gathers only each level's in-links.  Even
    translations are automorphisms (:func:`orbit_sources`), so all even
    vertices have one eccentricity and all odd vertices another: the first
    source of largest eccentricity in rank order, rank 0 or the lowest odd
    rank, is the first source of its parity's first sweep.
    """
    if mode not in (None, "exhaustive", "orbit"):
        raise ValueError(f"unknown diameter mode {mode!r}")
    check_order(n, "BFS oracle supports orders")
    if mode is None:
        mode = "exhaustive" if n <= EXHAUSTIVE_DEFAULT_ORDER else "orbit"
    sends = [_sends(n, scheme) for scheme in schemes]  # checked before the table is built
    if not schemes or len(set(schemes)) < len(schemes):
        raise ValueError(
            f"diameters takes one or more graphs, each named once, got {tuple(schemes)!r}"
        )
    table = move_table(n)
    if mode == "orbit":
        orbit = [rank(s) for s in orbit_sources(n)]
        runs = [(range(len(sends)), _InArcs.build(table, sends), [np.array(orbit * len(sends))])]
    else:
        width = 64 * max(1, SWEEP_BYTES // (8 * len(table.odd)))  # sources per sweep
        batches = [
            part[lo : lo + width]
            for part in (np.flatnonzero(~table.odd), np.flatnonzero(table.odd))
            for lo in range(0, len(part), width)
        ]
        runs = (([g], _InArcs.build(table, [graph]), batches) for g, graph in enumerate(sends))
    best = [-1] * len(sends)
    witness: list[tuple[Perm, Perm]] = [((), ())] * len(sends)
    for graphs, arcs, batches in runs:
        for sources in batches:
            for g, (levels, frontier) in zip(graphs, _last_levels(arcs, sources)):
                if levels > best[g]:
                    best[g] = levels
                    source, target = _witness(frontier)
                    witness[g] = (unrank(int(sources[source]), n), unrank(target, n))
    return tuple(
        DiameterResult(n, scheme, mode, value, *pair)
        for scheme, value, pair in zip(schemes, best, witness)
    )


def diameter(n: int, scheme: Scheme | None = None, mode: str | None = None) -> DiameterResult:
    """Largest finite BFS distance over the chosen source set, undirected
    or under ``scheme``: one graph of :func:`diameters`.

    ``mode="exhaustive"`` sweeps every source, the even ranks and then the
    odd ones, as many per sweep as fit the :data:`SWEEP_BYTES` frontier
    bound (128 at order 7, 64 from order 8 on); ``mode="orbit"`` sweeps the
    two sources of :func:`orbit_sources` at once, in one byte per vertex.
    The default is exhaustive through :data:`EXHAUSTIVE_DEFAULT_ORDER`, orbit beyond.  Measured
    on a 2-core Xeon: exhaustive order 7 in about 0.025 s per graph,
    exhaustive order 8 in about 2.0 s undirected and 1.9 s directed; orbit
    mode for all three graphs at orders 8 and 9 in about 0.05 s one graph
    at a time, and 0.026 s in the shared sweep of :func:`diameters`.
    The witness is the first source in rank order of largest eccentricity,
    and the lowest-rank vertex at that distance from it, which is what
    :meth:`DistanceField.farthest` picks.
    """
    return diameters(n, (scheme,), mode)[0]
