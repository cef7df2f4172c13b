"""Route trees: every oriented route into a group of targets, as row columns.

The oriented router is memoryless: a pick reads only the current node and
the target, so the routes into a target ``t`` form an in-tree with ``t`` at
the root.  A :class:`RouteTree` holds the trees into a group of targets as
rows, one per (node, target) pair.  Nodes are numbered by rank in
``oracle.move_table(n).perms``, and row ``j * n! + v`` is the route from
node v into target j.  Each column is a numpy array over the rows:

- the counts and the decision of :func:`_pick_rows`, one pass over the
  blocks for :func:`classify._count_rows` and the row kernel of
  :func:`routing._oriented_pick` (link, move kind and case, all three
  from that pass).  The successor is ``move_table(n).step`` over the link;
- a route DP as path sums, over up to ``routing._runaway_limit(n)`` levels
  outward from the roots: each route's ``sums`` of per-hop indicators
  (``_HOPS``), its ``near`` pointers to the first rows of the route where a
  mark holds, and ``gamma``, the row after its last crossing.  A row that
  no level reaches meets a cycle or would exceed the limit.

:meth:`RouteTree.summary` derives the columns :func:`routing._phase_faults`
evaluates from those and the depths.  :meth:`RouteTree.trace` rebuilds one
route as a :class:`routing.RouteTrace`, the tree's only per-row walk: a
flagged row's text is written from it by the single-route functions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# the runaway limit and the decision cases are read through the module
from . import routing
from .classify import _ROW_BLOCK, Counts, _count_block, _dest_rows, _halves
from .oracle import move_table
from .perm import Perm
from .routing import CROSSING_KINDS, MoveKind, PhaseSummary, RouteTrace, RoutingInvariantError
from .topology import Scheme, boundary, out_links

# move kinds and decision cases as one-byte codes in the row columns
_KINDS = tuple(MoveKind)
_SETTLING, _SEEDING, _CROSSING, _FINAL, _PRE_FINAL = range(len(_KINDS))
_AT_TARGET = len(_KINDS)  # a row already at its target: no hop leaves it
# a row's case code j is routing.CASES[j]; this one is a target's
_NO_CASE = len(routing.CASES)
_NO_PICK = 255  # the case code of a row whose pick set came out empty
# per move kind code: the hop crosses; the target's entry crosses nothing
_CROSSES = np.array([kind in CROSSING_KINDS for kind in _KINDS] + [False])
# the columns of RouteTree.sums, the indicators of one hop summed along a route
_HOPS = ("crossing", "final", "pre-final", "fallback", "rise", "incoming")
# per move kind code: its first three indicators, and the marks that the
# near pointers stop at (final, pre-final, not settling)
_CODE = np.arange(len(_CROSSES))
_BY_MOVE = np.column_stack((_CROSSES, _CODE == _FINAL, _CODE == _PRE_FINAL, _CODE != _SETTLING))
_FALLBACK = np.array([case in routing.FALLBACK_CASES for case in routing.CASES] + [False])


def _lowest(mask: np.ndarray) -> np.ndarray:
    """The lowest position whose row of ``mask`` is set, per column: row j
    stands for position j + 2, as in the pick sets over positions 2..n.
    n + 2 where no row is set."""
    rows = len(mask)
    weight = np.arange(rows, 0, -1, dtype=np.uint8)[:, None]  # position 2 weighs most
    return rows + 2 - (mask * weight).max(axis=0)


def _pick_rows(
    dest: np.ndarray, odd: np.ndarray
) -> tuple[Counts, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`classify._count_rows` and :func:`routing._oriented_pick` for
    every row of ``dest``, in one pass: the counts, and the link, the move
    kind (code ``j`` of ``_KINDS[j]``) and the decision case (code ``j`` of
    ``routing.CASES[j]``), each an ``(m,)`` uint8 array.  A row already at
    its target gets link 0, ``_AT_TARGET`` and ``_NO_CASE``.

    The move kind follows the value at position 1 (``routing`` docstring),
    by the first rule that holds: case 1 settles; c(1) = t(1) seeds (only
    2.x and 4 can have it); the other burn-down hops (2.1-2.5) cross; a 3.2
    hop whose link is not where t(1) sits is pre-final; the rest are final.

    ``dest`` is an ``(m, n)`` uint8 block, one row per (current, target)
    pair, as :func:`classify._count_rows` takes it; ``odd`` is the parity
    of each current node.  Each block's picks intersect the partition
    masks of its counts (:func:`classify._count_block`) with the node's
    home half.  A pick set is an ``(n - 1, r)`` mask over positions 2..n,
    its lowest position a weighted maximum.  Case 2.1 reads the cycle
    labels (position 1's is 1), case 3.1 the alternation flags, and case
    2.2 walks the inverse of ``dest`` backwards from position 1, at most n
    gathers.  Raises :class:`RoutingInvariantError` where the scalar pick
    would.
    """
    m, n = dest.shape
    k = boundary(n).k
    pos = np.arange(1, n + 1, dtype=np.uint8)
    here = _halves(pos[1:], k)[:, None]  # the half of each of positions 2..n
    counts = np.empty((7, m), dtype=np.uint8)
    link = np.empty(m, dtype=np.uint8)
    move = np.empty(m, dtype=np.uint8)
    case = np.empty(m, dtype=np.uint8)
    for lo in range(0, m, _ROW_BLOCK):
        cols, moved, same, crossed, label, alternates = _count_block(
            dest[lo : lo + _ROW_BLOCK], counts[:, lo : lo + _ROW_BLOCK]
        )
        r = cols.shape[1]
        home = odd[lo : lo + r].astype(np.uint8) + 1  # the half this node's links reach
        first = cols[0]
        # of positions 2..n; same marks the burn-down values, |ull| + |urr|
        moved, same = moved[1:], same[1:]
        mine = here == home
        a_set = same & mine
        outside = a_set & (label[1:] != 1)
        sh_set = ~moved & mine
        c_set = crossed[1:] & mine
        alt_set = c_set & alternates[1:]
        t1 = np.sum((cols == 1) * pos[:, None], axis=0, dtype=np.uint8)  # where t(1) is
        t1_mine = _halves(t1, k) == home
        a_any, sh_any, c_any = a_set.any(axis=0), sh_set.any(axis=0), c_set.any(axis=0)

        code = np.select(
            [_halves(first, k) == home, same.any(axis=0), first != 1, moved.any(axis=0)],
            [
                0,
                np.select(
                    [outside.any(axis=0), a_any, sh_any, c_any, t1_mine], [1, 2, 3, 4, 5], _NO_PICK
                ),
                np.select([c_any, t1_mine | sh_any], [6, 7], _NO_PICK),
                np.where(c_any, 8, _NO_PICK),
            ],
            _NO_CASE,
        ).astype(np.uint8)
        if (code == _NO_PICK).any():
            raise RoutingInvariantError("a pick set the decision tree needs was empty")

        lowest_sh = _lowest(sh_set)
        lowest_c = _lowest(c_set)
        choice = np.zeros((_NO_CASE + 1, r), dtype=np.uint8)
        choice[0] = first
        choice[1] = _lowest(outside)
        choice[3] = lowest_sh
        choice[4] = choice[8] = lowest_c
        choice[5] = t1
        choice[6] = np.where(alt_set.any(axis=0), _lowest(alt_set), lowest_c)
        choice[7] = np.where(t1_mine, t1, lowest_sh)
        walk = np.flatnonzero(code == 2)
        if len(walk):
            # the predecessor of position p on its relative cycle: inv[p - 1]
            inv = np.empty((n, len(walk)), dtype=np.uint8)
            np.put_along_axis(inv, cols[:, walk].astype(np.intp) - 1, pos[:, None], axis=0)
            target = np.zeros((n + 1, len(walk)), dtype=bool)  # position 1 never
            target[2:] = a_set[:, walk]
            at = np.arange(len(walk))
            p = inv[0]
            found = np.zeros(len(walk), dtype=np.uint8)
            for _ in range(n):
                hit = target[p, at] & (found == 0)
                found[hit] = p[hit]
                p = inv[p - 1, at]
            if not found.all():
                raise RoutingInvariantError("backward cycle walk found no same-half value")
            choice[2, walk] = found
        picked = choice[code, np.arange(r)]
        link[lo : lo + r] = picked
        move[lo : lo + r] = np.select(
            [code == _NO_CASE, code == 0, first == 1, code <= 5, (code == 7) & (picked != t1)],
            [_AT_TARGET, _SETTLING, _SEEDING, _CROSSING, _PRE_FINAL],
            _FINAL,
        )
        case[lo : lo + r] = code
    return Counts(*counts), link, move, case


class RouteTree:
    """Every oriented route into each of ``targets``, over all n! nodes."""

    def __init__(self, n: int, targets: Sequence[Perm]):
        table = move_table(n)
        self.n, self.targets = n, list(targets)
        self.size = size = len(table.perms)
        dest = _dest_rows(self.targets, table.perms)
        rows = len(dest)
        self.odd = odd = np.tile(table.odd.view(np.uint8), len(self.targets))
        counts, link, move, case = self._decide(dest, odd)
        self.counts, self.link, self.move, self.case = counts, link, move, case
        del dest
        root = case == _NO_CASE
        if not (root | ((link >= 2) & (link <= n))).all():
            raise RoutingInvariantError(f"a pick of order {n} gave a link outside 2..{n}")

        # successor row, within the block of the row's target; the roots point
        # past the end, where depth holds no level
        self.nxt = nxt = np.full(rows, rows)
        for j in range(2, n + 1):
            at = np.flatnonzero(link == j)
            node = at % size
            nxt[at] = table.step(node, j) + at - node

        # each row's own hop indicators; the load past the end is a root's, 0
        load = np.zeros(rows + 1, dtype=np.uint8)
        np.add(counts.ull, counts.urr, out=load[:rows])
        out = np.zeros((2, n + 1), dtype=bool)  # out[odd, link]: an outgoing arc
        out[:, 0] = True  # a root's link 0 is no arc
        for parity, links in enumerate(out_links(n, Scheme.FUJITA)):
            out[parity, list(links)] = True
        self.sums = sums = np.empty((rows, len(_HOPS)), dtype=np.uint8)
        sums[:, :3] = _BY_MOVE[move, :3]
        sums[:, 3] = _FALLBACK[case]
        sums[:, 4] = load[nxt] > load[:rows]
        sums[:, 5] = ~out[odd, link]

        # route length; -1 where no level reaches the row
        self.depth = depth = np.full(rows + 1, -1, dtype=np.int16)
        depth[rows] = -2
        depth[:rows][root] = 0
        # the first row of the route making a final crossing, a pre-final one
        # and one that does not settle (alpha); the row after the last
        # crossing (the row itself without one)
        self.near = near = np.empty((rows, 3), dtype=np.int32)
        self.gamma = gamma = np.arange(rows, dtype=np.int32)
        near[:] = gamma[:, None]
        for d in range(1, routing._runaway_limit(n) + 1):
            level = np.flatnonzero(depth[nxt] == d - 1)
            if not len(level):
                break
            depth[level] = d
            w = nxt[level]
            sums[level] += sums[w]
            near[level] = np.where(_BY_MOVE[move[level], 1:], level[:, None], near[w])
            gamma[level] = np.where(sums[level, 0] > 0, gamma[w], level)
        sums[depth[:rows] < 0] = 0
        self.rising, self.incoming = sums[:, 4] > 0, sums[:, 5] > 0

    def _decide(
        self, dest: np.ndarray, odd: np.ndarray
    ) -> tuple[Counts, np.ndarray, np.ndarray, np.ndarray]:
        """Every row's counts and decision (link, move kind code and case
        code), as :func:`_pick_rows` gives them.  One call per tree, so that
        the decisions can be replaced as a whole."""
        return _pick_rows(dest, odd)

    def node(self, row: int) -> Perm:
        """The node that route ``row`` starts from."""
        return tuple(move_table(self.n).perms[row % self.size].tolist())

    def target(self, row: int) -> Perm:
        return self.targets[row // self.size]

    def summary(self) -> PhaseSummary:
        """The phase summary of every row's route, from its sums and the depths of the rows it
        points to.  The roots have length 0 and the rows that no level reached length -1, so
        neither breaks a law.  ``inside`` counts an extended route's settling run too."""
        depth, length = self.depth, self.depth[:-1]
        crossings, finals, prefinals, fallbacks = self.sums[:, :4].T
        crossed, extended = crossings > 0, fallbacks > 0
        first_final, first_prefinal, alpha = self.near.T
        len1 = length - depth[alpha]
        end2 = np.where(crossed, length - depth[self.gamma], len1)
        gamma = np.where(crossed, self.gamma, alpha)
        # the non-crossing hops before the last crossing are the prefix, possibly
        # the hop from alpha (the one Phase Two allows) and those inside Phase Two
        inside = end2 - crossings - len1 - ~_CROSSES[self.move[alpha]]
        return PhaseSummary(
            length, len1, end2, extended,
            finals, np.where(finals > 0, length - depth[first_final], -1),
            prefinals, np.where(prefinals > 0, length - depth[first_prefinal], -1),
            np.where(crossed, inside, 0),
            self.counts,
            *(Counts._make(col[at] for col in self.counts) for at in (alpha, gamma)),
            self.odd[alpha], self.trace,
        )

    def trace(self, row: int) -> RouteTrace:
        """The route of ``row``, cut after ``_runaway_limit(n) + 1`` hops as
        :func:`routing.oriented_route` would be."""
        limit = routing._runaway_limit(self.n)
        target = self.target(row)
        walk, links, moves, cases = [self.node(row)], [], [], []
        while self.move[row] != _AT_TARGET and len(links) <= limit:
            links.append(int(self.link[row]))
            moves.append(_KINDS[self.move[row]])
            cases.append(routing.CASES[self.case[row]])
            row = self.nxt[row]
            walk.append(self.node(row))
        return RouteTrace(
            target, Scheme.FUJITA, tuple(walk), tuple(links), tuple(moves), tuple(cases)
        )
