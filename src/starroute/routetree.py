"""Route trees: every oriented route into a group of targets, as row columns.

The oriented router is memoryless: a pick reads only the current node and
the target, so the routes into a target ``t`` form an in-tree with ``t`` at
the root.  A :class:`RouteTree` holds the trees into a group of targets as
rows, one per (node, target) pair.  Nodes are numbered by rank in
``oracle.move_table(n).perms``, and row ``j * n! + v`` is the route from
node v into target j.  Each column is a numpy array over the rows:

- the counts of :func:`classify._count_rows` and the decision of
  :func:`_pick_rows`, the row kernel of :func:`routing._oriented_pick`
  (link, move kind and case).  The successor is a gather,
  ``moves[v, link - 2]``;
- a route DP, filled level by level outward from the roots for up to
  ``routing._runaway_limit(n)`` levels: each route's length, settling
  prefix, alpha and gamma rows, Phase Two counts, fallback, incoming-arc and
  load-rise flags, each from its successor's.  A row that no level reaches
  meets a cycle or would exceed the limit.

:meth:`RouteTree.summary` gives the columns :func:`routing._phase_faults`
evaluates.  :meth:`RouteTree.trace` rebuilds one route as a
:class:`routing.RouteTrace` for :func:`routing.validate_trace`, and
:meth:`RouteTree.first_rise` walks one route to its first load rise; both
serve flagged rows only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# the runaway limit is read through the module
from . import routing
from .classify import _ROW_BLOCK, _count_rows, _cycle_cols, _halves
from .oracle import move_table
from .perm import Perm, _positions
from .routing import CROSSING_KINDS, MoveKind, PhaseSummary, RouteTrace, RoutingInvariantError
from .topology import Scheme, boundary, out_links

# move kinds and decision cases as one-byte codes in the row columns
_KINDS = tuple(MoveKind)
_SETTLING, _SEEDING, _CROSSING, _FINAL, _PRE_FINAL = range(len(_KINDS))
_AT_TARGET = len(_KINDS)  # a row already at its target: no hop leaves it
_CASES = ("1", "2.1", "2.2", "2.3", "2.4", "2.5", "3.1", "3.2", "4")
_NO_CASE = len(_CASES)  # the case code of a row already at its target
# the move kind of each case code: a 2.x hop seeds instead when c(1) = t(1),
# and a 3.2 hop that does not bring t(1) forward is pre-final
_CASE_MOVE = np.array(
    [_SETTLING] + [_CROSSING] * 5 + [_FINAL, _FINAL, _SEEDING, _AT_TARGET], dtype=np.uint8
)
_NO_PICK = 255  # the case code of a row whose pick set came out empty
# per move kind code: the hop crosses; the target's entry crosses nothing
_CROSSES = np.array([kind in CROSSING_KINDS for kind in _KINDS] + [False])
# per case code: a 2.4/2.5 fallback hop
_FALLBACK = np.array([case in ("2.4", "2.5") for case in _CASES] + [False])


def _lowest(mask: np.ndarray) -> np.ndarray:
    """The lowest position whose row of ``mask`` is set, per column: row j
    stands for position j + 2, as in the pick sets over positions 2..n.
    n + 2 where no row is set."""
    rows = len(mask)
    weight = np.arange(rows, 0, -1, dtype=np.uint8)[:, None]  # position 2 weighs most
    return rows + 2 - (mask * weight).max(axis=0)


def _pick_rows(
    dest: np.ndarray, odd: np.ndarray, half: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`routing._oriented_pick` for every row of ``dest``: the link
    and the decision case, as code ``j`` of ``_CASES[j]``, each an ``(m,)``
    uint8 array.  A row already at its target gets link 0 and ``_NO_CASE``.

    ``dest`` is an ``(m, n)`` uint8 block, one row per (current, target)
    pair, as :func:`classify._count_rows` takes it; ``odd`` is the parity of
    each current node.  Rows are taken ``_ROW_BLOCK`` at a time, each block
    in column layout.  Each pick set of the decision tree is an
    ``(n - 1, r)`` mask over positions 2..n, and its lowest position a
    weighted maximum.  Case 2.1 reads the cycle labels of
    :func:`classify._cycle_cols` (position 1's cycle is label 1), case 3.1
    its alternation flags, and case 2.2 walks the inverse of ``dest``
    backwards from position 1, at most n gathers.  Raises
    :class:`RoutingInvariantError` where the scalar pick would.
    """
    m, n = dest.shape
    k = list(half).count(1) + 1
    pos = np.arange(1, n + 1, dtype=np.uint8)
    here = _halves(pos[1:], k)[:, None]  # the half of each of positions 2..n
    link = np.empty(m, dtype=np.uint8)
    case = np.empty(m, dtype=np.uint8)
    for lo in range(0, m, _ROW_BLOCK):
        cols = np.ascontiguousarray(dest[lo : lo + _ROW_BLOCK].T)
        r = cols.shape[1]
        home = odd[lo : lo + r].astype(np.uint8) + 1  # the half this node's links reach
        first = cols[0]
        label, alternates = _cycle_cols(cols, k)
        rest = cols[1:]
        there = _halves(rest, k)  # the half each value is destined for
        moved = rest != pos[1:, None]
        mine = here == home
        same = moved & (there == here)  # the burn-down values, |ull| + |urr|
        a_set = same & mine
        outside = a_set & (label[1:] != 1)
        sh_set = ~moved & mine
        c_set = moved & (there != here) & (there != 0) & mine
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
        link[lo : lo + r] = choice[code, np.arange(r)]
        case[lo : lo + r] = code
    return link, case


def _move_rows(dest: np.ndarray, link: np.ndarray, case: np.ndarray) -> np.ndarray:
    """The move kind code (``_KINDS``) of each row's picked hop, read off
    its case as :func:`routing._oriented_pick` names it."""
    move = _CASE_MOVE[case]
    burn = (case >= 1) & (case <= 5)
    move[burn & (dest[:, 0] == 1)] = _SEEDING
    last = np.flatnonzero(case == 7)
    move[last[dest[last, link[last].astype(np.intp) - 1] != 1]] = _PRE_FINAL
    return move


class RouteTree:
    """Every oriented route into each of ``targets``, over all n! nodes."""

    def __init__(self, n: int, targets: Sequence[Perm]):
        table = move_table(n)
        self.n, self.targets = n, list(targets)
        self.size = size = len(table.perms)
        tpos = np.array([_positions(t) for t in self.targets], dtype=np.uint8)
        dest = tpos[:, table.perms].reshape(-1, n)
        rows = len(dest)
        self.odd = odd = np.tile(table.odd.view(np.uint8), len(self.targets))
        self.counts = counts = _count_rows(dest, boundary(n).half)
        self.link, self.move, self.case = link, move, case = self._decide(dest, odd)
        del dest
        root = case == _NO_CASE
        if not (root | ((link >= 2) & (link <= n))).all():
            raise RoutingInvariantError(f"a pick of order {n} gave a link outside 2..{n}")

        # successor row, within the block of the row's target; the roots point
        # past the end, where depth holds no level
        base = np.repeat(np.arange(0, rows, size, dtype=np.int32), size)
        hop = np.maximum(link.astype(np.int32) - 2, 0) * size
        hop += np.arange(rows, dtype=np.int32)
        hop -= base
        self.nxt = nxt = table.moves.ravel(order="F")[hop] + base
        nxt[root] = rows
        del base, hop

        # route length; -1 where no level reaches the row
        self.depth = depth = np.full(rows + 1, -1, dtype=np.int16)
        depth[rows] = -2
        depth[:rows][root] = 0
        self.len1 = len1 = np.zeros(rows, dtype=np.uint8)  # settling-prefix length
        self.alpha = alpha = np.arange(rows, dtype=np.int32)  # row after the prefix
        # hops through the last crossing (0 without one), and the row after it
        self.after = after = np.zeros(rows, dtype=np.uint8)
        self.gamma = gamma = np.zeros(rows, dtype=np.int32)
        self.waiting = waiting = np.zeros(rows, dtype=np.uint8)  # non-crossing hops before it
        self.finals = finals = np.zeros(rows, dtype=np.uint8)
        self.prefinals = prefinals = np.zeros(rows, dtype=np.uint8)
        self.final_hop = final_hop = np.full(rows, -1, dtype=np.int8)  # first final crossing
        self.prefinal_hop = prefinal_hop = np.full(rows, -1, dtype=np.int8)
        self.fallback = fallback = np.zeros(rows, dtype=bool)  # the route is extended
        self.rising = rising = np.zeros(rows, dtype=bool)  # some hop raises the load
        self.incoming = incoming = np.zeros(rows, dtype=bool)  # some hop is on an incoming arc
        self.load = load = counts.ull + counts.urr
        out = np.zeros((2, n + 1), dtype=bool)  # out[odd, link]: an outgoing arc
        for parity, links in enumerate(out_links(n, Scheme.FUJITA)):
            out[parity, list(links)] = True

        for d in range(1, routing._runaway_limit(n) + 1):
            level = np.flatnonzero(depth[nxt] == d - 1)
            if not len(level):
                break
            depth[level] = d
            w = nxt[level]
            kind = move[level]
            settles = kind == _SETTLING
            crosses = _CROSSES[kind]
            len1[level] = np.where(settles, len1[w] + 1, 0)
            alpha[level] = np.where(settles, alpha[w], level)
            later = after[w]
            crossed = later > 0
            after[level] = np.where(crossed, later + 1, crosses)
            gamma[level] = np.where(crossed, gamma[w], w)
            waiting[level] = np.where(crossed, waiting[w] + ~crosses, 0)
            for count, first, code in (
                (finals, final_hop, _FINAL),
                (prefinals, prefinal_hop, _PRE_FINAL),
            ):
                here = kind == code
                count[level] = count[w] + here
                seen = first[w]
                first[level] = np.where(here, 0, np.where(seen >= 0, seen + 1, -1))
            fallback[level] = fallback[w] | _FALLBACK[case[level]]
            rising[level] = rising[w] | (load[w] > load[level])
            incoming[level] = incoming[w] | ~out[odd[level], link[level]]

    def _decide(
        self, dest: np.ndarray, odd: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's decision: link, move kind code and case code.  One
        call per tree, so that the decisions can be replaced as a whole."""
        link, case = _pick_rows(dest, odd, boundary(self.n).half)
        return link, _move_rows(dest, link, case), case

    def node(self, row: int) -> Perm:
        """The node that route ``row`` starts from."""
        return tuple(move_table(self.n).perms[row % self.size].tolist())

    def target(self, row: int) -> Perm:
        return self.targets[row // self.size]

    def summary(self) -> PhaseSummary:
        """The phase summary of every row's route.  The roots have length 0
        and the rows that no level reached length -1, so neither breaks a
        law."""
        c = self.counts
        cols = (c.ull, c.urr, c.ulr, c.url, c.alternating, c.nonsingleton)
        crossed = self.after > 0
        alpha = self.alpha
        gamma = np.where(crossed, self.gamma, alpha)
        # the non-crossing hops before the last crossing are the prefix, possibly
        # the hop from alpha (the one Phase Two allows) and those inside Phase Two
        inside = self.waiting.astype(np.int16) - self.len1 - ~_CROSSES[self.move[alpha]]
        return PhaseSummary(
            self.depth[:-1],
            self.len1,
            np.where(crossed, self.after, self.len1),
            self.fallback,
            self.finals,
            self.final_hop,
            self.prefinals,
            self.prefinal_hop,
            np.where(crossed & ~self.fallback, inside, 0),
            cols,
            tuple(col[alpha] for col in cols),
            tuple(col[gamma] for col in cols),
            self.odd[alpha],
            self.inside_hops,
        )

    def inside_hops(self, row: int) -> list[tuple[int, MoveKind]]:
        """``(hop, kind)`` of each non-crossing hop strictly inside Phase Two
        of route ``row``, walked from alpha."""
        x = self.nxt[self.alpha[row]]
        hops = []
        for j in range(self.len1[row] + 1, self.after[row]):
            if not _CROSSES[self.move[x]]:
                hops.append((j, _KINDS[self.move[x]]))
            x = self.nxt[x]
        return hops

    def first_rise(self, row: int) -> tuple[int, int, int]:
        """The first hop of a rising route at which the crossing load
        (``ull + urr``) rises, as ``(hop, before, after)`` with hops numbered
        from 1."""
        load, hop = self.load, 1
        while True:
            w = self.nxt[row]
            if load[w] > load[row]:
                return hop, int(load[row]), int(load[w])
            row, hop = w, hop + 1

    def trace(self, row: int) -> RouteTrace:
        """The route of ``row``, cut after ``_runaway_limit(n) + 1`` hops as
        :func:`routing.oriented_route` would be."""
        limit = routing._runaway_limit(self.n)
        target = self.target(row)
        walk, links, moves, cases = [self.node(row)], [], [], []
        while self.move[row] != _AT_TARGET and len(links) <= limit:
            links.append(int(self.link[row]))
            moves.append(_KINDS[self.move[row]])
            cases.append(_CASES[self.case[row]])
            row = self.nxt[row]
            walk.append(self.node(row))
        return RouteTrace(
            target, Scheme.FUJITA, tuple(walk), tuple(links), tuple(moves), tuple(cases)
        )
