"""Route trees: every oriented route into one target, one pick per node.

The oriented router is memoryless: a pick reads only the current node and
the target, so the routes into a target ``t`` form an in-tree with ``t`` at
the root.  A :class:`RouteTree` makes one pick per node (its successor,
link, move kind and decision case) and takes :func:`classify._counts` of
every node once.  :meth:`RouteTree.routes` then gives every route's length,
:class:`routing.PhaseSummary`, incoming-arc flag and first load rise, each
derived from its successor's, and :meth:`RouteTree.trace` rebuilds one
route as a :class:`routing.RouteTrace` for :func:`routing.validate_trace`.

The columns are ``bytearray``/``array`` rows indexed by node number (the
counts column refers to one shared tuple per distinct value); no per-route
record is kept.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

# the pick and the runaway limit are read through the module, so that a
# test that replaces them in routing reaches the trees too
from . import routing
from .classify import _counts
from .perm import Perm, parity, positions
from .routing import (
    CROSSING_KINDS,
    MoveKind,
    PhaseSummary,
    RouteTrace,
    RoutingInvariantError,
    _extended,
)
from .topology import Scheme, boundary, out_links

# move kinds and decision cases as one-byte codes in the tree columns
_KINDS = tuple(MoveKind)
_SETTLING = _KINDS.index(MoveKind.SETTLING)
_FINAL = _KINDS.index(MoveKind.FINAL_CROSSING)
_PRE_FINAL = _KINDS.index(MoveKind.PRE_FINAL_CROSSING)
_AT_TARGET = len(_KINDS)  # the target's entry: no hop leaves it
_CROSSES = bytes(kind in CROSSING_KINDS for kind in _KINDS) + b"\0"
_CASES = ("1", "2.1", "2.2", "2.3", "2.4", "2.5", "3.1", "3.2", "4")
_CASE_CODE = {case: code for code, case in enumerate(_CASES)}
_FALLBACK = bytes(_extended((case,)) for case in _CASES)
_UNSEEN, _ON_PATH, _RUNAWAY = -1, -2, -3  # depth entries of unfinished nodes


class NodeTable:
    """The nodes of one order that route trees are built over, numbered in
    the order given, with each node's parity and position index.  Shared by
    the trees of every target.

    The nodes must hold every node that a route into any of the targets
    visits; a sweep passes all n! of them.
    """

    def __init__(self, nodes: Sequence[Perm]):
        self.nodes = nodes
        self.n = n = len(nodes[0])
        self.index = {p: v for v, p in enumerate(nodes)}
        self.odd = bytearray(parity(p) for p in nodes)
        # position index of node v: entries v*(n+1) .. v*(n+1)+n
        self.where = where = bytearray()
        for p in nodes:
            where += bytes(positions(p))


class RouteTree:
    """Every oriented route into ``t`` over the nodes of ``table``."""

    def __init__(self, table: NodeTable, t: Perm):
        n, nodes, index = table.n, table.nodes, table.index
        where, odd = table.where, table.odd
        size = len(nodes)
        half = boundary(n).half
        self.table, self.target = table, t
        tpos = positions(t)
        self.root = root = index[t]
        self.links = links = bytearray(size)
        self.moves = moves = bytearray(size)
        self.cases = cases = bytearray(size)
        self.nxt = nxt = array("i", [-1]) * size
        # classify._counts of each node; equal tuples are stored once
        self.counts = counts = [()] * size
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        for v, c in enumerate(nodes):
            cnt = _counts(c, tpos, half)
            counts[v] = shared.setdefault(cnt, cnt)
            if v == root:
                continue
            cpos = where[v * (n + 1) : (v + 1) * (n + 1)]
            link, kind, case = routing._oriented_pick(c, cpos, odd[v], t, tpos, half)
            if not 2 <= link <= n:
                raise RoutingInvariantError(f"pick at {c} toward {t} gave link {link}")
            links[v] = link
            moves[v] = _KINDS.index(kind)
            cases[v] = _CASE_CODE[case]
            swapped = list(c)
            swapped[0], swapped[link - 1] = swapped[link - 1], swapped[0]
            nxt[v] = index[tuple(swapped)]
        moves[root] = _AT_TARGET

    def trace(self, v: int) -> RouteTrace:
        """The route from node ``v``, cut after ``_runaway_limit(n) + 1``
        hops as :func:`routing.oriented_route` would be."""
        nodes, limit = self.table.nodes, routing._runaway_limit(self.table.n)
        walk, links, moves, cases = [nodes[v]], [], [], []
        while v != self.root and len(links) <= limit:
            links.append(self.links[v])
            moves.append(_KINDS[self.moves[v]])
            cases.append(_CASES[self.cases[v]])
            v = self.nxt[v]
            walk.append(nodes[v])
        return RouteTrace(
            self.target, Scheme.FUJITA, tuple(walk), tuple(links), tuple(moves), tuple(cases)
        )

    def routes(
        self,
    ) -> Iterator[tuple[int, PhaseSummary | None, bool, tuple[int, int, int] | None]]:
        """``(v, summary, incoming, rise)`` for the route from every node v
        but the target, each after its successor's.

        ``summary`` is the route's :class:`PhaseSummary` (its ``length`` is
        the route length, its ``source`` the counts of v), or None when the
        route meets a cycle or would exceed ``_runaway_limit(n)`` hops;
        ``incoming`` tells whether some hop leaves along an incoming arc and
        ``rise`` is the first hop at which the crossing load
        (``ull + urr``) rises, as ``(hop, before, after)`` with hops
        numbered from 1, or None when it never does.  Arc direction and
        load rise are read once per tree edge.

        A node's successor chain is walked to a node already finished (or
        to one on the walk itself: a cycle), then unwound, so each route's
        values come from its successor's.
        """
        table = self.table
        size, odd, limit = len(table.nodes), table.odd, routing._runaway_limit(table.n)
        out = out_links(table.n, Scheme.FUJITA)
        links, moves, cases, nxt, counts = self.links, self.moves, self.cases, self.nxt, self.counts
        crosses_at, fallback_at = _CROSSES, _FALLBACK
        load = bytes(cnt[0] + cnt[1] for cnt in counts)  # ull + urr

        depth = array("i", [_UNSEEN]) * size  # route length once finished
        depth[self.root] = 0
        len1 = bytearray(size)  # settling-prefix length
        alpha = array("i", range(size))  # node after the settling prefix
        gamma = array("i", [-1]) * size  # node after the last crossing, -1 without one
        after = bytearray(size)  # hops through the last crossing, 0 without one
        waiting = bytearray(size)  # non-crossing hops before the last crossing
        finals = bytearray(size)
        prefinals = bytearray(size)
        final_hop = array("b", [-1]) * size  # first final crossing, -1 without one
        prefinal_hop = array("b", [-1]) * size
        fallback = bytearray(size)  # the route is extended
        riser = array("i", [-1]) * size  # node whose hop first raises the load, or -1
        incoming = bytearray(size)

        path: list[int] = []
        for start in range(size):
            v = start
            while depth[v] == _UNSEEN:
                depth[v] = _ON_PATH
                path.append(v)
                v = nxt[v]
            d = depth[v]  # the successor's: a length, or a cycle or runaway mark
            while path:
                v = path.pop()
                if not 0 <= d < limit:
                    depth[v] = d = _RUNAWAY
                    yield v, None, False, None
                    continue
                d += 1
                depth[v] = d
                w = nxt[v]
                kind = moves[v]
                crosses = crosses_at[kind]
                if kind == _SETTLING:
                    len1[v] = len1[w] + 1
                    alpha[v] = alpha[w]
                if after[w]:
                    after[v] = after[w] + 1
                    gamma[v] = gamma[w]
                    waiting[v] = waiting[w] + (not crosses)
                elif crosses:
                    after[v] = 1
                    gamma[v] = w
                finals[v] = finals[w] + (kind == _FINAL)
                prefinals[v] = prefinals[w] + (kind == _PRE_FINAL)
                hop = final_hop[w]
                final_hop[v] = 0 if kind == _FINAL else hop + 1 if hop >= 0 else -1
                hop = prefinal_hop[w]
                prefinal_hop[v] = 0 if kind == _PRE_FINAL else hop + 1 if hop >= 0 else -1
                fallback[v] = fallback[w] or fallback_at[cases[v]]
                riser[v] = v if load[w] > load[v] else riser[w]
                incoming[v] = incoming[w] or links[v] not in out[odd[v]]

                a, lead, end2, g = alpha[v], len1[v], after[v], gamma[v]
                extended = fallback[v]
                inside: list[tuple[int, MoveKind]] = []
                if not end2:  # no crossing: Phase Two is empty
                    end2, g = lead, a
                # the non-crossing hops before the last crossing are the
                # prefix, possibly hop `lead` (the one Phase Two allows) and
                # those inside Phase Two, which are then listed from the tree
                elif not extended and waiting[v] > lead + (not crosses_at[moves[a]]):
                    x = nxt[a]
                    for j in range(lead + 1, end2):
                        if not crosses_at[moves[x]]:
                            inside.append((j, _KINDS[moves[x]]))
                        x = nxt[x]
                summary = PhaseSummary(
                    d,
                    lead,
                    end2,
                    bool(extended),
                    finals[v],
                    final_hop[v],
                    prefinals[v],
                    prefinal_hop[v],
                    tuple(inside),
                    counts[v],
                    counts[a],
                    counts[g],
                    odd[a],
                )
                u = riser[v]
                rise = None if u < 0 else (d - depth[u] + 1, load[u], load[nxt[u]])
                yield v, summary, bool(incoming[v]), rise
