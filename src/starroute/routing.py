"""Greedy routing on the star graph, undirected and orientation-respecting.

Two routers live here.  The *classic* router ignores arc directions: it
settles the value at position 1 into its target position whenever it is
unsettled, and otherwise seeds by pulling any unsettled value to the front.
Its hop count has a closed form (``classic_distance``), which equals the
undirected shortest-path distance.

The *oriented* router only ever uses outgoing arcs of the contiguous-half
orientation (``Scheme.FUJITA``).  From an even node it may touch positions in
the left half only, from an odd node the right half only; the roles of the
halves mirror with the node's parity.  Writing H for the reachable half and
A/C/SH for the unsettled same-half values, the crossed values currently in H,
and the settled values in H, each step picks the first matching case:

1. Settling — ``c(1)`` is destined for H: move it to its target position.
2. Crossing/seeding burn-down — ``c(1)`` is not destined for H and some
   unsettled value is in the same half as its target (``|ull|+|urr| > 0``):
   swap with an A value outside the relative cycle through ``c(1)`` (2.1),
   else the first A value walking that cycle backwards from ``c(1)`` (2.2),
   else an SH value (2.3).  H can consist entirely of crossed values while
   the burn-down set lives in the other half, leaving 2.1-2.3 with nothing
   to pick; then swap with a C value, which settles on the very next hop
   (2.4), or — only when H is a single all-else-excluded position — with
   the value destined for position 1 (2.5).
3. Final crossing — ``c(1)`` is destined for the opposite half and the
   burn-down count is zero: swap with a C value, preferring one whose
   relative cycle alternates between the halves (3.1); if C is empty (3.2),
   swap with ``t(1)`` when it is in H (a final crossing), else with a
   settled value (a pre-final crossing).
4. Seeding — ``c(1) = t(1)`` and the burn-down count is zero: swap with a
   C value.

All ties break toward the lowest current position.  Move kinds follow the
value at position 1: seeding when it equals ``t(1)``, settling when it moves
to its target position, crossing when it switches halves; the unique crossing
after which no further crossing occurs is tagged *final*, and a settled-value
swap that sets it up is tagged *pre-final*.

Routes split into phases: Phase One is the maximal settling prefix, Phase Two
runs through the final crossing move, Phase Three is the rest.

A route is stored once, as columns (``RouteTrace``): ``nodes`` is the walk
from the source to the last node reached, one entry longer than the route,
and hop j leaves ``nodes[j]`` along ``links[j]`` as a ``moves[j]`` move picked
by decision case ``cases[j]``.  Hop numbers and phase labels are not stored;
``phases`` derives the labels from the move kinds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classify import _alternates, _counts as _set_counts
from .perm import Perm, _parity, _positions, check_pair
from .topology import Scheme, boundary, out_links


class MoveKind(enum.Enum):
    SETTLING = "settling"
    SEEDING = "seeding"
    CROSSING = "crossing"
    FINAL_CROSSING = "final-crossing"
    PRE_FINAL_CROSSING = "pre-final-crossing"


# a tuple: ``in`` compares members by identity, where a frozenset would call
# the enum's Python-level __hash__ on every test
CROSSING_KINDS = (MoveKind.CROSSING, MoveKind.FINAL_CROSSING, MoveKind.PRE_FINAL_CROSSING)


class RoutingInvariantError(RuntimeError):
    """A pick-set the analysis guarantees non-empty was empty, or a route ran
    past its runaway limit.  Signals a routing bug (or an uncertified small order)."""


@dataclass(frozen=True)
class RouteTrace:
    target: Perm
    scheme: Scheme | None  # None for classic (undirected) routes
    nodes: tuple[Perm, ...]  # source through the last node reached
    links: tuple[int, ...]
    moves: tuple[MoveKind, ...]
    cases: tuple[str, ...]  # decision-tree label: "1", "2.1", ..., "4", or "classic"

    @property
    def source(self) -> Perm:
        return self.nodes[0]

    @property
    def length(self) -> int:
        return len(self.links)

    @property
    def phases(self) -> list[int]:
        """Phase label (1, 2 or 3) of each hop."""
        return _assign_phases(self.moves)


def _runaway_limit(n: int) -> int:
    # stops a looping router; well beyond any proven bound for certified
    # orders (the proven cap is harness.hop_cap)
    return 4 * n + 8


# ---------------------------------------------------------------------------
# classic (undirected) router


def _classic_pick(c: list[int], t: Sequence[int], tpos: list[int]) -> tuple[int, MoveKind]:
    c1 = c[0]
    if c1 != t[0]:
        return tpos[c1], MoveKind.SETTLING
    for i in range(1, len(c)):
        if c[i] != t[i]:
            return i + 1, MoveKind.SEEDING
    raise RoutingInvariantError("classic pick called at the target")


def classic_step(c: Sequence[int], t: Sequence[int]) -> tuple[int, MoveKind]:
    """Next classic move from ``c`` toward ``t``: ``(link, kind)``.

    Settles ``c(1)`` when it is unsettled; otherwise seeds with the lowest
    position holding an unsettled value.  Raises ValueError at the target.
    """
    c, t = check_pair(c, t)
    if c == t:
        raise ValueError("already at the target; no step to take")
    return _classic_pick(list(c), t, _positions(t))


def classic_distance(s: Sequence[int], t: Sequence[int]) -> int:
    """Undirected shortest-path distance between ``s`` and ``t``.

    Closed form: (mismatched values) + (non-singleton relative cycles),
    minus 2 when ``s`` and ``t`` differ at position 1.  A cycle away from
    position 1 costs its length plus one: a seeding hop pulls one of its
    values to the front, then each hop settles one value.  The cycle through
    position 1 needs no seeding hop, and its last hop settles two values at
    once, so it costs its length minus one.

    This is the single-pair form, and the reference that
    :func:`classify._count_rows` is tested against; ``verify``'s sweeps
    take the same closed form for blocks of pairs from that kernel.
    """
    s, t = check_pair(s, t)
    n = len(s)
    tpos = _positions(t)
    mismatched = 0
    for i in range(n):
        if s[i] != t[i]:
            mismatched += 1
    seen = [False] * (n + 1)
    nonsingleton = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        v = s[tpos[start] - 1]
        if v == start:
            continue
        nonsingleton += 1
        while v != start:
            seen[v] = True
            v = s[tpos[v] - 1]
    if s[0] == t[0]:
        return mismatched + nonsingleton
    return mismatched + nonsingleton - 2


def classic_distance_sets(s: Sequence[int], t: Sequence[int]) -> int:
    """The same distance computed from the half-partition counts:
    ``|ull| + |urr| + |crossed| + nonsingleton relative cycles``.  Single
    pairs only, as :func:`classic_distance`."""
    s, t = check_pair(s, t)
    ull, urr, ulr, url, _, nonsingleton = _set_counts(s, _positions(t), boundary(len(s)).half)
    return ull + urr + ulr + url + nonsingleton


# ---------------------------------------------------------------------------
# oriented router


def _oriented_pick(
    c: Sequence[int],
    cpos: Sequence[int],
    odd: int,
    t: Sequence[int],
    tpos: list[int],
    half: Sequence[int],
) -> tuple[int, MoveKind, str]:
    n = len(c)
    c1 = c[0]
    t1 = t[0]
    home = 1 + odd  # the half this node's outgoing links cover

    if half[tpos[c1]] == home:
        return tpos[c1], MoveKind.SETTLING, "1"

    burn = 0  # |ull| + |urr| over both halves
    a_vals: list[int] = []  # home-half values destined for the home half
    c_list: list[int] = []  # positions of crossed values sitting in the home half
    sh_first = 0  # lowest-position settled value in the home half
    for i in range(1, n):
        v = c[i]
        p = i + 1
        tp = tpos[v]
        ch = half[p]
        if tp == p:
            if ch == home and not sh_first:
                sh_first = p
            continue
        th = half[tp]
        if th == ch:
            burn += 1
            if ch == home:
                a_vals.append(v)
        elif th and ch == home:
            c_list.append(p)

    if burn:
        kind = MoveKind.SEEDING if c1 == t1 else MoveKind.CROSSING
        if a_vals:
            cycle = {c1}
            w = c[tpos[c1] - 1]
            while w != c1:
                cycle.add(w)
                w = c[tpos[w] - 1]
            outside = [v for v in a_vals if v not in cycle]
            if outside:
                link = min(cpos[v] for v in outside)
                return link, kind, "2.1"
            a_set = set(a_vals)
            w = t[cpos[c1] - 1]  # backward step: predecessor in the relative cycle
            steps = 0
            while w not in a_set:
                w = t[cpos[w] - 1]
                steps += 1
                if steps > n:
                    raise RoutingInvariantError(
                        "backward cycle walk found no same-half value"
                    )
            return cpos[w], kind, "2.2"
        if sh_first:
            return sh_first, kind, "2.3"
        # The reachable half holds neither burn-down nor settled values, so
        # it is filled by crossed values plus at most the position-1 value.
        if c_list:
            return c_list[0], kind, "2.4"
        t1p = cpos[t1]
        if half[t1p] != home:
            raise RoutingInvariantError("nothing to displace in the reachable half")
        return t1p, kind, "2.5"

    if half[tpos[c1]]:  # destined for the opposite half, burn-down complete
        if c_list:
            link = _prefer_alternating(c_list, c, tpos, half)
            return link, MoveKind.FINAL_CROSSING, "3.1"
        t1p = cpos[t1]
        if half[t1p] == home:
            return t1p, MoveKind.FINAL_CROSSING, "3.2"
        if not sh_first:
            raise RoutingInvariantError("case 3.2 found neither t(1) nor a settled value")
        return sh_first, MoveKind.PRE_FINAL_CROSSING, "3.2"

    # c(1) == t(1) with burn-down complete: seed with a crossed value
    if not c_list:
        raise RoutingInvariantError("no crossed value available for case 4")
    return c_list[0], MoveKind.SEEDING, "4"


def _prefer_alternating(
    c_list: list[int], c: Sequence[int], tpos: Sequence[int], half: Sequence[int]
) -> int:
    """Lowest position in ``c_list`` whose value lies on an alternating
    relative cycle; lowest position outright when no such value exists."""
    dest = [0] + [tpos[v] for v in c]
    seen = [False] * len(dest)
    for p in c_list:
        # skip cycles already walked: none of them alternated
        if not seen[p] and _alternates(p, dest, half, seen):
            return p
    return c_list[0]


def oriented_step(c: Sequence[int], t: Sequence[int]) -> tuple[int, MoveKind, str]:
    """Next oriented move from ``c`` toward ``t``: ``(link, kind, case)``.

    The link always lies on an outgoing arc of ``c`` under the contiguous-half
    scheme.  Raises ValueError at the target.
    """
    c, t = check_pair(c, t)
    if c == t:
        raise ValueError("already at the target; no step to take")
    return _oriented_pick(
        list(c), _positions(c), _parity(c), t, _positions(t), boundary(len(c)).half
    )


def _route(s: Sequence[int], t: Sequence[int], scheme: Scheme | None) -> RouteTrace:
    """Shared route loop: oriented for ``Scheme.FUJITA``, classic for None."""
    s, t = check_pair(s, t)
    n = len(s)
    half = boundary(n).half
    tpos = _positions(t)
    c = list(s)
    cpos = _positions(s)
    odd = _parity(s)
    limit = _runaway_limit(n)
    node = s
    nodes: list[Perm] = [node]
    links: list[int] = []
    moves: list[MoveKind] = []
    cases: list[str] = []
    while node != t:
        if scheme is None:
            link, kind = _classic_pick(c, t, tpos)
            case = "classic"
        else:
            link, kind, case = _oriented_pick(c, cpos, odd, t, tpos, half)
        links.append(link)
        moves.append(kind)
        cases.append(case)
        i = link - 1
        c[0], c[i] = c[i], c[0]
        cpos[c[0]] = 1
        cpos[c[i]] = link
        odd ^= 1
        node = tuple(c)
        nodes.append(node)
        if len(links) > limit:
            raise RoutingInvariantError(f"route exceeded {limit} hops without terminating")
    return RouteTrace(t, scheme, tuple(nodes), tuple(links), tuple(moves), tuple(cases))


def _assign_phases(kinds: Sequence[MoveKind]) -> list[int]:
    """Phase labels: settling prefix = 1, through the last crossing-kind
    move = 2, remainder = 3."""
    len1, end2, *_ = _scan_moves(kinds)
    return [1] * len1 + [2] * (end2 - len1) + [3] * (len(kinds) - end2)


def _scan_moves(
    kinds: Sequence[MoveKind],
) -> tuple[int, int, list[int], list[int], list[int]]:
    """One pass over the move kinds: the settling-prefix length ``len1``, the
    end of Phase Two ``end2`` (one past the last crossing-kind move, ``len1``
    when there is none), the hops of the final and of the pre-final
    crossings, and the hops after the prefix that do not cross."""
    settling, final, pre_final = (
        MoveKind.SETTLING,
        MoveKind.FINAL_CROSSING,
        MoveKind.PRE_FINAL_CROSSING,
    )
    len1 = end2 = 0
    finals: list[int] = []
    prefinals: list[int] = []
    others: list[int] = []
    for j, kind in enumerate(kinds):
        if kind is settling and j == len1:
            len1 += 1
        elif kind in CROSSING_KINDS:
            end2 = j + 1
            if kind is final:
                finals.append(j)
            elif kind is pre_final:
                prefinals.append(j)
        else:
            others.append(j)
    return len1, max(end2, len1), finals, prefinals, others


def classic_route(s: Sequence[int], t: Sequence[int]) -> RouteTrace:
    """Full classic route; its length equals ``classic_distance(s, t)``."""
    return _route(s, t, None)


def oriented_route(s: Sequence[int], t: Sequence[int]) -> RouteTrace:
    """Full oriented route from ``s`` to ``t`` along outgoing arcs only."""
    return _route(s, t, Scheme.FUJITA)


def hop_bound(s: Sequence[int], t: Sequence[int]) -> int:
    """Upper bound on the oriented route length, from the partition counts:
    ``|crossed| + max(6, 4*max(|ull|, |urr|) + alternating + 4)``."""
    s, t = check_pair(s, t)
    return int(_bound_from_counts(_set_counts(s, _positions(t), boundary(len(s)).half)))


def _bound_from_counts(counts: Sequence) -> np.ndarray:
    """:func:`hop_bound` from the source's :func:`classify._counts`, for one
    pair or, as columns, for many."""
    ull, urr, ulr, url, chi, _ = counts
    return ulr + url + np.maximum(6, 4 * np.maximum(ull, urr) + chi + 4)


# ---------------------------------------------------------------------------
# trace validation


def _ragged(trace: RouteTrace) -> bool:
    """Whether the columns disagree: a well-formed trace has one more node
    than it has links, moves and cases."""
    return not len(trace.nodes) - 1 == len(trace.links) == len(trace.moves) == len(trace.cases)


def validate_trace(trace: RouteTrace) -> list[str]:
    """Structural faults of a trace: ragged columns, broken node chaining,
    hops along non-outgoing arcs (oriented traces), wrong terminal node,
    runaway length.  Empty list means the trace is well formed.

    One walk over ``nodes`` and ``links``: it swaps positions 1 and ``link``
    of a running copy of the node and compares it with the stored next
    node, carrying parity along (every hop flips it).  Faults are reported,
    never raised.
    """
    nodes, links = trace.nodes, trace.links
    if not nodes:
        return ["columns have unequal lengths"]
    faults: list[str] = []
    if _ragged(trace):
        faults.append("columns have unequal lengths")
    n = len(nodes[0])
    out = None if trace.scheme is None else out_links(n, trace.scheme)
    c = list(nodes[0])
    size = n  # order of the node the hop leaves
    odd = _parity(c)
    for j, (link, there) in enumerate(zip(links, nodes[1:]), 1):
        chained = False
        if not 2 <= link <= size:
            faults.append(f"hop {j}: link must be within 2..{size}, got {link}")
        else:
            if out is not None and link not in out[odd]:
                faults.append(f"hop {j}: link {link} is not an outgoing arc")
            i = link - 1
            c[0], c[i] = c[i], c[0]
            # one C-level tuple comparison; comparing position by position
            # in Python measured slower
            chained = tuple(c) == there
            if not chained:
                faults.append(f"hop {j}: node chain broken")
        if chained:
            odd ^= 1
        else:
            c = list(there)
            size = len(c)
            odd = _parity(c)
    if nodes[-1] != trace.target:
        faults.append("route does not terminate at the target")
    if len(links) > _runaway_limit(n):
        faults.append("route exceeds the runaway limit")
    return faults


@dataclass(frozen=True)
class PhaseReport:
    ok: bool
    violations: tuple[str, ...]
    phase_lengths: tuple[int, int, int]
    extended: bool = False  # a 2.4/2.5 fallback hop interrupted the burn-down


class PhaseSummary(NamedTuple):
    """What the phase laws read of a set of routes, one entry per route in
    every column.  Hops are numbered from 0.

    A trace gives a one-route summary through :func:`_phase_summary`; route
    trees (:meth:`routetree.RouteTree.summary`) give one route per (node,
    target) row.  Either way :func:`_phase_faults` evaluates it, so each law
    is written once.  The counts are :func:`classify._counts` tuples of
    columns, ``(ull, urr, ulr, url, alternating, nonsingleton)``.
    """

    length: np.ndarray  # a length below 1 (a target, or no route) breaks no law
    len1: np.ndarray  # settling-prefix length: alpha is the node after hop len1 - 1
    end2: np.ndarray  # one past Phase Two: gamma is the node after hop end2 - 1
    extended: np.ndarray  # a 2.4/2.5 fallback hop interrupted the burn-down
    finals: np.ndarray  # number of final crossings
    final_hop: np.ndarray  # hop of the first final crossing, -1 without one
    prefinals: np.ndarray
    prefinal_hop: np.ndarray  # hop of the first pre-final crossing, -1 without one
    # non-crossing hops strictly inside Phase Two; the law that reads them is
    # skipped on extended routes, so they count none
    inside: np.ndarray
    source: tuple[np.ndarray, ...]  # the counts of s, alpha and gamma
    alpha: tuple[np.ndarray, ...]
    gamma: tuple[np.ndarray, ...]
    alpha_odd: np.ndarray  # parity of alpha
    # (hop, kind) of each of the ``inside`` hops of route i; read only for a
    # route that has some
    inside_hops: Callable[[int], Sequence[tuple[int, MoveKind]]]

    @property
    def lengths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase One, Two and Three lengths."""
        return self.len1, self.end2 - self.len1, self.length - self.end2


# one phase law's findings: the mask of the routes that break it, and the
# text of route i's fault
Law = tuple[np.ndarray, Callable[[int], str]]


def check_phase_invariants(trace: RouteTrace) -> PhaseReport:
    """Check the per-trace phase laws of the oriented router.

    With s the source, alpha the node after the settling prefix, gamma the
    node after the final crossing move, and X/chi/c the crossed count, the
    alternating-cycle count and the non-singleton relative cycle count
    toward the target:

    a. the settling prefix removes one crossed value per hop except its
       last: ``|X(alpha)| = |X(s)| - max(0, len1 - 1)``; chi never grows.
    b. if alpha has no unsettled value on the correct side (``ull = urr = 0``)
       and no crossed value in the half its own parity can reach (``ulr`` for
       an even alpha, ``url`` for an odd one), Phase Two has at most 2 hops,
       ``chi(gamma) <= 1`` and ``|X(gamma)| <= |X(alpha)| + 2``; otherwise
       Phase Two has at most ``2*max(ull, urr) + 1`` hops,
       ``chi(gamma) <= chi(alpha) + 1`` and
       ``|X(gamma)| <= |X(alpha)| + 2*max(ull, urr)``.
    c. Phase Three settles and seeds optimally: its length is exactly
       ``|X(gamma)| + c(gamma)``, and gamma has ``ull = urr = 0``.
    d. structure: Phase Two is all crossing moves except possibly its first;
       Phase Three contains no crossing move; there is exactly one final
       crossing when any crossing occurs, as the last of Phase Two, with a
       pre-final crossing (at most one) directly before it.

    Laws (b) and the all-crossing part of (d) describe an uninterrupted
    burn-down chain; they are skipped (``extended=True`` in the report) when
    a 2.4/2.5 hop had to displace a crossed value mid-chain, which hands the
    front to a settling run before the chain resumes.  Laws (a), (c) and the
    rest of (d) hold either way.  Phase Three holds no crossing move by
    construction: Phase Two ends at the last crossing-kind move.

    The check reads the stored columns only: one scan of ``moves`` finds the
    phase boundaries, the final and the pre-final crossings, and the counts
    are taken once per distinct node (alpha is s when the settling prefix is
    empty, gamma is alpha when Phase Two is).  Ragged columns are reported
    as such and no law is checked.  Violations are reported, never raised.
    """
    if _ragged(trace):
        len1, end2, *_ = _scan_moves(trace.moves)
        lengths = (len1, end2 - len1, len(trace.moves) - end2)
        return PhaseReport(
            False, ("columns have unequal lengths",), lengths, _extended(trace.cases)
        )
    summary = _phase_summary(trace)
    faults = _fault_texts(_phase_faults(summary), 0)
    len1, len2, len3 = (int(phase[0]) for phase in summary.lengths)
    return PhaseReport(not faults, tuple(faults), (len1, len2, len3), bool(summary.extended[0]))


def _extended(cases: Sequence[str]) -> bool:
    return "2.4" in cases or "2.5" in cases


def _phase_summary(trace: RouteTrace) -> PhaseSummary:
    """The one-route summary of a well-formed trace."""
    moves, nodes, t = trace.moves, trace.nodes, trace.target
    tpos, half = _positions(t), boundary(len(t)).half
    len1, end2, finals, prefinals, others = _scan_moves(moves)
    extended = _extended(trace.cases)
    s_counts = _set_counts(nodes[0], tpos, half)
    a_counts = _set_counts(nodes[len1], tpos, half) if len1 else s_counts
    g_counts = _set_counts(nodes[end2], tpos, half) if end2 > len1 else a_counts
    inside = () if extended else tuple((j, moves[j]) for j in others if len1 < j < end2)
    # every one-entry column is a row of one (k, 1) array
    rows = np.array(
        [
            len(moves),
            len1,
            end2,
            len(finals),
            finals[0] if finals else -1,
            len(prefinals),
            prefinals[0] if prefinals else -1,
            len(inside),
            _parity(nodes[0]) ^ (len1 & 1),
            *s_counts,
            *a_counts,
            *g_counts,
        ],
        dtype=np.int16,
    )[:, None]
    return PhaseSummary(
        *rows[:3],
        np.array([extended]),
        *rows[3:8],
        tuple(rows[9:15]),
        tuple(rows[15:21]),
        tuple(rows[21:27]),
        rows[8],
        lambda i: inside,
    )


def _fault_texts(laws: Sequence[Law], i: int) -> list[str]:
    """The faults of route ``i``: one text per law it breaks, in law order."""
    return [text(i) for broken, text in laws if broken[i]]


def _phase_faults(summary: PhaseSummary) -> list[Law]:
    """The phase laws of :func:`check_phase_invariants`, evaluated over the
    columns of ``summary``: for each law, in the order of that docstring,
    the mask of the routes that break it and the text of a route's fault.
    A route of no hops breaks none.
    """
    (
        m, len1, end2, extended, finals, final_hop, prefinals, prefinal_hop, inside,
        s_counts, a_counts, g_counts, alpha_odd, inside_hops,
    ) = summary
    live = m > 0
    len2, len3 = end2 - len1, m - end2
    laws: list[Law] = []

    def law(broken: np.ndarray, text: Callable[[int], str]) -> None:
        laws.append((broken & live, text))

    _, _, s_ulr, s_url, s_chi, _ = s_counts
    a_ull, a_urr, a_ulr, a_url, a_chi, _ = a_counts
    g_ull, g_urr, g_ulr, g_url, g_chi, g_cyc = g_counts
    # signed, so that no difference below wraps
    s_x, a_x, g_x = (
        ulr.astype(np.int16) + url for ulr, url in ((s_ulr, s_url), (a_ulr, a_url), (g_ulr, g_url))
    )

    expected = s_x - np.maximum(len1.astype(np.int16) - 1, 0)
    law(
        a_x != expected,
        lambda i: f"settling prefix of {len1[i]} changed crossed count {s_x[i]} -> {a_x[i]}, "
        f"expected {expected[i]}",
    )
    law(
        a_chi > s_chi,
        lambda i: f"alternating count grew over the settling prefix: {s_chi[i]} -> {a_chi[i]}",
    )

    # law (b); it does not apply where the burn-down chain was interrupted
    quiet = ~extended & (a_ull == 0) & (a_urr == 0) & (np.where(alpha_odd, a_url, a_ulr) == 0)
    law(quiet & (g_chi > 1), lambda i: f"chi(gamma) = {g_chi[i]} > 1 with no burn-down at alpha")
    law(quiet & (len2 > 2), lambda i: f"Phase Two has {len2[i]} hops, expected <= 2")
    law(
        quiet & (g_x > a_x + 2),
        lambda i: f"crossed count {a_x[i]} -> {g_x[i]} over Phase Two, expected <= +2",
    )
    burning = ~extended & ~quiet
    most = np.maximum(a_ull, a_urr).astype(np.int16)
    law(
        burning & (g_chi > a_chi.astype(np.int16) + 1),
        lambda i: f"chi grew {a_chi[i]} -> {g_chi[i]} over Phase Two, expected <= +1",
    )
    law(
        burning & (len2 > 2 * most + 1),
        lambda i: f"Phase Two has {len2[i]} hops, expected <= {2 * most[i] + 1}",
    )
    law(
        burning & (g_x > a_x + 2 * most),
        lambda i: f"crossed count {a_x[i]} -> {g_x[i]} over Phase Two, expected <= +{2 * most[i]}",
    )

    law((g_ull > 0) | (g_urr > 0), lambda i: f"gamma still has burn-down {g_ull[i]}+{g_urr[i]}")
    law(
        len3 != g_x + g_cyc,
        lambda i: f"Phase Three has {len3[i]} hops, expected {g_x[i]} + {g_cyc[i]}",
    )

    law(
        inside > 0,
        lambda i: "; ".join(
            f"hop {j + 1} inside Phase Two is {kind.value}" for j, kind in inside_hops(i)
        ),
    )
    crossing = end2 > len1  # some crossing occurs
    law(
        crossing & (finals != 1),
        lambda i: f"expected exactly one final crossing, found {finals[i]}",
    )
    law(
        crossing & (finals == 1) & (final_hop != end2 - 1),
        lambda i: "final crossing is not the last hop of Phase Two",
    )
    law(prefinals > 1, lambda i: f"{prefinals[i]} pre-final crossings")
    law(
        (prefinals == 1) & ((finals != 1) | (prefinal_hop + 1 != final_hop)),
        lambda i: "pre-final crossing is not directly before the final crossing",
    )
    return laws
