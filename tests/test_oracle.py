from __future__ import annotations

import functools
import itertools
import math
import random
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starroute import oracle
from starroute.oracle import (
    MAX_RANK_ORDER,
    MoveTable,
    SWEEP_BYTES,
    _InArcs,
    _lehmer,
    _sends,
    _witness,
    UNREACHABLE,
    bfs,
    diameter,
    diameters,
    distance,
    distance_fields,
    move_table,
    orbit_sources,
    rank,
    unrank,
)
from starroute.perm import apply_generator, parity
from starroute.topology import (
    Scheme,
    in_neighbors,
    neighbors,
    out_links,
    out_neighbors,
    relabelling,
)

from conftest import all_perms, perms_of


def test_rank_anchors():
    assert rank((1, 2, 3, 4)) == 0
    assert rank((1, 2, 4, 3)) == 1
    assert rank((4, 3, 2, 1)) == 23
    assert unrank(0, 4) == (1, 2, 3, 4)
    assert unrank(23, 4) == (4, 3, 2, 1)


def test_rank_is_lexicographic_at_n4():
    ordered = sorted(all_perms(4))
    assert [rank(p) for p in ordered] == list(range(24))
    assert [unrank(r, 4) for r in range(24)] == ordered


@given(st.integers(3, 8).flatmap(lambda n: perms_of(n)))
def test_unrank_inverts_rank(p):
    assert unrank(rank(p), len(p)) == p


def test_rank_bounds():
    with pytest.raises(ValueError):
        unrank(24, 4)
    with pytest.raises(ValueError):
        unrank(-1, 4)
    with pytest.raises(ValueError):
        rank(tuple(range(1, MAX_RANK_ORDER + 2)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_unrank_rejects_the_orders_rank_rejects(n):
    with pytest.raises(ValueError):
        rank(tuple(range(1, n + 1)))
    with pytest.raises(ValueError):
        unrank(0, n)


def test_move_table_matches_generator_action():
    table = move_table(4)
    assert table.perms.shape == (24, 4)
    assert len(table.links) == 3
    for r in (0, 5, 17, 23):
        p = unrank(r, 4)
        for link in (2, 3, 4):
            q_rank = int(table.step(r, link))
            assert unrank(q_rank, 4) == tuple(
                p[link - 1] if i == 0 else (p[0] if i == link - 1 else p[i])
                for i in range(4)
            )
    assert not table.odd[0]
    assert bool(table.odd[rank((2, 1, 3, 4))])
    frontier = np.zeros((24, 1), dtype=np.uint8)
    for link in (0, 1, 5):
        with pytest.raises(ValueError, match="lies in 2..4"):
            table.step(0, link)
        with pytest.raises(ValueError, match="lies in 2..4"):
            table.move_rows(frontier, link, np.empty_like(frontier))


@pytest.mark.parametrize("n", range(3, 10))
def test_move_table_rows_follow_unrank(n):
    # every rank through order 6, seeded ranks beyond; parity cross-checks
    # the Lehmer-digit parity of the table against perm.parity
    table = move_table(n)
    size = math.factorial(n)
    assert table.perms.shape == (size, n) and len(table.links) == n - 1
    ranks = range(size) if n <= 6 else random.Random(n).sample(range(size), 300)
    for r in ranks:
        p = unrank(r, n)
        assert tuple(table.perms[r].tolist()) == p
        assert bool(table.odd[r]) == bool(parity(p))
    for link in range(2, n + 1):
        assert table.step(np.array(ranks), link).tolist() == [
            rank(apply_generator(unrank(r, n), link)) for r in ranks
        ]


def test_move_table_holds_each_link_once(monkeypatch):
    # a fresh order-8 table holds its parities and one intp entry per Lehmer
    # block of each link, no second form of any link and no rows; its build
    # peak passes that by at most one parity-sized array (no transient rows,
    # no n!-entry temporary beside both full-length links), and the rows come
    # on first read
    monkeypatch.setattr(oracle, "_tables", {})
    n = 8
    size = math.factorial(n)
    blocks = sum(size // math.factorial(n - link) for link in range(2, n + 1))
    tracemalloc.start()
    try:
        table = move_table(n)
        held, peak = tracemalloc.get_traced_memory()
        built = "perms" in vars(table)
        perms = table.perms
        read = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not built
    assert held <= size + 8 * blocks + 16 * 1024, held
    assert peak <= held + size + 16 * 1024, (peak, held)
    assert size * n <= read - held <= size * n + 1024, read - held
    assert perms.shape == (size, n) and perms.dtype == np.uint8
    assert table.perms is perms and table.odd.nbytes == size
    # the diameters read only the links and the parities
    diameters(9, (None, Scheme.FUJITA, Scheme.DAY_TRIPATHI), "orbit")
    assert "perms" not in vars(move_table(9))


@functools.cache
def _adjacency(n, scheme):
    """Nodes in lexicographic order, their indices, and each node's out-neighbour
    indices under ``scheme`` (None undirected), from the topology alone."""
    nodes = all_perms(n)
    index = {p: i for i, p in enumerate(nodes)}
    adj = [
        [index[q] for _, q in (neighbors(p) if scheme is None else out_neighbors(p, scheme))]
        for p in nodes
    ]
    return nodes, index, adj


def _plain_bfs(adj, start):
    """Distances from node ``start`` by a queue BFS; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _naive_distances(source, scheme):
    nodes, index, adj = _adjacency(len(source), scheme)
    dist = _plain_bfs(adj, index[source])
    return {p: d for p, d in zip(nodes, dist) if d >= 0}


# the three graphs: undirected and each orientation
GRAPHS = [None, Scheme.FUJITA, Scheme.DAY_TRIPATHI]


@pytest.mark.parametrize("scheme", GRAPHS)
def test_bfs_agrees_with_naive_search_n4(scheme):
    source = (3, 1, 4, 2)
    field = bfs(source, scheme)
    expected = _naive_distances(source, scheme)
    for t in all_perms(4):
        assert field.distance(t) == expected.get(t)


def test_bfs_agrees_with_naive_search_n5_directed():
    source = (1, 2, 3, 4, 5)
    field = bfs(source, Scheme.FUJITA)
    expected = _naive_distances(source, Scheme.FUJITA)
    assert field.eccentricity() == max(expected.values())
    for t in all_perms(5):
        assert field.distance(t) == expected.get(t)


def test_distance_field_accessors():
    field = bfs((1, 2, 3, 4, 5))
    assert field.distance((1, 2, 3, 4, 5)) == 0
    assert field.eccentricity() == 6
    assert UNREACHABLE not in field.dist
    far = field.farthest()
    assert field.distance(far) == 6


@given(perms_of(5), perms_of(5))
def test_undirected_distance_is_a_metric(s, t):
    d = distance(s, t)
    assert d == distance(t, s)
    assert (d == 0) == (s == t)
    assert d <= 6


@settings(max_examples=50)
@given(perms_of(5), perms_of(5))
def test_directed_distance_dominates_undirected(s, t):
    du = distance(s, t)
    df = distance(s, t, Scheme.FUJITA)
    assert df >= du


def test_eccentricity_identity():
    assert bfs((1, 2, 3, 4, 5)).eccentricity() == 6
    assert bfs((1, 2, 3, 4, 5), Scheme.FUJITA).eccentricity() == 10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("scheme", [Scheme.FUJITA, Scheme.DAY_TRIPATHI])
def test_orientations_are_strongly_connected(n, scheme):
    for source in (tuple(range(1, n + 1)), (2, 1) + tuple(range(3, n + 1))):
        field = bfs(source, scheme)
        assert UNREACHABLE not in field.dist


def test_unreachable_sentinel_value():
    assert UNREACHABLE == 0xFF


def test_undirected_diameters_frozen():
    assert [diameter(n).value for n in range(3, 7)] == [3, 4, 6, 7]


def test_directed_diameters_frozen_small():
    assert diameter(4, Scheme.FUJITA).value == 9
    assert diameter(5, Scheme.FUJITA).value == 10
    assert diameter(5, Scheme.DAY_TRIPATHI).value == 10


def test_scheme_alone_selects_the_orientation():
    # the scheme is the graph: no second setting can drop it
    res = diameter(6, scheme=Scheme.DAY_TRIPATHI)
    assert (res.value, res.directed, res.scheme) == (11, True, Scheme.DAY_TRIPATHI)
    field = bfs((1, 2, 3, 4, 5), Scheme.DAY_TRIPATHI)
    assert (field.directed, field.scheme) == (True, Scheme.DAY_TRIPATHI)


S5 = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: bfs(S5, True), id="bfs-bool"),
    pytest.param(lambda: distance(S5, S5, "fujita"), id="distance-str"),
    pytest.param(lambda: list(distance_fields([S5], 1)), id="distance-fields-int"),
    pytest.param(lambda: list(distance_fields([], True)), id="distance-fields-empty"),
    pytest.param(lambda: diameter(5, True), id="diameter-bool"),
    pytest.param(lambda: diameters(5, (None, True)), id="diameters-bool"),
])
def test_only_none_or_a_scheme_names_a_graph(call):
    with pytest.raises(ValueError, match="scheme must be None"):
        call()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("scheme", [None, Scheme.FUJITA])
def test_orbit_mode_matches_exhaustive(n, scheme):
    a = diameter(n, scheme, mode="orbit")
    b = diameter(n, scheme, mode="exhaustive")
    assert a.value == b.value


def _reference_diameter(n, scheme, mode):
    """One plain BFS per source in lexicographic (rank) order; the first strict
    maximum wins, with its first farthest node in that order."""
    nodes, index, adj = _adjacency(n, scheme)
    sources = orbit_sources(n) if mode == "orbit" else nodes
    best = None
    for source in sources:
        dist = _plain_bfs(adj, index[source])
        ecc = max(dist)
        if best is None or ecc > best[0]:
            best = (ecc, source, nodes[dist.index(ecc)])
    return best


# exhaustive n = 5 has 120 sources: one full sweep of 64 and one of 56
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("scheme", GRAPHS)
@pytest.mark.parametrize("mode", ["exhaustive", "orbit"])
def test_diameter_matches_per_source_reference(n, scheme, mode):
    res = diameter(n, scheme, mode)
    assert (res.value, res.witness_source, res.witness_target) == _reference_diameter(
        n, scheme, mode
    )


# n = 5 has 120 sources: one full batch of 64 and a partial one of 56
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("scheme", GRAPHS)
def test_distance_fields_match_naive_search(n, scheme):
    nodes = all_perms(n)
    fields = list(distance_fields(nodes, scheme))
    assert [field.source for field in fields] == nodes
    for field in fields:
        assert (field.directed, field.scheme) == (scheme is not None, scheme)
        expected = _naive_distances(field.source, scheme)
        # rank order is lexicographic order
        assert field.dist.tolist() == [expected.get(t, UNREACHABLE) for t in nodes]


# each word width, its fullest batch and one source past it (65 takes two sweeps)
WIDTHS = {1: np.uint8, 2: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16,
          17: np.uint32, 32: np.uint32, 33: np.uint64, 64: np.uint64}


@pytest.mark.parametrize("scheme", GRAPHS)
def test_distance_fields_every_word_width(scheme):
    nodes = all_perms(5)
    arcs = _InArcs.build(move_table(5), [_sends(5, scheme)])
    for width in [*WIDTHS, 65]:
        sources = random.Random(width).sample(nodes, width)
        fields = distance_fields(sources, scheme)
        for source, field in zip(sources, fields, strict=True):
            expected = _naive_distances(source, scheme)
            assert field.dist.tolist() == [expected.get(t, UNREACHABLE) for t in nodes]
        if width in WIDTHS:
            levels = list(arcs.sweep(np.arange(width)))
            assert {level.dtype for level in levels} == {np.dtype(WIDTHS[width])}


# past one word: two full words, and a partial last word at 100; sources are
# drawn with repeats (order 5 has 120 vertices), each repeat a bit of its own
@pytest.mark.parametrize("width", [65, 100, 128])
@pytest.mark.parametrize("scheme", GRAPHS)
def test_wide_sweep_levels_match_naive_search(scheme, width):
    nodes = all_perms(5)
    arcs = _InArcs.build(move_table(5), [_sends(5, scheme)])
    sources = random.Random(width).choices(range(len(nodes)), k=width)
    expected = [_naive_distances(nodes[r], scheme) for r in sources]
    levels = 0
    for d, level in enumerate(arcs.sweep(np.array(sources))):
        assert level.shape == (len(nodes), 2) and level.dtype == np.uint64
        for i, dist in enumerate(expected):
            reached = (level[:, i // 64] >> np.uint64(i % 64)) & np.uint64(1)
            assert reached.tolist() == [int(dist.get(t) == d) for t in nodes]
        levels += 1
    assert levels == 1 + max(max(dist.values()) for dist in expected)


@pytest.mark.parametrize("bit", [0, 5, 63])
def test_witness_reads_past_the_first_word(bit):
    # word 0 empty, word 1 with one bit set at two ranks
    frontier = np.zeros((120, 2), dtype=np.uint64)
    frontier[[90, 37], 1] = np.uint64(1 << bit)
    assert _witness(frontier) == (64 + bit, 37)


class _FirstLevel(Exception):
    pass


# the frontier bound keeps peak memory flat: two words at order 7, one from 8
@pytest.mark.parametrize("n,words", [(7, 2), (8, 1)])
def test_exhaustive_frontier_stays_within_the_byte_bound(monkeypatch, n, words):
    sweep = _InArcs.sweep
    seen = []

    def first_level(self, sources):
        seen.append(next(sweep(self, sources)))
        raise _FirstLevel

    monkeypatch.setattr(_InArcs, "sweep", first_level)
    with pytest.raises(_FirstLevel):
        diameter(n, mode="exhaustive")
    (frontier,) = seen
    assert frontier.shape == (math.factorial(n), words) and frontier.dtype == np.uint64
    # one word is the floor, even where one word passes the bound
    assert frontier.nbytes <= max(SWEEP_BYTES, 8 * math.factorial(n))


# each graph alone, and the three in one build, two source bits each
BUILDS = [pytest.param((scheme,), id=str(scheme)) for scheme in GRAPHS] + [
    pytest.param(tuple(GRAPHS), id="shared")
]


@pytest.mark.parametrize("n", range(3, 10))
def test_link_columns_are_block_permutations(n):
    # swapping positions 1 and j keeps the Lehmer digits of j+1..n, the
    # rank modulo b = (n - j)!, so each link permutes blocks of b ranks
    table = move_table(n)
    size = math.factorial(n)
    v = np.arange(size)
    # every row's rank and parity, from its own digits
    positions = list(table.perms.T)
    ranks, odd = _lehmer(positions)
    assert (ranks == v).all() and (odd == table.odd).all()
    # the undirected graph enters both parities over every link: one group
    ((entered, links),) = _InArcs.build(table, [None]).groups
    assert entered == ({0}, {0}) and links == list(range(2, n + 1))
    for link, (index, b) in zip(range(2, n + 1), table.links):
        assert b == math.factorial(n - link) and index.dtype == np.intp
        assert (np.sort(index) == np.arange(size // b)).all()
        # each rank steps to its swapped row's rank, of the other parity
        swapped = list(positions)
        swapped[0], swapped[link - 1] = swapped[link - 1], swapped[0]
        ranks, odd = _lehmer(swapped)
        assert (table.step(v, link) == ranks).all() and (odd != table.odd).all()


@pytest.mark.parametrize("n", range(3, 9))
def test_move_rows_pulls_each_rows_neighbour(n):
    # both forms against the frontier's rows at the Lehmer ranks of the rows
    # with positions 1 and j swapped, on a one-byte frontier and on two
    # uint64 words: dense and sparse gathers each checked apart from the sweep
    table = move_table(n)
    size = math.factorial(n)
    rng = np.random.default_rng(n)
    frontiers = [
        np.frombuffer(rng.bytes(size), dtype=np.uint8).reshape(size, 1),
        np.frombuffer(rng.bytes(16 * size), dtype=np.uint64).reshape(size, 2),
    ]
    rows = rng.integers(0, size, size // 3 + 1)  # unsorted, with repeats
    positions = list(table.perms.T)
    for link in range(2, n + 1):
        swapped = list(positions)
        swapped[0], swapped[link - 1] = swapped[link - 1], swapped[0]
        neighbour, _ = _lehmer(swapped)
        for frontier in frontiers:
            out = np.empty_like(frontier)
            table.move_rows(frontier, link, out)
            assert (out == frontier[neighbour]).all()
            out = np.empty((len(rows), frontier.shape[1]), dtype=frontier.dtype)
            table.move_rows(frontier, link, out, rows)
            assert (out == frontier[neighbour[rows]]).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("graphs", BUILDS)
def test_in_arc_columns_match_topology(n, graphs):
    table = move_table(n)
    arcs = _InArcs.build(table, [_sends(n, scheme) for scheme in graphs])
    assert arcs.graphs == len(graphs) and arcs.table is table
    # each link once, with the (even, odd) graph sets of its group
    grouped = [(entered, link) for entered, group in arcs.groups for link in group]
    assert sorted(link for _, link in grouped) == list(range(2, n + 1))
    v = np.arange(math.factorial(n))
    ranks = np.stack([table.step(v, link) for _, link in grouped], axis=1)
    nodes = all_perms(n)
    index = {p: i for i, p in enumerate(nodes)}
    for v, p in enumerate(nodes):
        row, odd = ranks[v].tolist(), int(table.odd[v])
        for g, scheme in enumerate(graphs):
            # graph g enters v over exactly the links whose group names it at v's parity
            entered = sorted(u for u, (into, _) in zip(row, grouped) if g in into[odd])
            arcs_in = neighbors(p) if scheme is None else in_neighbors(p, scheme)
            assert entered == sorted(index[q] for _, q in arcs_in)
    if len(graphs) == 1:
        # one group undirected; a directed graph's even in-links and its odd ones
        assert len(arcs.groups) == (1 if graphs[0] is None else 2)


# a graph's share of the sources: one bit, two (the orbit layout), and five,
# which takes the three graphs' sources past one byte; the sweep reads each
# graph's share from the number of sources
@pytest.mark.parametrize("share", [1, 2, 5])
def test_shared_sweep_levels_match_naive_search(share):
    nodes = all_perms(5)
    arcs = _InArcs.build(move_table(5), [_sends(5, scheme) for scheme in GRAPHS])
    # sources of both parities, repeats allowed, so every mask is read at both parities
    sources = random.Random(share).choices(range(len(nodes)), k=3 * share)
    expected = [
        _naive_distances(nodes[r], GRAPHS[i // share]) for i, r in enumerate(sources)
    ]
    levels = 0
    for d, level in enumerate(arcs.sweep(np.array(sources))):
        assert level.shape == (len(nodes), 1)
        for i, dist in enumerate(expected):
            reached = (level[:, 0] >> i) & 1
            assert reached.tolist() == [int(dist.get(t) == d) for t in nodes]
        levels += 1
    assert levels == 1 + max(max(dist.values()) for dist in expected)


def _exhaustive(n, scheme):
    diameter(n, scheme, "exhaustive")


def _one_source(n, scheme):
    bfs(unrank(1, n), scheme)  # an odd source


def _record_gathers(monkeypatch):
    """Wrap :meth:`MoveTable.move_rows` and :meth:`_InArcs.sweep`: each sweep
    run appends ``(sources, pulls)``, ``pulls[d]`` the rows of each gather
    that level d made from its frontier, one entry per link: n! for a dense
    link, the rows a sparse one pulls into."""
    move_rows, sweep = MoveTable.move_rows, _InArcs.sweep
    sweeps, current = [], [None]

    def counted_move_rows(table, frontier, link, out, rows=None):
        if current[0] is not None:
            assert frontier is current[0]
            sweeps[-1][1][-1].append(len(frontier) if rows is None else len(rows))
        return move_rows(table, frontier, link, out, rows)

    def counted_sweep(self, sources):
        sweeps.append((sources, []))
        for frontier in sweep(self, sources):
            current[0] = frontier
            sweeps[-1][1].append([])
            yield frontier
        current[0] = None

    monkeypatch.setattr(MoveTable, "move_rows", counted_move_rows)
    monkeypatch.setattr(_InArcs, "sweep", counted_sweep)
    return sweeps


def _forms(pulls, size):
    """Each level's form, D where it gathered every link over all ``size``
    rows and S where it gathered every link over fewer."""
    forms = "".join(
        "D" if all(rows == size for rows in gathers)
        else "S" if all(rows < size for rows in gathers) else "?"
        for gathers in pulls
    )
    assert "?" not in forms, pulls
    return forms


# one-graph directed sweeps from sources of one parity: every batch of an
# exhaustive run, and one-source bfs at order 8, whose first and last levels
# are sparse
@pytest.mark.parametrize(
    "run,n,parities", [(_exhaustive, 5, {0, 1}), (_exhaustive, 7, {0, 1}), (_one_source, 8, {1})]
)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_parity_sweeps_gather_each_level_in_links(monkeypatch, run, n, parities, scheme):
    sends = _sends(n, scheme)
    # an even vertex is entered over the links outside the send set, an odd one over it
    in_degree = (n - 1 - len(sends), len(sends))
    table = move_table(n)
    sweeps = _record_gathers(monkeypatch)
    run(n, scheme)
    swept = []
    for sources, pulls in sweeps:
        (odd,) = set(table.odd[sources].tolist())  # one parity per sweep
        # level d pulls level d + 1, on vertices of parity odd ^ (d + 1) % 2,
        # in any form
        assert [len(gathers) for gathers in pulls] == [
            in_degree[(odd + d + 1) % 2] for d in range(len(pulls))
        ]
        swept.append(odd)
    # an exhaustive run sweeps the even ranks, then the odd ones
    assert swept == sorted(swept) and set(swept) == parities
    if run is _one_source:
        assert re.fullmatch("S+D+SS+", _forms(pulls, math.factorial(n)))


# many sources per vertex: the exhaustive batches at order 7 (128 sources,
# 88 in the last of each parity) and the order-6 distance blocks (64, then 16)
@pytest.mark.parametrize("scheme", GRAPHS)
def test_many_source_sweeps_take_only_dense_levels(monkeypatch, scheme):
    sweeps = _record_gathers(monkeypatch)
    diameter(7, scheme, "exhaustive")
    fields = list(distance_fields(all_perms(6), scheme))
    widths = [len(sources) for sources, _ in sweeps]
    assert widths == [128] * 19 + [88] + [128] * 19 + [88] + [64] * 11 + [16]
    assert len(fields) == 720
    for sources, pulls in sweeps:
        size = math.factorial(7 if len(sources) in (128, 88) else 6)
        assert set(_forms(pulls, size)) == {"D"}


def _reference_distances(table, sends, source):
    """Distances from rank ``source`` by a level-synchronous search over
    :meth:`MoveTable.step`, each vertex sending on the links of the send set
    ``sends`` (every link undirected); -1 where unreachable."""
    dist = np.full(len(table.odd), -1)
    dist[source] = 0
    frontier, d = np.array([source]), 0
    while len(frontier):
        d += 1
        reached = []
        for link in range(2, table.n + 1):
            senders = frontier
            if sends is not None:
                # even vertices send on the send set, odd ones on the other links
                senders = frontier[table.odd[frontier] != (link in sends)]
            reached.append(table.step(senders, link))
        frontier = np.unique(np.concatenate(reached))
        frontier = frontier[dist[frontier] < 0]
        dist[frontier] = d
    return dist


def _orbit_layout(n):
    """The shared orbit sweep's sources: two per graph."""
    return [rank(s) for s in orbit_sources(n)] * len(GRAPHS)


def _random_ranks(width):
    return lambda n: random.Random(width).sample(range(math.factorial(n)), width)


# one source in each graph, the three-graph orbit build, 64 sources, and 100
# sources, whose last word holds 36 of its 64 bits; the sweep's forms at
# orders 7 and 8, S a sparse level and D a dense one: a sparse head, a dense
# middle and a sparse tail, which pulls the last level and then finds no row
# left to reach.  64 or 100 sources over 5 040 rows are many per vertex and
# run dense throughout; over 40 320 the 64 sources keep some row unseen
# until the last level, so only the empty pull after it is sparse.
REFERENCE_SWEEPS = {
    "undirected-1": ([None], lambda n: [0], "S+D+SS+", "S+D+SS+"),
    "fujita-1": ([Scheme.FUJITA], lambda n: [1], "S+D+SS+", "S+D+SS+"),
    "day-tripathi-1": ([Scheme.DAY_TRIPATHI], lambda n: [2], "S+D+SS+", "S+D+SS+"),
    "orbit": (GRAPHS, _orbit_layout, "S+D+SS+", "S+D+SS+"),
    "undirected-64": ([None], _random_ranks(64), "D+", "SD+S"),
    # the tail counts only source bits: unmasked, the 28 spare bits of the
    # last word would leave every row unseen and the tail would never start
    "fujita-100": ([Scheme.FUJITA], _random_ranks(100), "D+", "SD+SS+"),
}


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("build", REFERENCE_SWEEPS)
def test_sweep_levels_match_reference_search(monkeypatch, n, build):
    graphs, sources, *forms = REFERENCE_SWEEPS[build]
    table, size = move_table(n), math.factorial(n)
    sources = sources(n)
    share = len(sources) // len(graphs)
    dist = np.stack([
        _reference_distances(table, _sends(n, graphs[i // share]), r)
        for i, r in enumerate(sources)
    ])
    sweeps = _record_gathers(monkeypatch)
    arcs = _InArcs.build(table, [_sends(n, scheme) for scheme in graphs])
    levels = 0
    for d, level in enumerate(arcs.sweep(np.array(sources))):
        # bit by bit: bit i of row v set where v is at distance d from
        # sources[i], every bit past the last source clear
        words = level.astype(level.dtype.newbyteorder("<"), copy=False)
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert (bits[:, : len(sources)] == (dist == d).T).all()
        assert not bits[:, len(sources) :].any()
        levels += 1
    assert levels == 1 + dist.max()
    ((_, pulls),) = sweeps
    level_forms = _forms(pulls, size)
    assert re.fullmatch(forms[n - 7], level_forms)
    # a sparse level gathers fewer than n! rows over all its links
    assert all(sum(gathers) < size for form, gathers in zip(level_forms, pulls) if form == "S")


SHARED_RUNS = [(n, mode) for n in range(3, 8) for mode in ("exhaustive", "orbit")]


@pytest.mark.parametrize("n,mode", SHARED_RUNS + [(8, "orbit"), (9, "orbit")])
def test_shared_diameters_equal_one_graph_runs(n, mode):
    # value, witness source and target, and mode, field by field
    one_graph = tuple(diameter(n, scheme, mode) for scheme in GRAPHS)
    assert diameters(n, tuple(GRAPHS), mode) == one_graph


@pytest.mark.parametrize("schemes", [(), (None, None), (Scheme.FUJITA, None, Scheme.FUJITA)])
def test_diameters_take_each_graph_once(schemes):
    with pytest.raises(ValueError, match="one or more graphs, each named once"):
        diameters(5, schemes)


def _outgoing(n, scheme):
    """out[odd, link]: whether a vertex of that parity sends on the link."""
    out = np.zeros((2, n + 1), dtype=bool)
    for odd, links in enumerate(out_links(n, scheme)):
        out[odd, sorted(links)] = True
    return out


def _even_relabelling(n):
    """The first even s in lexicographic order, fixing position 1, with
    s^-1(Fujita's send set) = Day-Tripathi's."""
    fujita, day_tripathi = (out_links(n, scheme)[0] for scheme in Scheme)
    for rest in itertools.permutations(range(2, n + 1)):
        s = (1, *rest)
        if parity(s) == 0 and {s[link - 1] for link in day_tripathi} == fujita:
            return s
    raise AssertionError(f"no even relabelling at order {n}")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_fujita_and_day_tripathi_are_one_graph(n):
    # the first even s found by search, and the one topology.relabelling builds
    searched, library = _even_relabelling(n), relabelling(n, Scheme.DAY_TRIPATHI)
    if n == 5:
        assert (searched, library) == ((1, 2, 5, 3, 4), (1, 3, 4, 2, 5))
    table = move_table(n)
    fujita, day_tripathi = _outgoing(n, Scheme.FUJITA), _outgoing(n, Scheme.DAY_TRIPATHI)
    assert (fujita != day_tripathi).any()  # the identity relabelling does not do it
    odd = table.odd.view(np.uint8)
    v = np.arange(len(table.perms))
    for s in (searched, library):
        # row v of relabelled is v∘s: (v∘s)(p) = v(s(p))
        relabelled = table.perms[:, [p - 1 for p in s]]
        image, image_odd = _lehmer(list(relabelled.T))
        assert sorted(image.tolist()) == list(range(len(image)))
        assert (image_odd == table.odd).all()  # s is even
        for link in range(2, n + 1):
            image_link = s.index(link) + 1  # s^-1(link)
            # the edge at v over link is the edge at v∘s over s^-1(link) ...
            ends = relabelled[table.step(v, link)]
            assert (ends == table.perms[table.step(image, image_link)]).all()
            # ... and both schemes direct it the same way
            assert (fujita[odd, link] == day_tripathi[odd, image_link]).all()


def _send_set_diameter(n, sends, mode):
    """The diameter of the parity-link orientation whose even vertices send
    on ``sends``, from every source or from the two orbit sources."""
    arcs = _InArcs.build(move_table(n), [sends])
    if mode == "orbit":
        batches = [np.array([rank(s) for s in orbit_sources(n)])]
    else:
        size = math.factorial(n)
        batches = np.split(np.arange(size), range(64, size, 64))
    return max(sum(1 for _ in arcs.sweep(sources)) - 1 for sources in batches)


# diameters by send-set size 1..n-2
SEND_SET_DIAMETERS = {4: [9, 9], 5: [11, 10, 11], 6: [13, 11, 11, 13], 7: [17, 14, 14, 14, 17]}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_send_set_size_decides_the_diameter(n):
    by_size = {}
    for size in range(1, n - 1):
        for sends in itertools.combinations(range(2, n + 1), size):
            value = _send_set_diameter(n, frozenset(sends), "orbit")
            if n <= 6:
                assert _send_set_diameter(n, frozenset(sends), "exhaustive") == value
            by_size.setdefault(size, set()).add(value)
    assert [by_size[size] for size in sorted(by_size)] == [{d} for d in SEND_SET_DIAMETERS[n]]
    # both named schemes send on ceil((n-1)/2) = n//2 links
    assert {diameter(n, scheme).value for scheme in Scheme} == by_size[n // 2]


def test_distance_fields_edge_inputs():
    assert list(distance_fields([])) == []
    s = (2, 4, 1, 3)
    twice = list(distance_fields([s, s], Scheme.FUJITA))
    assert [f.dist.tolist() for f in twice] == [bfs(s, Scheme.FUJITA).dist.tolist()] * 2
    with pytest.raises(ValueError, match="order mismatch"):
        list(distance_fields([(1, 2, 3), (1, 2, 3, 4)]))


@pytest.mark.parametrize("bad", [
    pytest.param((1, 2, 2, 4), id="repeated"),
    pytest.param((0, 1, 2, 3), id="zero"),
    pytest.param((1, 2, 3, 5), id="above-n"),
    pytest.param((1, 2, 1, 2), id="two-symbols"),
])
def test_distance_fields_reject_a_malformed_source(bad):
    # alone, and as the 73rd source, in the second batch of 64
    for call in (lambda: bfs(bad), lambda: list(distance_fields([*all_perms(4) * 3, bad]))):
        with pytest.raises(ValueError, match="not a permutation"):
            call()


def test_distance_fields_reject_a_two_symbol_tuple():
    with pytest.raises(ValueError, match="orders 3..9, got 2"):
        bfs((2, 1))
    with pytest.raises(ValueError, match="order mismatch"):
        list(distance_fields([(1, 2, 3, 4), (2, 1)], Scheme.FUJITA))


def test_distance_field_counts_match_the_sweep_levels():
    # every bit plane of the write, bit 4 included, over every vertex
    field = bfs(tuple(range(1, 9)), Scheme.FUJITA)
    arcs = _InArcs.build(move_table(8), [_sends(8, Scheme.FUJITA)])
    counts = [np.count_nonzero(level) for level in arcs.sweep(np.array([0]))]
    assert np.bincount(field.dist).tolist() == counts
    assert field.eccentricity() == len(counts) - 1 == 16 == diameter(8, Scheme.FUJITA).value


@pytest.mark.parametrize("scheme", GRAPHS)
def test_one_source_field_holds_its_planes_not_its_hits(scheme):
    # the sweep's four frontier buffers, the field, a reached plane and up to
    # five distance planes, one byte per vertex each, and the sparse row lists;
    # a write that scatters each level's hits by index needs 15-19 bytes per vertex
    size = math.factorial(9)
    move_table(9)
    tracemalloc.start()
    try:
        bfs(tuple(range(1, 10)), scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * size, peak


def test_diameter_result_witness_is_consistent():
    res = diameter(5, Scheme.FUJITA)
    field = bfs(res.witness_source, Scheme.FUJITA)
    assert field.distance(res.witness_target) == res.value
    assert res.mode == "exhaustive"
    assert res.scheme is Scheme.FUJITA


def test_diameter_rejects_unknown_mode():
    with pytest.raises(ValueError):
        diameter(4, mode="sampled")


def test_population_sizes_match_factorials():
    for n in (3, 4, 5):
        assert len(move_table(n).perms) == math.factorial(n)
