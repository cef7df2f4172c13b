from __future__ import annotations

import itertools

from hypothesis import strategies as st

from starroute import routetree, routing
from starroute.perm import positions
from starroute.routetree import RouteTree


def perms_of(n: int) -> st.SearchStrategy[tuple[int, ...]]:
    return st.permutations(list(range(1, n + 1))).map(tuple)


@st.composite
def perm_pairs(draw, min_n: int = 3, max_n: int = 8):
    """Two permutations of a shared, drawn order."""
    n = draw(st.integers(min_n, max_n))
    return draw(perms_of(n)), draw(perms_of(n))


def all_perms(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def tamper_picks(monkeypatch, target, change) -> None:
    """Replace the oriented router's decisions toward ``target``:
    ``change(node, (link, kind, case))`` gives the decision taken at
    ``node``, in the single-pair pick and in the route trees' kernel output
    alike."""
    pick = routing._oriented_pick
    target_pos = positions(target)  # the pick knows its target by this index

    def tampered_pick(c, odd, tpos, half):
        decision = pick(c, odd, tpos, half)
        return change(tuple(c), decision) if tpos == target_pos else decision

    decide = RouteTree._decide

    def tampered_decide(tree, dest, odd):
        counts, link, move, case = decide(tree, dest, odd)
        for j, t in enumerate(tree.targets):
            if t != target:
                continue
            for row in range(j * tree.size, (j + 1) * tree.size):
                if case[row] == routetree._NO_CASE:
                    continue
                kind, label = routetree._KINDS[move[row]], routing.CASES[case[row]]
                new_link, kind, label = change(tree.node(row), (int(link[row]), kind, label))
                link[row] = new_link
                move[row] = routetree._KINDS.index(kind)
                case[row] = routing.CASES.index(label)
        return counts, link, move, case

    monkeypatch.setattr(routing, "_oriented_pick", tampered_pick)
    monkeypatch.setattr(RouteTree, "_decide", tampered_decide)
