"""Acceptance suite: one test per criterion, each printing a PASS line.

The oriented-route sweeps at n = 5, 6 (all ordered pairs) and n = 7
(every node into the two canonical targets) are shared across criteria
through module-scoped fixtures, so the n = 6 sweep runs exactly once.
Under reduced sources the distance checks take the same pairs as the
route checks: every node into the two canonical targets.  Run
with ``-v`` (optionally ``-s`` to see the audit lines on passing runs).
"""
from __future__ import annotations

import csv
import os
import random
from math import factorial
from pathlib import Path

import pytest

from starroute.harness import DISTANCE_CHECKS, ROUTE_CHECKS, hop_cap, verify
from starroute.oracle import diameter
from starroute.perm import apply_generator, compose, parity
from starroute.topology import Scheme, arc_direction

ARTIFACT = Path(__file__).resolve().parent.parent / "results" / "diameter_table.csv"


def _audit(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def sweep5():
    return verify(5, checks=ROUTE_CHECKS)


@pytest.fixture(scope="module")
def sweep6():
    return verify(6, checks=ROUTE_CHECKS)


@pytest.fixture(scope="module")
def sweep7():
    return verify(7, checks=ROUTE_CHECKS, sources="reduced")


def _assert_clean(report, names):
    for name in names:
        result = report.check(name)
        assert result.ok, f"{name}: {result.violations[:3]}"


def test_criterion_1_undirected_diameter():
    expected = {3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 10}
    measured = {}
    for n, want in expected.items():
        mode = "exhaustive" if n <= 7 else "orbit"
        measured[n] = diameter(n, mode=mode).value
        assert measured[n] == want, f"n={n}: {measured[n]} != {want}"
        assert want == (3 * (n - 1)) // 2
    _audit(1, f"undirected diameters {measured} match 3(n-1)/2 rounded down")


@pytest.mark.parametrize("n", [5, 6])
def test_criterion_2_distance_formulas_full(n):
    report = verify(n, checks=DISTANCE_CHECKS)
    _assert_clean(report, DISTANCE_CHECKS)
    pairs = report.check("distance-vs-bfs").population
    _audit(2, f"n={n}: both closed forms equal BFS on all {pairs} ordered pairs")


def test_criterion_2_distance_formulas_reduced_seven():
    report = verify(7, checks=DISTANCE_CHECKS, sources="reduced")
    _assert_clean(report, DISTANCE_CHECKS)
    pairs = report.check("distance-vs-bfs").population
    _audit(2, f"n=7 reduced: both closed forms equal BFS on {pairs} pairs")


# beyond criterion 2's populations: every node into the same canonical targets at n = 8, 9
@pytest.mark.parametrize("n", [8, 9])
def test_distance_formulas_reduced_eight_and_nine(n):
    report = verify(n, checks=DISTANCE_CHECKS, sources="reduced")
    _assert_clean(report, DISTANCE_CHECKS)
    assert [c.population for c in report.checks] == [2 * factorial(n)] * 2


BOUND_CHECKS = ["route-validity", "hop-bound", "stretch-bound", "diameter-bound"]


def _bound_audit(report, label: str, longest: int) -> None:
    _assert_clean(report, BOUND_CHECKS)
    result = report.check("diameter-bound")
    assert result.figures["longest"] == longest
    _audit(
        3,
        f"{label}: {result.population} routes, zero violations, "
        f"longest {result.figures['longest']} of cap {hop_cap(report.n)}",
    )


def test_criterion_3_bound_suite_five(sweep5):
    _bound_audit(sweep5, "n=5", 10)


def test_criterion_3_bound_suite_six(sweep6):
    _bound_audit(sweep6, "n=6", 13)


def test_criterion_3_bound_suite_seven_reduced(sweep7):
    _bound_audit(sweep7, "n=7 reduced", 14)


def test_criterion_3_and_4_order_eight_reduced():
    report = verify(8, checks=ROUTE_CHECKS)
    assert report.sources == "reduced" and report.check("route-validity").population == 2 * 40_320
    _assert_clean(report, ROUTE_CHECKS)
    assert report.check("phase-structure").figures["extended"] == 11_796
    _bound_audit(report, "n=8 reduced", 17)


def test_criterion_3_and_4_order_nine_reduced():
    report = verify(9, checks=ROUTE_CHECKS)
    _assert_clean(report, ROUTE_CHECKS)
    _bound_audit(report, "n=9 reduced", 18)


def test_criterion_4_phase_structure(sweep5, sweep6, sweep7):
    for report, label in ((sweep5, "n=5"), (sweep6, "n=6"), (sweep7, "n=7 reduced")):
        _assert_clean(report, ["phase-structure", "crossing-monotone"])
    total = sum(r.check("phase-structure").population for r in (sweep5, sweep6, sweep7))
    # traces where law (b) and the all-crossing part of (d) were skipped; at
    # n=6 all pairs this is 360 times the 196 of the reduced pairs, as
    # router equivariance predicts
    extended = [r.check("phase-structure").figures["extended"] for r in (sweep5, sweep6, sweep7)]
    assert extended == [0, 70_560, 0]
    _audit(
        4,
        f"phase laws hold on all {total} traces from criterion 3; "
        f"(b) skipped on {sum(extended)} extended traces (n=6)",
    )


def test_criterion_5_directed_diameter_brackets():
    measured = {n: diameter(n, Scheme.FUJITA, mode="orbit").value for n in (5, 6, 7)}
    assert 9 <= measured[5] <= 12
    assert 11 <= measured[6] <= 16
    assert 14 <= measured[7] <= 16
    with ARTIFACT.open(newline="") as fh:
        rows = {int(row["n"]): row for row in csv.DictReader(fh)}
    for n in (5, 6, 7):
        assert int(rows[n]["fujita"]) == measured[n], "artifact out of date"
    _audit(5, f"contiguous-half diameters {measured} inside brackets, artifact agrees")


# the three graphs: undirected and each orientation
GRAPHS = [None, Scheme.FUJITA, Scheme.DAY_TRIPATHI]


def _orbit_equals_exhaustive(n: int) -> list[int]:
    values = []
    for scheme in GRAPHS:
        orbit = diameter(n, scheme, mode="orbit").value
        full = diameter(n, scheme, mode="exhaustive").value
        assert orbit == full, (n, scheme)
        values.append(full)
    return values


def test_criterion_6_orbit_mode_validity():
    for n in (4, 5, 6, 7):
        _orbit_equals_exhaustive(n)

    rng = random.Random(20260815)
    n = 7
    ident = tuple(range(1, n + 1))
    for _ in range(10_000):
        u = tuple(rng.sample(range(1, n + 1), n))
        h = tuple(rng.sample(range(1, n + 1), n))
        if parity(h):  # make h even by swapping one pair
            h = apply_generator(h, 2)
        assert parity(h) == 0
        link = rng.randint(2, n)
        hu = compose(h, u)
        # left translation by an even permutation preserves links and arcs
        assert compose(h, apply_generator(u, link)) == apply_generator(hu, link)
        for scheme in (Scheme.FUJITA, Scheme.DAY_TRIPATHI):
            assert arc_direction(hu, link, scheme) is arc_direction(u, link, scheme)
    _audit(6, "orbit = exhaustive at n=4..7, all three graphs; 10000 sampled translations preserve arcs")


@pytest.mark.skipif(
    not os.environ.get("STARROUTE_LONG"),
    reason="exhaustive order-8 sweeps are an opt-in long run (STARROUTE_LONG=1)",
)
def test_criterion_6_order_eight_exhaustive():
    assert _orbit_equals_exhaustive(8) == [10, 16, 16]
    _audit(6, "orbit = exhaustive at n=8: undirected 10, contiguous-half 16, even-link 16")


def test_criterion_7_split_merge_law():
    for n in (4, 5):
        report = verify(n, checks=["split-merge"])
        result = report.check("split-merge")
        assert result.ok and result.population == _split_merge_population(n)
    sampled = verify(7, checks=["split-merge"], seed=1, sample_size=10_000)
    assert sampled.check("split-merge").ok
    assert sampled.check("split-merge").population == 10_000
    _audit(7, "swap splits/merges exactly one relative cycle: n=4,5 exhaustive + 10000 at n=7")


def _split_merge_population(n: int) -> int:
    import math

    return math.factorial(n) ** 2 * (n - 1)


def test_criterion_8_second_scheme_cross_check():
    value = diameter(6, Scheme.DAY_TRIPATHI, mode="orbit").value
    assert value == 11
    _audit(8, "even-link (day-tripathi) scheme diameter at n=6 is 11 = 2n-1")


def test_criterion_8_order_nine_informational():
    values = {
        scheme.value: diameter(9, scheme, mode="orbit").value
        for scheme in (Scheme.FUJITA, Scheme.DAY_TRIPATHI)
    }
    # informational: recorded for the table, no exact value asserted
    print(f"criterion 8 (informational): order-9 directed diameters {values}")
    assert all(12 <= v <= 22 for v in values.values())
