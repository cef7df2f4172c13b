from __future__ import annotations

import json

import pytest

from starroute.harness import (
    ALL_CHECKS,
    diameter_table,
    format_table,
    hop_cap,
    lower_bound_check,
    verify,
    witness,
)


def test_hop_cap_values():
    assert [hop_cap(n) for n in range(3, 10)] == [8, 12, 12, 16, 16, 20, 20]


def test_check_names_are_stable():
    assert ALL_CHECKS == (
        "route-validity",
        "hop-bound",
        "stretch-bound",
        "diameter-bound",
        "phase-structure",
        "crossing-monotone",
        "distance-vs-bfs",
        "set-formula",
        "split-merge",
    )


def test_witness_values():
    assert witness(5) == (1, 3, 2, 5, 4)
    assert witness(6) == (1, 3, 4, 2, 6, 5)
    assert witness(7) == (1, 3, 4, 2, 6, 7, 5)
    assert witness(8, "even-refined") == (1, 3, 2, 5, 4, 7, 8, 6)


def test_witness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        witness(5, "even-refined")  # refinement needs even order >= 8
    with pytest.raises(ValueError):
        witness(6, "something-else")


def test_lower_bound_order_five():
    report = lower_bound_check(5)
    assert report.witness == (1, 3, 2, 5, 4)
    assert report.variant == "default"
    assert report.distance == 10
    assert report.required == 9
    assert report.ok
    assert report.supports_2n


def test_lower_bound_order_six():
    report = lower_bound_check(6)
    assert report.distance == 11
    assert report.required == 11
    assert report.ok
    assert not report.supports_2n


def test_lower_bound_range():
    with pytest.raises(ValueError):
        lower_bound_check(4)
    with pytest.raises(ValueError):
        lower_bound_check(10)


def test_verify_order_four_full():
    report = verify(4)
    assert report.ok
    assert report.n == 4 and report.sources == "all"
    populations = {c.name: c.population for c in report.checks}
    assert populations["route-validity"] == 576
    assert populations["split-merge"] == 1728
    assert all(not c.violations for c in report.checks)
    assert report.check("hop-bound").ok
    with pytest.raises(KeyError):
        report.check("no-such-check")


def test_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        verify(4, checks=["route-validity", "bogus"])


def test_verify_subset_and_reduced_sources():
    report = verify(5, checks=["set-formula"], sources="reduced")
    assert report.ok
    assert report.sources == "reduced"
    assert report.check("set-formula").population == 2 * 120


def test_verify_split_merge_sampled():
    report = verify(6, checks=["split-merge"], seed=7, sample_size=500)
    assert report.ok
    assert report.check("split-merge").population == 500


def test_diameter_table_frozen_rows():
    rows = diameter_table([3, 4, 5])
    assert [(r.n, r.undirected, r.fujita, r.daytripathi) for r in rows] == [
        (3, 3, 5, 5),
        (4, 4, 9, 9),
        (5, 6, 10, 10),
    ]
    assert rows[0].lower is None and rows[0].upper is None
    assert rows[2].lower == 9 and rows[2].upper == 12
    assert all(r.mode == "exhaustive" for r in rows)


def test_format_table_csv_header_and_blanks():
    rows = diameter_table([3, 5])
    csv_text = format_table(rows, "csv")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,undirected,fujita,daytripathi,lower,upper,mode"
    assert lines[1] == "3,3,5,5,,,exhaustive"
    assert lines[2] == "5,6,10,10,9,12,exhaustive"


def test_format_table_json_round_trips():
    rows = diameter_table([4])
    data = json.loads(format_table(rows, "json"))
    assert data == [
        {
            "n": 4,
            "undirected": 4,
            "fujita": 9,
            "daytripathi": 9,
            "lower": None,
            "upper": None,
            "mode": "exhaustive",
        }
    ]


def test_format_table_text_aligns_headers():
    rows = diameter_table([4])
    text = format_table(rows, "text")
    head, body = text.strip().splitlines()
    assert head.split() == ["n", "undirected", "fujita", "daytripathi", "lower", "upper", "mode"]
    assert body.split() == ["4", "4", "9", "9", "-", "-", "exhaustive"]
    with pytest.raises(ValueError):
        format_table(rows, "yaml")
