from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from starroute import oracle
from starroute.cli import build_parser, main
from starroute.harness import verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_neighbors_lists_links_and_directions(capsys):
    code, out, _ = run(capsys, "neighbors", "1234")
    assert code == 0
    assert out.splitlines() == ["2 2134 out", "3 3214 out", "4 4231 in"]


def test_neighbors_other_scheme(capsys):
    code, out, _ = run(capsys, "neighbors", "12345", "--scheme", "day-tripathi")
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()] == ["out", "in", "out", "in"]


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "21435", "12345")
    assert code == 0
    assert out.splitlines() == [
        "S: 5",
        "SL:",
        "SR: 5",
        "ULL:",
        "URR:",
        "ULR: 4",
        "URL: 3",
        "X: 3 4",
        "chi=1 cycles=2",
    ]


def test_route_default_prints_length_only(capsys):
    code, out, _ = run(capsys, "route", "24135", "12345")
    assert code == 0
    assert out == "hops=5\n"


def test_route_trace_lines(capsys):
    code, out, _ = run(capsys, "route", "24135", "12345", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "1 24135 --4--> 34125 final-crossing case=3.1 phase=2",
        "2 34125 --3--> 14325 settling case=1 phase=3",
        "3 14325 --4--> 24315 seeding case=4 phase=3",
        "4 24315 --2--> 42315 settling case=1 phase=3",
        "5 42315 --4--> 12345 settling case=1 phase=3",
        "hops=5",
    ]


def test_route_json_document(capsys):
    code, out, _ = run(capsys, "route", "24135", "12345", "--json")
    assert code == 0
    hops = [
        (1, "24135", 4, "final-crossing", "3.1", 2),
        (2, "34125", 3, "settling", "1", 3),
        (3, "14325", 4, "seeding", "4", 3),
        (4, "24315", 2, "settling", "1", 3),
        (5, "42315", 4, "settling", "1", 3),
    ]
    expected = {
        "source": "24135",
        "target": "12345",
        "scheme": "fujita",
        "length": 5,
        "hops": [
            dict(zip(("index", "node", "link", "move", "case", "phase"), hop)) for hop in hops
        ],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_route_classic_has_null_scheme(capsys):
    code, out, _ = run(capsys, "route", "14523", "12345", "--classic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] is None
    assert doc["length"] == 6


def test_distance_undirected_and_directed(capsys):
    code, out, _ = run(capsys, "distance", "12345", "32145")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "distance", "12345", "32145", "--directed")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "distance", "32145", "12345", "--directed")
    assert code == 0 and out.strip().isdigit() and int(out) > 1


def test_diameter_lines(capsys):
    code, out, _ = run(capsys, "diameter", "4", "--directed")
    assert code == 0
    assert out == "n=4 scheme=fujita directed=true diameter=9 witness=1243->1423\n"
    code, out, _ = run(capsys, "diameter", "5")
    assert code == 0
    assert out == "n=5 scheme=- directed=false diameter=6 witness=12345->13254\n"


@pytest.mark.parametrize("argv,scheme,value,target", [
    ((), None, 9, "1325476"),
    (("--directed",), "fujita", 14, "1342675"),
])
def test_diameter_json_documents_order_seven(capsys, argv, scheme, value, target):
    code, out, _ = run(capsys, "diameter", "7", *argv, "--json")
    assert code == 0
    expected = {
        "n": 7,
        "scheme": scheme,
        "directed": bool(argv),
        "mode": "exhaustive",
        "diameter": value,
        "witness_source": "1234567",
        "witness_target": target,
    }
    assert out == json.dumps(expected) + "\n"


def test_verify_pass_output_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "4", "--checks", "route-validity,split-merge")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("route-validity: pass population=576 elapsed=")
    assert lines[1].startswith("split-merge: pass population=1728 elapsed=")
    assert lines[-1] == "overall: pass"


def test_verify_reports_extended_count(capsys):
    code, out, _ = run(capsys, "verify", "4", "--checks", "phase-structure,route-validity")
    assert code == 0
    lines = out.splitlines()
    # the decision-case histogram: each of the 552 pairs' first hop, by case
    cases = "1:216,2.1:48,2.2:24,2.3:36,2.4:24,2.5:24,3.1:48,3.2:84,4:48"
    assert lines[0].startswith(
        f"phase-structure: pass population=576 extended=72 cases={cases} elapsed="
    )
    assert lines[1].startswith("route-validity: pass population=576 elapsed=")
    code, out, _ = run(
        capsys, "verify", "4", "--checks", "phase-structure,route-validity", "--json"
    )
    phase, validity = json.loads(out)["checks"]
    assert (phase["name"], phase["extended"], phase["cases"]) == ("phase-structure", 72, cases)
    assert sum(int(pair.split(":")[1]) for pair in cases.split(",")) == 24 * 23
    assert "extended" not in validity and "cases" not in validity


def test_verify_reports_longest_route_beside_the_cap(capsys):
    code, out, _ = run(capsys, "verify", "4", "--checks", "diameter-bound,hop-bound")
    assert code == 0
    lines = out.splitlines()
    # the route-length histogram, lengths 1 to the longest
    lengths = "1:36,2:48,3:72,4:96,5:108,6:96,7:60,8:24,9:12"
    assert lines[0].startswith(
        f"diameter-bound: pass population=576 longest=9 hop_cap=12 lengths={lengths} elapsed="
    )
    assert lines[1].startswith("hop-bound: pass population=576 elapsed=")
    code, out, _ = run(capsys, "verify", "4", "--checks", "diameter-bound,hop-bound", "--json")
    cap, bound = json.loads(out)["checks"]
    assert (cap["longest"], cap["hop_cap"], cap["lengths"]) == (9, 12, lengths)
    assert sum(int(pair.split(":")[1]) for pair in lengths.split(",")) == 24 * 23
    assert "longest" not in bound and "hop_cap" not in bound and "lengths" not in bound


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "3..5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,undirected,fujita,daytripathi,lower,upper,mode",
        "3,3,5,5,,,exhaustive",
        "4,4,9,9,,,exhaustive",
        "5,6,10,10,9,12,exhaustive",
    ]


@pytest.mark.parametrize("orders", ["3..10", "2..4", "3..999999999999"])
def test_table_rejects_orders_outside_three_to_nine(capsys, orders):
    # rejected before any order is computed or any range is expanded
    code, out, err = run(capsys, "table", orders)
    assert code == 2 and out == ""
    assert err.startswith("error: table covers orders 3..9")


def test_table_comma_list(capsys):
    code, out, _ = run(capsys, "table", "3,5", "--format", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["3", "5"]


def test_witness_plain_and_bound(capsys):
    code, out, _ = run(capsys, "witness", "6")
    assert code == 0 and out == "134265\n"
    code, out, _ = run(capsys, "witness", "5", "--bound")
    assert code == 0
    assert out == (
        "n=5 witness=13254 variant=default distance=10 required=9 "
        "ok=true supports_2n=true\n"
    )


def test_bad_permutation_exits_two(capsys):
    code, out, err = run(capsys, "route", "123", "999")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_mismatched_orders_exit_two(capsys):
    code, _, err = run(capsys, "distance", "1234", "12345")
    assert code == 2 and "error:" in err


def test_distance_order_mismatch_fails_before_any_search(capsys, monkeypatch):
    def no_table(n):
        raise AssertionError(f"move_table({n}) built for a mismatched pair")

    monkeypatch.setattr(oracle, "move_table", no_table)
    code, out, err = run(capsys, "distance", "123456789", "1234")
    assert code == 2 and out == ""
    assert err.startswith("error: order mismatch")


def test_parser_knows_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "neighbors",
        "classify",
        "route",
        "distance",
        "diameter",
        "verify",
        "table",
        "witness",
    ):
        assert name in text


@pytest.mark.parametrize("n", ["-1", "2", "10"])
def test_verify_rejects_orders_outside_three_to_nine(capsys, n):
    code, out, err = run(capsys, "verify", n, "--checks", "split-merge")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("size", ["0", "-3"])
def test_verify_rejects_sample_size_below_one(capsys, size):
    code, out, err = run(capsys, "verify", "6", "--checks", "split-merge", "--sample-size", size)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_verify_rejects_empty_check_string(capsys):
    code, out, err = run(capsys, "verify", "4", "--checks", "")
    assert code == 2 and out == ""
    assert err.startswith("error: no checks selected")


def test_verify_rejects_duplicate_checks(capsys):
    code, out, err = run(capsys, "verify", "4", "--checks", "hop-bound,hop-bound", "--json")
    assert code == 2 and out == ""
    assert err == "error: duplicate checks ['hop-bound']\n"


def test_verify_rejects_empty_check_list():
    with pytest.raises(ValueError, match="no checks selected"):
        verify(4, checks=[])


_ORDER = st.integers(-2, 4).map(str)
_PERM = st.one_of(
    st.permutations(["1", "2", "3", "4"]).map("".join),
    st.text(alphabet="0123456789,-x ", max_size=6),
)
# range ends are cheap orders or far out of range, which must fail before any work
_END = st.one_of(_ORDER, st.integers(10, 10**12).map(str))
_ORDERS = st.one_of(
    _ORDER,
    st.builds(lambda a, b: f"{a}..{b}", _END, _END),
    st.sampled_from(["", "..", "3..", "..4", "3,,4", "3...4", "3..4..5", "1.5", "x", "-"]),
)
_FLAGS = st.lists(
    st.sampled_from(["--json", "--directed", "--trace", "--classic", "--scheme", "day-tripathi"]),
    max_size=2,
)
_ARGV = st.one_of(
    st.tuples(st.just("neighbors"), _PERM),
    st.tuples(st.sampled_from(["classify", "route", "distance"]), _PERM, _PERM),
    st.tuples(st.sampled_from(["diameter", "witness"]), _END),
    st.tuples(
        st.just("verify"),
        _ORDER,
        st.just("--checks"),
        st.sampled_from(["", ",", "bogus", "route-validity", "set-formula", "split-merge"]),
    ),
    st.tuples(st.just("table"), _ORDERS),
).flatmap(lambda head: _FLAGS.map(lambda flags: list(head) + flags))


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_closed_stdout_exits_without_traceback():
    # the reader is gone before the first write, as after ``| head -0``
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["verify", "5", "--checks", "router-equivariance", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "starroute.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err.decode()
    assert proc.returncode in (0, 1, 2), err.decode()
