from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chopped_cli
import cli_transcript
from starroute import cli, oracle
from starroute.cli import build_parser, main
from starroute.harness import verify

_SRC = os.path.dirname(os.path.dirname(oracle.__file__))
_README = Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_GOLDEN = cli_transcript.parse(cli_transcript.GOLDEN.read_text())


# one case per entry, its id the command after ``starroute``
@pytest.mark.parametrize(
    ("command", "expected"), _GOLDEN.items(), ids=[c.removeprefix("starroute ") for c in _GOLDEN]
)
def test_transcript_entry_matches_its_run(command, expected):
    diffs = cli_transcript.check({command: expected}, cli_transcript.run_in_process)
    assert not diffs, diffs[0]


def test_readme_examples_are_transcript_entries():
    blocks = re.findall(r"```sh\n(.*?)```", _README.read_text(), re.S)
    examples = {}
    for block in blocks:
        if "$ starroute " in block:
            examples.update(cli_transcript.parse(block))
    assert len(examples) == 3
    for command, lines in examples.items():
        assert _GOLDEN.get(command) == lines, command


def test_an_argparse_usage_error_counts_as_exit_two():
    lines = cli_transcript.run_in_process(["diameter", "x"])
    assert lines[0].startswith("! usage: starroute diameter ") and lines[-1] == "[exit 2]"


# two entries of the transcript, one on stdout and one on stderr, for the
# checker's own tests
_DISTANCE = "starroute distance 21345 12345 --directed"
_USAGE = "starroute table 3..x"


@pytest.fixture(params=["in-process", "command"])
def runner(request, monkeypatch):
    if request.param == "in-process":
        return cli_transcript.run_in_process
    # a fresh process per command, as the installed console script runs them
    monkeypatch.setenv("PYTHONPATH", _SRC)
    return cli_transcript.command_runner([sys.executable, "-m", "starroute.cli"])


@pytest.fixture(params=["in-process", "command"])
def chopped_runner(request, monkeypatch):
    if request.param == "in-process":
        monkeypatch.setattr(cli, "main", chopped_cli.chopped(cli.main))
        return cli_transcript.run_in_process
    monkeypatch.setenv("PYTHONPATH", _SRC)
    return cli_transcript.command_runner([sys.executable, chopped_cli.__file__])


def assert_one_diff_naming(command, diffs, shown):
    assert len(diffs) == 1
    lines = diffs[0].splitlines()
    assert lines[:2] == [f"--- expected: $ {command}", f"+++ actual: $ {command}"]
    assert all(line in lines for line in shown), diffs[0]


# the in-process runner runs every entry in the transcript test
@pytest.mark.parametrize("runner", ["command"], indirect=True)
def test_the_command_runner_matches_the_untampered_entries(runner):
    entries = {command: _GOLDEN[command] for command in (_DISTANCE, _USAGE)}
    assert cli_transcript.check(entries, runner) == []


@pytest.mark.parametrize(
    ("command", "expected", "shown"),
    [
        # one character changed in an expected line
        (_DISTANCE, ["6"], ["-6", "+5"]),
        # an exit code recorded for a command that exits 0
        (_DISTANCE, ["5", "[exit 2]"], ["-[exit 2]"]),
        # a missing stderr line
        (_USAGE, ["[exit 2]"], ["+! error: malformed order list '3..x'"]),
    ],
    ids=["changed-character", "exit-code-of-a-success", "missing-stderr-line"],
)
def test_a_tampered_entry_fails_with_a_diff_naming_its_command(runner, command, expected, shown):
    assert_one_diff_naming(command, cli_transcript.check({command: expected}, runner), shown)


@pytest.mark.parametrize(
    ("command", "shown"),
    [(_DISTANCE, ["+[no newline at end]"]), (_USAGE, ["+! [no newline at end]"])],
    ids=["stdout", "stderr"],
)
def test_an_output_without_its_final_newline_fails(chopped_runner, command, shown):
    diffs = cli_transcript.check({command: _GOLDEN[command]}, chopped_runner)
    assert_one_diff_naming(command, diffs, shown)


def test_verify_figures_sit_between_population_and_violations(capsys):
    # every check's figures in the order its sweep reports them, the same
    # in --json and on the text line
    report = verify(4)
    code, out, _ = run(capsys, "verify", "4", "--json")
    assert code == 0
    entries = json.loads(out)["checks"]
    code, out, _ = run(capsys, "verify", "4")
    lines = out.splitlines()[:-1]
    assert [entry["name"] for entry in entries] == [c.name for c in report.checks]
    for c, entry, line in zip(report.checks, entries, lines):
        keys = list(c.figures)
        assert list(entry) == ["name", "population", *keys, "violations", "elapsed", "examples"]
        figures = "".join(f" {key}={entry[key]}" for key in keys)
        assert line.startswith(f"{c.name}: pass population={c.population}{figures} elapsed=")
    figured = {c.name: list(c.figures) for c in report.checks if c.figures}
    assert figured == {
        "diameter-bound": ["longest", "hop_cap", "lengths"],
        "phase-structure": ["extended", "cases"],
    }


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
    env = {**os.environ, "PYTHONPATH": _SRC}
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
