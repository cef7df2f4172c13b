"""The CLI transcript: ``tests/golden/cli.txt`` and the check that runs it.

The transcript is a list of entries.  An entry is a ``$ starroute ...``
line followed by what the command writes: its standard output line by
line, then each standard error line prefixed ``! ``, then ``[exit N]``
when its exit code N is not 0.  A stream whose last line has no newline
is followed by the line ``[no newline at end]`` (``! [no newline at end]``
on standard error), so a lost final newline fails the comparison.  A
blank line ends an entry; between entries a line starting with ``#`` is
a comment.  The one value not
compared is ``elapsed``, written ``elapsed=...`` on a text line and
``"elapsed": ...`` in ``--json``.

Two callers share the parser and the comparison.  The tier-1 test runs
every entry in process through ``starroute.cli.main``.  Run as a script,
the module sends every entry through the installed ``starroute`` console
script::

    pip install .
    python tests/cli_transcript.py

It prints a unified diff, named by the command, for each entry whose
output differs, and exits 1 if any does.  A change to the CLI's output
updates the transcript in the same diff.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

GOLDEN = Path(__file__).with_name("golden") / "cli.txt"

# the line after a stream's last line when that line has no newline
NO_NEWLINE = "[no newline at end]"

# a run's rendered text, as an entry records it, from the command's arguments
Runner = Callable[[Sequence[str]], list[str]]

_ELAPSED = (
    (re.compile(r"elapsed=[0-9.]+s"), "elapsed=..."),
    (re.compile(r'"elapsed": [0-9.eE+-]+'), '"elapsed": ...'),
)


def parse(text: str) -> dict[str, list[str]]:
    """The entries of a transcript: each command line, ``$`` dropped,
    with the lines it expects."""
    entries: dict[str, list[str]] = {}
    lines: list[str] | None = None
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("$ "):
            command = line[2:]
            if not command.startswith("starroute ") or command in entries:
                raise ValueError(f"line {number}: not a new starroute command: {line!r}")
            lines = entries[command] = []
        elif not line:
            lines = None
        elif lines is not None:
            lines.append(line)
        elif not line.startswith("#"):
            raise ValueError(f"line {number}: output outside an entry: {line!r}")
    return entries


def _lines(stream: str) -> list[str]:
    """A stream's lines, split at newlines only, then ``NO_NEWLINE`` when
    its last line has none."""
    lines = stream.split("\n")
    return lines + [NO_NEWLINE] if lines[-1] else lines[:-1]


def render(out: str, err: str, code: int) -> list[str]:
    """A run's lines as an entry records them, ``elapsed`` blanked."""
    for pattern, blank in _ELAPSED:
        out = pattern.sub(blank, out)
    lines = _lines(out) + [f"! {line}" for line in _lines(err)]
    return lines + [f"[exit {code}]"] if code else lines


def run_in_process(argv: Sequence[str]) -> list[str]:
    """One command through ``starroute.cli.main``; argparse's usage errors
    count by their ``SystemExit`` code."""
    from starroute.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
    return render(out.getvalue(), err.getvalue(), code)


def command_runner(prefix: Sequence[str]) -> Runner:
    """A runner that starts ``prefix`` with the command's arguments in a
    fresh process: ``["starroute"]`` for the installed console script."""

    def run(argv: Sequence[str]) -> list[str]:
        proc = subprocess.run([*prefix, *argv], capture_output=True, text=True)
        return render(proc.stdout, proc.stderr, proc.returncode)

    return run


def check(entries: dict[str, list[str]], run: Runner) -> list[str]:
    """A unified diff for each entry whose run differs from it, in
    transcript order; none when every entry matches."""
    diffs = []
    for command, expected in entries.items():
        actual = run(shlex.split(command)[1:])
        if actual != expected:
            diff = difflib.unified_diff(
                expected, actual, f"expected: $ {command}", f"actual: $ {command}", lineterm=""
            )
            diffs.append("\n".join(diff))
    return diffs


def main() -> int:
    entries = parse(GOLDEN.read_text())
    diffs = check(entries, command_runner(["starroute"]))
    for diff in diffs:
        print(diff, end="\n\n")
    print(f"{len(entries) - len(diffs)} of {len(entries)} transcript entries match")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
