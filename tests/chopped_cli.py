"""The ``starroute`` CLI with each stream's final newline dropped, as an
output that lost it would be written.  The checker's tests run it, in
process and as ``python tests/chopped_cli.py ARGS``, to see the
transcript fail."""

from __future__ import annotations

import contextlib
import io
import sys
from typing import Callable, Sequence

from starroute import cli


def chopped(main: Callable[[Sequence[str]], int]) -> Callable[[Sequence[str]], int]:
    def run(argv: Sequence[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        sys.stdout.write(out.getvalue().removesuffix("\n"))
        sys.stderr.write(err.getvalue().removesuffix("\n"))
        return code

    return run


if __name__ == "__main__":
    sys.exit(chopped(cli.main)(sys.argv[1:]))
