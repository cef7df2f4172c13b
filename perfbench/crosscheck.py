"""Measure the reference figures the ROADMAP quotes, for comparison with the
benchmark's baseline.  Run from the root of a checkout::

    python3 perfbench/crosscheck.py

Prints one JSON object:

- ``n5_route_raw_us`` / ``n5_route_trace_us`` / ``n5_six_checks_us``: per-pair
  cost at n = 5 of the raw route loop, the full ``RouteTrace`` and ``verify``
  with the six route checks, over all 14 400 ordered pairs;
- ``n6_route_with_checks_us``: per-route cost of the six route checks at
  n = 6 over the reduced sources (1 440 pairs).  Even left-translations map
  every pair onto one from a reduced source, hop for hop, so this matches the
  all-pairs n = 6 sweep per route;
- ``diameter7_s``: exhaustive undirected ``diameter(7)``.

Each figure is the median of three repetitions.  A private function that no
longer exists is reported as null.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starroute import harness, oracle, routing  # noqa: E402

from workloads import ROUTE_CHECKS  # noqa: E402

REPEATS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    perms = list(itertools.permutations(range(1, 6)))
    pairs = [(s, t) for s in perms for t in perms]
    route_raw = getattr(routing, "_route_raw", None)
    figures = {
        "n5_route_raw_us": None
        if route_raw is None
        else _median_time(lambda: [route_raw(s, t, True) for s, t in pairs]) / len(pairs) * 1e6,
        "n5_route_trace_us": _median_time(lambda: [routing.oriented_route(s, t) for s, t in pairs])
        / len(pairs)
        * 1e6,
        "n5_six_checks_us": _median_time(lambda: harness.verify(5, checks=ROUTE_CHECKS)) / len(pairs) * 1e6,
        "n6_route_with_checks_us": _median_time(
            lambda: harness.verify(6, checks=ROUTE_CHECKS, sources="reduced")
        )
        / 1440
        * 1e6,
        "diameter7_s": _median_time(lambda: oracle.diameter(7)),
    }
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
