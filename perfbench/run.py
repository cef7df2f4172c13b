"""starroute benchmark: verified pairs per second on four fixed workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload route-sweep --seed 1 --seconds 25 --trace 0

Workloads (populations are fixed; only ``formula-check`` uses the seed):

- ``route-sweep``: ``verify 5`` over all 14 400 ordered pairs, then
  ``verify 7 --sources reduced`` over 10 080 pairs, both with the six route
  checks only.  Nearly all the time is the per-pair Python path: routing,
  ``classify._counts``, arc directions, parity and the harness loop.
- ``bfs-exhaustive``: exhaustive ``diameter 7``, undirected (9) and directed
  (14): 10 080 BFS runs over 5 040-vertex fields, dominated by numpy call
  overhead on small frontiers.
- ``bfs-large``: ``table 8..9 --mode orbit``: 12 BFS runs over 40 320- and
  362 880-vertex fields, dominated by gathers and ``np.unique`` over large
  frontiers; building ``move_table(9)`` lands in set-up.
- ``formula-check``: ``verify 6 --checks distance-vs-bfs,set-formula,split-merge
  --seed <seed>``: 518 400 pairs through both closed-form distances and one
  oracle lookup each, plus 10 000 seeded split/merge samples.

With ``--trace 0`` it reports, from untraced runs:

- ``pairs_per_s``: ordered pairs whose result one pass establishes, divided
  by the pass's wall time, median over the passes that fit in ``--seconds``
  (a diameter BFS settles n! pairs; a verify pair is one checked pair);
- ``setup_s``: time from starting a fresh workload process until its first
  pass can begin (importing starroute and numpy, filling the move tables),
  median over several fresh processes;
- ``peak_rss_mb``: the workload process's peak resident set (``getrusage``).

Every output is checked against known answers.  An operation is one
checked result (one verify check, one diameter, one table row); a wrong
result, a reported violation or an exception fails it.  ``failed_share`` is
printed with the summary and carried by the ``attempted``/``failed`` fields.

With ``--trace 1`` a separate run wraps the package's functions from outside
(``layertrace.py``) and reports per-layer call counts, self times, count
ratios, per-check elapsed times and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only the process's
own timers are used: no cache drops, pinning or priority changes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh set-up-only processes, besides the measuring one
TIME_LIMIT_S = 170.0  # whole run, kept under the 180 s a run may take


class WorkerError(RuntimeError):
    pass


def _read_file(path: str | Path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit(root: Path) -> str:
    head = _read_file(root / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read_file(root / ".git" / ref)
    if commit is None:
        for line in (_read_file(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def machine_facts(root: Path) -> dict:
    cpu_model = "unknown"
    for line in (_read_file("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_file(index / "level"), _read_file(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read_file(index / "size")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(root),
    }


def _await_ready(proc: subprocess.Popen, deadline: float) -> None:
    """Block until the worker prints ``ready``; one byte at a time, so the
    result line stays in the pipe."""
    fd = proc.stdout.fileno()
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise WorkerError("timed out during set-up")
        chunk = os.read(fd, 1)
        if not chunk:
            raise WorkerError(f"worker exited during set-up (exit {proc.wait()})")
        line += chunk
    if line != b"ready\n":
        raise WorkerError(f"unexpected worker output {line!r}")


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a workload process; returns (set-up seconds, result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, cwd=ROOT, bufsize=0
    )
    try:
        _await_ready(proc, deadline)
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        raise WorkerError("timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = out.decode().splitlines()
    result = json.loads(lines[-1][len("result "):]) if lines and lines[-1].startswith("result ") else None
    return setup_s, result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _print_segments(result: dict) -> None:
    for label, times in result["segments"].items():
        median = statistics.median(times)
        pairs = result["segment_pairs"][label]
        print(f"  {label}: median {median:.3f} s over {len(times)} runs, {pairs} pairs, {median / pairs * 1e6:.3f} us/pair")


def main() -> int:
    parser = argparse.ArgumentParser(description="starroute benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S

    missing = [p for p in ("src/starroute/__init__.py", "results/diameter_table.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a starroute checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.build(ROOT):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_facts(ROOT)))
    print("loadavg start " + (_read_file("/proc/loadavg") or "unknown"))
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            _, result = run_worker(worker_argv + ["--trace", "1"], deadline)
        else:
            setups = [run_worker(worker_argv + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
            setup_s, result = run_worker(worker_argv, deadline)
            setups.append(setup_s)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print(f"error: {args.workload}: worker printed no result", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], len(result["failures"])
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed} pairs/pass {result['pairs_per_pass']}")
    if args.trace:
        _print_segments(result)
        for label, counts in result["per_call_counts"].items():
            routes, hops = counts.get("routing.oriented_route", 0), counts.get("routing._oriented_pick", 0)
            detail = f", hops_per_route {hops / routes:.4f}" if routes else ""
            print(f"  {label} traced calls: {json.dumps(counts)}{detail}")
        metrics = result["metrics"]
        if result["absent"]:
            print("absent (recorded as 0): " + ", ".join(result["absent"]))
    else:
        passes = result["passes"]
        rates = [result["pairs_per_pass"] / p for p in passes]
        q1, q3 = _quartiles(rates)
        print(f"passes {len(passes)}: pairs/s q1 {q1:.1f} q3 {q3:.1f}; pass_s {' '.join(f'{p:.4f}' for p in passes)}")
        _print_segments(result)
        metrics = {
            "pairs_per_s": (statistics.median(rates), "pairs/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_share {failed / attempted} ratio ({failed} of {attempted} checked results)")
    print("loadavg end " + (_read_file("/proc/loadavg") or "unknown"))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
