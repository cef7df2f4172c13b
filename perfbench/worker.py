"""One workload process: set up, run timed passes, check every output.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once set-up is done (the parent times set-up from process start to that
line), then one ``result <json>`` line.  With ``--setup-only`` it exits
after ``ready``.  With ``--trace 1`` it runs one untraced and one traced
pass, so the traced counts cover a fixed amount of work.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Checked results and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, call, code: int | None, out: str, error: BaseException | None) -> None:
        self.attempted += call.results
        if error is not None:
            self.failures.extend([f"{call.label}: {type(error).__name__}: {error}"] * call.results)
            return
        try:
            problems = call.check(code, out)
        except (ValueError, KeyError, TypeError) as exc:  # unreadable output
            problems = [f"{call.label}: unreadable output ({exc})"] * call.results
        self.failures.extend(problems[: call.results])


def run_pass(cli, calls, tally: Tally, segments: dict[str, list[float]], reports: list[dict], after_call=None) -> float:
    """Run one pass; returns its wall time, the sum of the timed calls.
    ``after_call(label)`` runs after each call, outside the timed region."""
    total = 0.0
    for call in calls:
        buf = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(call.argv))
        except Exception as exc:  # counted as failed results, never fatal
            error = exc
        elapsed = time.perf_counter() - start
        total += elapsed
        segments.setdefault(call.label, []).append(elapsed)
        out = buf.getvalue()
        tally.record(call, code, out, error)
        if error is None and out.lstrip().startswith("{"):
            with contextlib.suppress(ValueError):
                reports.append(json.loads(out))
        if after_call is not None:
            after_call(call.label)
    return total


def check_elapsed(reports: list[dict], names: tuple[str, ...]) -> dict[str, float]:
    """Each verify check's reported ``elapsed``, summed over ``reports``."""
    out = dict.fromkeys(names, 0.0)
    for report in reports:
        for check in report.get("checks", []):
            if check.get("name") in out:
                out[check["name"]] += float(check.get("elapsed", 0.0))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads  # the benchmark's own module, beside this file

    workload = workloads.build(ROOT)[args.workload]
    calls = workload.calls(args.seed)

    # set-up: import the checkout's package and numpy, fill the move tables
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    cli = importlib.import_module("starroute.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"starroute imported from {cli.__file__}, not from the checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer.for_package()
        tracer.install()  # set-up is traced too, so move-table builds show
    move_table = getattr(sys.modules["starroute.oracle"], "move_table", None)
    for n in workload.orders if move_table else ():
        move_table(n)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    segments: dict[str, list[float]] = {}
    reports: list[dict] = []
    result: dict = {}
    if tracer is None:
        passes: list[float] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(cli, calls, tally, segments, reports))
            # start another pass only if it should end inside the window
            if time.perf_counter() - start + statistics.median(passes) > args.seconds:
                break
        result["passes"] = passes
    else:
        tracer.remove()
        untraced = run_pass(cli, calls, tally, segments, reports)
        reports.clear()
        per_call: dict[str, dict[str, int]] = {}
        seen = {key: stat.calls for key, stat in tracer.stats.items()}

        def count_call(label: str) -> None:
            now = {key: stat.calls for key, stat in tracer.stats.items()}
            per_call[label] = {key: now[key] - seen[key] for key in now if now[key] != seen[key]}
            seen.update(now)

        tracer.install()
        traced = run_pass(cli, calls, tally, segments, reports, count_call)
        tracer.remove()
        metrics = layertrace.layer_metrics(tracer, workload.route_pairs, workload.distance_pairs)
        for name, seconds in check_elapsed(reports, workloads.ALL_CHECKS).items():
            metrics[f"harness.check.{name}.elapsed_s"] = (seconds, "s")
        metrics["trace.untraced_pass_s"] = (untraced, "s")
        metrics["trace.traced_pass_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        result["metrics"] = metrics
        result["absent"] = tracer.absent
        result["per_call_counts"] = per_call

    result.update(
        pairs_per_pass=workload.pairs_per_pass(args.seed),
        segments=segments,
        segment_pairs={c.label: c.pairs for c in calls},
        attempted=tally.attempted,
        failures=tally.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
