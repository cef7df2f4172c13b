"""Run the benchmark several times per workload and report its spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out results.json

Each run uses another seed (``first-seed``, ``first-seed + 1``, ...) and the
``command`` and ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles, the spread (quartile distance
over median) and the metric's bound.  ``--trace`` adds one traced run per
workload.  ``--out`` writes the machine facts, every value and the traced
metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run: (its result object, the lines printed before it)."""
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    report: dict = {"run_seconds": config["run_seconds"], "workloads": {}}
    for name in names:
        seeds = [args.first_seed + i for i in range(args.runs)]
        runs, logs = [], []
        for seed in seeds:
            result, log = run_once(config, name, seed, 0)
            runs.append(result)
            logs.append([line for line in log if line.startswith(("passes", "loadavg"))])
            report.setdefault("machine", json.loads(log[0].split(" ", 1)[1]))
        entry: dict = {
            "seeds": seeds,
            "logs": logs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = summarize(values)
            entry["metrics"][metric["name"]] = {"unit": metric["unit"], "bound": metric["bound"], **stats, "values": values}
            print(f"{name:15s} {metric['name']:12s} median {stats['median']:14.4f} "
                  f"q1 {stats['q1']:14.4f} q3 {stats['q3']:14.4f} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']}", flush=True)
        print(f"{name:15s} failed {entry['failed']} of {entry['attempted']}", flush=True)
        if args.trace:
            traced, _ = run_once(config, name, args.first_seed, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
