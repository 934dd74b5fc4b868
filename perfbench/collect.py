"""Repeat the benchmark over seeds and summarize its run-to-run spread.

    python3 perfbench/collect.py --runs 10 --seconds 30 [--workload NAME ...] \
        [--trace 0|1] [--first-seed 1] [--out summary.json]

Runs ``run.py`` once per seed and workload, one run at a time, and reports
for every metric the median of the run values and the spread: the distance
between the first and third quartiles as a share of the median, computed
with ``statistics.quantiles(values, n=4)``.  The end-to-end bounds in
``BENCHMARK.json`` are judged against these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            entry = {"unit": first["unit"], "median": statistics.median(values),
                     "values": values}
            if len(values) >= 2:
                entry["spread"] = spread(values)
            metrics[name] = entry
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and "spread" in entry:
                flag = " OK" if entry["spread"] < bound / 3 else (
                    " within bound" if entry["spread"] <= bound else " OVER BOUND")
            print(f"  {name:40s} median {entry['median']:.6g} {first['unit']}"
                  f"  spread {entry.get('spread', float('nan')):.3f}{flag}",
                  file=sys.stderr)
        summary[workload] = {
            "runs": len(results),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
