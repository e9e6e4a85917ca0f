#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, normalised beside raw.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --workloads verify-cli,sweep-batch --seeds 1-10

Each (workload, seed) pair runs once through run.py with --trace 0.  For
every metric the script prints the median over the runs and the spread,
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, for the normalised values next to the
raw, un-normalised ones from the same runs.  With --sets 2 a second set
runs on the next seeds (11-20 after 1-10), or with --repeat on the same
seeds again, and the shift of its median against the first set's is
printed.  Each set's total attempted and failed units are printed too:
with --repeat they must be the same in every set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=True)
    record = Path(".perfbench/runs") / f"{workload}-seed{seed}-trace0.json"
    return {"result": json.loads(out.stdout.strip().splitlines()[-1]),
            "raw": json.loads(record.read_text())["raw_metrics"]}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--repeat", action="store_true", help="run every set on the same seeds")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = seeds(args.seeds)
    for workload in args.workloads.split(","):
        # without --repeat set k runs the seeds after those of set k-1
        shift = 0 if args.repeat else len(first)
        sets = [[one_run(workload, s + k * shift, args.seconds) for s in first]
                for k in range(args.sets)]
        print(f"\n{workload}: {len(first)} runs per set, {args.seconds} s each")
        for k, runs in enumerate(sets):
            print(f"  set {k + 1}: {sum(r['result']['failed'] for r in runs)} of "
                  f"{sum(r['result']['attempted'] for r in runs)} units failed")
        print(f"  {'metric':16} {'bound':>6}" + "".join(
            f" | {f'set {k + 1} median':>13} {'spread':>7} {'raw spread':>10}" for k in range(args.sets))
            + ("  2nd/1st median" if args.sets > 1 else ""))
        for name, bound in bounds.items():
            line = f"  {name:16} {bound:6.2f}"
            medians = []
            for runs in sets:
                norm = [r["result"]["metrics"][name]["value"] for r in runs]
                raw = [r["raw"][name] for r in runs]
                medians.append(statistics.median(norm))
                line += f" | {medians[-1]:13.4g} {spread(norm):7.3f} {spread(raw):10.3f}"
            if args.sets > 1:
                line += f"  {medians[1] / medians[0] - 1:+.3f}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
