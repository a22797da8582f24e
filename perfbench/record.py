"""Run every workload over ten seeds and record medians and quartiles.

Run from the repository root::

    python3 perfbench/record.py --out perfbench/results/NAME.json

One timed run per workload of ``BENCHMARK.json`` and seed, one after
another, then one traced run per workload (seed 1).  For each end-to-end metric the file holds the median,
the quartiles (``statistics.quantiles``, n=4) and the spread, which is the
distance between the quartiles as a share of the median.  A speed-up is
judged by comparing two such files from the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and spread of each metric over a list of run results."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    record = {"label": args.label, "python": platform.python_version(),
              "cpus": os.cpu_count(), "run_seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        timed = [run_once(workload, seed, seconds, 0) for seed in record["seeds"]]
        traced = run_once(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in timed + [traced]),
            "attempted": sum(r["attempted"] for r in timed),
            "failed": sum(r["failed"] for r in timed),
            "end_to_end": summarize(timed),
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, {k: round(v["spread"], 3)
                         for k, v in record["workloads"][workload]["end_to_end"].items()})
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
