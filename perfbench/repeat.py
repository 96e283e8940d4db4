#!/usr/bin/env python3
"""Repeats the campaign benchmark over seeds and summarizes the spread.

    python3 perfbench/repeat.py --runs 10 [--workloads fig5,fleet_tiny]
                                [--out perfbench/baseline.json]

Run from the repository root. For each seed 1..runs, runs every chosen
workload once (`perfbench/run.py --trace 0`, workloads interleaved so host
noise spreads over all of them), then prints for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread, which is the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. With --out it writes that summary as a baseline record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = list(range(1, args.runs + 1))

    values = {w: {} for w in workloads}
    host = None
    for seed in seeds:
        for w in workloads:
            res = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (%d): %s"
                         % (w, seed, res.returncode, res.stderr.strip()))
            for line in lines:
                if line.startswith("host: "):
                    host = json.loads(line[len("host: "):])
            out = json.loads(lines[-1])
            if not out["correct"]:
                sys.exit("%s seed %d: outputs failed the checks" % (w, seed))
            for name, item in out["metrics"].items():
                values[w].setdefault(name, []).append(item["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in out["metrics"].items())),
                flush=True)

    record = {
        "protocol": {
            "command": bench["command"], "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "statistic": "median and quartiles (statistics.quantiles, n=4) "
                         "of one value per run; spread = (q3 - q1) / median",
        },
        "host": host,
        "workloads": {},
        "trajectory": [],
    }
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        record["workloads"][w] = {}
        print("\n%s (%d runs)" % (w, len(seeds)))
        for name, xs in values[w].items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            worst = max(worst, spread / bound)
            record["workloads"][w][name] = {
                "unit": bounds[name]["unit"], "median": med, "q1": q1,
                "q3": q3, "spread": spread}
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "(bound %.2f)" % (name, med, q1, q3, spread, bound))
    print("\nlargest spread / bound: %.3f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
