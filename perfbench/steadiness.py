#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median, quartiles and spread (the
interquartile range as a share of the median) next to its bound.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--workload gauntlet] [--out FILE] [--markdown FILE]

Seeds are the workload's default seed, then 1, 2, 3, ... so a run of ten
covers the default and nine held-out seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEEDS = {"fleet_standard": 2019, "gauntlet": 42, "forensics": 2019}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="append the summary as JSON lines to FILE")
    ap.add_argument("--markdown", help="write the summary as a markdown table to FILE")
    opts = ap.parse_args()
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    table = ["| workload | metric | runs | median | q1 | q3 | spread | bound |",
             "|---|---|---|---|---|---|---|---|"]
    for workload in workloads:
        seeds = [DEFAULT_SEEDS[workload]] + list(range(1, opts.runs))
        values = {name: [] for name in bounds}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED\n{out.stderr}", file=sys.stderr)
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            row = {"workload": workload, "metric": name, "runs": len(vals), "median": med,
                   "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                   "values": vals}
            flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:18} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {spread:6.2%}  bound {bounds[name]:.0%}{flag}",
                  flush=True)
            table.append(f"| {workload} | {name} | {len(vals)} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                         f"| {spread:.2%} | {bounds[name]:.0%} |")
            if opts.out:
                with open(opts.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
    if opts.markdown:
        with open(opts.markdown, "w") as f:
            f.write("\n".join(table) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
