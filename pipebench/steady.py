#!/usr/bin/env python3
"""Steadiness report for the benchmark described by BENCHMARK.json.

Runs each workload k times, each run with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound.  With --sets 2 it makes two such sets on disjoint seeds and
also prints how far the second median moved from the first, in the
metric's worse direction, against the same bound.

Run from the repository root:

    python3 pipebench/steady.py --workload decode-hot --runs 5
    python3 pipebench/steady.py --runs 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    """Median, first and third quartile, and the spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs")
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="run r of set s uses seed base + s * runs + r")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    print(f"host: {os.cpu_count()} cores, {len(os.sched_getaffinity(0))} usable; "
          f"{args.runs} runs x {args.sets} sets of {seconds} s")

    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for r in range(args.runs):
                seed = args.seed_base + s * args.runs + r
                began = time.monotonic()
                result = run_once(bench["command"], workload, seed, seconds)
                results.append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"  {workload} set {s} seed {seed} ({time.monotonic() - began:.0f} s "
                      f"wall): attempted {result['attempted']} failed {result['failed']} "
                      f"correct {result['correct']} {values}", flush=True)
            sets.append(results)

        print(f"\n{workload}")
        print(f"  {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'ok':>3}")
        medians = []
        for m in metrics:
            row = []
            for s, results in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, spread = summarize(values)
                row.append(med)
                steady = "-" if m["name"] == "setup_s" else (
                    "yes" if spread < m["bound"] / 3 else "no")
                print(f"  {m['name']:<12} {s:>3} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                      f"{spread:>7.2%} {m['bound']:>6.0%} {steady:>3}")
            medians.append((m, row))
        for s, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"  set {s}: failed {failed} of {attempted} operations")
        if args.sets > 1:
            for m, row in medians:
                worse = (row[-1] / row[0] - 1) * (1 if m["better"] == "lower" else -1)
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                print(f"  {m['name']:<12} last set vs first: {worse:+.2%} worse "
                      f"(bound {m['bound']:.0%}) {verdict}")
        print(flush=True)


if __name__ == "__main__":
    main()
