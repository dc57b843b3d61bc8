#!/usr/bin/env python3
"""Steadiness check for the shuffledef benchmark.

    python3 perfbench/steadiness.py [--write-readme]

Runs every workload of BENCHMARK.json ten times in each of two batches,
each run with its own seed and BENCHMARK.json's run_seconds, and reports
each end-to-end metric's median, quartiles and spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles).  It checks that the batches agree:

  * every spread, setup_s's included, stays within the metric's bound;
  * the second batch's median is not worse than the first's by more than
    the bound;
  * the share of failed operations is identical in every run.

--write-readme replaces the table between the steadiness markers of
perfbench/README.md with the figures found.  Exit code 0 = steady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BEGIN = "<!-- steadiness:begin -->"
END = "<!-- steadiness:end -->"
RUNS = 10
BATCHES = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1]), took


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, later):
    """Relative worsening of `later` against `first` (negative = better)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write-readme", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    steady = True
    rows = []
    for name in names:
        batches = []
        for b in range(BATCHES):
            results = []
            for i in range(RUNS):
                seed = 1000 * (b + 1) + i
                result, took = run_once(name, seed, seconds)
                if not result["correct"]:
                    print(f"{name} seed {seed}: outputs incorrect")
                    steady = False
                results.append(result)
                print(f"{name} batch {b + 1} seed {seed}: {took:.1f} s",
                      file=sys.stderr)
            batches.append(results)
        shares = {round(r["failed"] / r["attempted"], 12)
                  for batch in batches for r in batch}
        if len(shares) != 1:
            print(f"{name}: failed share differs between runs: {shares}")
            steady = False
        for m in metrics:
            medians = []
            spreads = []
            for batch in batches:
                values = [r["metrics"][m["name"]]["value"] for r in batch]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                spreads.append((q3 - q1) / q2 if q2 else float("inf"))
                if spreads[-1] > m["bound"]:
                    steady = False
            drift = worse_by(m, medians[0], medians[1])
            if drift > m["bound"]:
                steady = False
            rows.append((name, m, medians, spreads, drift))

    header = ("| workload | metric | bound | median | spread (IQR/median) "
              "per batch | median drift |")
    table = [header, "|---|---|---|---|---|---|"]
    for name, m, medians, spreads, drift in rows:
        table.append(
            f"| {name} | {m['name']} ({m['unit']}) | {m['bound']:.2f} | "
            f"{medians[0]:.6g} | "
            + ", ".join(f"{s:.3f}" for s in spreads)
            + f" | {drift:+.3f} |")
    print("\n".join(table))
    print("steady" if steady else "NOT steady")

    if args.write_readme:
        path = os.path.join(HERE, "README.md")
        with open(path) as f:
            text = f.read()
        head, rest = text.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
        note = (f"{BATCHES} batches x {RUNS} runs per workload, "
                f"--seconds {seconds}, seeds 1000.. and 2000..; "
                f"verdict: {'steady' if steady else 'NOT steady'}.\n\n")
        with open(path, "w") as f:
            f.write(head + BEGIN + "\n" + note + "\n".join(table) + "\n" +
                    END + tail)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
