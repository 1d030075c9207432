#!/usr/bin/env python3
"""Run each workload k times with different seeds and summarise the spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Runs perfbench/run.py one run at a time, from the root of the checkout, on
every workload of BENCHMARK.json for its run_seconds, untraced.  For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between the
quartiles as a share of the median, and flags a spread wider than a third of
the metric's bound.  It also prints the share of failed operations per run
and whether every run was correct.  Exits 1 when a spread is too wide or a
run was incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s seed %d\n%s" %
                         (done.returncode, workload, seed, done.stdout))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, spec["run_seconds"]))
            sys.stderr.write("%s seed %d done\n" % (workload, seed))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        steady &= correct
        print("== %s: %d runs, correct=%s, failed share(s) %s" %
              (workload, len(results), correct, shares))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3.0
            steady &= ok
            print("  %-20s median %14.4f  q1 %14.4f  q3 %14.4f  spread "
                  "%6.2f%% %s  (bound %.2f: %s)" %
                  (name, med, q1, q3, 100 * spread, unit, bound,
                   "ok" if ok else "TOO WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
