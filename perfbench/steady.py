#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, compared.

Run from the root of a checkout:

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times through
perfbench/run.py, each run with its own seed (set 1 uses seeds 1..10,
set 2 uses 101..110), for BENCHMARK.json's run_seconds.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and whether
  - the spread is within a third of the metric's bound ("steady"),
  - the second set's median is no worse than the first's by more than the
    bound ("agree").
It also requires every run to be correct and the share of failed
operations to be identical in both sets.  Exits 1 if any of that fails.
"""

import json
import statistics
import subprocess
import sys


RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("run failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for base in (0, 100):
            results = []
            for i in range(1, RUNS + 1):
                r = run_once(workload, base + i, seconds)
                print("%s seed %d: %s" % (workload, base + i, json.dumps(r)),
                      file=sys.stderr, flush=True)
                if not r["correct"]:
                    print("%s seed %d: incorrect output" % (workload, base + i))
                    ok = False
                results.append(r)
            sets.append(results)
        shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
        same_share = len(shares[0]) == 1 and shares[0] == shares[1]
        ok &= same_share
        print("\n%s: failed share %s in set 1, %s in set 2 (%s)"
              % (workload, shares[0], shares[1], "same" if same_share else "DIFFERENT"))
        print("  %-20s %7s %14s %14s %14s %8s %6s %8s %6s" %
              ("metric", "bound", "q1", "median", "q3", "spread", "steady",
               "worse_by", "agree"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, s in enumerate(sets):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in s])
                spread = (q3 - q1) / med if med else float("inf")
                steady = spread <= bound / 3
                meds.append(med)
                if k == 0:
                    worse, agree = "", ""
                else:
                    sign = -1 if m["better"] == "higher" else 1
                    worse_by = sign * (med - meds[0]) / meds[0]
                    agree_ok = worse_by <= bound
                    ok &= agree_ok
                    worse, agree = "%+.4f" % worse_by, "yes" if agree_ok else "NO"
                ok &= steady
                print("  %-20s %7.3f %14.6g %14.6g %14.6g %8.4f %6s %8s %6s" %
                      (name if k == 0 else "", bound, q1, med, q3, spread,
                       "yes" if steady else "NO", worse, agree))
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
