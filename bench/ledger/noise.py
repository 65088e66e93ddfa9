#!/usr/bin/env python3
"""Measures the ledger's run-to-run spread and records it as the reference.

    python3 bench/ledger/noise.py [--out bench/ledger/reference.json]

Runs two sets. Each set runs every workload once per seed (seeds 1..10)
through run.py with BENCHMARK.json's run_seconds and --trace 0. For each
end-to-end metric it prints the median and the interquartile range as a share
of the median. The quartiles are statistics.quantiles(values, n=4) (the
exclusive method), as in `optimus_ledger --repeat`. It flags a spread above
the metric's bound, or above a third of it; setup_s too. In the second set it
also flags a median worse than the first set's by more than the bound, and an
avg_jct_s that differs from the first set's at the same seed: avg_jct_s is
exact per seed. Exits 1 on a failed run or a flag. With --out, writes both
sets' medians, spreads and values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("noise.py: %s seed %d failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, new, old):
    """Relative worsening of `new` against `old` in the metric's direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    flagged = False
    sets = []
    for s in range(SETS):
        summary = {}
        for w in (w["name"] for w in bench["workloads"]):
            values = {name: [] for name in metrics}
            for seed in SEEDS:
                for name, v in run_once(w, seed, bench["run_seconds"]).items():
                    values[name].append(v)
            summary[w] = {}
            print("set %d  %s" % (s + 1, w))
            for name, m in metrics.items():
                v = values[name]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                entry = {"median": med, "iqr_share": spread, "values": v}
                note = ""
                if spread > m["bound"]:
                    note, flagged = "  SPREAD ABOVE BOUND", True
                elif spread > m["bound"] / 3:
                    note, flagged = "  spread above a third of the bound", True
                if s > 0:
                    first = sets[0][w][name]
                    entry["worse_than_set1"] = worse(m, med, first["median"])
                    if entry["worse_than_set1"] > m["bound"]:
                        note, flagged = note + "  MEDIAN WORSE THAN SET 1", True
                    if name == "avg_jct_s" and v != first["values"]:
                        note, flagged = note + "  NOT EXACT PER SEED", True
                summary[w][name] = entry
                print("  %-18s %14.6g %-8s IQR %6.2f%%  bound %4.0f%%%s" %
                      (name, med, m["unit"], 100 * spread, 100 * m["bound"], note))
            sys.stdout.flush()
        sets.append(summary)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": SEEDS, "run_seconds": bench["run_seconds"],
                       "sets": sets}, f, indent=1)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
