#!/usr/bin/env python3
"""Counter gate over the ledger's smoke runs.

    python3 tools/ledger_gate.py            # check against the committed file
    python3 tools/ledger_gate.py --update   # rewrite the committed file,
                                            # printing each changed key

For each ledger workload it runs

    python3 bench/ledger/run.py --smoke --workload W --trace 1 --seed 7

and compares the run's `output_digest` and every per-layer metric whose unit
is `count` with tests/golden/ledger_smoke.json. These values are deterministic
for a given seed, so any difference is a behaviour change. Wall times are not
gated. Exit codes: 0 = all equal, 1 = a value differs or a run failed (each
difference is printed with its workload and metric name), 2 = bad usage or a
ledger build directory configured for another tree.

run.py reuses .bench_build/ledger once it is configured. In a checkout copied
together with that directory, the cached build still points at the tree it
was copied from, so the gate would build and check that tree; the gate
refuses to run instead. Delete .bench_build/ to rebuild from this tree.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "ledger_smoke.json")
WORKLOADS = ["interval-steady", "events-fabric", "sched-steady", "stream-1m",
             "serve"]
SEED = 7
LEDGER_SOURCE = os.path.join(ROOT, "bench", "ledger")
LEDGER_CACHE = os.path.join(ROOT, ".bench_build", "ledger", "CMakeCache.txt")


def foreign_build_source():
    """Returns the source dir the cached ledger build was configured for, if
    it is not this tree's bench/ledger; None when there is no cache or it
    matches."""
    if not os.path.exists(LEDGER_CACHE):
        return None
    with open(LEDGER_CACHE) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                source = line.split("=", 1)[1].strip()
                if os.path.realpath(source) != os.path.realpath(LEDGER_SOURCE):
                    return source
                return None
    return None


def run_workload(name):
    """Returns {key: value} for one smoke run: output_digest plus counts."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "ledger", "run.py"),
           "--smoke", "--workload", name, "--trace", "1", "--seed", str(SEED)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name}: ledger exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    digest = None
    for line in lines:
        if line.startswith("output_digest"):
            digest = line.split()[1]
    if digest is None or not lines:
        raise RuntimeError(f"{name}: ledger printed no output_digest")
    result = json.loads(lines[-1])
    if result.get("failed", 0) != 0:
        raise RuntimeError(f"{name}: {result['failed']} failed call(s)")
    values = {"output_digest": digest}
    for metric, entry in sorted(result["metrics"].items()):
        if entry["unit"] == "count":
            values[metric] = entry["value"]
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite tests/golden/ledger_smoke.json")
    args = parser.parse_args()

    foreign = foreign_build_source()
    if foreign is not None:
        print(f"ledger_gate: {os.path.relpath(LEDGER_CACHE, ROOT)} builds "
              f"{foreign}, not {LEDGER_SOURCE}; delete .bench_build/ and "
              f"rerun", file=sys.stderr)
        return 2

    got = {}
    for name in WORKLOADS:
        try:
            got[name] = run_workload(name)
        except RuntimeError as err:
            print(f"ledger_gate: {err}", file=sys.stderr)
            return 1

    want = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            want = json.load(f)["workloads"]
    changes = []  # (workload, key, committed, got)
    for name in WORKLOADS:
        expected = want.get(name, {})
        for key in sorted(set(expected) | set(got[name])):
            a = expected.get(key)
            b = got[name].get(key)
            if a != b:
                changes.append((name, key, a, b))

    if args.update:
        for name, key, a, b in changes:
            print(f"ledger_gate: {name} {key}: {a} \u2192 {b}")
        with open(GOLDEN, "w") as out:
            json.dump({"seed": SEED, "workloads": got}, out, indent=2,
                      sort_keys=True)
            out.write("\n")
        print(f"ledger_gate: wrote {os.path.relpath(GOLDEN, ROOT)} "
              f"({len(changes)} changed)")
        return 0

    for name, key, a, b in changes:
        print(f"ledger_gate: {name} {key}: committed {a}, got {b}",
              file=sys.stderr)
    if changes:
        return 1
    print(f"ledger_gate: OK ({len(WORKLOADS)} workloads match "
          f"{os.path.relpath(GOLDEN, ROOT)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
