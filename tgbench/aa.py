#!/usr/bin/env python3
"""A/A steadiness check: run every workload repeatedly on one commit.

Run from the root of a checkout:

    python3 tgbench/aa.py --runs 10 [--workloads groom_hot,held_churn]
                          [--seed0 1] [--out aa.json]

Round i runs each workload once with seed seed0+i; the workload order
alternates between rounds.  For every end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json, and flags a spread above its bound
(setup_s is reported but, as its spread is not gated, never flagged).
With --against a previous --out file it also flags a median that got
worse than that file's median by more than the bound.  Exits 1 when any
run failed or anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def worse_by(better, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    spec = load_spec()
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {w: {m: [] for m in metrics} for w in names}
    failures = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            seed = args.seed0 + i
            result = run_once(spec, w, seed)
            if result is None:
                failures.append(f"{w} seed {seed}")
                print(f"FAILED {w} seed {seed}", file=sys.stderr)
                continue
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in metrics),
                file=sys.stderr, flush=True)

    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    flags = []
    summary = {}
    print(f"{'workload':<12} {'metric':<16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in names:
        summary[w] = {}
        for m, meta in metrics.items():
            v = values[w][m]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][m] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": v}
            mark = ""
            if m != "setup_s" and spread > meta["bound"]:
                mark = "  SPREAD"
                flags.append(f"{w} {m} spread {spread:.3f} > {meta['bound']}")
            old = previous.get(w, {}).get(m)
            if old and worse_by(meta["better"], old["median"], med) > meta["bound"]:
                mark += "  WORSE"
                flags.append(f"{w} {m} median {med:.6g} worse than "
                             f"{old['median']:.6g} by more than {meta['bound']}")
            print(f"{w:<12} {m:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {meta['bound']:>6}{mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    for f in failures + flags:
        print("FLAG: " + f)
    return 1 if failures or flags else 0


if __name__ == "__main__":
    sys.exit(main())
