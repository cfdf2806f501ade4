#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload k times with consecutive seeds and prints, for every
metric, the median, the quartiles and the spread (q3 - q1) / median,
flagging a spread over the metric's bound in BENCHMARK.json. With
--compare it also flags every metric whose median in this set is worse
than in an earlier set by more than its bound.

    python3 perfbench/steady.py --runs 10 --out runs-a.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 \\
        --compare runs-a.json --out runs-b.json
    python3 perfbench/steady.py --load runs-b.json --compare runs-a.json

Run from the root of a checkout. Exits 1 when anything is flagged.
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


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, ((q3 - q1) / med) if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(runs, spec, compare):
    """Print the table; return the number of flagged metrics."""
    flagged = 0
    for workload, samples in runs.items():
        print(f"\n{workload} ({len(samples)} runs)")
        print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        names = sorted({k for s in samples for k in s})
        for name in names:
            values = [s[name] for s in samples if name in s]
            if len(values) < 2:
                continue
            q1, med, q3, sp = spread(values)
            m = spec.get(name, {})
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and sp > bound:
                flag, flagged = " SPREAD", flagged + 1
            if compare and workload in compare and bound is not None:
                old = [s[name] for s in compare[workload] if name in s]
                if old:
                    w = worse_by(statistics.median(old), med,
                                 m.get("better", "lower"))
                    flag += f" vs-first {w:+.3f}"
                    if w > bound:
                        flag, flagged = flag + " WORSE", flagged + 1
            print(f"  {name:<26}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{sp:>9.3f}{bound if bound is not None else '-':>7}{flag}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the runs as JSON")
    ap.add_argument("--load", help="report saved runs instead of running")
    ap.add_argument("--compare", help="saved runs of an earlier set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    spec = {m["name"]: m for m in bench[kind]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    if args.load:
        with open(args.load) as f:
            runs = json.load(f)
    else:
        runs = {}
        for w in workloads:
            runs[w] = []
            for i in range(args.runs):
                seed = args.first_seed + i
                t0 = time.monotonic()
                runs[w].append(run_once(w, seed,
                                        args.seconds or bench["run_seconds"],
                                        args.trace))
                print(f"{w} seed {seed}: done in "
                      f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    compare = None
    if args.compare:
        with open(args.compare) as f:
            compare = json.load(f)
    return 1 if report(runs, spec, compare) else 0


if __name__ == "__main__":
    sys.exit(main())
