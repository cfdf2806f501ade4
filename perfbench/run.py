#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, containers to a scratch
directory beside it that is removed afterwards. The last line of
standard output is the result JSON of the atcbench binary, checked
against the metrics BENCHMARK.json names for the run kind; everything
else the build prints goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive", "serve_hot", "sample_scan")


def build(build_dir):
    # CMake writes the Makefile only once a configure succeeds.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "atcbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "atcbench")


def check_result(line, trace):
    """Why the result line breaks the manifest, or None if it holds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != sorted(
            ("correct", "attempted", "failed", "metrics")):
        return "the result does not hold exactly the four keys"
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metrics missing {sorted(set(want) - set(got))}, "
                f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return f"{name} is in {got[name].get('unit')}, not {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is not a finite number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(target, f"perfbench-work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            target, f"perfbench-trace-{args.workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
        if not lines:
            print("perfbench: no result line", file=sys.stderr)
            return code or 1
        for line in lines[:-1]:
            print(line)
        why = check_result(lines[-1], args.trace)
        if why:
            print(lines[-1], file=sys.stderr)
            print(f"perfbench: result does not match BENCHMARK.json: {why}",
                  file=sys.stderr)
            return 1
        print(lines[-1], flush=True)
        return code
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
