#!/usr/bin/env python3
"""CI regression gate for the bench JSON artifacts.

Two independent gates, each optional so CI jobs can run just the one
they produce evidence for:

* Thread-sweep gate (positional ``bench.json baseline.json``): compares
  a fresh bench/parallel_throughput run against the committed
  bench/baseline.json and fails (exit 1) when decode throughput
  regresses by more than the threshold. Compression modes are reported
  but not gated: CI runners vary enough that only the decode hot path —
  the paper's headline claim — is held to a hard bound. The
  obs_overhead mode carries its own absolute gate: the run fails when
  leaving metrics on costs more than --obs-overhead-max percent.
  The sample_study mode carries two more absolute gates: the sampled
  cache study must decode at most --sample-decoded-frac-max of the
  bytes a full-trace pass decodes (that fraction IS the speedup claim,
  so regressing it silently would gut the subsystem), and its merged
  miss-ratio estimate must stay within --sample-miss-error-max of the
  full-reference ratio. The decoded-fraction gate is skipped when the
  bench reports decoded_frac < 0 (observability compiled out — no
  evidence either way); the error gate always applies.

* Matrix gate (``--matrix fresh.json [--matrix-baseline base.json]``):
  compares a fresh bench/matrix sweep against the committed
  bench/matrix_baseline.json, cell by cell, against the gates listed in
  the manifest. A gated cell missing from the fresh run fails, as does
  an addresses mismatch between the two sweeps (ratios would be
  meaningless).

Which modes and cells are gated, and the default thresholds, live in
the bench/gates.json manifest (override with --gates). Gate kinds:

    min_ratio  fresh/baseline >= value  (throughput floors)
    max_ratio  fresh/baseline <= value  (size/latency ceilings)
    max_abs    fresh <= value           (absolute bounds, no baseline)

The manifest may also carry ``speedup_gates``: absolute floors on the
parallel speedup of one mode at one thread count (e.g.
``compress_speedup_4t``), applied against the fresh sweep alone — no
baseline involved. Each gate is guarded on the runner's core count as
reported by the bench JSON's ``cores`` field: on a machine with fewer
cores than the gate's ``min_cores`` the gate is reported but not
enforced (a 1-core container cannot demonstrate a 4-thread speedup,
and failing there would gate on the runner, not the code).

Usage:
    check_regression.py [bench.json baseline.json]
        [--matrix fresh.json] [--matrix-baseline base.json]
        [--gates gates.json] [--threshold 0.15]
        [--obs-overhead-max 3.0]
        [--sample-decoded-frac-max 0.10] [--sample-miss-error-max 0.08]
        [--summary <markdown-file>]

Threshold precedence: CLI flag > environment variable
(ATC_BENCH_REGRESSION_THRESHOLD / ATC_OBS_OVERHEAD_MAX /
ATC_SAMPLE_DECODED_FRAC_MAX / ATC_SAMPLE_MISS_ERROR_MAX) >
gates.json > built-in default. The --summary file receives a GitHub-flavoured
markdown table (append mode, so pointing it at $GITHUB_STEP_SUMMARY
stacks a row per job and the perf trajectory stays visible across PRs).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_GATES = os.path.join(HERE, "gates.json")
DEFAULT_MATRIX_BASELINE = os.path.join(HERE, "matrix_baseline.json")

DEFAULT_THRESHOLD = 0.15
DEFAULT_OBS_OVERHEAD_MAX = 3.0
DEFAULT_SAMPLE_DECODED_FRAC_MAX = 0.10
DEFAULT_SAMPLE_MISS_ERROR_MAX = 0.08

GATE_KINDS = ("min_ratio", "max_ratio", "max_abs")


class GatesError(ValueError):
    """The gates manifest is malformed."""


def load_gates(path):
    """Parse and validate a gates manifest.

    Returns a dict with keys ``gated_modes`` (list of str),
    ``matrix_cells`` (list of gate dicts), and optional numeric
    ``threshold`` / ``obs_overhead_max_pct``. Raises GatesError on any
    structural problem — a manifest typo must fail CI loudly, not
    silently gate nothing.
    """
    with open(path) as f:
        gates = json.load(f)
    if not isinstance(gates, dict):
        raise GatesError("gates manifest must be a JSON object")

    modes = gates.get("gated_modes", [])
    if (not isinstance(modes, list)
            or not all(isinstance(m, str) and m for m in modes)):
        raise GatesError("gated_modes must be a list of mode names")

    for key in ("threshold", "obs_overhead_max_pct",
                "sample_decoded_frac_max", "sample_miss_error_max"):
        if key in gates and not isinstance(gates[key], (int, float)):
            raise GatesError("%s must be a number" % key)
    if "threshold" in gates and not 0 < gates["threshold"] < 1:
        raise GatesError("threshold must be a fraction in (0, 1)")

    speedups = gates.get("speedup_gates", [])
    if not isinstance(speedups, list):
        raise GatesError("speedup_gates must be a list")
    for gate in speedups:
        if not isinstance(gate, dict):
            raise GatesError("speedup_gates entries must be objects")
        for key in ("name", "mode", "threads", "min_speedup"):
            if key not in gate:
                raise GatesError(
                    "speedup gate missing required key '%s': %r"
                    % (key, gate))
        for key in ("name", "mode"):
            if not isinstance(gate[key], str) or not gate[key]:
                raise GatesError(
                    "speedup gate '%s' must be a non-empty string" % key)
        for key in ("threads", "min_cores"):
            if key in gate and (not isinstance(gate[key], int)
                                or gate[key] < 1):
                raise GatesError(
                    "speedup gate '%s' must be a positive integer" % key)
        if (not isinstance(gate["min_speedup"], (int, float))
                or gate["min_speedup"] <= 0):
            raise GatesError("speedup gate 'min_speedup' must be positive")

    cells = gates.get("matrix_cells", [])
    if not isinstance(cells, list):
        raise GatesError("matrix_cells must be a list")
    for gate in cells:
        if not isinstance(gate, dict):
            raise GatesError("matrix_cells entries must be objects")
        for key in ("cell", "metric", "kind", "value"):
            if key not in gate:
                raise GatesError(
                    "matrix gate missing required key '%s': %r"
                    % (key, gate))
        if not isinstance(gate["cell"], str) or not gate["cell"]:
            raise GatesError("matrix gate 'cell' must be a cell id")
        if not isinstance(gate["metric"], str) or not gate["metric"]:
            raise GatesError("matrix gate 'metric' must be a field name")
        if gate["kind"] not in GATE_KINDS:
            raise GatesError(
                "matrix gate kind '%s' not one of %s"
                % (gate["kind"], "/".join(GATE_KINDS)))
        if (not isinstance(gate["value"], (int, float))
                or gate["value"] <= 0):
            raise GatesError("matrix gate 'value' must be positive")

    return {
        "gated_modes": modes,
        "matrix_cells": cells,
        "speedup_gates": speedups,
        "threshold": gates.get("threshold"),
        "obs_overhead_max_pct": gates.get("obs_overhead_max_pct"),
        "sample_decoded_frac_max": gates.get("sample_decoded_frac_max"),
        "sample_miss_error_max": gates.get("sample_miss_error_max"),
    }


def resolve(cli_value, env_name, gates_value, default):
    """CLI > environment > gates.json > built-in default."""
    if cli_value is not None:
        return cli_value
    env = os.environ.get(env_name)
    if env is not None:
        return float(env)
    if gates_value is not None:
        return gates_value
    return default


def best_throughput(results, mode):
    """Peak Maddrs/s over the thread sweep for one mode."""
    rows = [r for r in results if r["mode"] == mode]
    if not rows:
        return None
    return max(r["maddrs_per_s"] for r in rows)


def max_thread_speedup(results, mode):
    rows = [r for r in results if r["mode"] == mode]
    if not rows:
        return None
    return max(rows, key=lambda r: r["threads"])["speedup"]


def find_row(results, mode, threads):
    for r in results:
        if r["mode"] == mode and r["threads"] == threads:
            return r
    return None


def check_speedups(bench, speedup_gates):
    """Absolute parallel-speedup floors, guarded on runner cores.

    Returns (markdown lines, failure strings). Gates whose min_cores
    exceeds the bench's reported core count are listed as skipped: a
    small runner is not evidence of a scaling regression.
    """
    lines = []
    failures = []
    cores = bench.get("cores", 0)
    for gate in speedup_gates:
        name = gate["name"]
        mode, threads = gate["mode"], gate["threads"]
        floor = gate["min_speedup"]
        min_cores = gate.get("min_cores", threads)
        if cores < min_cores:
            lines.append(
                "Speedup gate `%s`: skipped (runner has %s cores, "
                "gate needs >= %d)." % (name, cores or "unknown",
                                        min_cores))
            continue
        row = find_row(bench.get("results", []), mode, threads)
        if row is None:
            failures.append(
                "%s: no %s row at %d threads in the fresh sweep on a "
                "%d-core runner (bench crashed or the thread list "
                "dropped %d?)" % (name, mode, threads, cores, threads))
            lines.append("Speedup gate `%s`: FAIL (row missing)." % name)
            continue
        speedup = row["speedup"]
        ok = speedup >= floor
        if not ok:
            failures.append(
                "%s: %s speedup %.2fx at %d threads below floor %.2fx "
                "(%d-core runner)" % (name, mode, speedup, threads,
                                      floor, cores))
        lines.append(
            "Speedup gate `%s`: %s at %d threads is %.2fx (floor "
            "%.2fx, %d cores) — %s." % (name, mode, threads, speedup,
                                        floor, cores,
                                        "ok" if ok else "FAIL"))
    return lines, failures


def check_sweep(bench, baseline, gated_modes, threshold,
                obs_overhead_max, sample_decoded_frac_max=None,
                sample_miss_error_max=None, speedup_gates=()):
    """Thread-sweep gate. Returns (markdown lines, failure strings)."""
    if sample_decoded_frac_max is None:
        sample_decoded_frac_max = DEFAULT_SAMPLE_DECODED_FRAC_MAX
    if sample_miss_error_max is None:
        sample_miss_error_max = DEFAULT_SAMPLE_MISS_ERROR_MAX
    lines = []
    lines.append("### Perf trajectory — `%s` (%s addresses)"
                 % (bench.get("benchmark", "?"), bench.get("addresses", "?")))
    lines.append("")
    lines.append("| mode | best Maddrs/s | baseline | ratio | speedup "
                 "@max threads | gate |")
    lines.append("|---|---|---|---|---|---|")

    failures = []
    modes = []
    for row in bench["results"]:
        if row["mode"] not in modes:
            modes.append(row["mode"])
    for mode in modes:
        new = best_throughput(bench["results"], mode)
        old = best_throughput(baseline.get("results", []), mode)
        speedup = max_thread_speedup(bench["results"], mode)
        gated = mode in gated_modes
        if old is None or old == 0:
            ratio_txt, verdict = "n/a (new mode)", "–"
        else:
            ratio = new / old
            ratio_txt = "%.2f" % ratio
            if gated and ratio < 1.0 - threshold:
                verdict = "FAIL"
                failures.append(
                    "%s: %.3f Maddrs/s vs baseline %.3f (ratio %.2f < "
                    "%.2f)" % (mode, new, old, ratio, 1.0 - threshold))
            else:
                verdict = "ok" if gated else "info"
        lines.append("| %s | %.3f | %s | %s | %.2fx | %s |"
                     % (mode, new,
                        "%.3f" % old if old else "–",
                        ratio_txt, speedup, verdict))

    # A gated mode that the baseline knows but the fresh run lacks means
    # the bench crashed or silently dropped the mode — that must fail
    # the gate, not print "n/a" and pass.
    baseline_modes = {r["mode"] for r in baseline.get("results", [])}
    for mode in gated_modes:
        if mode in baseline_modes and mode not in modes:
            failures.append(
                "%s: gated mode present in baseline but absent from the "
                "fresh bench run (bench crashed or dropped the mode?)"
                % mode)
            lines.append("| %s | MISSING | %.3f | – | – | FAIL |"
                         % (mode,
                            best_throughput(baseline["results"], mode)))

    # Absolute gate on the cost of the observability layer itself:
    # obs_overhead rows carry overhead_pct, the slowdown of decoding
    # with metrics recording on versus runtime-disabled.
    overhead_rows = [r for r in bench["results"]
                     if "overhead_pct" in r]
    for row in overhead_rows:
        pct = row["overhead_pct"]
        if pct > obs_overhead_max:
            failures.append(
                "obs_overhead: metrics-on decode is %.2f%% slower than "
                "metrics-off (bound %.2f%%)" % (pct, obs_overhead_max))
        lines.append("")
        lines.append("Observability overhead: %.2f%% (metrics on "
                     "%.3f Maddrs/s, off %.3f Maddrs/s, bound %.1f%%)."
                     % (pct, row["maddrs_per_s"],
                        row.get("off_maddrs_per_s", 0),
                        obs_overhead_max))

    # Absolute gates on the sampling study: the decoded fraction is the
    # subsystem's reason to exist and the miss-ratio error is its
    # fidelity contract, so both are bounded directly rather than as a
    # ratio against baseline drift.
    sample_rows = [r for r in bench["results"]
                   if "miss_ratio_error" in r]
    for row in sample_rows:
        frac = row.get("decoded_frac", -1.0)
        err = row["miss_ratio_error"]
        if frac >= 0 and frac > sample_decoded_frac_max:
            failures.append(
                "sample_study: sampled run decoded %.1f%% of the bytes "
                "a full pass decodes (bound %.1f%%) — scattered windows "
                "are no longer cheap" % (frac * 100,
                                         sample_decoded_frac_max * 100))
        if err > sample_miss_error_max:
            failures.append(
                "sample_study: worst miss-ratio error %.4f vs the "
                "full-trace reference (bound %.4f)"
                % (err, sample_miss_error_max))
        lines.append("")
        lines.append("Sampling study: decoded fraction %s (bound "
                     "%.1f%%), worst miss-ratio error %.4f (bound "
                     "%.4f), %.2fx faster than the full pass."
                     % ("%.2f%%" % (frac * 100) if frac >= 0
                        else "n/a (obs off)",
                        sample_decoded_frac_max * 100, err,
                        sample_miss_error_max, row.get("speedup", 0)))

    if speedup_gates:
        speedup_lines, speedup_failures = check_speedups(bench,
                                                         speedup_gates)
        lines.append("")
        lines.extend(speedup_lines)
        failures.extend(speedup_failures)

    lines.append("")
    if failures:
        lines.append("**Decode-throughput regression beyond %d%%:**"
                     % round(threshold * 100))
        lines.extend("- " + f for f in failures)
    else:
        lines.append("Decode throughput within %d%% of baseline."
                     % round(threshold * 100))
    return lines, failures


def check_matrix(fresh, baseline, gates):
    """Matrix gate. Returns (markdown lines, failure strings)."""
    lines = []
    failures = []
    lines.append("### Matrix gate — `%s` (%s addresses, %d cells)"
                 % (fresh.get("benchmark", "?"),
                    fresh.get("addresses", "?"),
                    len(fresh.get("cells", []))))
    lines.append("")

    # Ratios against a baseline measured at a different trace length
    # are meaningless — bpa and miss-ratio error are length-dependent.
    if fresh.get("addresses") != baseline.get("addresses"):
        failures.append(
            "matrix: fresh run used %s addresses but baseline has %s — "
            "regenerate the baseline (refresh-baseline workflow) or fix "
            "the job's --addresses" % (fresh.get("addresses"),
                                       baseline.get("addresses")))
        lines.append("**FAIL**: addresses mismatch (fresh %s vs "
                     "baseline %s)." % (fresh.get("addresses"),
                                        baseline.get("addresses")))
        return lines, failures

    fresh_cells = {c["cell"]: c for c in fresh.get("cells", [])}
    base_cells = {c["cell"]: c for c in baseline.get("cells", [])}

    lines.append("| cell | metric | fresh | baseline | gate | verdict |")
    lines.append("|---|---|---|---|---|---|")
    for gate in gates:
        cell_id, metric = gate["cell"], gate["metric"]
        kind, bound = gate["kind"], gate["value"]
        fresh_cell = fresh_cells.get(cell_id)
        base_cell = base_cells.get(cell_id)

        if fresh_cell is None or metric not in fresh_cell:
            failures.append(
                "matrix %s: gated metric '%s' absent from the fresh "
                "sweep (bench crashed or dropped the cell?)"
                % (cell_id, metric))
            lines.append("| `%s` | %s | MISSING | – | %s %.3g | FAIL |"
                         % (cell_id, metric, kind, bound))
            continue
        new = fresh_cell[metric]

        if kind == "max_abs":
            ok = new <= bound
            if not ok:
                failures.append(
                    "matrix %s: %s = %.4f exceeds absolute bound %.4f"
                    % (cell_id, metric, new, bound))
            lines.append("| `%s` | %s | %.4f | – | %s %.3g | %s |"
                         % (cell_id, metric, new, kind, bound,
                            "ok" if ok else "FAIL"))
            continue

        if (base_cell is None or metric not in base_cell
                or base_cell[metric] == 0):
            # Ratio gates need a baseline; a brand-new gate reports
            # info until refresh-baseline lands a value for it.
            lines.append("| `%s` | %s | %.4f | n/a (new gate) | %s %.3g "
                         "| – |" % (cell_id, metric, new, kind, bound))
            continue
        old = base_cell[metric]
        ratio = new / old
        if kind == "min_ratio":
            ok = ratio >= bound
            if not ok:
                failures.append(
                    "matrix %s: %s = %.4f vs baseline %.4f (ratio %.2f "
                    "< %.2f)" % (cell_id, metric, new, old, ratio,
                                 bound))
        else:  # max_ratio
            ok = ratio <= bound
            if not ok:
                failures.append(
                    "matrix %s: %s = %.4f vs baseline %.4f (ratio %.2f "
                    "> %.2f)" % (cell_id, metric, new, old, ratio,
                                 bound))
        lines.append("| `%s` | %s | %.4f | %.4f | %s %.3g | %s |"
                     % (cell_id, metric, new, old, kind, bound,
                        "ok" if ok else "FAIL"))

    lines.append("")
    if failures:
        lines.append("**Matrix cells outside their gates:**")
        lines.extend("- " + f for f in failures)
    else:
        lines.append("All %d gated matrix cells within bounds."
                     % len(gates))
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("bench_json", nargs="?",
                        help="fresh parallel_throughput JSON")
    parser.add_argument("baseline_json", nargs="?",
                        help="committed thread-sweep baseline")
    parser.add_argument("--matrix",
                        help="fresh bench/matrix sweep JSON")
    parser.add_argument("--matrix-baseline",
                        default=DEFAULT_MATRIX_BASELINE,
                        help="committed matrix baseline "
                             "(default: bench/matrix_baseline.json)")
    parser.add_argument("--gates", default=DEFAULT_GATES,
                        help="gates manifest (default: bench/gates.json)")
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="maximum tolerated decode-throughput regression "
             "(fraction; overrides env and gates.json)")
    parser.add_argument(
        "--obs-overhead-max", type=float, default=None,
        help="maximum tolerated metrics-on decode overhead "
             "(percent; overrides env and gates.json)")
    parser.add_argument(
        "--sample-decoded-frac-max", type=float, default=None,
        help="maximum fraction of full-pass decoded bytes a sampled "
             "study may decode (overrides env and gates.json)")
    parser.add_argument(
        "--sample-miss-error-max", type=float, default=None,
        help="maximum worst-case sampled-vs-reference miss-ratio "
             "error (overrides env and gates.json)")
    parser.add_argument("--summary", help="markdown file to append to")
    args = parser.parse_args(argv)

    if bool(args.bench_json) != bool(args.baseline_json):
        parser.error("bench_json and baseline_json go together")
    if not args.bench_json and not args.matrix:
        parser.error("nothing to check: pass bench_json baseline_json "
                     "and/or --matrix")

    try:
        gates = load_gates(args.gates)
    except (GatesError, OSError, json.JSONDecodeError) as e:
        print("gates manifest %s: %s" % (args.gates, e), file=sys.stderr)
        return 2

    threshold = resolve(args.threshold, "ATC_BENCH_REGRESSION_THRESHOLD",
                        gates["threshold"], DEFAULT_THRESHOLD)
    obs_max = resolve(args.obs_overhead_max, "ATC_OBS_OVERHEAD_MAX",
                      gates["obs_overhead_max_pct"],
                      DEFAULT_OBS_OVERHEAD_MAX)
    frac_max = resolve(args.sample_decoded_frac_max,
                       "ATC_SAMPLE_DECODED_FRAC_MAX",
                       gates["sample_decoded_frac_max"],
                       DEFAULT_SAMPLE_DECODED_FRAC_MAX)
    err_max = resolve(args.sample_miss_error_max,
                      "ATC_SAMPLE_MISS_ERROR_MAX",
                      gates["sample_miss_error_max"],
                      DEFAULT_SAMPLE_MISS_ERROR_MAX)

    lines = []
    failures = []

    if args.bench_json:
        with open(args.bench_json) as f:
            bench = json.load(f)
        with open(args.baseline_json) as f:
            baseline = json.load(f)
        sweep_lines, sweep_failures = check_sweep(
            bench, baseline, gates["gated_modes"], threshold, obs_max,
            frac_max, err_max, gates["speedup_gates"])
        lines.extend(sweep_lines)
        failures.extend(sweep_failures)

    if args.matrix:
        with open(args.matrix) as f:
            fresh = json.load(f)
        with open(args.matrix_baseline) as f:
            matrix_baseline = json.load(f)
        if lines:
            lines.append("")
        matrix_lines, matrix_failures = check_matrix(
            fresh, matrix_baseline, gates["matrix_cells"])
        lines.extend(matrix_lines)
        failures.extend(matrix_failures)

    report = "\n".join(lines) + "\n"
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report + "\n")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
