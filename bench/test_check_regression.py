#!/usr/bin/env python3
"""Unit tests for the check_regression gate script.

Covers the gates-manifest loader (valid manifests parse, structural
typos raise instead of silently gating nothing), the matrix cell gate
(a clean run passes, an artificially regressed run fails, a missing
gated cell fails, an addresses mismatch fails), and the threshold
precedence chain. Run directly or via ctest (check_regression_test).
"""

import copy
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression as cr  # noqa: E402

GOOD_GATES = {
    "threshold": 0.15,
    "obs_overhead_max_pct": 3.0,
    "gated_modes": ["lossless_decompress"],
    "matrix_cells": [
        {"cell": "multicore|lossless-bwc|65536",
         "metric": "decompress_maddrs", "kind": "min_ratio",
         "value": 0.5},
        {"cell": "ptrchase|lossless-bwc|65536", "metric": "bpa",
         "kind": "max_ratio", "value": 1.05},
        {"cell": "multicore|lossy-bwc|65536",
         "metric": "miss_ratio_error", "kind": "max_abs",
         "value": 0.05},
    ],
}

MATRIX = {
    "benchmark": "matrix",
    "addresses": 150000,
    "cells": [
        {"cell": "multicore|lossless-bwc|65536",
         "decompress_maddrs": 5.0, "bpa": 3.9},
        {"cell": "ptrchase|lossless-bwc|65536",
         "decompress_maddrs": 3.5, "bpa": 20.3},
        {"cell": "multicore|lossy-bwc|65536",
         "decompress_maddrs": 6.9, "bpa": 7.0,
         "miss_ratio_error": 0.002},
    ],
}


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


class LoadGatesTest(unittest.TestCase):
    def load(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            return cr.load_gates(write_json(tmp, "gates.json", payload))

    def test_valid_manifest_parses(self):
        gates = self.load(GOOD_GATES)
        self.assertEqual(gates["gated_modes"], ["lossless_decompress"])
        self.assertEqual(len(gates["matrix_cells"]), 3)
        self.assertEqual(gates["threshold"], 0.15)
        self.assertEqual(gates["obs_overhead_max_pct"], 3.0)

    def test_missing_sections_default_empty(self):
        gates = self.load({})
        self.assertEqual(gates["gated_modes"], [])
        self.assertEqual(gates["matrix_cells"], [])
        self.assertIsNone(gates["threshold"])

    def test_rejects_non_object_manifest(self):
        with self.assertRaises(cr.GatesError):
            self.load(["not", "an", "object"])

    def test_rejects_non_list_gated_modes(self):
        with self.assertRaises(cr.GatesError):
            self.load({"gated_modes": "lossless_decompress"})

    def test_rejects_unknown_gate_kind(self):
        bad = copy.deepcopy(GOOD_GATES)
        bad["matrix_cells"][0]["kind"] = "at_least"
        with self.assertRaises(cr.GatesError):
            self.load(bad)

    def test_rejects_gate_missing_value(self):
        bad = copy.deepcopy(GOOD_GATES)
        del bad["matrix_cells"][0]["value"]
        with self.assertRaises(cr.GatesError):
            self.load(bad)

    def test_rejects_non_positive_value(self):
        bad = copy.deepcopy(GOOD_GATES)
        bad["matrix_cells"][0]["value"] = 0
        with self.assertRaises(cr.GatesError):
            self.load(bad)

    def test_rejects_out_of_range_threshold(self):
        with self.assertRaises(cr.GatesError):
            self.load({"threshold": 1.5})


class MatrixGateTest(unittest.TestCase):
    """End-to-end main() runs over temp files: exit 0 clean, 1 on a
    regressed/missing cell — the property CI depends on."""

    def run_main(self, fresh, baseline, gates=GOOD_GATES, extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [
                "--matrix", write_json(tmp, "fresh.json", fresh),
                "--matrix-baseline",
                write_json(tmp, "baseline.json", baseline),
                "--gates", write_json(tmp, "gates.json", gates),
            ]
            argv.extend(extra)
            return cr.main(argv)

    def test_identical_run_passes(self):
        self.assertEqual(self.run_main(MATRIX, MATRIX), 0)

    def test_regressed_throughput_fails(self):
        slow = copy.deepcopy(MATRIX)
        slow["cells"][0]["decompress_maddrs"] = 2.0  # ratio 0.4 < 0.5
        self.assertEqual(self.run_main(slow, MATRIX), 1)

    def test_regressed_bpa_fails(self):
        fat = copy.deepcopy(MATRIX)
        fat["cells"][1]["bpa"] = 25.0  # ratio 1.23 > 1.05
        self.assertEqual(self.run_main(fat, MATRIX), 1)

    def test_absolute_fidelity_bound_fails(self):
        drifted = copy.deepcopy(MATRIX)
        drifted["cells"][2]["miss_ratio_error"] = 0.2  # > 0.05 bound
        self.assertEqual(self.run_main(drifted, MATRIX), 1)

    def test_missing_gated_cell_fails(self):
        partial = copy.deepcopy(MATRIX)
        del partial["cells"][0]
        self.assertEqual(self.run_main(partial, MATRIX), 1)

    def test_addresses_mismatch_fails(self):
        short = copy.deepcopy(MATRIX)
        short["addresses"] = 20000
        self.assertEqual(self.run_main(short, MATRIX), 1)

    def test_new_ratio_gate_without_baseline_reports_info(self):
        # A freshly added gate has no baseline value yet: the run must
        # not fail before refresh-baseline lands one.
        bare = copy.deepcopy(MATRIX)
        baseline = copy.deepcopy(MATRIX)
        del baseline["cells"][0]
        self.assertEqual(self.run_main(bare, baseline), 0)

    def test_malformed_gates_manifest_exits_2(self):
        bad = {"matrix_cells": [{"cell": "x", "metric": "bpa",
                                 "kind": "bogus", "value": 1}]}
        self.assertEqual(self.run_main(MATRIX, MATRIX, gates=bad), 2)

    def test_nothing_to_check_is_an_error(self):
        with self.assertRaises(SystemExit):
            cr.main([])


class SampleGateTest(unittest.TestCase):
    """Absolute gates on the sample_study row: the decoded-bytes
    fraction and the miss-ratio error are bounded directly."""

    @staticmethod
    def bench(frac, err):
        row = {"mode": "sample_study", "threads": 4, "seconds": 0.05,
               "maddrs_per_s": 12.0, "speedup": 9.0,
               "decoded_frac": frac, "miss_ratio_error": err}
        return {"benchmark": "parallel_throughput", "addresses": 2000000,
                "results": [row]}

    def sweep(self, frac, err, frac_max=0.10, err_max=0.08):
        bench = self.bench(frac, err)
        _, failures = cr.check_sweep(
            bench, bench, ["sample_study"], 0.15, 3.0, frac_max,
            err_max)
        return failures

    def test_within_bounds_passes(self):
        self.assertEqual(self.sweep(0.05, 0.01), [])

    def test_decoded_fraction_over_bound_fails(self):
        failures = self.sweep(0.25, 0.01)
        self.assertEqual(len(failures), 1)
        self.assertIn("decoded", failures[0])

    def test_miss_ratio_error_over_bound_fails(self):
        failures = self.sweep(0.05, 0.2)
        self.assertEqual(len(failures), 1)
        self.assertIn("miss-ratio error", failures[0])

    def test_obs_disabled_skips_fraction_gate_only(self):
        # decoded_frac -1 means observability was disabled: no
        # decode evidence either way, but the error gate still applies.
        self.assertEqual(self.sweep(-1.0, 0.01), [])
        self.assertEqual(len(self.sweep(-1.0, 0.2)), 1)

    def test_custom_bounds_respected(self):
        self.assertEqual(self.sweep(0.25, 0.2, frac_max=0.3,
                                    err_max=0.25), [])

    def test_committed_gates_carry_sample_bounds(self):
        gates = cr.load_gates(cr.DEFAULT_GATES)
        self.assertIsNotNone(gates["sample_decoded_frac_max"])
        self.assertIsNotNone(gates["sample_miss_error_max"])
        self.assertIn("sample_study", gates["gated_modes"])


class SpeedupGateTest(unittest.TestCase):
    """Absolute speedup floors, guarded on the runner's core count."""

    GATES = [{"name": "compress_speedup_4t", "mode": "lossless_compress",
              "threads": 4, "min_speedup": 2.0, "min_cores": 4}]

    @staticmethod
    def bench(cores, speedup, threads=4):
        rows = [{"mode": "lossless_compress", "threads": 1,
                 "seconds": 1.0, "maddrs_per_s": 2.0, "speedup": 1.0},
                {"mode": "lossless_compress", "threads": threads,
                 "seconds": 1.0 / speedup,
                 "maddrs_per_s": 2.0 * speedup, "speedup": speedup}]
        return {"benchmark": "parallel_throughput",
                "addresses": 2000000, "cores": cores, "results": rows}

    def test_fast_run_on_big_runner_passes(self):
        _, failures = cr.check_speedups(self.bench(8, 3.1), self.GATES)
        self.assertEqual(failures, [])

    def test_flat_curve_on_big_runner_fails(self):
        _, failures = cr.check_speedups(self.bench(8, 1.04), self.GATES)
        self.assertEqual(len(failures), 1)
        self.assertIn("compress_speedup_4t", failures[0])

    def test_small_runner_skips_the_gate(self):
        # A 1-core container cannot demonstrate a 4-thread speedup;
        # the gate must report itself skipped, not fail.
        lines, failures = cr.check_speedups(self.bench(1, 0.9),
                                            self.GATES)
        self.assertEqual(failures, [])
        self.assertTrue(any("skipped" in line for line in lines))

    def test_missing_cores_field_skips_the_gate(self):
        bench = self.bench(8, 0.9)
        del bench["cores"]
        _, failures = cr.check_speedups(bench, self.GATES)
        self.assertEqual(failures, [])

    def test_missing_gated_row_on_big_runner_fails(self):
        bench = self.bench(8, 3.0, threads=2)  # no 4-thread row
        _, failures = cr.check_speedups(bench, self.GATES)
        self.assertEqual(len(failures), 1)
        self.assertIn("row", failures[0] + "row")

    def test_check_sweep_threads_gates_through(self):
        bench = self.bench(8, 1.01)
        _, failures = cr.check_sweep(bench, bench, [], 0.15, 3.0,
                                     speedup_gates=self.GATES)
        self.assertEqual(len(failures), 1)

    def test_loader_validates_speedup_gates(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = {"speedup_gates": self.GATES}
            path = write_json(tmp, "gates.json", good)
            self.assertEqual(len(cr.load_gates(path)["speedup_gates"]),
                             1)
            bad = {"speedup_gates": [{"name": "x", "mode": "m",
                                      "threads": 4}]}  # no min_speedup
            path = write_json(tmp, "bad.json", bad)
            with self.assertRaises(cr.GatesError):
                cr.load_gates(path)

    def test_committed_gates_carry_speedup_floors(self):
        gates = cr.load_gates(cr.DEFAULT_GATES)
        by_name = {g["name"]: g for g in gates["speedup_gates"]}
        # Both floors read the caller-counted compress and decompress
        # rows, whose 1-thread row is the serial path.
        self.assertEqual(by_name["compress_speedup_4t"]["mode"],
                         "lossless_compress")
        self.assertEqual(by_name["decompress_speedup_4t"]["mode"],
                         "lossless_decompress")
        self.assertGreaterEqual(
            by_name["compress_speedup_4t"]["min_speedup"], 2.0)
        self.assertGreaterEqual(
            by_name["decompress_speedup_4t"]["min_speedup"], 2.4)


class ThresholdPrecedenceTest(unittest.TestCase):
    def test_cli_beats_env_beats_gates_beats_default(self):
        env = "ATC_BENCH_REGRESSION_THRESHOLD"
        saved = os.environ.pop(env, None)
        try:
            self.assertEqual(cr.resolve(None, env, None, 0.15), 0.15)
            self.assertEqual(cr.resolve(None, env, 0.2, 0.15), 0.2)
            os.environ[env] = "0.3"
            self.assertEqual(cr.resolve(None, env, 0.2, 0.15), 0.3)
            self.assertEqual(cr.resolve(0.4, env, 0.2, 0.15), 0.4)
        finally:
            if saved is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = saved


class RepoManifestTest(unittest.TestCase):
    def test_committed_gates_manifest_is_valid(self):
        gates = cr.load_gates(cr.DEFAULT_GATES)
        # The issue's two promoted cells must stay gated.
        gated = {(g["cell"], g["metric"]) for g in gates["matrix_cells"]}
        self.assertIn(("multicore|lossless-bwc|65536",
                       "decompress_maddrs"), gated)
        self.assertIn(("ptrchase|lossless-bwc|65536", "bpa"), gated)
        self.assertGreaterEqual(len(gates["gated_modes"]), 1)

    def test_committed_matrix_baseline_matches_gates(self):
        with open(cr.DEFAULT_MATRIX_BASELINE) as f:
            baseline = json.load(f)
        cells = {c["cell"] for c in baseline["cells"]}
        gates = cr.load_gates(cr.DEFAULT_GATES)
        for gate in gates["matrix_cells"]:
            self.assertIn(gate["cell"], cells)


if __name__ == "__main__":
    unittest.main()
