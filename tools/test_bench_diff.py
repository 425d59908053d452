#!/usr/bin/env python3
"""Tests for tools/bench_diff.py (plain unittest, stdlib only).

Structural differences (a missing or added key, a changed type, a changed
list length) must fail the diff on their own; numeric deviations only fail
it under --strict. ctest registers this file next to phch_lint_fixtures
(see tools/CMakeLists.txt).
"""

import copy
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402

BASE = {
    "threads": 4,
    "rows": [{"name": "find", "ns": 10.0}, {"name": "insert", "ns": 20.0}],
    "telemetry": {"histograms": {"probe_depth": {"count": 0}}},
}


def edited(edit):
    fresh = copy.deepcopy(BASE)
    edit(fresh)
    return fresh


def run_main(fresh, *extra):
    """Runs bench_diff.main() on `fresh` vs BASE; returns (exit, stdout)."""
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, "fresh.json"), os.path.join(d, "base.json")]
        for path, tree in zip(paths, (fresh, BASE)):
            with open(path, "w") as f:
                json.dump(tree, f)
        out = io.StringIO()
        with redirect_stdout(out):
            code = bench_diff.main(paths + list(extra))
    return code, out.getvalue()


class BenchDiff(unittest.TestCase):
    def test_structural_findings_fail_without_strict(self):
        cases = {
            "$.telemetry.histograms.probe_depth: missing":
                lambda t: t["telemetry"]["histograms"].clear(),
            "$.telemetry.histograms.stale_ns: not in baseline":
                lambda t: t["telemetry"]["histograms"].update(stale_ns={}),
            "$.rows[0].ns: type changed": lambda t: t["rows"][0].update(ns="x"),
            "$.rows: length changed: 2 -> 1": lambda t: t["rows"].pop(),
        }
        for needle, edit in cases.items():
            with self.subTest(needle):
                fresh = edited(edit)
                structural, _ = bench_diff.diff(fresh, BASE)
                self.assertTrue(any(needle in s for s in structural), structural)
                code, out = run_main(fresh)
                self.assertEqual(code, 1, out)

    def test_identical_passes(self):
        self.assertEqual(run_main(BASE, "--strict")[0], 0)

    def test_numeric_deviation_fails_only_under_strict(self):
        fresh = edited(lambda t: t["rows"][1].update(ns=80.0))
        self.assertEqual(bench_diff.diff(fresh, BASE)[0], [])
        code, out = run_main(fresh)
        self.assertEqual(code, 0, out)
        self.assertIn("$.rows[1].ns", out)
        self.assertEqual(run_main(fresh, "--strict")[0], 1)

    def test_bucket_list_length_is_data(self):
        fresh = edited(lambda t: t["telemetry"]["histograms"]["probe_depth"]
                       .update(buckets=[[1, 5]]))
        base = edited(lambda t: t["telemetry"]["histograms"]["probe_depth"]
                      .update(buckets=[[1, 4], [2, 1]]))
        structural, deviations = bench_diff.diff(fresh, base)
        self.assertEqual(structural, [])
        self.assertTrue(any("length changed" in d for d in deviations))

    def test_tolerance_env_keys_and_int_float_pass_strict(self):
        fresh = edited(lambda t: (t["rows"][0].update(ns=11),
                                  t.update(threads=64)))
        self.assertEqual(bench_diff.diff(fresh, BASE), ([], []))
        self.assertEqual(run_main(fresh, "--strict")[0], 0)


if __name__ == "__main__":
    unittest.main()
