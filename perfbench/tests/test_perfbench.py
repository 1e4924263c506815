"""Tests of the benchmark's own arithmetic and of its failure path.

    python3 -m unittest discover -s perfbench/tests

They need no build: the driver's output is replaced by a canned document.
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import analysis  # noqa: E402
import run  # noqa: E402

SPEC = run.load_json(run.ROOT / "BENCHMARK.json")


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (-1, 1, "bench.op", 0.0, 10.0),
            (0, 1, "study.build_plan", 1.0, 4.0),
            (1, 1, "workloads.generate", 2.0, 3.0),
            (0, 1, "gpu.simulate", 5.0, 9.0),
        ]
        self.assertEqual(analysis.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        root, layers = analysis.op_breakdown(spans)[1]
        self.assertEqual(root, 10.0)
        self.assertEqual(layers, {"bench": 3.0, "study": 2.0, "workloads": 1.0, "gpu": 4.0})
        self.assertEqual(sum(layers.values()), root)

    def test_children_count_once_and_only_inside_the_parent(self):
        spans = [
            (-1, 1, "bench.op", 0.0, 10.0),
            (0, 1, "gpu.simulate", 1.0, 5.0),
            (0, 1, "gpu.simulate", 3.0, 7.0),  # overlaps its sibling
            (0, 1, "cache.lookup", 9.0, 12.0),  # runs past the parent's end
        ]
        self.assertEqual(analysis.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_ops_are_kept_apart(self):
        spans = [
            (-1, 1, "bench.op", 0.0, 2.0),
            (0, 1, "gpu.simulate", 0.5, 1.5),
            (-1, 2, "bench.op", 2.0, 3.0),
            (2, 2, "cache.lookup", 2.25, 2.5),
        ]
        ops = analysis.op_breakdown(spans)
        self.assertEqual(ops[1], (2.0, {"bench": 1.0, "gpu": 1.0}))
        self.assertEqual(ops[2], (1.0, {"bench": 0.75, "cache": 0.25}))
        self.assertEqual(run.layer_sum_failures(spans), [])


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(analysis.highest_percentile(19))
        self.assertEqual(analysis.highest_percentile(20), 50)
        self.assertEqual(analysis.highest_percentile(99), 50)
        self.assertEqual(analysis.highest_percentile(100), 90)
        self.assertEqual(analysis.highest_percentile(999), 90)
        self.assertEqual(analysis.highest_percentile(1000), 99)
        self.assertEqual(analysis.highest_percentile(10000), 99.9)

    def test_percentile_matches_statistics_quantiles(self):
        xs = [7.5, 1.0, 3.25, 9.0, 4.0, 2.5, 8.0]
        deciles = statistics.quantiles(xs, n=10, method="inclusive")
        self.assertAlmostEqual(analysis.percentile(xs, 90), deciles[8])
        self.assertAlmostEqual(analysis.percentile(xs, 50), statistics.median(xs))

    def test_fastest_pass_takes_each_ops_minimum(self):
        self.assertEqual(analysis.fastest_pass([3.0, 5.0, 4.0, 2.0], 2), 3.0 + 2.0)
        self.assertEqual(analysis.fastest_pass([3.0, 5.0], 1), 8.0)
        with self.assertRaises(ValueError):
            analysis.fastest_pass([1.0, 2.0, 3.0], 2)
        with self.assertRaises(ValueError):
            analysis.fastest_pass([], 0)

    def test_quartile_spread(self):
        self.assertAlmostEqual(analysis.quartile_spread([10.0] * 4), 0.0)
        self.assertGreater(analysis.quartile_spread([9.0, 10.0, 11.0, 12.0]), 0.1)


def canned_fig8(reference, trace=False):
    """A driver document for paper_fig8 whose outputs match `reference` and
    whose hotspot pair matches the committed perf baseline."""
    hotspot = run.baseline_hotspot_cycles()
    points = []
    for key, digest in sorted(reference["points"].items()):
        variant, kernel = key.split("|")
        cycles = 1000
        if kernel == "hotspot":
            cycles = hotspot // 2 if variant == "Unshared-LRR" else hotspot - hotspot // 2
        points.append({"variant": variant, "kernel": kernel, "cycles": cycles, "digest": digest})
    raw = {"workload": "paper_fig8", "seed": 1, "setup_s": [[4e-05, 5e-05, 4.5e-05], [6e-05]],
           "pass_s": [10.25, 10.5], "op_ms": [300.0] * (2 * len(points)), "ops": len(points),
           "failed_ops": 0,
           "failures": [], "peak_rss_kb": 6144, "points": points, "report_digest": "",
           "report_bytes": 0, "kernels": 15}
    if trace:
        phases = ("simulate", "execute_writeback", "scheduler_scan", "issue", "memsys_l2",
                  "dram", "event_sleep", "timeline", "cache_lookup", "cache_store")
        raw["trace"] = {
            "untraced_s": 10.0, "traced_s": 10.5, "profiled_s": 20.0, "profiled_base_s": 10.0,
            "counters": {k: 100 for k in (
                "sims", "cycles", "sm_cycles", "warp_insts", "issued_cycles", "stall_cycles",
                "idle_cycles", "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
                "dram_requests", "dram_row_hits", "resident_blocks", "lock_acquisitions",
                "lock_wait_cycles", "dyn_throttled_issues")},
            "sweeps": [[1, 10000.0, 9999.5]],
            "cache": {k: 0 for k in ("hits", "misses", "corrupt", "stores", "bytes_read",
                                     "bytes_written")},
            "prof": {p: {"calls": 10, "self_s": 0.5} for p in phases},
            "spans": [[-1, 1, "bench.op", 0.0, 1.0], [0, 1, "gpu.simulate", 0.0, 0.75]],
        }
    return raw


class FailurePathTest(unittest.TestCase):
    def run_main(self, raw, reference, trace=0):
        with tempfile.TemporaryDirectory() as ref_dir:
            Path(ref_dir, "paper_fig8.json").write_text(json.dumps(reference))
            out = io.StringIO()
            with mock.patch.object(run, "build", return_value="grs_perfbench"), \
                    mock.patch.object(run, "run_driver", return_value=raw), \
                    mock.patch.object(run, "REFERENCE", Path(ref_dir)), \
                    contextlib.redirect_stdout(out):
                status = run.main(["--workload", "paper_fig8", "--trace", str(trace)])
        return status, out.getvalue().splitlines()

    def committed(self):
        return run.load_json(run.REFERENCE / "paper_fig8.json")

    def test_matching_outputs_pass(self):
        reference = self.committed()
        status, lines = self.run_main(canned_fig8(reference), reference)
        result = json.loads(lines[-1])
        self.assertEqual(status, 0)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))

    def test_perturbed_reference_fails_after_printing_every_metric(self):
        reference = self.committed()
        raw = canned_fig8(reference)
        key = sorted(reference["points"])[0]
        reference["points"][key] = "0" * 64
        status, lines = self.run_main(raw, reference)
        result = json.loads(lines[-1])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC["end_to_end"]])
        self.assertEqual(result["metrics"]["setup_s"]["value"], 4.5e-05)
        self.assertTrue(any(key in line and "FAILED" in line for line in lines))

    def test_traced_run_prints_every_per_layer_metric(self):
        reference = self.committed()
        status, lines = self.run_main(canned_fig8(reference, trace=True), reference, trace=1)
        result = json.loads(lines[-1])
        self.assertEqual(status, 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC["per_layer"]])
        self.assertAlmostEqual(result["metrics"]["trace.overhead_ratio"]["value"], 1.05)
        self.assertTrue(any("not measured: cache.*" in line for line in lines))


if __name__ == "__main__":
    unittest.main()
