#!/usr/bin/env python3
"""End-to-end benchmark of the grs simulator.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--fuzz-start F] [--update-reference]

Run from the repository root. Builds perfbench/ (the simulator sources plus
the driver in perfbench/driver) into .bench_build/, then runs each workload
in its own driver process: all three without --workload. For each workload
it prints its metrics with units, ops and failed_ops, and then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, timed with tracing
off; with --trace 1 they are its per_layer set, from a traced pass, a
profiled pass and an untraced pass in one process.

Every simulated output is checked: fig8 point digests and study report
digests against perfbench/reference/, the fig8 hotspot pair against the
committed perf baseline, fuzz cycle mode against event mode. Exit status: 0
when every check passed, 1 when any op failed (after printing every metric),
2 when the benchmark could not run. --update-reference rewrites the committed
references from the current run instead of checking them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BASELINE = ROOT / "bench" / "baselines" / "linux-gcc-release.json"
REFERENCE = HERE / "reference"
WORKLOADS = ("paper_fig8", "fuzz_memory", "study_warm")
DRIVER_TIMEOUT_S = 170

# Per-layer metrics that a workload makes no call for, with the reason. They
# are printed as 0 and listed on every traced run.
NOT_MEASURED = {
    "paper_fig8": {
        "workloads.*": "built-in paper kernels: nothing is generated or loaded",
        "study.*": "no study pipeline runs",
        "cache.*": "the result cache is off",
    },
    "fuzz_memory": {
        "workloads.load_ms": "only generated kernels: no corpus is loaded",
        "study.*": "no study pipeline runs",
        "cache.*": "the result cache is off: a cached result would mask a divergence",
    },
    "study_warm": {
        "workloads.generate_ms": "cells are generated inside study::build_plan; "
        "that time counts in study.plan_ms",
    },
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --- building and running the driver -----------------------------------------


def tool_env():
    """Keeps compiler and driver temporaries inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "bench" / "fig8_blocks_ipc.cc").is_file():
        raise BenchError(f"no simulator sources (src/, bench/) under {ROOT}")
    out = BUILD / "perfbench"
    env = tool_env()
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                       stdout=sys.stderr, check=True, env=env)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e
    return out / "grs_perfbench"


def run_driver(driver, workload, args):
    work = BUILD / f"work-{os.getpid()}-{workload}"
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work),
           "--corpus", str(ROOT / "examples" / "kernels"),
           "--fuzz-start", str(args.fuzz_start)]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=tool_env(),
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- output checks -------------------------------------------------------------


def baseline_hotspot_cycles():
    for point in load_json(BASELINE)["points"]:
        if point["name"] == "fig8:hotspot":
            return point["cycles"]
    raise BenchError(f"no fig8:hotspot point in {BASELINE}")


def check_outputs(raw, reference, hotspot_cycles):
    """Failure messages from comparing one run's outputs with the committed
    references; each counts as one failed op."""
    failures = []
    if raw["workload"] != "fuzz_memory" and reference is None:
        return [f"no committed reference for {raw['workload']}"]
    if raw["workload"] == "paper_fig8":
        want = reference["points"]
        got = {f'{p["variant"]}|{p["kernel"]}': p for p in raw["points"]}
        for key in sorted(set(want) | set(got)):
            if key not in got or got[key]["digest"] != want.get(key):
                failures.append(f"fig8 point {key}: digest differs from the reference")
        hotspot = sum(p["cycles"] for p in raw["points"] if p["kernel"] == "hotspot")
        if hotspot != hotspot_cycles:
            failures.append(f"fig8 hotspot pair: {hotspot} cycles, "
                            f"the perf baseline records {hotspot_cycles}")
    elif raw["workload"] == "study_warm" and raw["seed"] == reference["grid_seed"]:
        if raw["report_digest"] != reference["reports_sha256"]:
            failures.append("study reports differ from the reference")
    return failures


def updated_reference(raw):
    if raw["workload"] == "paper_fig8":
        return {"points": {f'{p["variant"]}|{p["kernel"]}': p["digest"]
                           for p in raw["points"]}}
    if raw["workload"] == "study_warm":
        return {"grid_seed": raw["seed"], "reports_sha256": raw["report_digest"]}
    return None


# --- metrics -------------------------------------------------------------------


def end_to_end_metrics(raw):
    return {
        # The median set-up on the fastest vCPU it ran on.
        "setup_s": min(statistics.median(times) for times in raw["setup_s"]),
        "wall_s": analysis.fastest_pass(raw["op_ms"], len(raw["pass_s"])) / 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(raw):
    t = raw["trace"]
    spans, counters, prof, cache = t["spans"], t["counters"], t["prof"], t["cache"]

    def total_ms(name):
        return sum(analysis.durations(spans, name)) * 1e3

    def mean(name, scale):
        d = analysis.durations(spans, name)
        return sum(d) / len(d) * scale if d else 0.0

    def prof_ms(phase):
        return prof[phase]["self_s"] * 1e3

    sims = analysis.durations(spans, "gpu.simulate")
    regenerations = len(analysis.durations(spans, "study.aggregate"))
    sweep_ms = sum(wall for _, wall, _ in t["sweeps"])
    pool_ms = sum(threads * wall for threads, wall, _ in t["sweeps"])
    cells_ms = sum(cells for _, _, cells in t["sweeps"])
    lookups = cache["hits"] + cache["misses"] + cache["corrupt"]
    return {
        "workloads.generate_ms": total_ms("workloads.generate"),
        "workloads.load_ms": mean("workloads.load_kernel_dir", 1e3),
        "workloads.kernels": raw["kernels"],
        "study.plan_ms": ratio(total_ms("study.build_plan") + total_ms("study.to_sweep_spec"),
                               regenerations),
        "study.aggregate_ms": mean("study.aggregate", 1e3),
        "study.report_ms": mean("study.write_reports", 1e3),
        "study.report_bytes": raw["report_bytes"],
        "cache.key_us": mean("cache.result_cache_key", 1e6),
        "cache.lookup_us": mean("cache.lookup", 1e6),
        "cache.store_us": mean("cache.store", 1e6),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.stores": cache["stores"],
        "cache.bytes_read": cache["bytes_read"],
        "cache.bytes_written": cache["bytes_written"],
        "cache.hit_ratio": ratio(cache["hits"], lookups),
        "runner.sweep_ms": sweep_ms,
        # Worker time outside the cells: engine overhead plus idle workers.
        "runner.overhead_ms": pool_ms - cells_ms,
        "runner.pool_utilization": ratio(cells_ms, pool_ms),
        "gpu.sims": counters["sims"],
        "gpu.simulate_ms": sum(sims) * 1e3,
        "gpu.simulate_p50_ms": statistics.median(sims) * 1e3 if sims else 0.0,
        "gpu.sim_cycles": counters["cycles"],
        "gpu.warp_insts": counters["warp_insts"],
        "gpu.host_ns_per_cycle": ratio(sum(sims) * 1e9, counters["cycles"]),
        "gpu.event_sleep_self_ms": prof_ms("event_sleep"),
        "gpu.stepped_sm_cycle_ratio": ratio(prof["scheduler_scan"]["calls"],
                                            counters["sm_cycles"]),
        "sm.scan_self_ms": prof_ms("scheduler_scan"),
        "sm.issue_self_ms": prof_ms("issue"),
        "sm.writeback_self_ms": prof_ms("execute_writeback"),
        "sm.issued_cycles": counters["issued_cycles"],
        "sm.stall_cycles": counters["stall_cycles"],
        "sm.idle_cycles": counters["idle_cycles"],
        "memory.l2_self_ms": prof_ms("memsys_l2"),
        "memory.dram_self_ms": prof_ms("dram"),
        "memory.l1_accesses": counters["l1_accesses"],
        "memory.l1_miss_ratio": ratio(counters["l1_misses"], counters["l1_accesses"]),
        "memory.l2_accesses": counters["l2_accesses"],
        "memory.l2_miss_ratio": ratio(counters["l2_misses"], counters["l2_accesses"]),
        "memory.dram_requests": counters["dram_requests"],
        "memory.dram_row_hit_ratio": ratio(counters["dram_row_hits"], counters["dram_requests"]),
        "core.resident_blocks": counters["resident_blocks"],
        "core.lock_acquisitions": counters["lock_acquisitions"],
        "core.lock_wait_cycles": counters["lock_wait_cycles"],
        "core.dyn_throttled_issues": counters["dyn_throttled_issues"],
        "prof.overhead_ratio": ratio(t["profiled_s"], t["profiled_base_s"]),
        "trace.overhead_ratio": ratio(t["traced_s"], t["untraced_s"]),
    }


def layer_sum_failures(spans):
    """Every op's layer self times must add up to its traced duration."""
    failures = []
    for op, (root, layers) in sorted(analysis.op_breakdown(spans).items()):
        if abs(sum(layers.values()) - root) > 1e-6:
            failures.append(f"trace op {op}: layer self times sum to "
                            f"{sum(layers.values()):.9f} s, not {root:.9f} s")
    return failures


def layer_shares(spans, setup):
    """Share of traced time per layer, over the set-up (op 0) or the ops."""
    totals, whole = {}, 0.0
    for op, (root, layers) in analysis.op_breakdown(spans).items():
        if (op == 0) != setup:
            continue
        whole += root
        for layer, own in layers.items():
            totals[layer] = totals.get(layer, 0.0) + own
    return {layer: ratio(own, whole) for layer, own in sorted(totals.items())}


# --- one workload --------------------------------------------------------------


def evaluate(raw, trace, spec, reference, hotspot_cycles):
    """(human-readable lines, result object) for one driver run."""
    workload = raw["workload"]
    # The driver lists only its first few failures; failed_ops counts them all.
    checked = check_outputs(raw, reference, hotspot_cycles)
    if trace:
        checked += layer_sum_failures(raw["trace"]["spans"])
    failures = raw["failures"] + checked
    failed = raw["failed_ops"] + len(checked)
    lines = []
    if trace:
        values = per_layer_metrics(raw)
        for setup, what in ((True, "set-up"), (False, "ops")):
            shares = layer_shares(raw["trace"]["spans"], setup)
            if shares:
                lines.append(f"{workload}: traced {what} time by layer (self): "
                             + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        lines += [f"{workload}: not measured: {name} ({why})"
                  for name, why in NOT_MEASURED[workload].items()]
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(raw)
        if workload == "study_warm":  # the only workload whose ops are alike
            ops = raw["op_ms"]
            p = analysis.highest_percentile(len(ops))
            tail = f", p{p:g} {analysis.percentile(ops, p):.4f} ms" if p else ""
            lines.append(f"{workload}: op_p50_ms {analysis.percentile(ops, 50):.4f} ms, "
                         f"op_p90_ms {analysis.percentile(ops, 90):.4f} ms over "
                         f"{len(ops)} ops (highest percentile with >=10 beyond{tail})")
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"{workload}: no value for metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    lines.append(f"{workload}: " + ", ".join(
        f"{name} {v['value']:.6g} {v['unit']}" for name, v in metrics.items())
        + f", ops {raw['ops']}, failed_ops {failed}")
    lines += [f"{workload}: FAILED: {f}" for f in failures]
    result = {"correct": failed == 0, "attempted": max(raw["ops"], 1),
              "failed": failed, "metrics": metrics}
    return lines, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="study_warm grid seed; orders the pinned inputs of the others")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed phase length; sets the pass count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fuzz-start", type=int, default=23,
                   help="first of fuzz_memory's seven memory_bound seeds")
    p.add_argument("--update-reference", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        driver = build()
        hotspot_cycles = baseline_hotspot_cycles()
        status = 0
        for workload in [args.workload] if args.workload else WORKLOADS:
            raw = run_driver(driver, workload, args)
            ref_path = REFERENCE / f"{workload}.json"
            new_reference = updated_reference(raw) if args.update_reference else None
            if new_reference is not None:
                with open(ref_path, "w", encoding="utf-8") as f:
                    json.dump(new_reference, f, indent=1, sort_keys=True)
                    f.write("\n")
            reference = load_json(ref_path) if ref_path.is_file() else None
            lines, result = evaluate(raw, args.trace, spec, reference, hotspot_cycles)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            if not result["correct"]:
                status = 1
        return status
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
