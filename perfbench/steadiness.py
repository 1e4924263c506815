#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...), each
in its own process, and prints every end-to-end metric's median and quartile
spread, (Q3 - Q1) / median, next to its bound from BENCHMARK.json. Extra
arguments after `--` go to run.py unchanged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    extra = [a for a in args.rest if a != "--"] or spec["command"][2:]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), *extra, "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} failed ops")
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        print(f"{args.workload} {m['name']}: median {statistics.median(xs):.6g} {m['unit']}, "
              f"spread {analysis.quartile_spread(xs):.2%} (bound {m['bound']:.0%})")


if __name__ == "__main__":
    main()
