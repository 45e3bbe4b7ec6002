#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads mc_correlate calibrate --seeds 10

Runs run.py once per seed and workload, each in its own process, and prints
for every end-to-end metric the median of its values and the distance
between their first and third quartile as a share of the median, next to
the metric's bound and a third of it from BENCHMARK.json. Run from the root
of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        values: dict = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            figures = ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({time.monotonic() - start:.1f} s wall): {figures}",
                  flush=True)
        print(f"{workload}: {failed} failed ops")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            share = stats.iqr_share(values[name])
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:12s} median {statistics.median(values[name]):10.5g} "
                  f"iqr/median {share:7.4f} bound {bound} bound/3 {bound / 3:.4f}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
