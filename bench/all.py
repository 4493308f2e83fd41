"""Run every workload untraced and traced and print every metric.

usage: python3 bench/all.py [--seed N]

Run from the root of a checkout. For each workload this runs bench/run.py
for the run_seconds of BENCHMARK.json, with --trace 0 (end-to-end metrics)
and --trace 1 (per-layer metrics), and prints each metric by name with its
unit, then the trials attempted and failed. Exits 1 if any run fails, reports an incorrect output or a failed
trial.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).with_name("run.py")
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("  problem:"):
                    print(f"{workload} trace={trace}:{line}")
            for name, metric in result["metrics"].items():
                print(f"{workload:<12} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
            print(f"{workload:<12} trace={trace} attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}")
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
