"""Print the output digests of one round of each workload.

usage: python3 bench/digest.py --seed N

Run from the root of a checkout. Each line is
``workload seed csv-sha256 events-sha256 failed/attempted``: the digest of
every CSV byte the round wrote and of every event line its trials logged.
The program is deterministic, so two checkouts that simulate the same thing
print the same lines; run it on a parent commit and on a change to compare
them without keeping earlier output. cli-jobs2 writes the skill-churn CSVs
through the command line, so its CSV digest equals skill-churn's.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    root = run.checkout_root()
    if root is None:
        return 2
    seed = args.seed % 2**64
    bad = False
    for workload in run.WORKLOADS:
        with run.work_dir(root, workload) as workdir:
            speed = run.HostSpeed()
            ep, configs, _ = run.set_up(workload, seed, workdir, speed)
            spec = SimpleNamespace(workload=workload, seed=seed, seconds=0.0, trace=0)
            rnd = run.Run(spec, root, workdir, ep, configs, speed).untraced_round()
        print(f"{workload} {seed} {rnd.csv_sha} {rnd.events_sha} {len(rnd.failed)}/{rnd.trials}")
        for error in rnd.errors[:5]:
            print(f"  problem: {error}", file=sys.stderr)
        bad = bad or bool(rnd.failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
