"""Compare the benchmark of a base revision with HEAD in alternating pairs.

usage: python3 tools/compare.py --base REV --seed S [--label L] [--workloads W ...]

Run from anywhere inside the repository; commit the change first, since
HEAD is what is measured. The script extracts ``git archive`` copies of REV
and of HEAD into a temporary directory, with no ``__pycache__`` and with
``PYTHONDONTWRITEBYTECODE=1``, so each run compiles its sources afresh. It
fails unless both copies print the same ``bench/digest.py --seed S`` lines.
For each workload (by default every one in ``BENCHMARK.json``) it then runs
10 pairs of each tree's own

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

as subprocesses, with T the ``run_seconds`` of ``BENCHMARK.json``, the base
first in odd pairs and HEAD first in even ones. Each run is in a session of
its own; when the script is stopped by SIGTERM, it kills that session's
whole process group and removes its temporary directory before it exits.
A run whose last JSON line does not read ``"correct": true`` with 0 failed
trials stops the script. It writes ``BENCH_<label>.json`` at the root of
the repository and prints a markdown table with one row per workload and
one column per end-to-end metric of ``BENCHMARK.json``:

    base median → change median (relative change) [base IQR], pairs won/pairs

Quartiles are ``numpy.percentile`` with linear interpolation. A pair is won
when the change's value is better by the metric's ``better``; ties count for
neither side. Below the table it names every metric whose change median is
worse than the base median by more than its ``bound``, and then exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear interpolation."""
    q1, median, q3 = np.percentile(np.asarray(values, float), [25, 50, 75])
    return float(q1), float(median), float(q3)


def pairs_won(base, change, better: str) -> int:
    """The pairs in which ``change`` reads better than ``base``; a tie
    counts for neither side."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def relative_change(base_median: float, change_median: float) -> float:
    return change_median / base_median - 1 if base_median else 0.0


def worse_than_bound(base_median: float, change_median: float, better: str,
                     bound: float) -> bool:
    """Whether the change's median is worse than the base's by more than the
    relative ``bound``."""
    worse = relative_change(base_median, change_median)
    return (worse if better == "lower" else -worse) > bound


def summarize(base, change, metric: dict) -> dict:
    """One metric of one workload, in the layout of the ``BENCH_*.json``
    files: each side's values and quartiles, and the pairs the change won."""
    sides = {}
    for side, values in (("parent", base), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"values": [round(v, 6) for v in values], "median": round(median, 6),
                       "q1": round(q1, 6), "q3": round(q3, 6)}
    return {
        **sides,
        "change_wins_pairs": pairs_won(base, change, metric["better"]),
        "pairs": len(base),
        "median_change_rel": round(relative_change(sides["parent"]["median"],
                                                   sides["change"]["median"]), 4),
        "bound": metric["bound"],
        "better": metric["better"],
    }


def _number(value: float) -> str:
    if abs(value) >= 1e6:
        return f"{value / 1e6:.4g}M"
    if abs(value) >= 1e4:
        return f"{value / 1e3:.4g}k"
    return f"{value:.4g}"


def table_row(name: str, metrics: dict, units: dict) -> str:
    cells = [name]
    for metric, s in metrics.items():
        base, change = s["parent"]["median"], s["change"]["median"]
        rel = f"{s['median_change_rel']:+.1%}".replace("-", "−")
        iqr = s["parent"]["q3"] - s["parent"]["q1"]
        cells.append(f"{_number(base)} → {_number(change)} {units[metric]} ({rel}) "
                     f"[{_number(iqr)}], {s['change_wins_pairs']}/{s['pairs']}")
    return "| " + " | ".join(cells) + " |"


def report(workloads: dict, end_to_end: list) -> tuple[str, list[str]]:
    """The markdown table of ``workloads`` (workload -> metric -> summary)
    and one line per metric worse than its bound."""
    units = {m["name"]: m["unit"] for m in end_to_end}
    header = ["workload"] + [f"`{m['name']}`" for m in end_to_end]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    worse = []
    for workload, data in workloads.items():
        lines.append(table_row(workload, data["metrics"], units))
        for metric, s in data["metrics"].items():
            if worse_than_bound(s["parent"]["median"], s["change"]["median"],
                                s["better"], s["bound"]):
                worse.append(f"{workload} {metric}: {s['median_change_rel']:+.1%} is worse "
                             f"than the bound {s['bound']:.0%}")
    return "\n".join(lines), worse


# --- running the two trees ----------------------------------------------------

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into``, without ``__pycache__``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    for cache in list(into.rglob("__pycache__")):
        shutil.rmtree(cache)


@contextlib.contextmanager
def sigterm_exits():
    """Within the block SIGTERM raises SystemExit, so the ``with`` blocks
    and ``finally`` clauses it unwinds run; the previous handler is restored
    after it."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run(tree: Path, args: list[str]) -> str:
    """The output of ``python3 ARGS`` run in ``tree``; exits unless it exits
    0. The child runs in a session of its own, whose whole process group
    (``ephemera run --jobs 2`` and its workers too) is killed on the way
    out, also on SystemExit from SIGTERM."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen([sys.executable, *args], cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
    if child.returncode:
        sys.exit(f"{tree.name}: {' '.join(args)} exited {child.returncode}:\n{err[-2000:]}")
    return out


def bench_round(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run's last JSON line; exits unless it is correct
    with no failed trial."""
    out = run(tree, ["bench/run.py", "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"])
    result = json.loads([line for line in out.splitlines() if line.strip()][-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{tree.name} {workload}: correct {result['correct']}, "
                 f"failed {result['failed']} of {result['attempted']}")
    return result


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(),
            "system": platform.system()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare HEAD with")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", default="compare")
    parser.add_argument("--workloads", nargs="+")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end, seconds = spec["end_to_end"], spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    base_rev, change_rev = git("rev-parse", args.base), git("rev-parse", "HEAD")
    workloads = {}
    with sigterm_exits(), tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "base"), "change": Path(tmp, "head")}
        extract(base_rev, trees["parent"])
        extract(change_rev, trees["change"])
        digest = {side: run(tree, ["bench/digest.py", "--seed", str(args.seed)])
                  for side, tree in trees.items()}
        if digest["parent"] != digest["change"]:
            print("bench/digest.py lines differ:", "base:", digest["parent"], "HEAD:",
                  digest["change"], sep="\n", file=sys.stderr)
            return 1
        for workload in names:
            results = {"parent": [], "change": []}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(bench_round(trees[side], workload, args.seed,
                                                     seconds))
                    print(f"{workload} pair {pair + 1}/{PAIRS} {side} done",
                          file=sys.stderr, flush=True)
            runs = results["parent"] + results["change"]
            workloads[workload] = {
                "runs": len(runs),
                "correct_runs": sum(r["correct"] is True for r in runs),
                "failed_trials": sum(r["failed"] for r in runs),
                "attempted_trials": sum(r["attempted"] for r in runs),
                "metrics": {m["name"]: summarize(
                    [r["metrics"][m["name"]]["value"] for r in results["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in results["change"]], m)
                    for m in end_to_end},
            }
    record = {
        "label": args.label,
        "host": host(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parent_rev": base_rev,
        "change_rev": change_rev,
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"{PAIRS} per workload, alternating which side runs first "
                 "(odd pairs parent first)",
        "quartiles": "numpy.percentile, linear interpolation",
        "digests": f"python3 bench/digest.py --seed {args.seed} prints identical lines "
                   "on both revisions",
        "workloads": workloads,
    }
    (REPO / f"BENCH_{args.label}.json").write_text(json.dumps(record, indent=1) + "\n")
    table, worse = report(workloads, end_to_end)
    print(table)
    for line in worse:
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
