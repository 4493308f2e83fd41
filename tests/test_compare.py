"""``tools/compare.py``: its statistics and table on canned numbers, and
its ``main`` with the trees and their runs stubbed; no benchmark run."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from test_faults import assert_sigterm_cleans_up

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import compare  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "agent_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


@pytest.mark.parametrize("values, expected", [
    ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
    ([10.0, 1.0, 4.0, 3.0, 2.0], (2.0, 3.0, 4.0)),
    ([0.5], (0.5, 0.5, 0.5)),
])
def test_quartiles_interpolate_linearly(values, expected):
    assert compare.quartiles(values) == pytest.approx(expected)


def test_pairs_won_follow_better_and_ties_count_for_neither():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 4.0, 3.0, 5.0]  # lower, tie, higher, lower, tie
    assert compare.pairs_won(base, change, "lower") == 2
    assert compare.pairs_won(change, base, "lower") == 1
    assert compare.pairs_won(base, change, "higher") == 1
    assert compare.pairs_won(change, base, "higher") == 2


@pytest.mark.parametrize("base, change, better, worse", [
    (1.0, 1.25, "lower", False),   # exactly the bound
    (1.0, 1.26, "lower", True),
    (1.0, 0.5, "lower", False),    # better
    (100.0, 75.0, "higher", False),
    (100.0, 74.0, "higher", True),
    (100.0, 130.0, "higher", False),
])
def test_worse_than_bound_is_relative_to_the_base_median(base, change, better, worse):
    assert compare.worse_than_bound(base, change, better, 0.25) is worse


def test_summary_and_table_on_canned_runs():
    runs = {
        "crowd": {"metrics": {
            "wall_s": compare.summarize([1.0, 1.2, 0.9, 1.1], [1.3, 1.2, 1.4, 1.0], WALL),
            "agent_steps_per_s": compare.summarize([200e3, 210e3, 190e3, 205e3],
                                                   [180e3, 210e3, 170e3, 220e3], RATE),
        }},
        "paper-sweep": {"metrics": {
            "wall_s": compare.summarize([0.4, 0.5, 0.4, 0.5], [0.6, 0.7, 0.6, 0.7], WALL),
            "agent_steps_per_s": compare.summarize([8e5, 9e5, 8e5, 9e5],
                                                   [6e5, 6e5, 7e5, 6e5], RATE),
        }},
    }
    wall = runs["crowd"]["metrics"]["wall_s"]
    assert wall["parent"] == {"values": [1.0, 1.2, 0.9, 1.1], "median": 1.05,
                              "q1": 0.975, "q3": 1.125}
    assert (wall["change"]["median"], wall["change_wins_pairs"], wall["pairs"]) == (1.25, 1, 4)
    assert wall["median_change_rel"] == 0.1905
    assert (wall["bound"], wall["better"]) == (0.25, "lower")

    table, worse = compare.report(runs, [WALL, RATE])
    assert table.splitlines() == [
        "| workload | `wall_s` | `agent_steps_per_s` |",
        "|---|---|---|",
        "| crowd | 1.05 → 1.25 s (+19.1%) [0.15], 1/4 "
        "| 202.5k → 195k 1/s (−3.7%) [8750], 1/4 |",
        "| paper-sweep | 0.45 → 0.65 s (+44.4%) [0.1], 0/4 "
        "| 850k → 600k 1/s (−29.4%) [100k], 0/4 |",
    ]
    assert worse == ["paper-sweep wall_s: +44.4% is worse than the bound 25%",
                     "paper-sweep agent_steps_per_s: -29.4% is worse than the bound 25%"]


def test_seed_is_required_and_run_length_and_pairs_are_fixed():
    assert compare.parse_args(["--base", "HEAD~1", "--seed", "7"]).seed == 7
    for argv in (["--base", "HEAD~1"],
                 ["--base", "HEAD~1", "--seed", "7", "--pairs", "3"],
                 ["--base", "HEAD~1", "--seed", "7", "--seconds", "5"]):
        with pytest.raises(SystemExit):
            compare.parse_args(argv)
    assert compare.PAIRS == 10


# --- main, with the trees and their runs stubbed ----------------------------------

def _stub_main(monkeypatch, tmp_path, head_digest="d\n", correct=True, failed=0):
    """Point ``REPO`` at ``tmp_path``, holding a copy of ``BENCHMARK.json``,
    and stub the git calls, the tree copies and the runs: the base tree
    prints the digest ``d``, HEAD ``head_digest``, and every bench round
    reads ``correct`` with ``failed`` failed trials. Returns the list of
    (tree, workload) of every bench round, in order."""
    shutil.copy(TOOLS.parent / "BENCHMARK.json", tmp_path)
    metrics = [m["name"] for m in json.loads((tmp_path / "BENCHMARK.json").read_text())
               ["end_to_end"]]
    monkeypatch.setattr(compare, "REPO", tmp_path)
    monkeypatch.setattr(compare, "git", lambda *args: f"rev-{args[-1]}")
    monkeypatch.setattr(compare, "extract", lambda rev, into: into.mkdir())
    rounds = []

    def run(tree, args):
        if args[0] == "bench/digest.py":
            return "d\n" if tree.name == "base" else head_digest
        rounds.append((tree.name, args[args.index("--workload") + 1]))
        result = {"correct": correct, "failed": failed, "attempted": 4,
                  "metrics": {name: {"value": 1.0} for name in metrics}}
        return "progress\n" + json.dumps(result) + "\n"

    monkeypatch.setattr(compare, "run", run)
    return rounds


def test_main_alternates_the_sides_and_writes_ten_pairs_per_workload(monkeypatch, tmp_path):
    rounds = _stub_main(monkeypatch, tmp_path)
    assert compare.main(["--base", "B", "--seed", "3", "--label", "t"]) == 0
    workloads = [w["name"] for w in
                 json.loads((tmp_path / "BENCHMARK.json").read_text())["workloads"]]
    # Odd pairs run the parent first, even pairs the change.
    assert rounds == [(side, w) for w in workloads
                      for _ in range(compare.PAIRS // 2)
                      for side in ("base", "head", "head", "base")]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (record["parent_rev"], record["change_rev"]) == ("rev-B", "rev-HEAD")
    assert list(record["workloads"]) == workloads
    for data in record["workloads"].values():
        assert (data["runs"], data["correct_runs"], data["failed_trials"]) == (20, 20, 0)
        for summary in data["metrics"].values():
            assert summary["pairs"] == compare.PAIRS
            assert len(summary["parent"]["values"]) == len(summary["change"]["values"]) == 10


def test_main_stops_on_a_digest_mismatch_before_any_pair(monkeypatch, tmp_path):
    rounds = _stub_main(monkeypatch, tmp_path, head_digest="other\n")
    assert compare.main(["--base", "B", "--seed", "3", "--label", "t"]) == 1
    assert rounds == []
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_main_stops_on_a_round_not_correct_or_with_a_failed_trial(monkeypatch, tmp_path,
                                                                  correct, failed):
    rounds = _stub_main(monkeypatch, tmp_path, correct=correct, failed=failed)
    with pytest.raises(SystemExit, match="base paper-sweep"):
        compare.main(["--base", "B", "--seed", "3", "--label", "t"])
    assert rounds == [("base", "paper-sweep")]
    assert not (tmp_path / "BENCH_t.json").exists()


def test_sigterm_ends_the_runs_and_removes_the_trees(tmp_path):
    # The tree copies hold the sleeper as bench/digest.py, main's first run.
    code = ("import shutil, sys, compare\n"
            "def extract(rev, into):\n"
            "    (into / 'bench').mkdir(parents=True)\n"
            "    shutil.copy(sleeper, into / 'bench' / 'digest.py')\n"
            "compare.extract, compare.git = extract, lambda *args: 'rev'\n"
            "sys.exit(compare.main(['--base', 'B', '--seed', '1']))\n")
    assert_sigterm_cleans_up(tmp_path, code, TOOLS)
