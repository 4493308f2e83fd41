"""The statistics and the table of ``tools/compare.py``, on canned numbers;
no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

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
