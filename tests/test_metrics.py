import os

import pytest

from ephemera.arena import Arena
from ephemera.experiment import ScenarioConfig, get_scenario, run_trial
from ephemera.metrics import (
    AGGREGATE_HEADER,
    CSV_HEADER,
    MetricsSnapshot,
    aggregate_trials,
    read_aggregate_csv,
    snapshot,
    write_aggregate_csv,
    write_csv,
)
from ephemera.plot import PlotSeries, render_plot


def snap(trial=0, t=0, know=10.0, cap=0, **kw):
    fields = dict(
        trial=trial, t=t, knowledge_percent=know,
        captured_total=cap, captured_red=cap, captured_green=0,
        captured_yellow=0, captured_blue=0,
        queries_sent=0, deliveries=0, forgets=0, rejects_full=0,
    )
    fields.update(kw)
    return MetricsSnapshot(**fields)


# --- the percentage ---------------------------------------------------------------

def test_snapshot_of_fresh_arenas():
    baseline = Arena(get_scenario("BL"), seed=1)
    assert snapshot(baseline, 0, 0).knowledge_percent == 100.0
    ephemeral = Arena(get_scenario("T5K"), seed=1)
    assert snapshot(ephemeral, 0, 0).knowledge_percent == 10.0
    ignorant = Arena(ScenarioConfig("I", robot_counts=(50, 0, 0, 0, 0, 0)), seed=1)
    assert snapshot(ignorant, 0, 0).knowledge_percent == 0.0


# --- per-trial CSV ------------------------------------------------------------------

def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_bytes() == (CSV_HEADER + "\n").encode()


def test_write_csv_golden_row(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([snap(trial=3, t=200, know=100.0, cap=7, queries_sent=9)], path)
    text = path.read_text()
    assert text == (
        CSV_HEADER + "\n"
        "3,200,100.0000,7,7,0,0,0,9,0,0,0\n"
    )


def test_write_csv_four_decimal_places(tmp_path):
    path = tmp_path / "frac.csv"
    write_csv([snap(know=10.5)], path)
    assert ",10.5000," in path.read_text()


def test_write_csv_lf_only_and_repeatable(tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    rows = [snap(t=i * 100, cap=i) for i in range(5)]
    write_csv(rows, path_a)
    write_csv(rows, path_b)
    data = path_a.read_bytes()
    assert b"\r" not in data
    assert data == path_b.read_bytes()


def plot(series, path):
    render_plot(series, "t", path)


@pytest.mark.parametrize("write, rows", [
    (write_csv, [snap(t=0), snap(t=100)]),
    (write_aggregate_csv, aggregate_trials([[snap(t=0), snap(t=100)]])),
    (plot, [PlotSeries("s", [0, 1], [0.0, 1.0])]),
])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, write, rows):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write(rows, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


# The ids are pytest's own for the two CSV writers.
@pytest.mark.parametrize("write, rows, lines", [
    pytest.param(write_csv, [snap(t=0)], 2, id="write_csv-rows0"),
    pytest.param(write_aggregate_csv, aggregate_trials([[snap(t=0)]]), 2,
                 id="write_aggregate_csv-rows1"),
    pytest.param(plot, [PlotSeries("s", [0, 1], [0.0, 1.0])], 30, id="plot-rows2"),
])
def test_write_replaces_existing_file_whole(tmp_path, write, rows, lines):
    path = tmp_path / "out.csv"
    path.write_text("stale contents that are longer than the new file\n" * 40)
    write(rows, path)
    assert path.read_text().count("\n") == lines
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# --- aggregation ----------------------------------------------------------------------

def test_aggregate_single_trial_is_identity():
    series = [snap(t=0, know=10.0, cap=0), snap(t=100, know=12.5, cap=3)]
    rows = aggregate_trials([series])
    assert [(r.t, r.mean_knowledge, r.mean_captured) for r in rows] == [
        (0, 10.0, 0.0),
        (100, 12.5, 3.0),
    ]
    assert rows[1].min_captured == rows[1].max_captured == 3


def test_aggregate_means_and_envelopes():
    a = [snap(t=0, know=10.0, cap=10)]
    b = [snap(t=0, know=20.0, cap=20)]
    row = aggregate_trials([a, b])[0]
    assert row.mean_captured == 15.0
    assert row.mean_knowledge == 15.0
    assert (row.min_captured, row.max_captured) == (10, 20)
    assert (row.min_knowledge, row.max_knowledge) == (10.0, 20.0)


def test_aggregate_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        aggregate_trials([])
    with pytest.raises(ValueError):
        aggregate_trials([[snap(t=0)], [snap(t=0), snap(t=100)]])
    with pytest.raises(ValueError):
        aggregate_trials([[snap(t=0)], [snap(t=100)]])


def test_aggregate_matches_bruteforce_recomputation_from_csv(tmp_path, make_config):
    # Independent oracle: re-read the written per-trial CSVs as text and
    # recompute the aggregate from scratch.
    cfg = make_config(trials=3, max_iterations=100, snapshot_interval=20)
    results = [run_trial(cfg, i) for i in range(cfg.trials)]
    paths = []
    for result in results:
        path = tmp_path / f"t{result.trial}.csv"
        write_csv(result.snapshots, path)
        paths.append(path)

    parsed = []
    for path in paths:
        rows = []
        for line in path.read_text().splitlines()[1:]:
            f = line.split(",")
            rows.append((int(f[1]), float(f[2]), int(f[3])))
        parsed.append(rows)

    got = aggregate_trials([r.snapshots for r in results])
    assert len(got) == len(parsed[0])
    for i, row in enumerate(got):
        ts = {trial[i][0] for trial in parsed}
        knows = [trial[i][1] for trial in parsed]
        caps = [trial[i][2] for trial in parsed]
        assert ts == {row.t}
        assert row.mean_knowledge == pytest.approx(sum(knows) / 3, abs=1e-4)
        assert row.min_knowledge == pytest.approx(min(knows), abs=1e-4)
        assert row.max_knowledge == pytest.approx(max(knows), abs=1e-4)
        assert row.mean_captured == sum(caps) / 3
        assert (row.min_captured, row.max_captured) == (min(caps), max(caps))


def test_aggregate_csv_round_trip(tmp_path):
    rows = aggregate_trials([
        [snap(t=0, know=10.0, cap=1), snap(t=100, know=20.5, cap=5)],
        [snap(t=0, know=12.0, cap=2), snap(t=100, know=19.5, cap=9)],
    ])
    path = tmp_path / "agg.csv"
    write_aggregate_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == AGGREGATE_HEADER
    assert read_aggregate_csv(path) == rows


def test_read_aggregate_rejects_other_csvs(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(ValueError):
        read_aggregate_csv(path)


# Columns: t, mean/min/max knowledge, mean/min/max captured.
@pytest.mark.parametrize("column", [1, 3, 4, 6], ids=["mean_knowledge", "max_knowledge",
                                                      "mean_captured", "max_captured"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_read_aggregate_rejects_non_finite_values(tmp_path, column, value):
    fields = "100,10.0000,5.0000,15.0000,2.0000,1,3".split(",")
    fields[column] = value
    row = ",".join(fields)
    path = tmp_path / "agg.csv"
    path.write_text(f"{AGGREGATE_HEADER}\n0,0.0000,0.0000,0.0000,0.0000,0,0\n{row}\n")
    with pytest.raises(ValueError) as info:
        read_aggregate_csv(path)
    assert str(path) in str(info.value) and row in str(info.value)
