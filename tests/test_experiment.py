import pickle
from dataclasses import fields

import pytest

from ephemera.bt import Color
from ephemera.events import EventRecord
from ephemera.experiment import (
    ConfigError,
    ScenarioConfig,
    TrialResult,
    builtin_scenarios,
    get_scenario,
    load_config,
    run_scenario,
    run_trial,
    run_trials,
)
from ephemera.knowledge import NEVER, CapacityPolicy
from ephemera.metrics import MetricsSnapshot
from ephemera.rng import mix_seed


# --- builtin registry ---------------------------------------------------------------

def test_builtin_names_and_count():
    names = [c.name for c in builtin_scenarios()]
    assert names == ["BL", "NL", "T1K", "T2K", "T5K", "T10K", "T20K", "M1", "M2", "M3", "M4"]


def test_builtin_sweep_values():
    by_name = {c.name: c for c in builtin_scenarios()}
    assert by_name["T5K"].memory_duration == 5000
    assert by_name["T5K"].robot_counts == (45, 5, 0, 0, 0, 0)
    assert by_name["M3"].memory_size == 3
    assert by_name["M3"].memory_duration == 20000
    assert by_name["BL"].robot_counts == (0, 50, 0, 0, 0, 0)
    assert by_name["NL"].learning_enabled is False
    for cfg in by_name.values():
        assert cfg.targets_per_color == 25
        assert cfg.max_iterations == 20000
        assert cfg.trials == 10


def test_get_scenario_unknown():
    with pytest.raises(KeyError):
        get_scenario("T3K")


# --- config files --------------------------------------------------------------------

def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "name=X\n"))
    assert cfg.name == "X"
    assert cfg.grid == (50, 50)
    assert cfg.targets_per_color == 25
    assert cfg.robot_counts == (45, 5, 0, 0, 0, 0)
    assert cfg.memory_duration == 20000
    assert cfg.memory_size is None
    assert cfg.capacity_policy is CapacityPolicy.REJECT_WHEN_FULL
    assert cfg.learning_enabled is True
    assert cfg.max_iterations == 20000
    assert cfg.sense_radius == 5
    assert cfg.comm_radius == 10
    assert cfg.query_cooldown == 25
    assert cfg.snapshot_interval == 100
    assert cfg.trials == 10
    assert cfg.base_seed == 42


def test_a_file_that_sets_every_key_sets_every_field(tmp_path):
    # Every field off its default and every int distinct, so a key read into
    # the wrong field or with the wrong parser changes the config.
    expected = ScenarioConfig(
        name="every", grid=(30, 20), targets_per_color=7, robot_counts=(1, 2, 3, 4, 5, 6),
        memory_duration=300, memory_size=2, capacity_policy=CapacityPolicy.EVICT_OLDEST,
        learning_enabled=False, max_iterations=400, sense_radius=3, comm_radius=4,
        query_cooldown=9, snapshot_interval=50, trials=2, base_seed=11,
    )
    default = ScenarioConfig(name="scenario")
    assert all(getattr(expected, f.name) != getattr(default, f.name)
               for f in fields(ScenarioConfig))
    lines = ["name=every", "grid=30,20", "targets_per_color=7", "robots=1,2,3,4,5,6",
             "memory_duration=300", "memory_size=2", "capacity_policy=evict_oldest",
             "learning_enabled=false", "max_iterations=400", "sense_radius=3",
             "comm_radius=4", "query_cooldown=9", "snapshot_interval=50", "trials=2",
             "base_seed=11"]
    assert len(lines) == len(fields(ScenarioConfig))
    assert load_config(write(tmp_path, "\n".join(lines) + "\n")) == expected


def test_name_defaults_to_file_stem(tmp_path):
    cfg = load_config(write(tmp_path, "trials=2\n", name="coastal.cfg"))
    assert cfg.name == "coastal"


def test_comments_and_blank_lines(tmp_path):
    cfg = load_config(write(tmp_path, "# a comment\n\nname=Y  # trailing\ntrials=4\n"))
    assert cfg.name == "Y"
    assert cfg.trials == 4


def test_robot_tuple_parsing(tmp_path):
    cfg = load_config(write(tmp_path, "robots=45,5,0,0,0,0\n"))
    assert cfg.robot_counts == (45, 5, 0, 0, 0, 0)


def test_memory_size_values(tmp_path):
    assert load_config(write(tmp_path, "memory_size=unlimited\n")).memory_size is None
    assert load_config(write(tmp_path, "memory_size=2\n")).memory_size == 2
    with pytest.raises(ConfigError, match="memory_size"):
        load_config(write(tmp_path, "memory_size=5\n"))


def test_capacity_policy_values(tmp_path):
    cfg = load_config(write(tmp_path, "capacity_policy=evict_oldest\n"))
    assert cfg.capacity_policy is CapacityPolicy.EVICT_OLDEST
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "capacity_policy=fifo\n"))


def test_invariant_violation_reports_line(tmp_path):
    path = write(tmp_path, "name=Z\nmemory_duration=0\n")
    with pytest.raises(ConfigError, match=r"scenario\.cfg:2"):
        load_config(path)


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=r":2: unknown key"):
        load_config(write(tmp_path, "name=Z\nspeed=9\n"))


def test_malformed_line_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=r":1: malformed"):
        load_config(write(tmp_path, "just some words\n"))


def test_bad_value_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=r":1: bad value"):
        load_config(write(tmp_path, "trials=ten\n"))


def test_repeated_key_names_both_lines(tmp_path):
    path = write(tmp_path, "grid=20,20\nname=Z\ngrid=30,30\n")
    with pytest.raises(ConfigError, match=r"scenario\.cfg:3: key 'grid' repeats line 1"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        load_config("/nonexistent/path.cfg")


def test_programmatic_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(name="bad", trials=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(name="bad", robot_counts=(0, 0, 0, 0, 0, 0))
    with pytest.raises(ConfigError):
        ScenarioConfig(name="")


@pytest.mark.parametrize("key", ["memory_duration", "query_cooldown"])
def test_iteration_sums_must_stay_below_never(tmp_path, make_config, key):
    # Learned expiries and cooldown ends are iterations held in int64 arrays.
    largest = int(NEVER) - 60 - 1
    result = run_trial(make_config(max_iterations=60, **{key: largest}), 0)
    assert result.end_t == 60 and result.snapshots[-1].deliveries > 0
    with pytest.raises(ConfigError) as info:
        make_config(max_iterations=60, **{key: largest + 1})
    assert info.value.field == key
    path = write(tmp_path, f"max_iterations=60\n{key}={int(NEVER)}\n")
    with pytest.raises(ConfigError, match=rf"scenario\.cfg:2: max_iterations \+ {key}") as info:
        load_config(path)
    assert info.value.field == key


@pytest.mark.parametrize("counts, message", [
    pytest.param((-1, 5, 0, 0, 0, 0), "robots needs six non-negative counts", id="negative"),
    pytest.param((0, 0, 0, 0, 0, 0), "at least one robot is required", id="none"),
])
def test_robot_count_errors_name_the_field_and_the_line(tmp_path, counts, message):
    # The field is robot_counts, as ScenarioConfig calls it; the config file
    # calls it robots, and the error points at that line.
    with pytest.raises(ConfigError, match=message) as info:
        ScenarioConfig(name="bad", robot_counts=counts)
    assert info.value.field == "robot_counts"
    path = write(tmp_path, f"name=bad\nrobots={','.join(map(str, counts))}\n")
    with pytest.raises(ConfigError, match=rf"scenario\.cfg:2: {message}") as info:
        load_config(path)
    assert info.value.field == "robot_counts"


@pytest.mark.parametrize("name", ["../x", "a/b", "/tmp/x", "..", "a\\b"])
def test_name_must_be_plain_file_stem(tmp_path, name):
    with pytest.raises(ConfigError) as info:
        ScenarioConfig(name=name)
    assert info.value.field == "name"
    with pytest.raises(ConfigError, match=r"scenario\.cfg:1") as info:
        load_config(write(tmp_path, f"name={name}\n"))
    assert info.value.field == "name"


def test_dotted_name_is_a_plain_stem():
    assert ScenarioConfig(name="sweep.v2").name == "sweep.v2"


# --- trials ---------------------------------------------------------------------------

def test_trial_seeds_differ():
    seeds = [mix_seed(42, i) for i in range(10)]
    assert len(set(seeds)) == 10


def test_run_trial_is_deterministic(make_config):
    cfg = make_config(max_iterations=150)
    assert run_trial(cfg, 1) == run_trial(cfg, 1)


def test_trials_with_different_indices_differ(make_config):
    cfg = make_config(max_iterations=150)
    a, b = run_trial(cfg, 0), run_trial(cfg, 1)
    assert a.seed != b.seed
    assert a.snapshots != b.snapshots


def test_snapshot_grid_padded_on_early_finish(make_config):
    # Plenty of masters on a small grid: collection ends long before the cap.
    cfg = make_config(
        grid=(12, 12), targets_per_color=2, robot_counts=(0, 8, 0, 0, 0, 0),
        max_iterations=2000, snapshot_interval=100,
    )
    result = run_trial(cfg, 0)
    assert result.end_t < 2000
    assert [s.t for s in result.snapshots] == list(range(0, 2001, 100))
    final = result.snapshots[-1]
    assert final.captured_total == 8
    tail = [s for s in result.snapshots if s.t > result.end_t]
    assert all(s.captured_total == 8 for s in tail)
    assert result.final_total == 8


def test_zero_targets_trial_is_all_padding(make_config):
    cfg = make_config(targets_per_color=0, max_iterations=100, snapshot_interval=25)
    result = run_trial(cfg, 0)
    assert result.end_t == 0
    assert [s.t for s in result.snapshots] == [0, 25, 50, 75, 100]
    assert result.final_total == 0


def test_counters_non_decreasing_within_trial(make_config):
    result = run_trial(make_config(max_iterations=200), 2)
    series = result.snapshots
    for a, b in zip(series, series[1:]):
        assert b.captured_total >= a.captured_total
        assert b.queries_sent >= a.queries_sent
        assert b.deliveries >= a.deliveries
        assert b.forgets >= a.forgets
        assert b.rejects_full >= a.rejects_full


# --- scenario runs ----------------------------------------------------------------------

def test_run_scenario_writes_trials_plus_one_files(tmp_path, make_config):
    cfg = make_config(trials=3, max_iterations=100)
    rows = run_scenario(cfg, tmp_path / "out")
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == ["mini_aggregate.csv", "mini_trial00.csv", "mini_trial01.csv", "mini_trial02.csv"]
    assert len(rows) == len(list(cfg.snapshot_grid()))


def test_rerun_with_fewer_trials_removes_stale_trial_files(tmp_path, make_config):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("other_trial05.csv", "notes.txt", "mini_trial1.csv"):
        (out / name).write_text("kept\n")
    run_scenario(make_config(trials=3, max_iterations=100), out)
    run_scenario(make_config(trials=1, max_iterations=100), out)
    files = sorted(p.name for p in out.iterdir())
    assert files == ["mini_aggregate.csv", "mini_trial00.csv", "mini_trial1.csv",
                     "notes.txt", "other_trial05.csv"]


def test_failed_run_leaves_no_output_dir(monkeypatch, tmp_path, make_config):
    from ephemera import experiment

    def failing_trial(config, trial_index):
        if trial_index == 1:
            raise RuntimeError("trial 1 failed")
        return run_trial(config, trial_index)

    monkeypatch.setattr(experiment, "run_trial", failing_trial)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_scenario(make_config(trials=3, max_iterations=50), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_single_trial_aggregate_equals_trial(tmp_path, make_config):
    cfg = make_config(trials=1, max_iterations=100)
    rows = run_scenario(cfg, tmp_path)
    result = run_trial(cfg, 0)
    for row, s in zip(rows, result.snapshots):
        assert row.t == s.t
        assert row.mean_knowledge == s.knowledge_percent
        assert row.mean_captured == float(s.captured_total)
        assert row.min_captured == row.max_captured == s.captured_total


def test_parallel_and_serial_runs_identical(tmp_path, make_config):
    cfg = make_config(trials=3, max_iterations=120)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    run_scenario(cfg, serial_dir, jobs=1)
    run_scenario(cfg, parallel_dir, jobs=2)
    serial_files = sorted(p.name for p in serial_dir.iterdir())
    assert serial_files == sorted(p.name for p in parallel_dir.iterdir())
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


def test_run_trials_parallel_equals_serial(make_config):
    cfg = make_config(trials=3, max_iterations=120)
    serial, parallel = run_trials(cfg, jobs=1), run_trials(cfg, jobs=2)
    assert serial == parallel
    # == holds between a plain tuple and a NamedTuple, so also check that the
    # events come back as records and read the same lines.
    events = [r for result in parallel for r in result.events]
    assert events
    assert all(type(r) is EventRecord and isinstance(r.color, Color) for r in events)
    assert [[r.line() for r in result.events] for result in parallel] == \
        [[r.line() for r in result.events] for result in serial]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and what each
    worker would send back, runs in process."""

    sizes: list = []
    yielded: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for item in map(fn, *iterables):
            RecordingPool.yielded.append(item)
            yield pickle.loads(pickle.dumps(item))


def test_run_scenario_workers_send_back_only_snapshots(monkeypatch, tmp_path, make_config):
    from ephemera import experiment

    RecordingPool.sizes, RecordingPool.yielded = [], []
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    cfg = make_config(trials=3, max_iterations=120)
    run_scenario(cfg, tmp_path, jobs=2)
    assert RecordingPool.sizes == [2]
    assert len(RecordingPool.yielded) == 3
    for trial, item in enumerate(RecordingPool.yielded):
        assert not isinstance(item, TrialResult)
        assert type(item) is tuple and all(type(s) is MetricsSnapshot for s in item)
        assert item == run_trial(cfg, trial).snapshots


@pytest.mark.parametrize("jobs, trials, cpus, expected", [
    (64, 3, 2, [2]),     # capped by the CPU count
    (64, 3, 8, [3]),     # capped by the trial count
    (2, 3, 8, [2]),      # as asked
    (8, 1, 8, []),       # one trial runs in process
    (4, 3, 1, []),       # one CPU runs in process
])
def test_pool_size_is_capped(monkeypatch, make_config, jobs, trials, cpus, expected):
    from ephemera import experiment

    RecordingPool.sizes = []
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    cfg = make_config(trials=trials, max_iterations=30)
    assert run_trials(cfg, jobs=jobs) == [run_trial(cfg, i) for i in range(trials)]
    assert RecordingPool.sizes == expected
