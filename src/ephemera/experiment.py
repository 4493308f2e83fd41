"""Scenario registry, config-file loading, and seeded multi-trial execution.

Config files are line-oriented ``key=value`` with ``#`` comments. Keys and
defaults: name (file stem), grid=50,50, targets_per_color=25,
robots=45,5,0,0,0,0 (I,M,R,G,Y,B), memory_duration=20000,
memory_size=unlimited (or 1..4), capacity_policy=reject (or evict_oldest),
learning_enabled=true, max_iterations=20000, sense_radius=5, comm_radius=10,
query_cooldown=25, snapshot_interval=100, trials=10, base_seed=42.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional

from . import metrics
from .arena import Arena
from .events import EventRecord
from .knowledge import NEVER, CapacityPolicy
from .metrics import AggregateRow, MetricsSnapshot
from .rng import mix_seed


class ConfigError(ValueError):
    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str
    grid: tuple[int, int] = (50, 50)
    targets_per_color: int = 25
    robot_counts: tuple[int, int, int, int, int, int] = (45, 5, 0, 0, 0, 0)
    memory_duration: int = 20000
    memory_size: Optional[int] = None  # None = unlimited learned entries
    capacity_policy: CapacityPolicy = CapacityPolicy.REJECT_WHEN_FULL
    learning_enabled: bool = True
    max_iterations: int = 20000
    sense_radius: int = 5
    comm_radius: int = 10
    query_cooldown: int = 25
    snapshot_interval: int = 100
    trials: int = 10
    base_seed: int = 42

    def __post_init__(self) -> None:
        _validate(self)

    def snapshot_grid(self) -> range:
        return range(0, self.max_iterations + 1, self.snapshot_interval)


def _require(ok: bool, message: str, field: str) -> None:
    if not ok:
        raise ConfigError(message, field)


def _validate(cfg: ScenarioConfig) -> None:
    _require(bool(cfg.name), "name must be non-empty", "name")
    # The name prefixes every output file, so it must not reach outside --out.
    _require(Path(cfg.name).name == cfg.name and cfg.name not in (".", "..")
             and "\\" not in cfg.name and "\0" not in cfg.name,
             f"name must be a plain file stem, not {cfg.name!r}", "name")
    _require(len(cfg.grid) == 2 and cfg.grid[0] >= 1 and cfg.grid[1] >= 1,
             "grid needs two positive dimensions", "grid")
    _require(cfg.targets_per_color >= 0, "targets_per_color must be >= 0", "targets_per_color")
    _require(len(cfg.robot_counts) == 6 and all(c >= 0 for c in cfg.robot_counts),
             "robots needs six non-negative counts", "robots")
    _require(sum(cfg.robot_counts) >= 1, "at least one robot is required", "robots")
    _require(cfg.memory_duration >= 1, "memory_duration must be >= 1", "memory_duration")
    _require(cfg.memory_size is None or 1 <= cfg.memory_size <= 4,
             "memory_size must be unlimited or 1..4", "memory_size")
    _require(cfg.max_iterations >= 1, "max_iterations must be >= 1", "max_iterations")
    _require(cfg.sense_radius >= 0, "sense_radius must be >= 0", "sense_radius")
    _require(cfg.comm_radius >= 0, "comm_radius must be >= 0", "comm_radius")
    _require(cfg.query_cooldown >= 0, "query_cooldown must be >= 0", "query_cooldown")
    # A learned skill's expiry and a cooldown's end are iterations in int64 arrays.
    for field in ("memory_duration", "query_cooldown"):
        _require(cfg.max_iterations + getattr(cfg, field) < int(NEVER),
                 f"max_iterations + {field} must be below {NEVER}", field)
    _require(cfg.snapshot_interval >= 1, "snapshot_interval must be >= 1", "snapshot_interval")
    _require(cfg.trials >= 1, "trials must be >= 1", "trials")


# The stock sweep runs on a larger arena than the config-file default: with
# 50 agents and 100 targets on a 50x50 grid every variant collects everything
# within a few hundred iterations and the sweep curves collapse onto each
# other. 220x220 keeps foraging unfinished at the iteration cap for the weak
# variants, so retention and capacity effects stay visible in final captures.
_SWEEP_GRID = (220, 220)


def builtin_scenarios() -> list[ScenarioConfig]:
    """The stock sweep: baseline, no-learning, five retention durations, and
    four learned-skill capacities; 25 targets per color, 20000 iterations,
    10 trials each."""
    scenarios = [
        ScenarioConfig(name="BL", grid=_SWEEP_GRID, robot_counts=(0, 50, 0, 0, 0, 0)),
        ScenarioConfig(name="NL", grid=_SWEEP_GRID, learning_enabled=False),
    ]
    for duration in (1000, 2000, 5000, 10000, 20000):
        scenarios.append(
            ScenarioConfig(name=f"T{duration // 1000}K", grid=_SWEEP_GRID, memory_duration=duration)
        )
    for size in (1, 2, 3, 4):
        scenarios.append(ScenarioConfig(name=f"M{size}", grid=_SWEEP_GRID, memory_size=size))
    return scenarios


def get_scenario(name: str) -> ScenarioConfig:
    for cfg in builtin_scenarios():
        if cfg.name == name:
            return cfg
    known = ", ".join(c.name for c in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r} (builtin: {known})")


def _int_pair(value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return (int(parts[0]), int(parts[1]))


def _robot_tuple(value: str) -> tuple[int, ...]:
    parts = value.split(",")
    if len(parts) != 6:
        raise ValueError("expected six comma-separated counts (I,M,R,G,Y,B)")
    return tuple(int(p) for p in parts)


def _bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ValueError("expected true or false")


def _memory_size(value: str) -> Optional[int]:
    return None if value == "unlimited" else int(value)


_PARSERS = {
    "name": ("name", str),
    "grid": ("grid", _int_pair),
    "targets_per_color": ("targets_per_color", int),
    "robots": ("robot_counts", _robot_tuple),
    "memory_duration": ("memory_duration", int),
    "memory_size": ("memory_size", _memory_size),
    "capacity_policy": ("capacity_policy", CapacityPolicy),
    "learning_enabled": ("learning_enabled", _bool),
    "max_iterations": ("max_iterations", int),
    "sense_radius": ("sense_radius", int),
    "comm_radius": ("comm_radius", int),
    "query_cooldown": ("query_cooldown", int),
    "snapshot_interval": ("snapshot_interval", int),
    "trials": ("trials", int),
    "base_seed": ("base_seed", int),
}

# config-file key for each field, for error reporting
_FIELD_TO_KEY = {field: key for key, (field, _) in _PARSERS.items()}


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    kwargs: dict = {}
    key_lines: dict[str, int] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not {exc.encoding} at byte offset {exc.start}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: malformed line {raw.strip()!r}")
        entry = _PARSERS.get(key)
        if entry is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {key_lines[key]}")
        field, convert = entry
        try:
            kwargs[field] = convert(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        key_lines[key] = lineno
    kwargs.setdefault("name", path.stem)
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError as exc:
        key = _FIELD_TO_KEY.get(exc.field or "", exc.field)
        lineno = key_lines.get(key or "")
        where = f"{path}:{lineno}" if lineno else str(path)
        raise ConfigError(f"{where}: {exc}", exc.field) from None


@dataclass(frozen=True, slots=True)
class TrialResult:
    trial: int
    seed: int
    snapshots: tuple[MetricsSnapshot, ...]
    final_captures: tuple[int, int, int, int]
    end_t: int
    events: tuple[EventRecord, ...]

    @property
    def final_total(self) -> int:
        return sum(self.final_captures)


def run_trial(config: ScenarioConfig, trial_index: int) -> TrialResult:
    """One seeded trial: step the arena until it is finished, recording a
    snapshot at t=0 and at every later time of the snapshot grid. A row due
    after an early finish repeats the final state at its own time."""
    seed = mix_seed(config.base_seed, trial_index)
    arena = Arena(config, seed)
    snaps = []
    for t in config.snapshot_grid():
        while arena.t < t and not arena.finished:
            arena.step()
        snaps.append(metrics.snapshot(arena, trial_index, t))
    while not arena.finished:
        arena.step()
    return TrialResult(
        trial=trial_index,
        seed=seed,
        snapshots=tuple(snaps),
        final_captures=tuple(arena.capture_counts),
        end_t=arena.t,
        events=tuple(arena.events),
    )


def run_scenario(config: ScenarioConfig, out_dir, jobs: int = 1) -> list[AggregateRow]:
    """Run all trials (optionally across processes), write one CSV per trial
    plus the aggregate CSV, and return the aggregate rows.

    Output is byte-identical regardless of ``jobs``: trials are independent
    and results are written in trial order. A worker returns only its
    trial's snapshot rows; the event log stays in the worker. ``out_dir``
    is created only once every trial has run, so a run that fails leaves no
    directory behind. Then the scenario's trial CSVs that an earlier run
    left in ``out_dir`` for a trial index of ``config.trials`` or more are
    removed, so the files there match the aggregate.
    """
    per_trial = _map_trials(_trial_snapshots, config, jobs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{config.name}_trial"
    for trial, snaps in enumerate(per_trial):
        metrics.write_csv(snaps, out / f"{prefix}{trial:02d}.csv")
    rows = metrics.aggregate_trials(per_trial)
    metrics.write_aggregate_csv(rows, out / f"{config.name}_aggregate.csv")
    for path in out.iterdir():
        digits = path.name.removeprefix(prefix).removesuffix(".csv")
        if (digits.isdecimal() and int(digits) >= config.trials
                and path.name == f"{prefix}{int(digits):02d}.csv"):
            path.unlink()
    return rows


def run_trials(config: ScenarioConfig, jobs: int = 1) -> list[TrialResult]:
    """Run every trial, in ``min(jobs, trials, cpu count)`` processes, and
    return the full results, event logs included, in trial order."""
    return _map_trials(run_trial, config, jobs)


def _trial_snapshots(config: ScenarioConfig, trial_index: int) -> tuple[MetricsSnapshot, ...]:
    # Module level, so a pool can pickle it by name. It looks up run_trial at
    # call time, so a replaced run_trial still sees every trial, workers too.
    return run_trial(config, trial_index).snapshots


def _map_trials(fn, config: ScenarioConfig, jobs: int) -> list:
    """``fn(config, i)`` for every trial ``i``, in trial order, across
    ``min(jobs, trials, cpu count)`` worker processes, or in this process
    when that is one."""
    workers = min(jobs, config.trials, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(config, i) for i in range(config.trials)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, repeat(config), range(config.trials)))
