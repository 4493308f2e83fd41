import os

import pytest

from ephemera.experiment import ScenarioConfig, get_scenario, run_trials


@pytest.fixture(scope="session")
def scenario_cache():
    """Lazily computed full 10-trial runs of the builtin scenarios, shared by
    the acceptance criteria so each scenario is simulated once per session,
    on every core (the output is the same at any job count)."""
    cache: dict[str, list] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_trials(get_scenario(name), jobs=os.cpu_count() or 1)
        return cache[name]

    return get


@pytest.fixture
def make_config():
    """Small, fast scenario configs for exercising the full loop."""

    def _make(**overrides):
        base = dict(
            name="mini",
            grid=(40, 40),
            targets_per_color=5,
            robot_counts=(6, 2, 0, 0, 0, 0),
            memory_duration=30,
            memory_size=None,
            learning_enabled=True,
            max_iterations=250,
            sense_radius=4,
            comm_radius=8,
            query_cooldown=5,
            snapshot_interval=25,
            trials=3,
            base_seed=9,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    return _make
