"""The benchmark's layer tracer patches program names by attribute; a name
it expects but the program no longer has must fail here, not in a traced
benchmark run."""

import importlib
from pathlib import Path

from ephemera.experiment import ScenarioConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("arena", "bt", "cli", "experiment", "knowledge", "metrics", "protocol", "rng")


def test_tracer_installs_on_every_boundary_and_traces_a_trial(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    modules = {name: importlib.import_module(f"ephemera.{name}") for name in MODULES}
    config = ScenarioConfig(name="traced", grid=(12, 12), targets_per_color=2,
                            robot_counts=(3, 1, 0, 0, 0, 0), max_iterations=30,
                            sense_radius=3, comm_radius=6, query_cooldown=2,
                            snapshot_interval=10)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        modules["experiment"].run_trial(config, 0)
    finally:
        tracer.uninstall()
    assert tracer.calls["arena.step"] > 0
    assert tracer.calls["experiment.run"] == 1
    assert tracer.counts["arena.agent_steps"] == 4 * tracer.calls["arena.step"]
