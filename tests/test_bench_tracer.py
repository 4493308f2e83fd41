"""The benchmark's layer tracer patches program names by attribute; a name
it expects but the program no longer has must fail here, not in a traced
benchmark run. A traced round is checked against its own outputs: the
delivered payloads and the captures the tracer counts must be the ones the
trial logged."""

import importlib
from collections import Counter
from pathlib import Path

from ephemera import events as ev
from ephemera.experiment import ScenarioConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("arena", "bt", "cli", "experiment", "knowledge", "metrics", "protocol", "rng")


def test_tracer_installs_on_every_boundary_and_traces_a_trial(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    modules = {name: importlib.import_module(f"ephemera.{name}") for name in MODULES}
    # A one-skill memory under the reject policy: the trial both keeps and
    # rejects delivered skills.
    config = ScenarioConfig(name="traced", grid=(12, 12), targets_per_color=2,
                            robot_counts=(3, 1, 0, 0, 0, 0), max_iterations=30,
                            memory_size=1, sense_radius=3, comm_radius=6, query_cooldown=2,
                            snapshot_interval=10)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        result = modules["experiment"].run_trial(config, 0)
    finally:
        tracer.uninstall()
    kinds = Counter(record.kind for record in result.events)
    assert kinds[ev.DELIVERY] > 0 and kinds[ev.REJECT] > 0
    assert tracer.calls["arena.step"] == result.end_t
    assert tracer.calls["experiment.run"] == 1
    assert tracer.counts["arena.agent_steps"] == 4 * tracer.calls["arena.step"]
    # The invariants a traced benchmark round is checked by (bench/run.py).
    assert tracer.counts["protocol.deliveries"] == kinds[ev.DELIVERY] + kinds[ev.REJECT]
    assert tracer.calls["arena.capture"] == kinds[ev.CAPTURE]
