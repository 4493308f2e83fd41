"""Golden outputs: the sha256 of the CSV bytes and of the event lines of a
fixed set of runs. The mini, edges, corridor and cut builtin cases were
pinned from the generic tree-ticking step that the table-driven step
replaced; the churn cases, write-heavy runs whose every query can be
answered, and the full builtin sweep were pinned before resolve learned on
the knowledge arrays. Any change to the simulated behaviour, the draw order
or the CSV format changes a digest here.
"""

import dataclasses
import hashlib

import pytest

from ephemera import experiment, metrics
from ephemera.arena import Arena, RobotType
from ephemera.bt import COLORS
from ephemera.experiment import builtin_scenarios, get_scenario
from ephemera.knowledge import CapacityPolicy


def csv_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def events_digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(f"trial {result.trial}\n".encode())
        h.update("".join(record.line() + "\n" for record in result.events).encode())
    return h.hexdigest()


def run_recorded(config, out_dir, monkeypatch) -> list:
    """Run the scenario as the CLI does; returns every trial's result."""
    results = []
    run_trial = experiment.run_trial

    def recording(cfg, trial_index):
        result = run_trial(cfg, trial_index)
        results.append(result)
        return result

    monkeypatch.setattr(experiment, "run_trial", recording)
    experiment.run_scenario(config, out_dir, jobs=1)
    return results


def scenario_digests(config, out_dir, monkeypatch) -> tuple[str, str]:
    """Run the scenario as the CLI does and digest its files and events."""
    results = run_recorded(config, out_dir, monkeypatch)
    return csv_digest(out_dir), events_digest(results)


def sweep_digests(config, results, out_dir, monkeypatch) -> tuple[str, str]:
    """Write the CSVs of finished trials as ``run_scenario`` writes them and
    digest them and the trials' events."""
    monkeypatch.setattr(experiment, "run_trial", lambda cfg, trial_index: results[trial_index])
    experiment.run_scenario(config, out_dir, jobs=1)
    return csv_digest(out_dir), events_digest(results)


def layout_digests(config, targets, agents, seed, out_dir) -> tuple[str, str]:
    """Step an explicitly laid-out arena to the end and digest its snapshot
    CSV and events. The rows are t=0 and the grid times the arena reached:
    unlike run_trial, an early finish (corridor clears at t=74) adds none."""
    arena = Arena.from_layout(config, targets, agents, seed=seed)
    snaps = [metrics.snapshot(arena, 0, 0)]
    while not arena.finished:
        arena.step()
        if arena.t % config.snapshot_interval == 0:
            snaps.append(metrics.snapshot(arena, 0, arena.t))
    out_dir.mkdir()
    metrics.write_csv(snaps, out_dir / "layout.csv")
    h = hashlib.sha256()
    h.update("".join(line + "\n" for line in arena.event_lines()).encode())
    return csv_digest(out_dir), h.hexdigest()


def edge_layout():
    """Targets scattered over a 40x40 board; agents of every type on all four
    edges and in the corners, so Explore draws from the clipped move sets."""
    targets = []
    for i in range(40):
        color = COLORS[i % 4]
        targets.append((color, (7 * i + 3) % 40, (11 * i + 5) % 40))
    assert len({(x, y) for _, x, y in targets}) == len(targets)
    types = (RobotType.IGNORANT, RobotType.IGNORANT, RobotType.MASTER, RobotType.RED,
             RobotType.GREEN, RobotType.YELLOW, RobotType.BLUE)
    cells = [(0, 0), (39, 0), (0, 39), (39, 39)]
    cells += [(x, 0) for x in (5, 17, 30)] + [(x, 39) for x in (9, 22, 35)]
    cells += [(0, y) for y in (6, 19, 31)] + [(39, y) for y in (12, 25, 36)]
    agents = [(types[i % len(types)], x, y) for i, (x, y) in enumerate(cells)]
    return targets, agents


EVICT = CapacityPolicy.EVICT_OLDEST
REJECT = CapacityPolicy.REJECT_WHEN_FULL

MINI_CASES = {
    "mini": {},
    "mini-size1-reject": dict(memory_size=1, capacity_policy=REJECT),
    "mini-size1-evict": dict(memory_size=1, capacity_policy=EVICT),
    "mini-no-learning": dict(learning_enabled=False),
}

# The skill-churn benchmark's shape: every query can be answered (comm_radius
# spans the board, no cooldown), so most steps deliver, evict or reject.
CHURN = dict(name="churn", grid=(60, 60), targets_per_color=200,
             robot_counts=(48, 2, 0, 0, 0, 0), comm_radius=60, query_cooldown=0,
             max_iterations=100, sense_radius=5, snapshot_interval=10, trials=4, base_seed=1)
CHURN_CASES = {  # case -> (overrides, event kind, its count over the 4 trials)
    "churn-size2-evict": (dict(memory_size=2, capacity_policy=EVICT, memory_duration=4),
                          "Delivery", 3429),
    "churn-size1-reject": (dict(memory_size=1, capacity_policy=REJECT, memory_duration=20),
                           "Reject", 4356),
}

GOLDEN = {  # case -> (CSV sha256, event-lines sha256)
    "mini": (
        "68601613446f71c0f10b3fa103079897a50d93affdf88a54df557237bbd18449",
        "dd9e8dd95a515d86c4c570f232a7a78ea464ee284719465345ebe8ded4ca7330",
    ),
    "mini-size1-reject": (
        "89d5dcb1c76e52e257bbfdf7ea6d06f845b5ecad316ea7a3a206899fe22066b3",
        "3c926cc489cab18d08a08d1f51be41b18c6cc0e2d3c0970a837282954a73e86a",
    ),
    "mini-size1-evict": (
        "6e2a6684d4128bcd901ed82dc57bf865293fb818ea70665d8125d6f3327d117a",
        "44c80b63f5af8f8bedb849c03985bd2aad3a135f5dd69098a2ab3fa0f3d9fbe0",
    ),
    "mini-no-learning": (
        "7db45673135c3566a110658fbc0c068e87e566ee87b9dcaa1f55ed10834dfbe6",
        "40f2895452f610ba854c5901c9916e5f93e2dce55d0770a841d291a95921dbd0",
    ),
    "edges": (
        "840967ba91e153eb705bdeb90dcd3a46f3e2b125d28505bcba2157a875924028",
        "3694e0053fcd9f0200736e5a90fe40b5df264cbd4be7fa7871245d02805d4d7a",
    ),
    "corridor": (
        "e34e803229fd7a86c29cdf0a7e48401c39fc550502e1d1c83cd090f10faa89c7",
        "879fc9a5f50ff3c71c4fc1b0b128ee825be1c4a747a54aef61b3faae447fc68b",
    ),
    "T1K": (
        "2111e9f287525efd1a54c190451637220d79d71ed69db6314271109166486f35",
        "191eed8a3c5001957c239cfd85b653a550826c0e34645f4a268bcccf12f9fd31",
    ),
    "M1": (
        "aa3c9aa08bfeaadb22642721bb4e1033cfbffcf7a42fa0eb1d564a17639e2dc3",
        "261c277fd044f82e0d432f83c62da27c7e8ab615dba6197f35f416164460bb30",
    ),
    "churn-size2-evict": (
        "9dd9d0a6a71d5c8a4f56fe165c348579e7d39d30fc1dba70c7f55f50b4962a5d",
        "6108d703dc58ea394df807b3527ddc0b863e40d32e59bcd73d6a5b8ecd0c3f86",
    ),
    "churn-size1-reject": (
        "155ca6273f1e999a07c1e4b3535b3c597f9714a5b7a7239cb309f48da4cd4084",
        "dc80ca7561b46e76fee1a22d5f9125b875ec5b2a0a4826c4129978c0f0bc043a",
    ),
}

SWEEP_GOLDEN = {  # builtin scenario, 10 trials at full length -> (CSV, event lines)
    "BL": (
        "96def7adde1f6ffa49eb2beb5585b5de3bac43f83ba05bb0c47eb9767d9fa577",
        "ec8a453c828504b327b76c0cdc4a16edbb72c3d0d21088f92bc85f3611e8745c",
    ),
    "NL": (
        "64ae82770da7b180ab0b1eb46eb09fafe9da5e7e7a59f36b6624ae1afba95b9c",
        "ac73af2380e7d4de71c8a22833adac31d575c4800f516c08c465230770d0e98b",
    ),
    "T1K": (
        "add89bbd031af442b6646e7c0fa15e9f88fe180ef7be3a6871242f7bfc24e640",
        "156654091081ca10d352510cc8e04ea365bc785604fef03a079b6b37ac600414",
    ),
    "T2K": (
        "f3dc806026ec80e05f95338417d3f35f5973ef05a49aa7a100c9cac39c7db644",
        "588d3ae1f1c78789ba4ecfa23336b00c4e943e1754a9a2e048991c4fec23c492",
    ),
    "T5K": (
        "a603b2bf05817e3b873cd570b4b15fc7e798d12e2ab6eb1b695de82cccb8f95b",
        "5727629228e79b303bc77f5d8d85db81009e2ade25557c7ff45feed30aa36742",
    ),
    "T10K": (
        "34c1173dbaa0b14c5150337097ed4fe19180f46857d19a478a2f07778ef15fa4",
        "2d243eaa6e5d819f07be5766297b1b2e474e552f688058b8f9641bbfd31608a4",
    ),
    "T20K": (
        "dcea5fe4c9f7bcbba9cce2c436734f2634cdb8640baa710a3f4482ebaf5fb529",
        "b50868c550794d827a3e342cdc761bdc9dc2ba56e0e8812d78f5c8cd0a411e66",
    ),
    "M1": (
        "10ad50c124afae249156b6b51398a96b3a3e78fa4add0cdf3e7ed5fde92cd6ce",
        "54dae62e88e62181c9c877bde0cf0872657782f6f97e1aff977c2ba064c74e89",
    ),
    "M2": (
        "b85ea26eee893791c396ad3fc7a2675c8b0e9cd1b3033c977f4fb183251e9b34",
        "5c1cfc5775eb6d735c4c6ff3e57703a7d63ed473354a1f2f30f292c462a25986",
    ),
    "M3": (
        "e45748002742a722cb16af03c57e214e8b8aab3611b0b8f35ca6a5bb76448c49",
        "04154397281cc920f96cf087ac0955841d9ad8406dfe46a8f4b3925f2c79dbcd",
    ),
    "M4": (
        "d316b10c524b9f560f5ace9475d1bde2c5afed7c1aa4243e8869bf72c28e1b05",
        "b50868c550794d827a3e342cdc761bdc9dc2ba56e0e8812d78f5c8cd0a411e66",
    ),
}


@pytest.mark.parametrize("case", sorted(MINI_CASES))
def test_golden_mini(case, make_config, tmp_path, monkeypatch):
    config = make_config(**MINI_CASES[case])
    assert scenario_digests(config, tmp_path, monkeypatch) == GOLDEN[case]


def test_golden_edges(make_config, tmp_path):
    targets, agents = edge_layout()
    config = make_config(name="edges", grid=(40, 40), memory_duration=25, memory_size=2,
                         capacity_policy=EVICT, max_iterations=400, sense_radius=2,
                         comm_radius=8, query_cooldown=3, snapshot_interval=20)
    got = layout_digests(config, targets, agents, 2024, tmp_path / "edges")
    assert got == GOLDEN["edges"]


def test_golden_corridor(make_config, tmp_path):
    # A one-cell-wide board: every Explore move is clipped on the x axis.
    R, I, M = RobotType.RED, RobotType.IGNORANT, RobotType.MASTER
    targets = [(COLORS[i % 4], 0, y) for i, y in enumerate((3, 10, 15, 20, 24, 27))]
    agents = [(I, 0, 0), (M, 0, 29), (R, 0, 14), (I, 0, 5)]
    config = make_config(name="corridor", grid=(1, 30), memory_duration=10,
                         max_iterations=300, sense_radius=2, comm_radius=5,
                         query_cooldown=2, snapshot_interval=10)
    got = layout_digests(config, targets, agents, 77, tmp_path / "corridor")
    assert got == GOLDEN["corridor"]


@pytest.mark.parametrize("name", ["T1K", "M1"])
def test_golden_builtin_cut(name, tmp_path, monkeypatch):
    config = dataclasses.replace(get_scenario(name), max_iterations=1500)
    assert scenario_digests(config, tmp_path, monkeypatch) == GOLDEN[name]


@pytest.mark.parametrize("case", sorted(CHURN_CASES))
def test_golden_churn(case, make_config, tmp_path, monkeypatch):
    overrides, kind, count = CHURN_CASES[case]
    results = run_recorded(make_config(**CHURN, **overrides), tmp_path, monkeypatch)
    assert sum(r.kind == kind for result in results for r in result.events) == count
    assert (csv_digest(tmp_path), events_digest(results)) == GOLDEN[case]


@pytest.mark.slow
@pytest.mark.parametrize("name", [config.name for config in builtin_scenarios()])
def test_golden_builtin_sweep(name, scenario_cache, tmp_path, monkeypatch):
    results = scenario_cache(name)
    got = sweep_digests(get_scenario(name), results, tmp_path, monkeypatch)
    assert got == SWEEP_GOLDEN[name]
