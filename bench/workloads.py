"""The benchmark's workloads: how each builds its scenarios from a seed and
runs one round, and the checks and digests of a round's outputs.

A round is one fixed set of trials. Every round of a run repeats the same
trials, so every round must produce the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import checks

PAPER_SCENARIOS = ("BL", "NL", "T1K", "M1")
PAPER_ITERATIONS = 2000
PAPER_TRIALS = 1
CHURN_TRIALS = 32
CROWD_TRIALS = 2


def paper_sweep(ep, seed, workdir: Path):
    """A slice of the builtin sweep: the baseline, no learning, the shortest
    retention and the smallest capacity, cut to PAPER_ITERATIONS."""
    return [
        dataclasses.replace(
            ep.experiment.get_scenario(name),
            max_iterations=PAPER_ITERATIONS, trials=PAPER_TRIALS, base_seed=seed,
        )
        for name in PAPER_SCENARIOS
    ]


CHURN_CONFIG = """\
# skill-churn: every query answered, one-skill memories that last four
# iterations. The board would clear at about t=110..250; the cap of 100
# iterations keeps the busy part of each trial and cuts the tail spent
# hunting the last few targets, whose length depends on the seed, so every
# round does the same number of agent steps whatever the seed.
name=churn
grid=60,60
targets_per_color=200
robots=48,2,0,0,0,0
memory_duration=4
memory_size=1
capacity_policy=evict_oldest
comm_radius=60
query_cooldown=0
max_iterations=100
snapshot_interval=10
trials={trials}
base_seed={seed}
"""


def skill_churn(ep, seed, workdir: Path):
    """The write path: a config-file scenario, loaded as the CLI loads it."""
    path = workdir / "churn.cfg"
    path.write_text(CHURN_CONFIG.format(trials=CHURN_TRIALS, seed=seed), encoding="ascii")
    return [ep.experiment.load_config(path)]


def crowd(ep, seed, workdir: Path):
    """400 agents and 2000 targets on a board that never clears."""
    return [ep.experiment.ScenarioConfig(
        name="crowd", grid=(300, 300), targets_per_color=500, robot_counts=(395, 5, 0, 0, 0, 0),
        query_cooldown=5, max_iterations=150, snapshot_interval=50,
        trials=CROWD_TRIALS, base_seed=seed,
    )]


# workload name -> scenario builder; cli-jobs2 runs the skill-churn trials.
CONFIGS = {
    "paper-sweep": paper_sweep,
    "skill-churn": skill_churn,
    "crowd": crowd,
    "cli-jobs2": skill_churn,
}


def agent_steps(configs, end_ts) -> int:
    """Sum over trials of end_t times the number of agents."""
    return sum(sum(cfg.robot_counts) * sum(end_ts[cfg.name]) for cfg in configs)


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def csv_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def events_digest(configs, captured) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        for trial, result in sorted(captured[cfg.name].items()):
            h.update(f"{cfg.name},{trial}\n".encode())
            h.update("".join(r.line() + "\n" for r in result.events).encode())
    return h.hexdigest()


class Capture:
    """Wraps ``experiment.run_trial`` to keep each trial's result and host
    time, less the time spent in host-speed samples (hostspeed.py) during the
    trial; installed for every in-process round, traced or not."""

    def __init__(self, experiment, speed):
        self.experiment = experiment
        self.speed = speed
        self.results: dict[str, dict[int, object]] = {}
        self.seconds: dict[str, list[float]] = {}

    def install(self) -> None:
        original = self.experiment.run_trial
        results, seconds = self.results, self.seconds
        clock = time.perf_counter
        speed = self.speed

        def run_trial(config, trial_index):
            spent = speed.spent
            start = clock()
            result = original(config, trial_index)
            elapsed = clock() - start - (speed.spent - spent)
            seconds.setdefault(config.name, []).append(elapsed)
            results.setdefault(config.name, {})[trial_index] = result
            return result

        self.experiment.run_trial = run_trial

    def clear(self) -> None:
        self.results.clear()
        self.seconds.clear()


@dataclasses.dataclass
class Round:
    """One round's wall time, outcome and outputs."""

    wall: float
    trials: int
    failed: set            # (scenario, trial) pairs that failed a check
    csv_sha: str
    events_sha: str
    end_ts: dict           # scenario -> end_t per trial
    files: dict            # output file name -> bytes
    errors: list
    trial_seconds: dict = dataclasses.field(default_factory=dict)
    # host-speed factor of the round (hostspeed.py); times are reported
    # multiplied by it
    scale: float = 1.0
    summary: dict | None = None    # span summary of a traced round

    @property
    def seconds(self) -> float:
        """The round's wall time at the reference host speed."""
        return self.wall * self.scale


def check_outputs(configs, files, captured) -> tuple[set, list[str]]:
    """Check every trial of a round; returns the failed (scenario, trial)
    pairs and their messages."""
    failed: set = set()
    errors: list[str] = []
    for cfg in configs:
        trial_checks = []
        for trial in range(cfg.trials):
            result = captured.get(cfg.name, {}).get(trial)
            csv = files.get(f"{cfg.name}_trial{trial:02d}.csv")
            if result is None or csv is None:
                tc = checks.TrialCheck()
                tc.fail("trial output missing")
            else:
                tc = checks.check_trial(cfg, trial, csv.decode("ascii"),
                                        [r.line() for r in result.events], result.end_t)
                if result.seed != checks.splitmix64_stream(cfg.base_seed, trial + 1)[trial]:
                    tc.fail("trial seed is not mix_seed(base_seed, trial)")
            trial_checks.append(tc)
        aggregate = files.get(f"{cfg.name}_aggregate.csv", b"").decode("ascii")
        grid = range(0, cfg.max_iterations + 1, cfg.snapshot_interval)
        aggregate_ok = all(not tc.errors for tc in trial_checks) and checks.check_aggregate(
            aggregate, trial_checks, grid)
        for trial, tc in enumerate(trial_checks):
            if tc.errors or not aggregate_ok:
                failed.add((cfg.name, trial))
                reason = tc.errors or ["aggregate CSV does not match the trials"]
                errors.extend(f"{cfg.name} trial {trial}: {e}" for e in reason)
    return failed, errors


def run_in_process(ep, configs, out_dir: Path, capture: Capture) -> Round:
    """One round through ``run_scenario`` at jobs=1, then its checks."""
    out_dir.mkdir(parents=True)
    capture.clear()
    start = time.perf_counter()
    for cfg in configs:
        ep.experiment.run_scenario(cfg, out_dir, jobs=1)
    wall = time.perf_counter() - start
    files = read_outputs(out_dir)
    captured = {name: dict(trials) for name, trials in capture.results.items()}
    failed, errors = check_outputs(configs, files, captured)
    end_ts = {cfg.name: [captured[cfg.name][i].end_t for i in range(cfg.trials)]
              for cfg in configs if cfg.name in captured}
    trial_seconds = {name: list(v) for name, v in capture.seconds.items()}
    return Round(wall, sum(cfg.trials for cfg in configs), failed, csv_digest(files),
                 events_digest(configs, captured), end_ts, files, errors, trial_seconds)


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, config_path: Path, out_dir: Path, reference: Round,
            trace_to: Path | None = None, outside_s: float = 0.0) -> Round:
    """One round of ``ephemera run --config ... --jobs 2`` as a subprocess.
    A trial fails when its CSV bytes differ from the in-process skill-churn
    round's, or when that round's trial failed its checks."""
    argv = ["run", "--config", str(config_path), "--jobs", "2", "--out", str(out_dir)]
    if trace_to is None:
        cmd = [sys.executable, "-m", "ephemera", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
               str(trace_to), repr(outside_s), *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=program_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - start
    trials = {(name, i) for name, ends in reference.end_ts.items() for i in range(len(ends))}
    if proc.returncode != 0:
        return Round(wall, len(trials), trials, "", "", reference.end_ts, {},
                     [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    files = read_outputs(out_dir)
    differ = sorted(name for name in set(files) | set(reference.files)
                    if files.get(name) != reference.files.get(name))
    if any(not name.startswith(tuple(f"{n}_trial" for n, _ in trials)) for name in differ):
        failed = set(trials)
    else:
        failed = {(n, i) for n, i in trials if f"{n}_trial{i:02d}.csv" in differ}
    failed |= reference.failed
    errors = [f"{name} differs from the in-process skill-churn output" for name in differ]
    return Round(wall, len(trials), failed, csv_digest(files), reference.events_sha,
                 reference.end_ts, files, errors + reference.errors)
