"""Benchmark of ephemera's host time, end to end and layer by layer.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
run sets the workload up several times (import, configs, every Arena built
once) and reports the median as setup_s. It then runs whole rounds of the
workload's trials for about S seconds, at least two of them. Each round is
checked apart from the program (see checks.py) and every round must give
the same CSV and event-log digests. Rounds run only as bases of other
figures (the in-process skill-churn reference of cli-jobs2, the two walls of
experiment.speedup_jobs2 in a traced run) are checked and counted as well.

Every time reported is scaled to a reference host speed (hostspeed.py).

--trace 0 prints the end-to-end metrics: the median round wall time, agent
steps per second and set-up time, and the peak resident memory.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics: self time and work counts at each traced boundary (tracing.py),
medians over the traced rounds, and the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": trials, "failed": trials, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads
from hostspeed import HostSpeed

WORKLOADS = tuple(workloads.CONFIGS)
MODULES = ("arena", "bt", "cli", "experiment", "knowledge", "metrics", "protocol", "rng")
SETUP_REPS = 15
MIN_ROUNDS = 2
STARTUP_REPS = 5

# per-layer metric -> (span, unit); self time of the span per round
SELF_METRICS = {
    "arena.step_s": "arena.step",
    "arena.sense_s": "arena.sense",
    "arena.execute_s": "arena.execute",
    "arena.capture_s": "arena.capture",
    "arena.init_s": "arena.init",
    "bt.tick_s": "bt.tick",
    "bt.codec_s": "bt.codec",
    "bt.edit_s": "bt.edit",
    "rng.below_s": "rng.below",
    "knowledge.expire_s": "knowledge.expire",
    "knowledge.learn_s": "knowledge.learn",
    "protocol.resolve_s": "protocol.resolve",
    "protocol.emit_s": "protocol.emit",
    "protocol.merge_s": "protocol.merge",
    "metrics.snapshot_s": "metrics.snapshot",
    "metrics.write_s": "metrics.write",
    "metrics.aggregate_s": "metrics.aggregate",
    "experiment.self_s": "experiment.run",
    "experiment.pool_s": "experiment.pool",
}
# per-layer count -> span whose calls it counts
CALL_METRICS = {
    "arena.steps": "arena.step",
    "arena.captures": "arena.capture",
    "bt.ticks": "bt.tick",
    "bt.edits": "bt.edit",
    "rng.draws": "rng.below",
    "knowledge.expire_calls": "knowledge.expire",
    "knowledge.learns": "knowledge.learn",
    "metrics.snapshots": "metrics.snapshot",
}
# per-layer counts made by the count hooks in tracing.py
HOOK_METRICS = (
    "arena.agent_steps", "bt.payloads", "knowledge.expired", "knowledge.evictions",
    "knowledge.rejects", "protocol.scan_pairs", "protocol.queries", "protocol.deliveries",
    "metrics.bytes_written",
)


def checkout_root():
    """The current directory, when it holds the program's sources; they are
    put first on sys.path so no installed copy is measured."""
    root = Path.cwd()
    if not (root / "src" / "ephemera" / "__init__.py").is_file():
        print("bench: src/ephemera not found; run from the root of an ephemera checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(root / "src"))
    return root


@contextlib.contextmanager
def work_dir(root, workload):
    """A scratch directory under bench_out/, removed with everything in it."""
    out_root = root / "bench_out"
    out_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out_root, prefix=f"{workload}-") as tmp:
            yield Path(tmp)
    finally:
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still uses it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def load_program():
    """Import ephemera afresh; earlier imports are dropped from sys.modules."""
    for name in [m for m in sys.modules if m == "ephemera" or m.startswith("ephemera.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"ephemera.{m}") for m in MODULES})


def set_up(workload, seed, workdir, speed):
    """Import, build the configs, and construct every Arena once; repeated
    SETUP_REPS times. Returns the last program, its configs and the scaled
    times."""
    times = []
    for _ in range(SETUP_REPS):
        mark = speed.mark()
        start = time.perf_counter()
        ep = load_program()
        configs = workloads.CONFIGS[workload](ep, seed, workdir)
        for cfg in configs:
            for trial in range(cfg.trials):
                ep.arena.Arena(cfg, ep.rng.mix_seed(cfg.base_seed, trial))
        elapsed = time.perf_counter() - start
        factor, _ = speed.close(mark)
        times.append(elapsed * factor)
    return ep, configs, times


def summary_metrics(summary) -> dict:
    out = {}
    for metric, span in SELF_METRICS.items():
        out[metric] = summary["self_s"].get(span, 0.0)
    for metric, span in CALL_METRICS.items():
        out[metric] = summary["calls"].get(span, 0)
    for metric in HOOK_METRICS:
        out[metric] = summary["counts"].get(metric, 0)
    return out


def simulated_counts(rnd) -> dict:
    """Steps, captures and delivered payloads as the round's outputs state them."""
    steps = sum(sum(ends) for ends in rnd.end_ts.values())
    captures = deliveries = 0
    for name, data in rnd.files.items():
        if "_trial" in name:
            last = data.decode("ascii").rstrip("\n").rsplit("\n", 1)[1].split(",")
            captures += int(last[3])
            # every answered query delivers a payload; the CSV counts kept
            # ones as deliveries and the rest as rejects
            deliveries += int(last[9]) + int(last[11])
    return {"arena.steps": steps, "arena.captures": captures, "protocol.deliveries": deliveries}


class Run:
    """Rounds of one workload until the time is up, with their bookkeeping."""

    def __init__(self, args, root, workdir, ep, configs, speed):
        self.args = args
        self.speed = speed
        self.root = root
        self.workdir = workdir
        self.ep = ep
        self.configs = configs
        self.rounds: list = []          # untraced
        self.traced: list = []          # traced, each with its span summary
        # rounds run only as bases of other figures (the skill-churn
        # reference of a CLI round, the walls of experiment.speedup_jobs2);
        # checked and counted like the rest, but not timed as the workload
        self.extra: list = []
        self.problems: list[str] = []
        self.capture = workloads.Capture(ep.experiment, speed)
        self.capture.install()
        self.reference = None
        self.config_path = workdir / "churn.cfg"
        self.tracer = None
        if args.trace:
            self.tracer = tracing.Tracer()
            self.tracer.calibrate()
        if args.workload == "cli-jobs2":
            self.reference = self.timed(self.in_process)
            self.extra.append(self.reference)

    def timed(self, round_fn, *args, sampled=True):
        """Run one round and scale it by the host speed over its span. An
        in-process untraced round is sampled throughout; a traced round is
        not, since the tracer would charge the samples to whatever layer
        was running, and neither is a CLI round, whose workers would slow
        the samples down as they share the two cores with them."""
        mark = self.speed.mark()
        with self.speed.sampling() if sampled else contextlib.nullcontext():
            rnd = round_fn(*args)
        rnd.scale, inside = self.speed.close(mark)
        rnd.wall -= inside
        return rnd

    def out_dir(self):
        return Path(tempfile.mkdtemp(dir=self.workdir)) / "out"

    def in_process(self, configs=None):
        return workloads.run_in_process(self.ep, configs or self.configs, self.out_dir(), self.capture)

    def untraced_round(self):
        if self.reference is not None:
            return workloads.run_cli(self.root, self.config_path, self.out_dir(), self.reference)
        return self.in_process()

    def traced_round(self):
        tracer = self.tracer
        if self.reference is not None:
            trace_to = Path(tempfile.mkdtemp(dir=self.workdir)) / "trace.json"
            rnd = workloads.run_cli(self.root, self.config_path, self.out_dir(), self.reference,
                                    trace_to, tracer.outside_s)
            parts = [json.loads(p.read_text()) for p in sorted(trace_to.parent.glob("trace.json*"))]
            rnd.summary = tracing.merge(parts)
            return rnd
        tracer.reset()
        tracer.install(vars(self.ep))
        try:
            rnd = self.in_process()
        finally:
            tracer.uninstall()
        rnd.summary = tracer.summary()
        return rnd

    def measure(self):
        deadline = time.perf_counter() + self.args.seconds
        while True:
            rnd = self.timed(self.untraced_round, sampled=self.reference is None)
            self.rounds.append(rnd)
            if self.args.trace:
                self.traced.append(self.timed(self.traced_round, sampled=False))
            done = len(self.rounds) + len(self.traced)
            last = rnd.wall + (self.traced[-1].wall if self.args.trace else 0.0)
            # Start another round only if it should end within half a round
            # of the deadline, so runs last about the requested time.
            if done >= MIN_ROUNDS and time.perf_counter() + last / 2 > deadline:
                break

    def all_rounds(self):
        return self.rounds + self.traced + self.extra

    def verify(self, rng_seed) -> bool:
        for rnd in self.all_rounds():
            self.problems.extend(rnd.errors)
        correct = True
        digests = {(r.csv_sha, r.events_sha) for r in self.rounds + self.traced}
        if len(digests) != 1:
            self.problems.append(f"rounds disagree: {len(digests)} distinct digests")
            correct = False
        rng_errors = checks.check_rng(self.ep.rng, (rng_seed, 0, 42, 2**64 - 1))
        if rng_errors:
            self.problems.extend(rng_errors)
            correct = False
        for rnd in self.traced:
            expected = simulated_counts(rnd)
            got = summary_metrics(rnd.summary)
            for name, value in expected.items():
                if got[name] != value:
                    self.problems.append(f"traced {name} = {got[name]}, outputs say {value}")
                    correct = False
        return correct


def end_to_end(run, setup_times) -> dict:
    configs = run.configs
    walls = [r.seconds for r in run.rounds]
    steps = workloads.agent_steps(configs, run.rounds[0].end_ts)
    who = resource.RUSAGE_CHILDREN if run.args.workload == "cli-jobs2" else resource.RUSAGE_SELF
    return {
        "wall_s": (statistics.median(walls), "s"),
        "agent_steps_per_s": (statistics.median(steps / w for w in walls), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def startup_seconds(root, speed) -> float:
    times = []
    for _ in range(STARTUP_REPS):
        times.append(speed.scaled(lambda: subprocess.run(
            [sys.executable, "-m", "ephemera", "list"], cwd=root,
            env=workloads.program_env(root), capture_output=True, check=True)))
    return statistics.median(times)


def churn_and_cli_walls(run) -> tuple[float, float]:
    """Untraced wall of the skill-churn round in process and through the
    CLI at --jobs 2, taken from the run's rounds where it has them. Rounds
    run here are kept in run.extra, so their outputs are checked too."""
    reference = run.reference
    if run.args.workload == "skill-churn":
        reference = run.rounds[0]
        churn = statistics.median(r.seconds for r in run.rounds)
    elif reference is not None:
        churn = reference.seconds
    else:
        reference = run.timed(run.in_process, workloads.skill_churn(run.ep, run.args.seed, run.workdir))
        run.extra.append(reference)
        churn = reference.seconds
    if run.args.workload == "cli-jobs2":
        cli = statistics.median(r.seconds for r in run.rounds)
    else:
        rnd = run.timed(workloads.run_cli, run.root, run.config_path, run.out_dir(), reference,
                        sampled=False)
        run.extra.append(rnd)
        cli = rnd.seconds
    return churn, cli


def per_layer(run) -> dict:
    values = [summary_metrics(rnd.summary) for rnd in run.traced]
    scales = [rnd.scale for rnd in run.traced]
    out = {}
    for metric in values[0]:
        if metric.endswith("_s"):
            out[metric] = (statistics.median(v[metric] * k for v, k in zip(values, scales)), "s")
        else:  # counts repeat exactly from round to round
            unit = "B" if metric == "metrics.bytes_written" else "count"
            out[metric] = (statistics.median_low(v[metric] for v in values), unit)
    deliveries, queries = out["protocol.deliveries"][0], out["protocol.queries"][0]
    out["protocol.answer_ratio"] = (deliveries / queries if queries else 0.0, "ratio")
    trial_seconds = [s for times in trial_times(run).values() for s in times]
    out["experiment.trial_s"] = (statistics.median(trial_seconds), "s")
    churn, cli = churn_and_cli_walls(run)
    out["experiment.churn_wall_s"] = (churn, "s")
    out["experiment.cli_jobs2_wall_s"] = (cli, "s")
    out["experiment.speedup_jobs2"] = (churn / cli, "ratio")
    out["cli.startup_s"] = (startup_seconds(run.root, run.speed), "s")
    traced = statistics.median(rnd.seconds for rnd in run.traced)
    out["trace.overhead_s"] = (traced - statistics.median(r.seconds for r in run.rounds), "s")
    return out


def trial_times(run) -> dict:
    """Untraced, scaled host time of each trial, by scenario, over the run's
    in-process rounds (for cli-jobs2, its in-process reference round)."""
    times: dict = {}
    for rnd in [run.reference] if run.reference else run.rounds:
        for name, seconds in rnd.trial_seconds.items():
            times.setdefault(name, []).extend(s * rnd.scale for s in seconds)
    return times


def report(run, metrics, correct) -> dict:
    rounds = run.all_rounds()
    first = rounds[0]
    print(f"workload {run.args.workload} seed {run.args.seed}: "
          f"{len(run.rounds)} untraced and {len(run.traced)} traced rounds of {first.trials} trials"
          + (f", {len(run.extra)} base rounds" if run.extra else ""))
    print(f"  raw round walls (s): untraced {[round(r.wall, 4) for r in run.rounds]}"
          + (f", traced {[round(r.wall, 4) for r in run.traced]}" if run.traced else ""))
    print(f"  host-speed factors: untraced {[round(r.scale, 3) for r in run.rounds]}"
          + (f", traced {[round(r.scale, 3) for r in run.traced]}" if run.traced else ""))
    print(f"  csv sha256 {first.csv_sha}")
    print(f"  events sha256 {first.events_sha}")
    for name, times in trial_times(run).items():
        print(f"  trial host time {name}: median {statistics.median(times):.4f} s over {len(times)} trials")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted = sum(r.trials for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    print(f"  trials attempted {attempted}, failed {failed}, correct {correct}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2**64
    root = checkout_root()
    if root is None:
        return 2
    with work_dir(root, args.workload) as workdir:
        speed = HostSpeed()
        ep, configs, setup_times = set_up(args.workload, args.seed, workdir, speed)
        run = Run(args, root, workdir, ep, configs, speed)
        run.measure()
        metrics = per_layer(run) if args.trace else end_to_end(run, setup_times)
        correct = run.verify(args.seed)
        result = report(run, metrics, correct)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
