"""Correctness checks on a trial's outputs, computed apart from the program.

Nothing here imports ``ephemera``. The checks read what the program wrote:
the per-trial and aggregate CSV text and the event lines
(``t,kind,agent,color[,counterpart]``). They replay the event log from each
robot's innate skills and require the CSV to agree with the replay at every
snapshot. Scenario parameters are read off the config objects as plain
attributes.
"""

from __future__ import annotations

import numpy as np

COLOR_LABELS = ("Red", "Green", "Yellow", "Blue")
_COLOR = {label: i for i, label in enumerate(COLOR_LABELS)}
# Innate colors per robot type, in the config's robot-count order I,M,R,G,Y,B.
_INNATE = ((), (0, 1, 2, 3), (0,), (1,), (2,), (3,))

CSV_HEADER = "trial,t,knowledge_pct,cap_total,cap_r,cap_g,cap_y,cap_b,queries,deliveries,forgets,rejects"
AGGREGATE_HEADER = "t,mean_knowledge_pct,min,max,mean_cap_total,min,max"


class TrialCheck:
    """Outcome of checking one trial: ``errors`` is empty when it passed;
    ``knowledge`` holds the replayed knowledge percentage per snapshot and
    ``captured`` the capture total per snapshot, for the aggregate check."""

    def __init__(self):
        self.errors: list[str] = []
        self.knowledge: list[float] = []
        self.captured: list[int] = []

    def fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)


def _parse_event(line: str):
    fields = line.split(",")
    counterpart = int(fields[4]) if len(fields) == 5 else None
    return int(fields[0]), fields[1], int(fields[2]), _COLOR[fields[3]], counterpart


def check_trial(cfg, trial: int, csv_text: str, event_lines, end_t: int) -> TrialCheck:
    """Replay the event log and check the CSV, the counters, conservation
    and the method's properties for one trial of scenario ``cfg``."""
    out = TrialCheck()
    innate = [set(_INNATE[kind]) for kind, count in enumerate(cfg.robot_counts) for _ in range(count)]
    n_agents = len(innate)
    known = [set(s) for s in innate]
    learned_at: list[dict[int, int]] = [{} for _ in range(n_agents)]
    duration = cfg.memory_duration
    capacity = cfg.memory_size
    tpc = cfg.targets_per_color

    events = [_parse_event(line) for line in event_lines]
    caps = [0, 0, 0, 0]
    deliveries = forgets = rejects = 0
    last_capture_t = 0

    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        out.fail("per-trial CSV header or line ending is wrong")
        return out
    rows = [line.split(",") for line in lines[1:-1]]
    grid = list(range(0, cfg.max_iterations + 1, cfg.snapshot_interval))
    if [int(r[1]) for r in rows] != grid or any(int(r[0]) != trial for r in rows):
        out.fail("snapshot rows are not the trial's snapshot grid")
        return out
    if not 1 <= end_t <= cfg.max_iterations:
        out.fail(f"end_t {end_t} outside 1..{cfg.max_iterations}")
        return out

    next_event = 0
    prev_t = 0
    prev_queries = 0
    for row in rows:
        t = int(row[1])
        while next_event < len(events) and events[next_event][0] <= t:
            et, kind, agent, color, counterpart = events[next_event]
            following = events[next_event + 1] if next_event + 1 < len(events) else None
            next_event += 1
            if et < prev_t or et < 1 or et > end_t:
                out.fail(f"event at t={et} out of order or outside 1..{end_t}")
            prev_t = et
            if kind == "Delivery":
                deliveries += 1
                if not cfg.learning_enabled:
                    out.fail(f"t={et}: delivery with learning disabled")
                if counterpart == agent or color not in known[counterpart]:
                    out.fail(f"t={et}: agent {counterpart} taught {COLOR_LABELS[color]} without knowing it")
                if color not in innate[agent]:
                    known[agent].add(color)
                    learned_at[agent][color] = et
                    if capacity is not None and len(learned_at[agent]) > capacity:
                        out.fail(f"t={et}: agent {agent} holds {len(learned_at[agent])} > {capacity} learned skills")
            elif kind == "Forget":
                forgets += 1
                at = learned_at[agent].pop(color, None)
                if at is None:
                    out.fail(f"t={et}: agent {agent} forgot {COLOR_LABELS[color]}, which it had not learned")
                    continue
                known[agent].discard(color)
                if at + duration == et:
                    continue  # expiry
                # Otherwise a capacity eviction: the store was full and the
                # Delivery that displaced the skill follows at the same t.
                if not (
                    capacity is not None
                    and len(learned_at[agent]) + 1 == capacity
                    and following is not None
                    and following[:3] == (et, "Delivery", agent)
                ):
                    out.fail(f"t={et}: agent {agent} forgot {COLOR_LABELS[color]} learned at {at}, "
                             f"neither at expiry ({at + duration}) nor by eviction")
            elif kind == "Capture":
                caps[color] += 1
                last_capture_t = et
                if color not in known[agent]:
                    out.fail(f"t={et}: agent {agent} captured {COLOR_LABELS[color]} without the skill")
            elif kind == "Reject":
                rejects += 1
                if capacity is None or len(learned_at[agent]) != capacity or color in known[agent]:
                    out.fail(f"t={et}: agent {agent} rejected {COLOR_LABELS[color]} with room to learn it")
            else:
                out.fail(f"unknown event kind {kind!r}")
        pct = sum(len(k) for k in known) * 100 / (n_agents * 4)
        out.knowledge.append(pct)
        out.captured.append(sum(caps))
        expected = [f"{pct:.4f}", *map(str, (sum(caps), *caps)), row[8],
                    str(deliveries), str(forgets), str(rejects)]
        if row[2:] != expected:
            out.fail(f"t={t}: CSV row {','.join(row[2:])} != replay {','.join(expected)}")
        if int(row[8]) < prev_queries:
            out.fail(f"t={t}: query counter went down")
        prev_queries = int(row[8])

    if next_event != len(events):
        out.fail(f"{len(events) - next_event} events after the last snapshot")
    for agent, entries in enumerate(learned_at):
        for color, at in entries.items():
            if at + duration <= end_t:
                out.fail(f"agent {agent} still holds {COLOR_LABELS[color]} learned at {at} "
                         f"after its expiry at {at + duration}")
    if any(c > tpc for c in caps):
        out.fail(f"captures per color {caps} exceed targets_per_color {tpc}")
    cleared = sum(caps) == 4 * tpc
    if end_t < cfg.max_iterations and not cleared:
        out.fail(f"trial ended at t={end_t} < {cfg.max_iterations} with the board not cleared")
    if cleared and end_t != last_capture_t:
        out.fail(f"board cleared at t={last_capture_t} but the trial ran to t={end_t}")
    if all(count == 0 for kind, count in enumerate(cfg.robot_counts) if kind != 1):
        if any(pct != 100.0 for pct in out.knowledge):
            out.fail("all-master scenario left 100% knowledge")
    if not cfg.learning_enabled:
        if deliveries or len(set(out.knowledge)) != 1:
            out.fail("no-learning scenario delivered skills or changed knowledge")
    return out


def check_aggregate(aggregate_text: str, trials: list[TrialCheck], grid) -> bool:
    """The aggregate CSV must be the per-snapshot mean/min/max of the
    replayed per-trial values."""
    lines = [AGGREGATE_HEADER]
    n = len(trials)
    for i, t in enumerate(grid):
        k = [tc.knowledge[i] for tc in trials]
        c = [tc.captured[i] for tc in trials]
        lines.append(f"{t},{sum(k) / n:.4f},{min(k):.4f},{max(k):.4f},{sum(c) / n:.4f},{min(c)},{max(c)}")
    return aggregate_text == "\n".join(lines) + "\n"


# --- reference splitmix64 ------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _fmix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """Outputs 1..n of splitmix64 seeded with ``seed``: fmix64(seed + k*golden)."""
    k = np.arange(1, n + 1, dtype=np.uint64)
    return [int(v) for v in _fmix64(np.uint64(seed % 2**64) + k * _GOLDEN)]


def check_rng(rng_module, seeds, draws: int = 64) -> list[str]:
    """Compare the program's generator and seed mixer with the reference."""
    errors = []
    for seed in seeds:
        ref = splitmix64_stream(seed, draws)
        gen = rng_module.SplitMix64(seed)
        if [gen.next_u64() for _ in range(draws)] != ref:
            errors.append(f"next_u64 stream differs for seed {seed}")
        for n in (1, 3, 8, 48400):
            gen = rng_module.SplitMix64(seed)
            if [gen.below(n) for _ in range(draws)] != [v % n for v in ref]:
                errors.append(f"below({n}) differs for seed {seed}")
        if [rng_module.mix_seed(seed, i) for i in range(draws)] != ref:
            errors.append(f"mix_seed differs for base seed {seed}")
    return errors
