"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Scenario runs are cached per session (see conftest.scenario_cache), so the
heavy sweeps are simulated once and shared across criteria.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from ephemera import events as ev
from ephemera.arena import Arena
from ephemera.bt import COLORS, Color, known_colors
from ephemera.experiment import builtin_scenarios, get_scenario
from ephemera.knowledge import CapacityPolicy, LearnOutcome
from ephemera.metrics import snapshot, write_csv
from ephemera.rng import SplitMix64

from reference import replay
from stores import one_row_store
from test_golden import SWEEP_GOLDEN, csv_digest

T_CASES = ("T1K", "T2K", "T5K", "T10K", "T20K")
DURATIONS = (1000, 2000, 5000, 10000, 20000)


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def final_totals(results):
    return [r.snapshots[-1].captured_total for r in results]


def mean(xs):
    return sum(xs) / len(xs)


@pytest.mark.slow
def test_criterion_01_eq1_exactness(scenario_cache):
    with criterion(1, "Eq. 1 exactness"):
        for name in ("T1K", "T20K", "M1", "NL"):
            arena = Arena(get_scenario(name), seed=1)
            assert snapshot(arena, 0, 0).knowledge_percent == 10.0  # exact, not approximate
        for result in scenario_cache("BL"):
            assert all(s.knowledge_percent == 100.0 for s in result.snapshots)


def test_criterion_02_table_fidelity():
    with criterion(2, "Table 1 fidelity"):
        scenarios = {c.name: c for c in builtin_scenarios()}
        assert len(scenarios) == 11
        for cfg in scenarios.values():
            assert cfg.targets_per_color == 25
            assert cfg.max_iterations == 20000
            assert cfg.trials == 10
        assert scenarios["BL"].robot_counts == (0, 50, 0, 0, 0, 0)
        for name in ("NL", *T_CASES, "M1", "M2", "M3", "M4"):
            assert scenarios[name].robot_counts == (45, 5, 0, 0, 0, 0)
        for name, duration in zip(T_CASES, DURATIONS):
            assert scenarios[name].memory_duration == duration
            assert scenarios[name].memory_size is None
        for size in (1, 2, 3, 4):
            assert scenarios[f"M{size}"].memory_size == size
            assert scenarios[f"M{size}"].memory_duration == 20000
        assert scenarios["NL"].learning_enabled is False


@pytest.mark.slow
def test_criterion_03_duration_trend(scenario_cache):
    from scipy.stats import spearmanr

    with criterion(3, "duration trend"):
        means = [mean(final_totals(scenario_cache(name))) for name in T_CASES]
        print(f"  T-case mean captures at t=20000: {dict(zip(T_CASES, means))}")
        assert means[-1] > means[0], f"mean(T20K)={means[-1]} !> mean(T1K)={means[0]}"
        rho = spearmanr(DURATIONS, means).statistic
        print(f"  spearman(duration, mean captures) = {rho:.3f}")
        assert rho > 0


@pytest.mark.slow
def test_criterion_04_size_trend(scenario_cache):
    with criterion(4, "memory size trend"):
        totals = {f"M{i}": final_totals(scenario_cache(f"M{i}")) for i in (1, 2, 3, 4)}
        means = {name: mean(v) for name, v in totals.items()}
        print(f"  M-case means: {means}")
        assert means["M1"] < means["M4"]
        for a, b in itertools.permutations(("M2", "M3", "M4"), 2):
            assert min(totals[b]) <= means[a] <= max(totals[b]), (
                f"mean({a})={means[a]} outside envelope of {b} "
                f"[{min(totals[b])}, {max(totals[b])}]"
            )


@pytest.mark.slow
def test_criterion_05_hierarchy(scenario_cache):
    with criterion(5, "NL <= ephemeral <= BL hierarchy"):
        nl = mean(final_totals(scenario_cache("NL")))
        bl = mean(final_totals(scenario_cache("BL")))
        print(f"  NL={nl} BL={bl}")
        for name in T_CASES:
            t_mean = mean(final_totals(scenario_cache(name)))
            assert nl <= t_mean <= bl, f"{name} mean {t_mean} breaks NL({nl}) <= T <= BL({bl})"


@pytest.mark.slow
def test_criterion_06_knowledge_monotonicity(scenario_cache):
    with criterion(6, "monotone knowledge under T20K, decay under T1K"):
        for result in scenario_cache("T20K"):
            series = [s.knowledge_percent for s in result.snapshots]
            assert all(b >= a for a, b in zip(series, series[1:])), (
                f"T20K trial {result.trial} knowledge decreased"
            )
        decays = 0
        for result in scenario_cache("T1K"):
            series = [s.knowledge_percent for s in result.snapshots]
            if any(b < a for a, b in zip(series, series[1:])):
                decays += 1
        print(f"  T1K trials with a strict knowledge decrease: {decays}/10")
        assert decays >= 8


@pytest.mark.slow
def test_criterion_07_conservation_and_monotonicity(scenario_cache):
    with criterion(7, "conservation and counter monotonicity"):
        # captured + alive == 100 is asserted inside Arena.step at every
        # iteration of every cached run; re-check it explicitly over one
        # stepped trial, and check counter monotonicity over all cached runs.
        cfg = get_scenario("T2K")
        arena = Arena(cfg, seed=123)
        while not arena.finished and arena.t < 400:
            arena.step()
            assert arena.capture_total + arena.alive_count == 100
        for name in ("BL", "NL", *T_CASES, "M1", "M2", "M3", "M4"):
            for result in scenario_cache(name):
                series = result.snapshots
                assert series[-1].captured_total <= 100
                for a, b in zip(series, series[1:]):
                    assert b.captured_total >= a.captured_total
                    assert b.queries_sent >= a.queries_sent
                    assert b.deliveries >= a.deliveries
                    assert b.forgets >= a.forgets
                    assert b.rejects_full >= a.rejects_full


@pytest.mark.slow
def test_criterion_08_determinism(tmp_path):
    with criterion(8, "byte-identical reruns, serial == parallel"):
        # A serial and a --jobs 2 run each write the pinned bytes of the
        # builtin sweep's T5K, whose base_seed is 42.
        for out_dir, extra in ((tmp_path / "serial", ()), (tmp_path / "jobs2", ("--jobs", "2"))):
            proc = subprocess.run(
                [sys.executable, "-m", "ephemera", "run", "--scenario", "T5K",
                 "--seed", "42", "--out", str(out_dir), *extra],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert len(list(out_dir.iterdir())) == 11
            assert csv_digest(out_dir) == SWEEP_GOLDEN["T5K"][0]


@pytest.mark.slow
def test_criterion_09_oracle_equivalence(scenario_cache, tmp_path):
    with criterion(9, "event-log replay and Eq. 1 oracles"):
        # Every CSV column but queries, replayed from the event lines parsed back.
        cfg = get_scenario("T5K")
        for result in scenario_cache("T5K")[:3]:
            csv_path = tmp_path / f"trial{result.trial}.csv"
            write_csv(result.snapshots, csv_path)
            rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
            records = [ev.parse_event_line(r.line()) for r in result.events]
            replayed = replay(cfg, records, [int(row[1]) for row in rows])
            assert len(rows) == len(replayed) == len(result.snapshots)
            for row, (percent, captures, deliveries, forgets, rejects) in zip(rows, replayed):
                assert row[:8] + row[9:] == [
                    str(result.trial), row[1], f"{percent:.4f}", str(sum(captures)),
                    *map(str, captures), str(deliveries), str(forgets), str(rejects)]

        # snapshot's Eq. 1 vs a brute-force per-color count over the stores,
        # at 20 seeded-random snapshot boundaries.
        rng = SplitMix64(2718)
        sampled = set()
        while len(sampled) < 20:
            sampled.add(rng.below(200) + 1)
        arena = Arena(get_scenario("T1K"), seed=99)
        compared = 0
        while not arena.finished:
            arena.step()
            boundary, rem = divmod(arena.t, arena.config.snapshot_interval)
            if rem == 0 and boundary in sampled:
                stores = [a.store for a in arena.agents]
                brute = [sum(1 for s in stores if s.knows(c)) for c in COLORS]
                percent = snapshot(arena, 0, arena.t).knowledge_percent
                assert percent == sum(brute) * 100 / (len(stores) * 4)
                compared += 1
        assert compared == 20


def test_criterion_10_grammar_properties():
    from test_bt import random_tree

    from ephemera.bt import assemble_agent_tree, graft, parse, prune, serialize

    with criterion(10, "grammar round-trip and graft/prune algebra"):
        rng = SplitMix64(424242)
        for _ in range(1000):
            tree = random_tree(rng)
            text = serialize(tree)
            assert parse(text) == tree
            assert serialize(parse(text)) == text
        subsets = [
            combo for k in range(5) for combo in itertools.combinations(COLORS, k)
        ]
        assert len(subsets) == 16
        for subset in subsets:
            tree = assemble_agent_tree(subset)
            for color in COLORS:
                grown = graft(tree, color)
                assert known_colors(grown) == tuple(sorted(set(subset) | {color}))
                cut = prune(tree, color)
                assert known_colors(cut) == tuple(sorted(set(subset) - {color}))
                if color not in subset:
                    assert prune(grown, color) == tree


def test_criterion_11_expiry_and_capacity_edges():
    with criterion(11, "expiry boundary and capacity policies"):
        t, d = 137, 50
        store = one_row_store(duration=d)
        store.learn(Color.RED, now=t)
        assert store.forget_expired(t + d - 1) == []
        assert store.knows(Color.RED)
        assert store.forget_expired(t + d) == [Color.RED]
        assert not store.knows(Color.RED)

        store = one_row_store(capacity=1, policy=CapacityPolicy.REJECT_WHEN_FULL)
        assert store.learn(Color.RED, 1).outcome is LearnOutcome.MERGED
        result = store.learn(Color.GREEN, 2)
        assert result.outcome is LearnOutcome.REJECTED_FULL
        assert store.known_colors() == (Color.RED,)

        store = one_row_store(capacity=1, policy=CapacityPolicy.EVICT_OLDEST)
        store.learn(Color.RED, 1)
        result = store.learn(Color.GREEN, 2)
        assert result.outcome is LearnOutcome.EVICTED
        assert result.victim is Color.RED
        assert store.known_colors() == (Color.GREEN,)
