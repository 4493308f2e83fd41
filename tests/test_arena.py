import dataclasses
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ephemera import events as ev
from ephemera.arena import (
    _EXPLORE, _MOORE, _MOVE_COUNT, _MOVE_DX, _MOVE_DY, _QUERY, INTENT_TABLE, ROBOT_ORDER, Arena,
    ConservationError, RobotType, SetupError,
)
from ephemera.bt import COLORS, Color, known_colors
from ephemera.experiment import ScenarioConfig, get_scenario, run_scenario, run_trial
from ephemera.knowledge import CapacityPolicy
from ephemera.rng import SplitMix64, mix_seed

from reference import replay

I, M = RobotType.IGNORANT, RobotType.MASTER


def collect_all_steps(arena, limit=10_000):
    while not arena.finished and arena.t < limit:
        arena.step()


# --- init -----------------------------------------------------------------------

def test_init_places_table_counts():
    arena = Arena(get_scenario("T5K"), seed=1)
    assert len(arena.targets()) == 100
    per_color = [sum(1 for t in arena.targets() if t.color is c) for c in COLORS]
    assert per_color == [25, 25, 25, 25]
    assert len(arena.agents) == 50
    types = [a.robot_type for a in arena.agents]
    assert types.count(I) == 45 and types.count(M) == 5
    assert [a.id for a in arena.agents] == list(range(50))
    # I robots first (IDs 0..44), then masters.
    assert all(t is I for t in types[:45]) and all(t is M for t in types[45:])


def test_init_targets_on_distinct_cells():
    arena = Arena(get_scenario("T5K"), seed=3)
    cells = [t.pos for t in arena.targets()]
    assert len(set(cells)) == len(cells)


def test_init_same_seed_identical():
    cfg = get_scenario("T1K")
    a = Arena(cfg, seed=42)
    b = Arena(cfg, seed=42)
    assert [t.pos for t in a.targets()] == [t.pos for t in b.targets()]
    assert [ag.pos for ag in a.agents] == [ag.pos for ag in b.agents]
    assert [ag.robot_type for ag in a.agents] == [ag.robot_type for ag in b.agents]


def test_init_infeasible_targets(make_config):
    with pytest.raises(SetupError):
        Arena(make_config(grid=(3, 3), targets_per_color=3), seed=1)


def test_layout_without_agents_is_a_setup_error(make_config):
    with pytest.raises(SetupError, match="at least one robot"):
        Arena.from_layout(make_config(), [(Color.RED, 1, 1)], [])


def test_init_zero_targets_is_valid(make_config):
    arena = Arena(make_config(targets_per_color=0), seed=1)
    assert arena.alive_count == 0
    assert arena.targets() == []


def per_attempt_placement(config, seed):
    """Placement as one ``below`` call per attempt, the loop that the batched
    draws of ``Arena.__init__`` replace: each target in color-major order
    redraws until it hits a free cell, then each agent takes one draw.
    Returns the targets as (color, x, y), the agents as (type, x, y) and the
    stream after the last draw."""
    width, height = config.grid
    cells = width * height
    rng = SplitMix64(seed)
    occupied, targets = set(), []
    for color in COLORS:
        for _ in range(config.targets_per_color):
            while True:
                v = rng.below(cells)
                if (v % width, v // width) not in occupied:
                    break
            occupied.add((v % width, v // width))
            targets.append((color, v % width, v // width))
    agents = []
    for robot_type, count in zip(ROBOT_ORDER, config.robot_counts):
        for _ in range(count):
            v = rng.below(cells)
            agents.append((robot_type, v % width, v // width))
    return targets, agents, rng


@st.composite
def placement_configs(draw):
    """Boards from one cell to 1 x N corridors and rectangles, with no
    targets, a random count, or a quarter of the cells per color (every cell
    when four divides their number), and any mix of robot types."""
    shape = draw(st.sampled_from(["corridor", "column", "grid"]))
    n = draw(st.integers(1, 40))
    grid = {"corridor": (1, n), "column": (n, 1), "grid": (n, draw(st.integers(1, 40)))}[shape]
    cells = grid[0] * grid[1]
    per_color = draw(st.sampled_from([0, cells // 4, draw(st.integers(0, cells // 4))]))
    robots = draw(st.tuples(*[st.integers(0, 5)] * 6).filter(any))
    return ScenarioConfig(name="place", grid=grid, targets_per_color=per_color,
                          robot_counts=robots)


@settings(max_examples=300, deadline=None)
@given(config=placement_configs(), seed=st.integers(0, (1 << 64) - 1))
@example(config=ScenarioConfig(name="none", grid=(1, 1), targets_per_color=0,
                               robot_counts=(1, 0, 0, 0, 0, 0)), seed=0)
@example(config=ScenarioConfig(name="full", grid=(4, 4), targets_per_color=4,
                               robot_counts=(1, 1, 1, 1, 1, 1)), seed=3)
@example(config=ScenarioConfig(name="corridor", grid=(1, 8), targets_per_color=2,
                               robot_counts=(2, 1, 0, 0, 0, 0)), seed=5)
@example(config=ScenarioConfig(name="robots", grid=(9, 7), targets_per_color=0,
                               robot_counts=(3, 2, 1, 1, 1, 1)), seed=7)
def test_init_places_as_the_per_attempt_loop(config, seed):
    targets, agents, rng = per_attempt_placement(config, seed)
    arena = Arena(config, seed)
    assert [(t.id, t.color, *t.pos, t.alive) for t in arena.targets()] == [
        (i, color, x, y, True) for i, (color, x, y) in enumerate(targets)]
    assert all(type(t.color) is Color and type(t.pos[0]) is int for t in arena.targets())
    assert [(a.robot_type, *a.pos) for a in arena.agents] == agents
    assert arena.knowledge.known.tolist() == [
        sum(1 << c for c in robot_type.innate_colors) for robot_type, _, _ in agents]
    assert [arena.rng.next_u64() for _ in range(3)] == [rng.next_u64() for _ in range(3)]


def test_init_raises_before_any_draw_when_targets_exceed_cells(make_config, monkeypatch):
    def no_draws(self, *args):
        raise AssertionError("drew before rejecting the layout")

    for name in ("below", "below_many", "next_u64"):
        monkeypatch.setattr(SplitMix64, name, no_draws)
    for grid, per_color in (((3, 3), 3), ((1, 7), 2), ((1, 1), 1)):
        with pytest.raises(SetupError, match="do not fit"):
            Arena(make_config(grid=grid, targets_per_color=per_color), seed=1)


def test_robot_types_set_innate_stores(make_config):
    cfg = make_config(grid=(30, 30), targets_per_color=1, robot_counts=(1, 1, 1, 1, 1, 1))
    arena = Arena(cfg, seed=5)
    got = [a.store.known_colors() for a in arena.agents]
    assert got == [
        (),
        COLORS,
        (Color.RED,),
        (Color.GREEN,),
        (Color.YELLOW,),
        (Color.BLUE,),
    ]
    assert [a.robot_type for a in arena.agents] == list(ROBOT_ORDER)
    for agent in arena.agents:
        assert known_colors(agent.tree) == agent.store.known_colors()


# --- sensing --------------------------------------------------------------------

def layout(make_config, targets, agents, **cfg):
    return Arena.from_layout(make_config(**cfg), targets, agents)


def search_all(arena, dist, row):
    """Per color, (distance, ID) of the first minimum of row ``row`` of
    ``dist`` in the color's slot of columns, where the Collect search looks;
    (None, None) when that minimum lies beyond span: the slot holds no live
    target, only captured targets and fillers, which read off-board
    distances."""
    span = max(arena.width, arena.height) - 1
    ids = dict(zip(arena._col.tolist(), range(len(arena._col))))
    slot = arena._slot
    found = []
    for color in COLORS:
        col = color * slot + int(dist[row, color * slot:(color + 1) * slot].argmin())
        d = int(dist[row, col])
        found.append((d, ids[col]) if d <= span else (None, None))
    return found


def sense_one(arena, agent_id=0):
    """One agent's row of the first sense pass, which senses every agent,
    and its Collect search: (nearest distances, nearest target IDs, seen
    mask). Every agent's distances and seen mask equal the brute-force
    scan."""
    dist, sensed, seen = arena._sense_all()
    assert sensed == slice(None) and len(dist) == len(arena.agents)
    assert_view_matches_brute_force(arena, seen)
    nearest_tid = [tid for _, tid in search_all(arena, dist, agent_id)]
    return arena._near[agent_id].tolist(), nearest_tid, int(seen[agent_id])


def test_sense_radius_boundary_inclusive(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 14, 10), (Color.BLUE, 15, 10)],
        agents=[(M, 10, 10)],
        sense_radius=4,
    )
    nearest_d, _, seen = sense_one(arena)
    assert seen >> Color.RED & 1         # distance exactly 4
    assert not seen >> Color.BLUE & 1    # distance 5
    assert nearest_d[Color.RED] == 4
    assert INTENT_TABLE[arena.knowledge.known[0], seen] == Color.RED


def test_sense_empty_perception(make_config):
    arena = layout(make_config, targets=[(Color.RED, 30, 30)], agents=[(I, 0, 0)])
    _, _, seen = sense_one(arena)
    assert seen == 0
    assert INTENT_TABLE[arena.knowledge.known[0], seen] == _EXPLORE


def test_ignorant_robot_sees_unknown(make_config):
    arena = layout(make_config, targets=[(Color.RED, 2, 0)], agents=[(I, 0, 0), (M, 1, 0)])
    seen = arena._sense_all()[2]
    assert_view_matches_brute_force(arena, seen)
    unknown = seen & ~arena.knowledge.known
    assert unknown.tolist() == [1 << Color.RED, 0]
    assert INTENT_TABLE[arena.knowledge.known, seen].tolist() == [_QUERY, Color.RED]


def test_sense_groups_by_color_and_orders_by_id(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 1, 0), (Color.RED, 3, 0), (Color.GREEN, 0, 2)],
        agents=[(M, 0, 0)],
    )
    nearest_d, nearest_tid, seen = sense_one(arena)
    assert seen == (1 << Color.RED) | (1 << Color.GREEN)
    assert (nearest_d[Color.RED], nearest_tid[Color.RED]) == (1, 0)
    assert (nearest_d[Color.GREEN], nearest_tid[Color.GREEN]) == (2, 2)


def brute_force_sense(arena, agent):
    """Per color, the live targets as (distance, ID, x, y), nearest first and
    lowest ID on ties."""
    found = {color: [] for color in COLORS}
    for target in arena.targets():
        if target.alive:
            d = max(abs(target.pos[0] - agent.x), abs(target.pos[1] - agent.y))
            found[target.color].append((d, target.id, *target.pos))
    return {color: sorted(entries) for color, entries in found.items()}


def sensed_ids(arena, sensed):
    """The agent IDs of the rows of a sense pass's distance matrix."""
    return np.arange(len(arena.agents))[sensed].tolist()


def assert_search_matches_brute_force(arena, dist, ids):
    """For every agent ``ids[row]`` sensed in row ``row`` of ``dist``, and
    every color with a live target, the Collect search on that row finds the
    brute-force nearest distance and ID, and finds it beyond the radius
    exactly when no live target of that color is within it."""
    radius = arena.config.sense_radius
    for row, agent_id in enumerate(ids):
        reference = brute_force_sense(arena, arena.agents[agent_id])
        for color, found in zip(COLORS, search_all(arena, dist, row)):
            live = reference[color]
            assert found == (live[0][:2] if live else (None, None))
            assert (bool(live) and found[0] <= radius) == any(d <= radius for d, _, _, _ in live)


def assert_view_matches_brute_force(arena, seen):
    """Every agent's kept distance, and its bit in the seen mask ``seen``
    that a sense pass returned, for every color equal the brute-force scan.
    A color with no live target, whether its targets are all captured or it
    has none, reads beyond every distance on the board and within the
    off-board distance: its slot holds only captured targets and fillers."""
    radius = arena.config.sense_radius
    span = max(arena.width, arena.height) - 1
    assert arena._near.shape == (len(arena.agents), 4)
    assert seen.shape == (len(arena.agents),)
    for agent in arena.agents:
        reference = brute_force_sense(arena, agent)
        for color in COLORS:
            live = reference[color]
            sees = bool(seen[agent.id] >> color & 1)
            assert sees == any(d <= radius for d, _, _, _ in live)
            near = arena._near[agent.id, color]
            if live:
                assert near == live[0][0]
            else:
                assert span < near <= 2 * span + 1


def unpark_all(arena):
    """Make the next sense pass sense every agent."""
    arena._parked = np.zeros(len(arena.agents), bool)


def assert_sense_matches_brute_force(arena):
    """After a sense pass, every agent's distance and seen bit for every
    color, and the Collect search of every sensed agent for every color with
    a live target, equal the brute-force scan. Returns the pass's distance
    matrix and the IDs of its rows."""
    dist, sensed, seen = arena._sense_all()
    ids = sensed_ids(arena, sensed)
    assert len(dist) == len(ids)
    assert_view_matches_brute_force(arena, seen)
    assert_search_matches_brute_force(arena, dist, ids)
    return dist, ids


def test_batch_and_single_sense_agree(make_config):
    arena = Arena(make_config(), seed=77)
    # The ladder's pick for a 40 x 40 board: 2 * 39 + 1 fits int8.
    assert (arena.width, arena.height) == (40, 40)
    kept = 0
    for _ in range(40):  # a few captures happen, so captured targets read off the board
        dist, ids = assert_sense_matches_brute_force(arena)
        kept += len(arena.agents) - len(ids)
        assert dist.dtype == arena._x.dtype == arena._sense_x.dtype == arena._near.dtype == np.int8
        assert dist.shape[1] == len(arena.targets())  # a column per target ID
        # Sensing every agent again reproduces the kept view, and the
        # Collect search of every agent.
        unpark_all(arena)
        assert len(assert_sense_matches_brute_force(arena)[1]) == len(arena.agents)
        arena.step()
    assert arena.capture_total > 0
    assert kept > 0  # some passes kept rows


def test_search_skips_a_target_captured_earlier_in_the_step(make_config):
    """Agent 0 takes red 0 under it, which writes the off-board distance
    into red 0's column of the step's sense matrix; on the rows sensed
    before that capture, every agent's slot search now finds the nearest red
    still live: agent 0 the lower ID of two at distance 3, agent 1 red 1 and
    agent 2 red 2. In one Collect batch, agents 1 and 2, whose search found
    red 0 too, search again and step toward those."""
    targets = [(Color.RED, 5, 5), (Color.RED, 8, 5), (Color.RED, 2, 5), (Color.BLUE, 5, 6)]
    agents = [(M, 5, 5), (M, 6, 5), (I, 4, 4)]
    arena = layout(make_config, targets, agents)
    dist, sensed, _ = arena._sense_all()
    assert [search_all(arena, dist, i)[Color.RED][1] for i in range(3)] == [0, 0, 0]
    arena._execute_intent(np.array([0]), np.array([Color.RED]), dist, sensed)
    assert arena.capture_counts[Color.RED] == 1
    assert [target.alive for target in arena.targets()] == [False, True, True, True]
    span = max(arena.width, arena.height) - 1
    assert (dist[:, 0] == 2 * span + 1).all()
    assert_search_matches_brute_force(arena, dist, sensed_ids(arena, sensed))
    assert [search_all(arena, dist, i)[Color.RED] for i in range(3)] == [(3, 1), (2, 1), (2, 2)]

    arena = layout(make_config, targets, agents)
    dist, sensed, _ = arena._sense_all()
    arena._execute_intent(np.arange(3), np.full(3, Color.RED), dist, sensed)
    assert arena.capture_total == 1
    assert [agent.pos for agent in arena.agents] == [(5, 5), (7, 5), (3, 5)]


def test_a_captured_target_keeps_its_id_color_and_cell(make_config):
    """Capture changes only the ``alive`` that ``target()`` and ``targets()``
    report: the ID, color and placed cell stay, step after step."""
    arena = layout(
        make_config,
        targets=[(Color.BLUE, 3, 4), (Color.RED, 0, 0), (Color.RED, 6, 2), (Color.GREEN, 9, 0)],
        agents=[(M, 0, 0), (M, 6, 2), (I, 20, 20)],
    )
    placed = arena.targets()
    assert [(t.id, t.color, t.pos) for t in placed] == [
        (0, Color.RED, (0, 0)), (1, Color.RED, (6, 2)), (2, Color.GREEN, (9, 0)),
        (3, Color.BLUE, (3, 4))]
    arena.step()
    assert arena.capture_counts[Color.RED] == 2
    assert arena.targets() == [dataclasses.replace(t, alive=t.id > 1) for t in placed]
    collect_all_steps(arena)
    assert arena.alive_count == 0
    assert arena.targets() == [dataclasses.replace(t, alive=False) for t in placed]
    assert [arena.target(i) for i in range(len(placed))] == arena.targets()


@pytest.mark.parametrize("width, dtype", [(64, np.int8), (65, np.int16),
                                          (16383, np.int16), (16384, np.int16),
                                          (16385, np.int32), (40000, np.int32)])
@pytest.mark.parametrize("radius", [4, 100_000, 1 << 40])
def test_sense_on_both_sides_of_the_narrow_dtype_limit(make_config, width, dtype, radius):
    """Agents and targets at both ends of a width x 1 corridor, so distances
    reach width - 1; green and yellow have no target at all. The masters at
    both ends take the reds under them in the first step, so an agent at the
    far end then senses the off-board distance 2 * (width - 1) + 1. A radius
    beyond the board sees every present color and still no absent one: the
    slots of the absent colors hold only fillers, off the board from the
    start."""
    end = width - 1
    arena = layout(
        make_config,
        targets=[(Color.RED, 0, 0), (Color.RED, end, 0), (Color.BLUE, 1, 0),
                 (Color.BLUE, end - 1, 0), (Color.RED, end // 2 - 3, 0),
                 (Color.RED, end // 2 + 3, 0)],
        agents=[(M, 0, 0), (I, end, 0), (M, end // 2, 0), (I, 1, 0), (M, end, 0)],
        grid=(width, 1), sense_radius=radius,
    )
    assert assert_sense_matches_brute_force(arena)[0][:, arena._col].max() == end
    arena.step()
    assert [target.alive for target in arena.targets()[:2]] == [False, False]
    unpark_all(arena)
    dist = assert_sense_matches_brute_force(arena)[0]
    assert dist.dtype == arena._near.dtype == dtype and dist.max() == 2 * end + 1
    for _ in range(3):
        arena.step()
        assert assert_sense_matches_brute_force(arena)[0].dtype == dtype
        unpark_all(arena)
        assert assert_sense_matches_brute_force(arena)[0].dtype == dtype


# --- stepping ------------------------------------------------------------------

def test_learn_then_collect_same_iteration(make_config):
    # Ignorant robot frozen on a red target it cannot handle; master in comm
    # range but out of sense range. Query at t=1, delivery at t=2, and the
    # grafted skill is used the same iteration: capture at t=2.
    arena = layout(
        make_config,
        targets=[(Color.RED, 5, 5)],
        agents=[(I, 5, 5), (M, 5, 13)],
        sense_radius=5,
        comm_radius=10,
    )
    arena.step()
    assert arena.capture_counts[Color.RED] == 0
    assert arena.queries_sent == 1
    arena.step()
    assert arena.capture_counts[Color.RED] == 1
    kinds = [(r.t, r.kind) for r in arena.events]
    assert (2, ev.DELIVERY) in kinds and (2, ev.CAPTURE) in kinds
    assert arena.agents[0].store.knows(Color.RED)


def test_entry_delivered_at_k_pruned_at_k_plus_d(make_config):
    duration = 7
    # The far blue decoy keeps the trial alive after the red is collected;
    # at one cell per iteration nobody can get near it within the horizon.
    arena = layout(
        make_config,
        targets=[(Color.RED, 7, 5), (Color.BLUE, 35, 35)],
        agents=[(I, 5, 5), (M, 5, 13)],
        sense_radius=5,
        comm_radius=10,
        memory_duration=duration,
        max_iterations=40,
    )
    arena.step()  # t=1: query emitted
    arena.step()  # t=2: delivery, learned_at=2
    assert arena.agents[0].store.knows(Color.RED)
    while arena.t < 2 + duration - 1:
        arena.step()
        assert arena.agents[0].store.knows(Color.RED), f"lost too early at t={arena.t}"
    arena.step()  # t = 2 + duration: phase 2 prunes
    assert not arena.agents[0].store.knows(Color.RED)
    assert known_colors(arena.agents[0].tree) == ()
    assert ev.EventRecord(2 + duration, ev.FORGET, 0, Color.RED, None) in arena.events


def test_collect_conflict_one_capture(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 5, 5)],
        agents=[(M, 5, 5), (M, 5, 5)],
    )
    arena.step()
    assert arena.capture_total == 1
    assert arena.alive_count == 0
    # Loser had no other red target to walk toward: stands still.
    assert arena.agents[1].pos == (5, 5)
    capture_agents = [r.agent for r in arena.events if r.kind == ev.CAPTURE]
    assert capture_agents == [0]


def test_collect_conflict_loser_moves_to_next_target(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 5, 5), (Color.RED, 8, 5)],
        agents=[(M, 5, 5), (M, 5, 5)],
    )
    arena.step()
    assert arena.capture_total == 1
    assert arena.agents[1].pos == (6, 5)  # one step toward the surviving red


@pytest.mark.parametrize("reds, loser_to", [
    ([(10, 5)], (5, 5)),          # the only other red is at distance 5 > radius 4
    ([(8, 5), (2, 5)], (6, 5)),   # two at distance 3: toward red 1, the lower ID
    ([(2, 5), (8, 5)], (4, 5)),
], ids=["beyond-radius", "tie-east", "tie-west"])
def test_collect_conflict_loser_searches_the_survivors(make_config, reds, loser_to):
    arena = layout(
        make_config,
        targets=[(Color.RED, 5, 5)] + [(Color.RED, x, y) for x, y in reds],
        agents=[(M, 5, 5), (M, 5, 5)],
        sense_radius=4,
    )
    arena.step()
    assert arena.capture_total == 1
    assert arena.agents[1].pos == loser_to


def test_explore_in_corner_stays_in_bounds(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 30, 30)],  # far out of sense range
        agents=[(M, 0, 0)],
        grid=(40, 40),
    )
    seen = set()
    for seed in range(12):
        again = layout(
            make_config,
            targets=[(Color.RED, 30, 30)],
            agents=[(M, 0, 0)],
            grid=(40, 40),
        )
        again.rng = type(again.rng)(seed)
        again.step()
        seen.add(again.agents[0].pos)
    assert seen <= {(0, 1), (1, 0), (1, 1)}
    assert len(seen) > 1


def test_move_table_holds_the_in_bounds_moore_moves_of_each_edge_class(make_config):
    # The explorers draw on these counts unchecked (SplitMix64._draws).
    for cls in range(16):
        # An agent with a neighbouring cell exactly where the class bits say.
        x, y = cls & 1, cls >> 2 & 1
        width, height = x + 1 + (cls >> 1 & 1), y + 1 + (cls >> 3 & 1)
        arena = Arena.from_layout(make_config(grid=(width, height)), [], [(M, x, y)])
        assert arena._x_class[x] + arena._y_class[y] == cls
        count = int(_MOVE_COUNT[cls])
        assert 1 <= count <= 8
        row = slice(cls * 8, cls * 8 + count)
        moves = list(zip(_MOVE_DX[row].tolist(), _MOVE_DY[row].tolist()))
        inside = [(ox, oy) for ox, oy in _MOORE if 0 <= x + ox < width and 0 <= y + oy < height]
        # Class 0 is a 1 x 1 board: no Moore move, so the agent stands still.
        assert moves == (inside if cls else [(0, 0)])


def test_explorers_draw_as_one_below_call_per_agent_in_id_order(make_config):
    # No agent comes within sight of the one target in 20 steps, so every
    # agent explores in every step, from the corners and edges too.
    width = height = 40
    starts = [(0, 0), (5, 0), (0, 9), (15, 15), (1, 1), (15, 0), (7, 3)]
    arena = layout(make_config, targets=[(Color.RED, 39, 39)],
                   agents=[(I, x, y) for x, y in starts],
                   grid=(width, height), sense_radius=1, learning_enabled=False)
    ref, pos = SplitMix64(0), list(starts)
    for _ in range(20):
        arena.step()
        for i, (x, y) in enumerate(pos):
            moves = [(ox, oy) for ox, oy in _MOORE if 0 <= x + ox < width and 0 <= y + oy < height]
            ox, oy = moves[ref.below(len(moves))]
            pos[i] = (x + ox, y + oy)
        assert [a.pos for a in arena.agents] == pos
        assert arena.rng._state == ref._state


def test_query_intent_stands_still(make_config):
    arena = layout(
        make_config,
        targets=[(Color.RED, 5, 5)],
        agents=[(I, 3, 5)],
        learning_enabled=False,
    )
    for _ in range(6):
        arena.step()
        assert arena.agents[0].pos == (3, 5)
    assert arena.queries_sent >= 1


def test_baseline_all_masters_never_query(make_config):
    cfg = make_config(robot_counts=(0, 4, 0, 0, 0, 0), max_iterations=150)
    arena = Arena(cfg, seed=11)
    collect_all_steps(arena)
    assert arena.queries_sent == 0
    assert arena.deliveries == 0


def test_no_learning_scenario_invariants(make_config):
    cfg = make_config(learning_enabled=False, max_iterations=200)
    arena = Arena(cfg, seed=13)
    start_known = [a.store.known_colors() for a in arena.agents]
    collect_all_steps(arena)
    assert arena.deliveries == 0
    assert all(r.kind != ev.DELIVERY for r in arena.events)
    assert [a.store.known_colors() for a in arena.agents] == start_known
    master_ids = {a.id for a in arena.agents if a.robot_type is M}
    assert all(r.agent in master_ids for r in arena.events if r.kind == ev.CAPTURE)


def test_step_requires_unfinished_trial(make_config):
    arena = Arena(make_config(targets_per_color=0), seed=1)
    with pytest.raises(RuntimeError):
        arena.step()


def test_conservation_violation_raises_named_error(make_config):
    arena = Arena(make_config(), seed=3)
    arena.alive_count += 1
    with pytest.raises(ConservationError):
        arena.step()


class DoubleCaptureArena(Arena):
    """Counts every capture twice: captured plus alive still adds up to the
    targets placed, but more targets are left on the board than counted."""

    def _capture(self, target_id, agent_id):
        super()._capture(target_id, agent_id)
        super()._capture(target_id, agent_id)


def test_double_capture_raises_conservation_error(make_config):
    arena = DoubleCaptureArena(make_config(max_iterations=200), seed=3)
    with pytest.raises(ConservationError, match="on the board"):
        while not arena.finished:
            arena.step()


def test_conservation_check_survives_optimize_flag():
    # Under `python -O` a bare assert would be stripped; both checks must stay.
    code = (
        "from ephemera.arena import Arena, ConservationError\n"
        "from ephemera.experiment import ScenarioConfig\n"
        "class DoubleCaptureArena(Arena):\n"
        "    def _capture(self, target_id, agent_id):\n"
        "        super()._capture(target_id, agent_id)\n"
        "        super()._capture(target_id, agent_id)\n"
        "config = ScenarioConfig(name='x', grid=(20, 20), targets_per_color=2)\n"
        "arena = Arena(config, 1)\n"
        "arena.alive_count += 1\n"
        "try:\n"
        "    arena.step()\n"
        "except ConservationError:\n"
        "    print('raised')\n"
        "arena = DoubleCaptureArena(config, 1)\n"
        "try:\n"
        "    while not arena.finished:\n"
        "        arena.step()\n"
        "except ConservationError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def test_movement_legality_and_conservation(make_config):
    arena = Arena(make_config(max_iterations=200), seed=21)
    initial = arena.initial_total
    while not arena.finished:
        before = [(a.x, a.y) for a in arena.agents]
        arena.step()
        for agent, (px, py) in zip(arena.agents, before):
            assert 0 <= agent.x < arena.width and 0 <= agent.y < arena.height
            assert abs(agent.x - px) <= 1 and abs(agent.y - py) <= 1
        assert arena.capture_total + arena.alive_count == initial
        assert arena.capture_total == sum(
            1 for r in arena.events if r.kind == ev.CAPTURE
        )


def test_store_tree_coherence_every_iteration(make_config):
    arena = Arena(make_config(memory_duration=12, max_iterations=150), seed=23)
    while not arena.finished:
        arena.step()
        for agent in arena.agents:
            assert known_colors(agent.tree) == agent.store.known_colors()


def test_no_spontaneous_knowledge_audit(make_config):
    arena = Arena(make_config(memory_duration=15, max_iterations=200), seed=29)
    known = {a.id: set(a.store.known_colors()) for a in arena.agents}
    while not arena.finished:
        arena.step()
        now = arena.t
        events_now = [r for r in arena.events if r.t == now]
        for agent in arena.agents:
            current = set(agent.store.known_colors())
            gained = current - known[agent.id]
            lost = known[agent.id] - current
            for color in gained:
                assert any(
                    r.kind == ev.DELIVERY and r.agent == agent.id and r.color is color
                    for r in events_now
                ), f"agent {agent.id} gained {color} without a delivery at t={now}"
            for color in lost:
                assert any(
                    r.kind == ev.FORGET and r.agent == agent.id and r.color is color
                    for r in events_now
                )
            known[agent.id] = current
    assert arena.deliveries > 0  # the audit actually saw learning happen


def test_identical_runs_identical_logs(make_config):
    cfg = make_config(max_iterations=120)
    first, second = run_trial(cfg, 0), run_trial(cfg, 0)
    assert [r.line() for r in first.events] == [r.line() for r in second.events]
    assert first.snapshots == second.snapshots


def test_event_lines_round_trip(make_config):
    arena = Arena(make_config(max_iterations=80), seed=37)
    collect_all_steps(arena)
    assert arena.events, "expected some events in the mini run"
    for record in arena.events:
        assert ev.parse_event_line(record.line()) == record


# --- batched Collect and the kept view against per-agent references -----------

class PerAgentCollectArena(Arena):
    """The Collect phase one agent at a time, on a sense pass that senses
    every agent every step, as it did before agents kept their view: each
    Collect agent, in ID order, takes the nearest live target of its color
    (lowest ID on ties) from :func:`brute_force_sense`, so the targets that
    lower IDs took earlier in the step are left out; it takes a target
    under it, steps toward one within the sense radius, or stands still. It
    reads no column of the sense matrix: only ``_capture`` is handed the
    taken target's column."""

    def _sense_all(self):
        unpark_all(self)
        dist, sensed, seen = super()._sense_all()
        assert sensed == slice(None)
        return dist, sensed, seen

    def _execute_intent(self, rows, colors, dist, sensed):
        for i, color in zip(rows.tolist(), colors.tolist()):
            live = brute_force_sense(self, self.agents[i])[color]
            if not live or live[0][0] > self.config.sense_radius:
                continue
            distance, k, tx, ty = live[0]
            if distance == 0:
                self._capture(int(self._col[k]), i)
                continue
            x, y = int(self._x[i]), int(self._y[i])
            self._x[i] += (tx > x) - (tx < x)
            self._y[i] += (ty > y) - (ty < y)


class ViewCheckingArena(Arena):
    """After every sense pass, checks that every agent's kept view equals a
    brute-force scan of the live targets, and that every agent whose intent
    is Collect was sensed in the pass."""

    kept = 0  # rows kept, summed over the passes

    def _sense_all(self):
        dist, sensed, seen = super()._sense_all()
        ids = sensed_ids(self, sensed)
        self.kept += len(self.agents) - len(ids)
        assert_view_matches_brute_force(self, seen)
        collectors = (INTENT_TABLE[self.knowledge.known, seen] < _QUERY).nonzero()[0]
        assert set(collectors.tolist()) <= set(ids), f"t={self.t}"
        return dist, sensed, seen


@st.composite
def crowded_boards(draw):
    """Small dense boards: agents stacked on a few cells, most of them
    masters, so targets are contested and often equidistant."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = [(x, y) for x in range(width) for y in range(height)]
    spots = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6, unique=True))
    target_cells = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells),
                                 unique=True))
    targets = [(draw(st.sampled_from(COLORS)), x, y) for x, y in target_cells]
    robot = st.sampled_from([M, M, M, RobotType.RED, RobotType.BLUE, I])
    agents = draw(st.lists(st.tuples(robot, st.sampled_from(spots)), min_size=1, max_size=12))
    config = ScenarioConfig(
        name="crowded", grid=(width, height), targets_per_color=0,
        robot_counts=(1, 0, 0, 0, 0, 0), memory_duration=draw(st.integers(1, 6)),
        learning_enabled=draw(st.booleans()), max_iterations=draw(st.integers(1, 25)),
        sense_radius=draw(st.integers(0, 4)), comm_radius=draw(st.integers(0, 4)),
        query_cooldown=draw(st.integers(0, 2)), snapshot_interval=5,
    )
    return config, targets, [(robot_type, x, y) for robot_type, (x, y) in agents]


def assert_steps_as_the_reference(batched, reference):
    """Step both arenas to the end, comparing positions, captures and events
    after every step."""
    while not batched.finished:
        batched.step()
        reference.step()
        assert batched._x.tolist() == reference._x.tolist()
        assert batched._y.tolist() == reference._y.tolist()
        assert batched.capture_counts == reference.capture_counts
        assert batched.targets() == reference.targets()
        assert batched.event_lines() == reference.event_lines()
    assert reference.alive_count == batched.alive_count


@settings(max_examples=300, deadline=None)
@given(board=crowded_boards(), seed=st.integers(0, 2**16))
@example(board=(ScenarioConfig(name="contest", grid=(5, 1), targets_per_color=0,
                               robot_counts=(1, 0, 0, 0, 0, 0), sense_radius=2),
                [(Color.RED, 2, 0), (Color.RED, 0, 0), (Color.RED, 4, 0)],
                [(M, 2, 0), (M, 2, 0), (M, 2, 0), (M, 1, 0)]), seed=0)
# Unequal color counts and no yellow: the green and blue slots and the whole
# yellow slot are padded with fillers.
@example(board=(ScenarioConfig(name="slots", grid=(6, 2), targets_per_color=0,
                               robot_counts=(1, 0, 0, 0, 0, 0), sense_radius=3),
                [(Color.RED, 0, 0), (Color.BLUE, 2, 0), (Color.RED, 5, 0), (Color.GREEN, 1, 1),
                 (Color.RED, 3, 1), (Color.BLUE, 4, 1)],
                [(M, 0, 1), (RobotType.BLUE, 3, 0), (RobotType.BLUE, 3, 0),
                 (RobotType.GREEN, 2, 1), (M, 5, 1)]), seed=0)
def test_batched_collect_matches_the_per_agent_reference(board, seed):
    config, targets, agents = board
    assert_steps_as_the_reference(Arena.from_layout(config, targets, agents, seed),
                                  PerAgentCollectArena.from_layout(config, targets, agents, seed))


@pytest.mark.parametrize("per_color", [42, 43, 127, 128])
def test_slot_search_past_the_int8_range(make_config, per_color):
    """Intents are int8, and an int8 color times the slot width wraps: blue
    from a width of 43, yellow from 64 and green from 128. Robots that each
    know one of those colors collect on a board that is one third targets,
    against the per-agent reference."""
    config = make_config(grid=(40, 40), targets_per_color=per_color,
                         robot_counts=(0, 0, 0, 4, 4, 4), max_iterations=25, sense_radius=3)
    batched = ViewCheckingArena(config, seed=3)
    assert batched._slot == per_color
    assert_steps_as_the_reference(batched, PerAgentCollectArena(config, seed=3))
    assert min(batched.capture_counts[1:]) > 0


def expiries_and_evictions(events):
    """(expiries, capacity evictions) in an event log: an eviction is the
    Forget that a delivery to the same agent follows at once."""
    evictions = sum(1 for a, b in zip(events, events[1:])
                    if a.kind == ev.FORGET and b.kind == ev.DELIVERY
                    and (a.t, a.agent) == (b.t, b.agent))
    return sum(r.kind == ev.FORGET for r in events) - evictions, evictions


def test_kept_view_equals_a_fresh_scan_every_step(make_config):
    config = make_config(memory_size=1, capacity_policy=CapacityPolicy.EVICT_OLDEST)
    arena = ViewCheckingArena(config, seed=8)
    collect_all_steps(arena)
    assert arena.capture_total > 0 and arena.deliveries > 0
    assert min(expiries_and_evictions(arena.events)) > 0
    assert arena.kept > 0


@settings(max_examples=150, deadline=None)
@given(board=crowded_boards(), seed=st.integers(0, 2**16))
def test_kept_view_equals_a_fresh_scan_on_crowded_boards(board, seed):
    config, targets, agents = board
    arena = ViewCheckingArena.from_layout(config, targets, agents, seed)
    collect_all_steps(arena)


def test_crowded_arena_holds_no_agents_by_targets_state(make_config):
    """The sense matrices belong to the step: a 400-agent, 2000-target arena
    holds less than one byte per (agent, target) pair once built and after
    a step that senses every agent."""
    config = make_config(grid=(300, 300), targets_per_color=500, robot_counts=(395, 5, 0, 0, 0, 0))
    bound = 400 * 2000
    tracemalloc.start()
    try:
        arena = Arena(config, seed=1)
        built = tracemalloc.get_traced_memory()[0]
        arena.step()
        stepped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built < bound and stepped < bound, (built, stepped)


# --- intent table and array mirrors ------------------------------------------

def spec_intent(known: int, seen: int) -> int:
    """Collect the lowest known color that is seen; else Query if an unknown
    color is seen; else Explore."""
    for color in COLORS:
        if known >> color & 1 and seen >> color & 1:
            return int(color)
    return _QUERY if seen & ~known else _EXPLORE


def test_intent_table_matches_spec():
    assert INTENT_TABLE.shape == (16, 16)
    for known in range(16):
        for seen in range(16):
            assert INTENT_TABLE[known, seen] == spec_intent(known, seen), (known, seen)


@st.composite
def small_configs(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    return ScenarioConfig(
        name="prop",
        grid=(width, height),
        targets_per_color=draw(st.integers(0, min(4, width * height // 4))),
        robot_counts=draw(st.tuples(*[st.integers(0, 3)] * 6).filter(lambda r: sum(r) >= 1)),
        memory_duration=draw(st.integers(1, 15)),
        memory_size=draw(st.sampled_from([None, 1, 2])),
        capacity_policy=draw(st.sampled_from(list(CapacityPolicy))),
        learning_enabled=draw(st.booleans()),
        max_iterations=draw(st.integers(1, 60)),
        sense_radius=draw(st.integers(0, 4)),
        comm_radius=draw(st.integers(0, 6)),
        query_cooldown=draw(st.integers(0, 4)),
        snapshot_interval=draw(st.integers(1, 20)),
    )


def assert_knowledge_arrays_coherent(arena):
    """The knowledge holds the config's learn settings; the known mask is
    the innate mask plus the learned colors; a learned color was learned
    within the last memory_duration iterations, so it has not expired yet,
    and is never innate; next_expiry is at most the first learned color's
    expiry; no agent holds more learned colors than memory_size."""
    k, cfg = arena.knowledge, arena.config
    assert (k.capacity, k.policy, k.duration) == (
        cfg.memory_size, cfg.capacity_policy, cfg.memory_duration)
    never = np.iinfo(np.int64).max
    learned = k.learned_at != never
    innate = (k.innate[:, None] >> np.arange(4)) & 1 == 1
    assert not (learned & innate).any()
    assert (k.known == k.innate | (learned << np.arange(4)).sum(axis=1)).all()
    at = k.learned_at[learned]
    assert ((arena.t - cfg.memory_duration < at) & (at <= arena.t)).all()
    assert k.next_expiry <= int(k.learned_at.min()) + cfg.memory_duration
    if arena.config.memory_size is not None:
        assert (learned.sum(axis=1) <= arena.config.memory_size).all()


def crowded_memory(policy):
    """A config whose one-skill stores fill, so deliveries are rejected or evict."""
    return ScenarioConfig(
        name="prop", grid=(12, 12), targets_per_color=4, robot_counts=(3, 0, 1, 1, 1, 1),
        memory_duration=15, memory_size=1, capacity_policy=policy, max_iterations=60,
        sense_radius=4, comm_radius=6, query_cooldown=0, snapshot_interval=5,
    )


@settings(max_examples=80, deadline=None)
@given(config=small_configs(), seed=st.integers(0, (1 << 64) - 1))
def test_step_invariants_on_random_configs(config, seed):
    arena = Arena(config, seed)
    while not arena.finished:
        before = [agent.pos for agent in arena.agents]
        arena.step()
        assert arena.capture_total + arena.alive_count == arena.initial_total
        assert_knowledge_arrays_coherent(arena)
        # The queries resolve_and_deliver accepts: one per querier, in
        # ascending ID, each for a color the querier does not know.
        queriers, colors = arena.pending.T
        assert ((np.diff(queriers) > 0).all()
                and not (arena.knowledge.known[queriers] >> colors & 1).any())
        for agent, (px, py) in zip(arena.agents, before):
            assert known_colors(agent.tree) == agent.store.known_colors()
            assert 0 <= agent.x < arena.width and 0 <= agent.y < arena.height
            assert abs(agent.x - px) <= 1 and abs(agent.y - py) <= 1


@settings(max_examples=60, deadline=None)
@given(config=small_configs(), trial=st.integers(0, 1000))
@example(config=crowded_memory(CapacityPolicy.EVICT_OLDEST), trial=0)
@example(config=crowded_memory(CapacityPolicy.REJECT_WHEN_FULL), trial=0)
def test_event_log_replay_reproduces_snapshots(config, trial):
    """Replaying the event log from the innate skills gives every snapshot's
    knowledge, capture and protocol columns."""
    result = run_trial(config, trial)
    assert replay(config, result.events, [s.t for s in result.snapshots]) == [
        (s.knowledge_percent, (s.captured_red, s.captured_green, s.captured_yellow,
                               s.captured_blue), s.deliveries, s.forgets, s.rejects_full)
        for s in result.snapshots]


@settings(max_examples=60, deadline=None)
@given(config=small_configs(), trial=st.integers(0, 1000))
@example(config=dataclasses.replace(crowded_memory(CapacityPolicy.EVICT_OLDEST), max_iterations=14),
         trial=0)  # captures at t=11..14, after the last snapshot time
def test_run_trial_ends_where_the_arena_does(config, trial):
    """run_trial steps to the end of the trial, also past the last snapshot
    time when the cap is off the snapshot grid."""
    result = run_trial(config, trial)
    arena = Arena(config, mix_seed(config.base_seed, trial))
    while not arena.finished:
        arena.step()
    assert result.end_t == arena.t
    assert [r.line() for r in result.events] == arena.event_lines()


@settings(max_examples=8, deadline=None)
@given(config=small_configs())
def test_serial_and_parallel_runs_write_identical_csvs(config):
    config = dataclasses.replace(config, trials=2)
    with tempfile.TemporaryDirectory() as tmp:
        serial, parallel = Path(tmp, "serial"), Path(tmp, "parallel")
        run_scenario(config, serial, jobs=1)
        run_scenario(config, parallel, jobs=2)
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in parallel.iterdir())
        assert len(names) == config.trials + 1
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
