from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera import events as ev
from ephemera.arena import Arena
from ephemera.bt import COLORS, Color
from ephemera.experiment import ScenarioConfig
from ephemera.knowledge import (
    COLORS_OF,
    NEVER,
    CapacityPolicy,
    Knowledge,
    KnowledgeStore,
    LearnOutcome,
)
from ephemera.metrics import snapshot
from ephemera.protocol import _PAYLOADS, merge_payload
from ephemera.rng import SplitMix64

from stores import one_row_store

REJECT = CapacityPolicy.REJECT_WHEN_FULL
EVICT = CapacityPolicy.EVICT_OLDEST


def m_store(capacity=None):
    return one_row_store(COLORS, capacity)


def row_state(store):
    """The store's row: its known mask and learned_at per color."""
    return store.known_mask(), store.table.learned_at[store.row].tolist()


def learned_count(store):
    return (store.known_mask() & ~int(store.table.innate[store.row])).bit_count()


def test_learn_merges_with_expiry():
    store = one_row_store(capacity=4, duration=1000)
    result = store.learn(Color.RED, now=100)
    assert result.outcome is LearnOutcome.MERGED
    assert store.table.learned_at[store.row, Color.RED] == 100
    assert store.table.next_expiry == 1100
    assert store.knows(Color.RED)


def test_learn_on_innate_is_noop():
    store = m_store()
    before = row_state(store)
    assert store.learn(Color.RED, now=5).outcome is LearnOutcome.ALREADY_INNATE
    assert row_state(store) == before


def test_reject_when_full_is_default():
    store = one_row_store(capacity=1)
    assert store.table.policy is REJECT
    assert store.learn(Color.RED, now=1).outcome is LearnOutcome.MERGED
    result = store.learn(Color.GREEN, now=2)
    assert result.outcome is LearnOutcome.REJECTED_FULL
    assert not store.knows(Color.GREEN)
    assert store.knows(Color.RED)


def test_evict_oldest_picks_smallest_learned_at():
    store = one_row_store(capacity=2, policy=EVICT)
    store.learn(Color.GREEN, now=1)
    store.learn(Color.RED, now=2)
    result = store.learn(Color.BLUE, now=3)
    assert result.outcome is LearnOutcome.EVICTED
    assert result.victim is Color.GREEN
    assert store.known_colors() == (Color.RED, Color.BLUE)


def test_evict_tie_breaks_on_canonical_color():
    store = one_row_store(capacity=2, policy=EVICT)
    store.learn(Color.YELLOW, now=7)
    store.learn(Color.GREEN, now=7)
    result = store.learn(Color.RED, now=8)
    assert result.victim is Color.GREEN


def test_innate_exempt_from_capacity_and_eviction():
    store = one_row_store(COLORS, capacity=1, policy=EVICT, duration=5)
    assert learned_count(store) == 0
    result = store.learn(Color.RED, now=1)
    assert result.outcome is LearnOutcome.ALREADY_INNATE
    assert store.forget_expired(10**9) == []
    assert store.known_colors() == COLORS


def test_refresh_restamps_expiry():
    store = one_row_store()
    store.learn(Color.RED, now=10)
    result = store.learn(Color.RED, now=50)
    assert result.outcome is LearnOutcome.REFRESHED
    assert store.table.learned_at[store.row, Color.RED] == 50
    assert store.forget_expired(149) == []
    assert store.forget_expired(150) == [Color.RED]


def test_refresh_never_decreases_expiry_when_time_moves_forward():
    store = one_row_store(duration=64)
    learned_at = 0
    now = 0
    rng = SplitMix64(11)
    for _ in range(200):
        now += rng.below(40)
        store.learn(Color.RED, now=now)
        new_learned_at = store.table.learned_at[store.row, Color.RED]
        assert new_learned_at >= learned_at
        learned_at = new_learned_at


def test_forget_boundary_is_exact():
    store = one_row_store(duration=1000)
    store.learn(Color.RED, now=100)
    assert store.forget_expired(1099) == []
    assert store.knows(Color.RED)
    assert store.forget_expired(1100) == [Color.RED]
    assert not store.knows(Color.RED)


def test_forget_returns_canonical_order():
    store = one_row_store(duration=10)
    store.learn(Color.BLUE, now=1)
    store.learn(Color.RED, now=2)
    assert store.forget_expired(50) == [Color.RED, Color.BLUE]


def test_trial_length_duration_never_expires_in_trial():
    store = one_row_store(duration=20000)
    store.learn(Color.RED, now=1)
    for now in (10000, 19999, 20000):
        assert store.forget_expired(now) == []
    assert store.knows(Color.RED)


def test_duration_must_be_positive():
    with pytest.raises(ValueError, match="duration"):
        Knowledge([0], None, REJECT, 0)
    with pytest.raises(ValueError, match="capacity"):
        Knowledge([0], 0, REJECT, 10)
    with pytest.raises(ValueError):
        Knowledge([0], None, "fifo", 10)


def test_knows_lifecycle():
    store = one_row_store(duration=7)
    assert not store.knows(Color.RED)
    store.learn(Color.RED, now=3)
    assert store.knows(Color.RED)
    store.forget_expired(10)
    assert not store.knows(Color.RED)


def test_store_views_the_table_it_is_given_and_rejects_a_row_outside_it():
    table = Knowledge([0b0001, 0b0010], None, REJECT, 10)
    store = KnowledgeStore(table, 1)
    assert store.table is table and store.known_colors() == (Color.GREEN,)
    for table, row in ((Knowledge([], None, REJECT, 10), 0), (table, 2), (table, -1)):
        with pytest.raises(ValueError, match="row"):
            KnowledgeStore(table, row)


@pytest.mark.parametrize("given", [dict(innate=(Color.RED,)), dict(innate=()), dict(capacity=1),
                                   dict(innate=(Color.RED,), capacity=1)])
def test_store_rejects_innate_or_capacity_given_with_a_table(given):
    """A store reads its innate colors and learn settings from its table
    alone: it takes no innate colors or capacity of its own."""
    table = Knowledge([0b0001], 1, REJECT, 10)
    with pytest.raises(TypeError):
        KnowledgeStore(table, 0, **given)
    store = KnowledgeStore(table, 0)
    assert store.known_colors() == (Color.RED,)
    assert store.learn(Color.GREEN, now=1).outcome is LearnOutcome.MERGED
    assert store.learn(Color.BLUE, now=2).outcome is LearnOutcome.REJECTED_FULL


class ModelStore:
    """Brute-force reference model: a plain dict, no caching, no shortcuts."""

    def __init__(self, innate, capacity, policy, duration):
        self.innate = set(innate)
        self.capacity = capacity
        self.policy = policy
        self.duration = duration
        self.learned = {}  # color -> the iteration it was learned

    def learn(self, color, now):
        if color in self.innate:
            return "already_innate", None
        if color in self.learned:
            self.learned[color] = now
            return "refreshed", None
        if self.capacity is None or len(self.learned) < self.capacity:
            self.learned[color] = now
            return "merged", None
        if self.policy is REJECT:
            return "rejected_full", None
        victim = min(self.learned, key=lambda c: (self.learned[c], c))
        del self.learned[victim]
        self.learned[color] = now
        return "evicted", victim

    def forget(self, now):
        gone = sorted(c for c, at in self.learned.items() if at + self.duration <= now)
        for c in gone:
            del self.learned[c]
        return gone

    def known(self):
        return tuple(sorted(self.innate | set(self.learned)))


@pytest.mark.parametrize("capacity", [None, 1, 2, 3])
@pytest.mark.parametrize("policy", [REJECT, EVICT])
def test_store_matches_reference_model(capacity, policy):
    for duration in (1, 5, 12):
        rng = SplitMix64((capacity if capacity else 99) + 1000 * duration)
        innate = [COLORS[i] for i in range(rng.below(3))]
        store = one_row_store(innate, capacity, policy, duration)
        model = ModelStore(innate, capacity, policy, duration)
        now = 0
        for _ in range(500):
            now += rng.below(5)
            if rng.below(3) == 0:
                assert store.forget_expired(now) == model.forget(now)
            else:
                color = COLORS[rng.below(4)]
                result = store.learn(color, now)
                expected_outcome, expected_victim = model.learn(color, now)
                assert result.outcome.value == expected_outcome
                assert result.victim == (expected_victim and Color(expected_victim))
            assert store.known_colors() == model.known()
            assert learned_count(store) <= (capacity or 4)


# --- Eq. 1 -----------------------------------------------------------------------

def test_census_matches_brute_force_scan():
    """snapshot's Eq. 1 equals a brute-force count of the (agent, color)
    skills the stores hold, while learned skills expire."""
    arena = Arena(ScenarioConfig("mix", robot_counts=(10, 5, 7, 6, 6, 6), memory_duration=50),
                  seed=303)
    stores = [agent.store for agent in arena.agents]
    rng = SplitMix64(303)
    for store in stores:
        for c in COLORS:
            if rng.below(3) == 0:
                store.learn(c, now=rng.below(100))
    counts = []
    for now in range(0, 180, 20):
        arena.knowledge.expire(now)
        brute = sum(1 for s in stores for c in COLORS if s.knows(c))
        assert snapshot(arena, 0, now).knowledge_percent == brute * 100 / (len(stores) * 4)
        counts.append(brute)
    innate = sum(int(s.table.innate[s.row]).bit_count() for s in stores)
    assert counts[0] > counts[-1] == innate


# --- the population arrays against a dict store per agent ---------------------------

def merge_into_model(model, agent, responder, color, now, log):
    """merge_payload's event contract on the reference model; returns the
    evicted color or None."""
    outcome, victim = model.learn(color, now)
    if outcome == "rejected_full":
        log.append(ev.EventRecord(now, ev.REJECT, agent, color, responder))
        return None
    if victim is not None:
        log.append(ev.EventRecord(now, ev.FORGET, agent, victim))
    log.append(ev.EventRecord(now, ev.DELIVERY, agent, color, responder))
    return victim


iterations = st.lists(
    st.tuples(
        st.integers(1, 3),  # iterations since the previous one
        # deliveries of this iteration: (agent, color, responder)
        st.lists(st.tuples(st.integers(0, 5), st.sampled_from(COLORS), st.integers(0, 9)),
                 max_size=6),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    innate=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    capacity=st.sampled_from([None, 1, 2, 3, 4]),
    policy=st.sampled_from([REJECT, EVICT]),
    duration=st.integers(1, 5),
    steps=iterations,
)
def test_knowledge_arrays_match_a_dict_store_per_agent(innate, capacity, policy, duration,
                                                       steps):
    """Iterations as the arena runs them: deliveries merged in order (learn,
    refresh, evict or reject), then one expiry sweep. Durations are short,
    so skills are learned in the iteration that others expire."""
    table = Knowledge(innate, capacity, policy, duration)
    agents = [SimpleNamespace(id=i, store=KnowledgeStore(table, i)) for i in range(len(innate))]
    models = [ModelStore(COLORS_OF[mask], capacity, policy, duration) for mask in innate]
    now = 0
    for gap, deliveries in steps:
        now += gap
        log, expected = [], []
        for agent, color, responder in deliveries:
            if agent >= len(agents):
                continue
            victim = merge_into_model(models[agent], agent, responder, color, now, expected)
            merge_payload(agents[agent], responder, _PAYLOADS[color], color, now, log)
            if victim is not None:
                assert log[-2] == ev.EventRecord(now, ev.FORGET, agent, victim)
        dropped = table.expire(now)
        log.extend(ev.EventRecord(now, ev.FORGET, i, COLORS[c]) for i, c in zip(*dropped))
        for i, model in enumerate(models):
            expected.extend(ev.EventRecord(now, ev.FORGET, i, c) for c in model.forget(now))
        assert log == expected
        for i, (agent, model) in enumerate(zip(agents, models)):
            assert agent.store.known_colors() == model.known()
            assert table.known[i] == sum(1 << c for c in model.known())
            assert table.learned_at[i].tolist() == [model.learned.get(c, NEVER) for c in COLORS]


@settings(max_examples=200, deadline=None)
@given(
    innate=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    capacity=st.sampled_from([None, 1, 2, 3]),
    policy=st.sampled_from([REJECT, EVICT]),
    duration=st.integers(1, 6),
    lessons=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3),
                               st.booleans()),
                     min_size=1, max_size=30),
)
def test_learn_writes_only_its_row_and_keeps_next_expiry_a_lower_bound(innate, capacity,
                                                                       policy, duration, lessons):
    """Knowledge.learn on one row leaves every other row as it was, keeps
    that row's known mask equal to its innate colors plus the colors it
    learned, teaches the color unless the row rejects it, and keeps
    next_expiry at most the smallest learned_at + duration; expiry sweeps
    between lessons recompute next_expiry, and leave no skill learned
    duration or more iterations ago."""
    table = Knowledge(innate, capacity, policy, duration)
    assert len(table) == len(innate)
    now = 0
    for row, color, gap, sweep in lessons:
        if row >= len(innate):
            continue
        now += gap
        if sweep:
            table.expire(now)
            assert (table.learned_at > now - duration).all()
        before = [a.copy() for a in (table.innate, table.known, table.learned_at)]
        outcome, victim = table.learn(row, COLORS[color], now)
        others = np.arange(len(innate)) != row
        after = (table.innate, table.known, table.learned_at)
        for new, old in zip(after, before):
            assert np.array_equal(new[others], old[others])
        learned = sum(1 << c for c in COLORS if table.learned_at[row, c] < NEVER)
        assert table.known[row] == table.innate[row] | learned
        assert bool(table.known[row] >> color & 1) == (outcome is not LearnOutcome.REJECTED_FULL)
        assert (victim is not None) == (outcome is LearnOutcome.EVICTED)
        assert table.next_expiry <= int(table.learned_at.min()) + duration
