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

REJECT = CapacityPolicy.REJECT_WHEN_FULL
EVICT = CapacityPolicy.EVICT_OLDEST


def m_store(capacity=None):
    return KnowledgeStore(COLORS, capacity=capacity)


def row_state(store):
    """The store's row: its known mask, and learned_at and expires_at per color."""
    row = store.row
    return (store.known_mask(), store.table.learned_at[row].tolist(),
            store.table.expires_at[row].tolist())


def learned_count(store):
    return (store.known_mask() & ~int(store.table.innate[store.row])).bit_count()


def test_learn_merges_with_expiry():
    store = KnowledgeStore(capacity=4)
    result = store.learn(Color.RED, now=100, duration=1000)
    assert result.outcome is LearnOutcome.MERGED
    assert store.table.expires_at[store.row, Color.RED] == 1100
    assert store.knows(Color.RED)


def test_learn_on_innate_is_noop():
    store = m_store()
    before = row_state(store)
    assert store.learn(Color.RED, now=5, duration=10).outcome is LearnOutcome.ALREADY_INNATE
    assert row_state(store) == before


def test_reject_when_full_is_default():
    store = KnowledgeStore(capacity=1)
    assert store.learn(Color.RED, now=1, duration=100).outcome is LearnOutcome.MERGED
    result = store.learn(Color.GREEN, now=2, duration=100)
    assert result.outcome is LearnOutcome.REJECTED_FULL
    assert not store.knows(Color.GREEN)
    assert store.knows(Color.RED)


def test_evict_oldest_picks_smallest_learned_at():
    store = KnowledgeStore(capacity=2)
    store.learn(Color.GREEN, now=1, duration=100, policy=EVICT)
    store.learn(Color.RED, now=2, duration=100, policy=EVICT)
    result = store.learn(Color.BLUE, now=3, duration=100, policy=EVICT)
    assert result.outcome is LearnOutcome.EVICTED
    assert result.victim is Color.GREEN
    assert store.known_colors() == (Color.RED, Color.BLUE)


def test_evict_tie_breaks_on_canonical_color():
    store = KnowledgeStore(capacity=2)
    store.learn(Color.YELLOW, now=7, duration=100, policy=EVICT)
    store.learn(Color.GREEN, now=7, duration=100, policy=EVICT)
    result = store.learn(Color.RED, now=8, duration=100, policy=EVICT)
    assert result.victim is Color.GREEN


def test_innate_exempt_from_capacity_and_eviction():
    store = m_store(capacity=1)
    assert learned_count(store) == 0
    result = store.learn(Color.RED, now=1, duration=5, policy=EVICT)
    assert result.outcome is LearnOutcome.ALREADY_INNATE
    assert store.forget_expired(10**9) == []
    assert store.known_colors() == COLORS


def test_refresh_restamps_expiry():
    store = KnowledgeStore()
    store.learn(Color.RED, now=10, duration=100)
    result = store.learn(Color.RED, now=50, duration=100)
    assert result.outcome is LearnOutcome.REFRESHED
    assert store.table.learned_at[store.row, Color.RED] == 50
    assert store.table.expires_at[store.row, Color.RED] == 150


def test_refresh_never_decreases_expiry_when_time_moves_forward():
    store = KnowledgeStore()
    expiry = 0
    now = 0
    rng = SplitMix64(11)
    for _ in range(200):
        now += rng.below(40)
        store.learn(Color.RED, now=now, duration=64)
        new_expiry = store.table.expires_at[store.row, Color.RED]
        assert new_expiry >= expiry
        expiry = new_expiry


def test_forget_boundary_is_exact():
    store = KnowledgeStore()
    store.learn(Color.RED, now=100, duration=1000)
    assert store.forget_expired(1099) == []
    assert store.knows(Color.RED)
    assert store.forget_expired(1100) == [Color.RED]
    assert not store.knows(Color.RED)


def test_forget_returns_canonical_order():
    store = KnowledgeStore()
    store.learn(Color.BLUE, now=1, duration=10)
    store.learn(Color.RED, now=2, duration=9)
    assert store.forget_expired(50) == [Color.RED, Color.BLUE]


def test_trial_length_duration_never_expires_in_trial():
    store = KnowledgeStore()
    store.learn(Color.RED, now=1, duration=20000)
    for now in (10000, 19999, 20000):
        assert store.forget_expired(now) == []
    assert store.knows(Color.RED)


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        KnowledgeStore().learn(Color.RED, now=0, duration=0)


def test_knows_lifecycle():
    store = KnowledgeStore()
    assert not store.knows(Color.RED)
    store.learn(Color.RED, now=3, duration=7)
    assert store.knows(Color.RED)
    store.forget_expired(10)
    assert not store.knows(Color.RED)


def test_store_views_the_table_it_is_given_and_rejects_a_row_outside_it():
    table = Knowledge([0b0001, 0b0010])
    store = KnowledgeStore(table=table, row=1)
    assert store.table is table and store.known_colors() == (Color.GREEN,)
    # An empty table is still the table asked for, not a reason to build one.
    for table, row in ((Knowledge([]), 0), (table, 2), (table, -1)):
        with pytest.raises(ValueError, match="row"):
            KnowledgeStore(table=table, row=row)
    with pytest.raises(ValueError, match="row"):
        KnowledgeStore((Color.RED,), row=1)


class ModelStore:
    """Brute-force reference model: a plain dict, no caching, no shortcuts."""

    def __init__(self, innate, capacity):
        self.innate = set(innate)
        self.capacity = capacity
        self.learned = {}  # color -> (learned_at, expires_at)

    def learn(self, color, now, duration, policy):
        if color in self.innate:
            return "already_innate", None
        if color in self.learned:
            self.learned[color] = (now, now + duration)
            return "refreshed", None
        if self.capacity is None or len(self.learned) < self.capacity:
            self.learned[color] = (now, now + duration)
            return "merged", None
        if policy is REJECT:
            return "rejected_full", None
        victim = min(self.learned, key=lambda c: (self.learned[c][0], c))
        del self.learned[victim]
        self.learned[color] = (now, now + duration)
        return "evicted", victim

    def forget(self, now):
        gone = sorted(c for c, (_, exp) in self.learned.items() if exp <= now)
        for c in gone:
            del self.learned[c]
        return gone

    def known(self):
        return tuple(sorted(self.innate | set(self.learned)))


@pytest.mark.parametrize("capacity", [None, 1, 2, 3])
@pytest.mark.parametrize("policy", [REJECT, EVICT])
def test_store_matches_reference_model(capacity, policy):
    rng = SplitMix64(capacity if capacity else 99)
    innate = [COLORS[i] for i in range(rng.below(3))]
    store = KnowledgeStore(innate, capacity=capacity)
    model = ModelStore(innate, capacity)
    now = 0
    for _ in range(500):
        now += rng.below(5)
        if rng.below(3) == 0:
            assert store.forget_expired(now) == model.forget(now)
        else:
            color = COLORS[rng.below(4)]
            duration = 1 + rng.below(12)
            result = store.learn(color, now, duration, policy)
            expected_outcome, expected_victim = model.learn(color, now, duration, policy)
            assert result.outcome.value == expected_outcome
            assert result.victim == (expected_victim and Color(expected_victim))
        assert store.known_colors() == model.known()
        assert learned_count(store) <= (capacity or 4)


# --- Eq. 1 -----------------------------------------------------------------------

def test_census_matches_brute_force_scan():
    """snapshot's Eq. 1 equals a brute-force count of the (agent, color)
    skills the stores hold, while learned skills expire."""
    arena = Arena(ScenarioConfig("mix", robot_counts=(10, 5, 7, 6, 6, 6)), seed=303)
    stores = [agent.store for agent in arena.agents]
    rng = SplitMix64(303)
    for store in stores:
        for c in COLORS:
            if rng.below(3) == 0:
                store.learn(c, now=rng.below(100), duration=1 + rng.below(50))
    counts = []
    for now in range(0, 180, 20):
        arena.knowledge.expire(now)
        brute = sum(1 for s in stores for c in COLORS if s.knows(c))
        assert snapshot(arena, 0, now).knowledge_percent == brute * 100 / (len(stores) * 4)
        counts.append(brute)
    innate = sum(int(s.table.innate[s.row]).bit_count() for s in stores)
    assert counts[0] > counts[-1] == innate


# --- the population arrays against a dict store per agent ---------------------------

def merge_into_model(model, agent, responder, color, now, duration, policy, log):
    """merge_payload's event contract on the reference model; returns the
    evicted color or None."""
    outcome, victim = model.learn(color, now, duration, policy)
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
    table = Knowledge(innate, capacity)
    agents = [SimpleNamespace(id=i, store=KnowledgeStore(table=table, row=i))
              for i in range(len(innate))]
    models = [ModelStore(COLORS_OF[mask], capacity) for mask in innate]
    now = 0
    for gap, deliveries in steps:
        now += gap
        log, expected = [], []
        for agent, color, responder in deliveries:
            if agent >= len(agents):
                continue
            victim = merge_into_model(models[agent], agent, responder, color, now,
                                      duration, policy, expected)
            merge_payload(agents[agent], responder, _PAYLOADS[color], color, now, duration,
                          policy, log)
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
            assert table.learned_at[i].tolist() == [
                model.learned[c][0] if c in model.learned else NEVER for c in COLORS]
            assert table.expires_at[i].tolist() == [
                model.learned[c][1] if c in model.learned else NEVER for c in COLORS]


@settings(max_examples=200, deadline=None)
@given(
    innate=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    capacity=st.sampled_from([None, 1, 2, 3]),
    policy=st.sampled_from([REJECT, EVICT]),
    lessons=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3),
                               st.integers(1, 6), st.booleans()),
                     min_size=1, max_size=30),
)
def test_learn_writes_only_its_row_and_keeps_next_expiry_a_lower_bound(innate, capacity,
                                                                       policy, lessons):
    """Knowledge.learn on one row leaves every other row as it was, keeps
    that row's known mask equal to its innate colors plus the colors that
    expire, teaches the color unless the row rejects it, and keeps
    next_expiry at most the smallest expires_at; expiry sweeps between
    lessons recompute next_expiry."""
    table = Knowledge(innate, capacity)
    assert len(table) == len(innate)
    now = 0
    for row, color, gap, duration, sweep in lessons:
        if row >= len(innate):
            continue
        now += gap
        if sweep:
            table.expire(now)
        before = [a.copy() for a in (table.innate, table.known, table.learned_at,
                                     table.expires_at)]
        outcome, victim = table.learn(row, COLORS[color], now, duration, policy)
        others = np.arange(len(innate)) != row
        after = (table.innate, table.known, table.learned_at, table.expires_at)
        for new, old in zip(after, before):
            assert np.array_equal(new[others], old[others])
        expiring = sum(1 << c for c in COLORS if table.expires_at[row, c] < NEVER)
        assert table.known[row] == table.innate[row] | expiring
        assert bool(table.known[row] >> color & 1) == (outcome is not LearnOutcome.REJECTED_FULL)
        assert (victim is not None) == (outcome is LearnOutcome.EVICTED)
        assert table.next_expiry <= table.expires_at.min()
