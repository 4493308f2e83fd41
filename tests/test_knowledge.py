from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera import events as ev
from ephemera.bt import COLORS, Color
from ephemera.knowledge import (
    NEVER,
    CapacityPolicy,
    Knowledge,
    KnowledgeEntry,
    KnowledgeStore,
    LearnOutcome,
    LearnResult,
    census,
)
from ephemera.protocol import _PAYLOADS, merge_payload
from ephemera.rng import SplitMix64

REJECT = CapacityPolicy.REJECT_WHEN_FULL
EVICT = CapacityPolicy.EVICT_OLDEST


def m_store(capacity=None):
    return KnowledgeStore(COLORS, capacity=capacity)


def test_learn_merges_with_expiry():
    store = KnowledgeStore(capacity=4)
    result = store.learn(Color.RED, now=100, duration=1000)
    assert result.outcome is LearnOutcome.MERGED
    assert store.entries[Color.RED].expires_at == 1100
    assert store.knows(Color.RED)


def test_learn_on_innate_is_noop():
    store = m_store()
    before = dict(store.entries)
    assert store.learn(Color.RED, now=5, duration=10).outcome is LearnOutcome.ALREADY_INNATE
    assert store.entries == before


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
    assert store.learned_count() == 0
    result = store.learn(Color.RED, now=1, duration=5, policy=EVICT)
    assert result.outcome is LearnOutcome.ALREADY_INNATE
    assert store.forget_expired(10**9) == []
    assert store.known_colors() == COLORS


def test_refresh_restamps_expiry():
    store = KnowledgeStore()
    store.learn(Color.RED, now=10, duration=100)
    result = store.learn(Color.RED, now=50, duration=100)
    assert result.outcome is LearnOutcome.REFRESHED
    entry = store.entries[Color.RED]
    assert entry.learned_at == 50
    assert entry.expires_at == 150


def test_refresh_never_decreases_expiry_when_time_moves_forward():
    store = KnowledgeStore()
    expiry = 0
    now = 0
    rng = SplitMix64(11)
    for _ in range(200):
        now += rng.below(40)
        store.learn(Color.RED, now=now, duration=64)
        new_expiry = store.entries[Color.RED].expires_at
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
        assert store.learned_count() <= (capacity or 4)


# --- census ---------------------------------------------------------------------

def test_census_table_one_start():
    stores = [KnowledgeStore() for _ in range(45)] + [m_store() for _ in range(5)]
    result = census(stores)
    assert (result.r_k, result.g_k, result.y_k, result.b_k) == (5, 5, 5, 5)
    assert result.max_possible == 200


def test_census_all_masters():
    result = census([m_store() for _ in range(50)])
    assert (result.r_k, result.g_k, result.y_k, result.b_k) == (50, 50, 50, 50)


def test_census_all_ignorant():
    result = census([KnowledgeStore() for _ in range(3)])
    assert result.total == 0
    assert result.max_possible == 12


def test_census_requires_stores():
    with pytest.raises(ValueError):
        census([])


def test_census_matches_brute_force_scan():
    rng = SplitMix64(303)
    stores = []
    for _ in range(40):
        store = KnowledgeStore(
            [COLORS[i] for i in range(4) if rng.below(2)],
            capacity=None,
        )
        for c in COLORS:
            if rng.below(3) == 0:
                store.learn(c, now=rng.below(100), duration=1 + rng.below(50))
        store.forget_expired(rng.below(120))
        stores.append(store)
    result = census(stores)
    for color in COLORS:
        assert result.count(color) == sum(1 for s in stores if s.knows(color))
    assert result.max_possible == len(stores) * 4


# --- the population arrays against a dict store per agent ---------------------------

class DictStore:
    """One agent's skills as a dict of entries, the layout the arrays
    replaced: the reference model of the arrays."""

    def __init__(self, innate, capacity):
        self.capacity = capacity
        self.entries = {c: KnowledgeEntry(c) for c in sorted(set(innate))}

    def learn(self, color, now, duration, policy):
        entry = self.entries.get(color)
        if entry is not None and entry.innate:
            return LearnResult(LearnOutcome.ALREADY_INNATE)
        learned = [e for e in self.entries.values() if not e.innate]
        result = LearnResult(LearnOutcome.REFRESHED if entry else LearnOutcome.MERGED)
        if entry is None and self.capacity is not None and len(learned) >= self.capacity:
            if policy is REJECT:
                return LearnResult(LearnOutcome.REJECTED_FULL)
            victim = min(learned, key=lambda e: (e.learned_at, e.color)).color
            del self.entries[victim]
            result = LearnResult(LearnOutcome.EVICTED, victim)
        self.entries[color] = KnowledgeEntry(color, now, now + duration)
        return result

    def forget_expired(self, now):
        removed = sorted(c for c, e in self.entries.items()
                         if e.expires_at is not None and e.expires_at <= now)
        for color in removed:
            del self.entries[color]
        return removed


def merge_into_model(model, agent, responder, color, now, duration, policy, log):
    """merge_payload's event contract on the reference model."""
    result = model.learn(color, now, duration, policy)
    if result.outcome is LearnOutcome.REJECTED_FULL:
        log.append(ev.EventRecord(now, ev.REJECT, agent, color, responder))
        return result
    if result.victim is not None:
        log.append(ev.EventRecord(now, ev.FORGET, agent, result.victim))
    log.append(ev.EventRecord(now, ev.DELIVERY, agent, color, responder))
    return result


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
    models = [DictStore([c for c in COLORS if mask >> c & 1], capacity) for mask in innate]
    now = 0
    for gap, deliveries in steps:
        now += gap
        log, expected = [], []
        for agent, color, responder in deliveries:
            if agent >= len(agents):
                continue
            model_result = merge_into_model(models[agent], agent, responder, color, now,
                                            duration, policy, expected)
            merge_payload(agents[agent], responder, _PAYLOADS[color], color, now, duration,
                          policy, log)
            if model_result.victim is not None:
                assert log[-2] == ev.EventRecord(now, ev.FORGET, agent, model_result.victim)
        dropped = table.expire(now)
        log.extend(ev.EventRecord(now, ev.FORGET, i, COLORS[c]) for i, c in zip(*dropped))
        for i, model in enumerate(models):
            expected.extend(ev.EventRecord(now, ev.FORGET, i, c) for c in model.forget_expired(now))
        assert log == expected
        for i, (agent, model) in enumerate(zip(agents, models)):
            assert agent.store.entries == model.entries
            assert agent.store.known_colors() == tuple(sorted(model.entries))
            assert table.known[i] == sum(1 << c for c in model.entries)
            learned = {c: e for c, e in model.entries.items() if not e.innate}
            assert table.learned_at[i].tolist() == [
                learned[c].learned_at if c in learned else NEVER for c in COLORS]
            assert table.expires_at[i].tolist() == [
                learned[c].expires_at if c in learned else NEVER for c in COLORS]
