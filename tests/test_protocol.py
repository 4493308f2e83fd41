import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera import events as ev
from ephemera import protocol
from ephemera.arena import TREES
from ephemera.bt import COLORS, Color, ParseError, known_colors, make_knowledge_subtree, serialize
from ephemera.knowledge import CapacityPolicy, KnowledgeStore
from ephemera.protocol import (
    ProtocolError,
    QueryMessage,
    emit_query,
    merge_payload,
    resolve_and_deliver,
)

REJECT = CapacityPolicy.REJECT_WHEN_FULL
EVICT = CapacityPolicy.EVICT_OLDEST


class Agent:
    """Minimal stand-in satisfying the protocol's agent contract."""

    def __init__(self, agent_id, pos=(0, 0), innate=(), capacity=None):
        self.id = agent_id
        self.x, self.y = pos
        self.store = KnowledgeStore(innate, capacity=capacity)
        self.cooldown_until = 0

    @property
    def tree(self):
        return TREES[self.store.known_mask()]


def sight(**by_color):
    """A sense row: nearest distance per color (far for unseen) and the seen mask."""
    nearest = {Color[name.upper()]: d for name, d in by_color.items()}
    return [nearest.get(c, 1 << 20) for c in COLORS], sum(1 << c for c in nearest)


def mirrors(agents):
    """The position and known-mask arrays the arena keeps for ``agents``."""
    return dict(
        xs=np.array([a.x for a in agents]),
        ys=np.array([a.y for a in agents]),
        known=np.array([a.store.known_mask() for a in agents]),
    )


def resolve(pending, agents, **kwargs):
    return resolve_and_deliver(pending, agents, **kwargs, **mirrors(agents))


# --- emit_query -----------------------------------------------------------------

def test_emit_query_basic():
    agent = Agent(3)
    message = emit_query(agent, *sight(red=2), now=10, query_cooldown=25)
    assert message == QueryMessage(querier=3, color=Color.RED, emitted_at=10)
    assert agent.cooldown_until == 35


def test_emit_query_respects_cooldown():
    agent = Agent(0)
    assert emit_query(agent, *sight(red=1), now=5, query_cooldown=25) is not None
    # Next iteration is still inside the 25-iteration cooldown window.
    assert emit_query(agent, *sight(red=1), now=6, query_cooldown=25) is None
    assert emit_query(agent, *sight(red=1), now=29, query_cooldown=25) is None
    assert emit_query(agent, *sight(red=1), now=30, query_cooldown=25) is not None


def test_emit_query_picks_nearest_unknown():
    agent = Agent(0, innate=(Color.RED,))
    message = emit_query(agent, *sight(red=1, green=4, blue=3), now=1, query_cooldown=5)
    assert message.color is Color.BLUE  # red is known; blue nearer than green


def test_emit_query_tie_breaks_canonical():
    agent = Agent(0)
    message = emit_query(agent, *sight(blue=2, red=2), now=1, query_cooldown=5)
    assert message.color is Color.RED


def test_emit_query_none_when_nothing_unknown():
    agent = Agent(0, innate=(Color.RED,))
    assert emit_query(agent, *sight(red=1), now=1, query_cooldown=5) is None


# --- resolve_and_deliver ----------------------------------------------------------

def agents_by_id(*agents):
    out = list(agents)
    assert [a.id for a in out] == list(range(len(out)))
    return out


def test_delivery_payload_is_the_skill_subtree():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(3, 3), innate=COLORS)
    log = []
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 4)], agents_by_id(querier, master),
        now=5, comm_radius=10, memory_duration=100, policy=REJECT, event_log=log,
    )
    assert len(deliveries) == 1
    delivery = deliveries[0]
    assert delivery.payload == "seq(cond(SeeTarget:Red),act(Collect:Red))"
    assert delivery.responder == 1
    assert delivery.delivered_at == 5
    assert querier.store.knows(Color.RED)
    assert known_colors(querier.tree) == (Color.RED,)
    assert log == [ev.EventRecord(5, ev.DELIVERY, 0, Color.RED, 1)]


def test_out_of_range_query_lapses():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(11, 0), innate=COLORS)  # Chebyshev 11 > radius 10
    log = []
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 4)], agents_by_id(querier, master),
        now=5, comm_radius=10, memory_duration=100, policy=REJECT, event_log=log,
    )
    assert deliveries == []
    assert log == []
    assert not querier.store.knows(Color.RED)


def test_boundary_distance_is_in_range():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(10, 10), innate=COLORS)
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 4)], agents_by_id(querier, master),
        now=5, comm_radius=10, memory_duration=100, policy=REJECT, event_log=[],
    )
    assert len(deliveries) == 1


def test_nearest_responder_wins_and_ties_break_low_id():
    querier = Agent(0, pos=(0, 0))
    far = Agent(1, pos=(5, 0), innate=COLORS)
    near = Agent(2, pos=(2, 0), innate=COLORS)
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 1)], agents_by_id(querier, far, near),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert deliveries[0].responder == 2

    querier = Agent(0, pos=(0, 0))
    a = Agent(1, pos=(0, 4), innate=COLORS)
    b = Agent(2, pos=(4, 0), innate=COLORS)
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 1)], agents_by_id(querier, a, b),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert deliveries[0].responder == 1


def test_responder_store_is_never_mutated():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(1, 1), innate=COLORS)
    before = dict(master.store.entries)
    resolve(
        [QueryMessage(0, Color.GREEN, 1)], agents_by_id(querier, master),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert master.store.entries == before


def test_learned_knowledge_is_shareable_in_same_pass():
    # Agent 1 learns Red from the master, then answers agent 2's red query
    # in the same resolution pass (agent 2 is out of the master's range).
    first = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(5, 0), innate=COLORS)
    second = Agent(2, pos=(-8, 0))
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 3), QueryMessage(2, Color.RED, 3)],
        agents_by_id(first, master, second),
        now=4, comm_radius=10, memory_duration=100, policy=REJECT, event_log=[],
    )
    assert [(d.querier, d.responder) for d in deliveries] == [(0, 1), (2, 0)]
    assert second.store.knows(Color.RED)


def test_one_responder_can_answer_many():
    master = Agent(0, pos=(0, 0), innate=COLORS)
    q1 = Agent(1, pos=(1, 0))
    q2 = Agent(2, pos=(0, 1))
    deliveries = resolve(
        [QueryMessage(1, Color.RED, 1), QueryMessage(2, Color.BLUE, 1)],
        agents_by_id(master, q1, q2),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert [d.responder for d in deliveries] == [0, 0]


def test_full_store_rejects_and_logs():
    querier = Agent(0, pos=(0, 0), capacity=1)
    master = Agent(1, pos=(1, 0), innate=COLORS)
    log = []
    resolve(
        [QueryMessage(0, Color.RED, 1)], agents_by_id(querier, master),
        now=2, comm_radius=10, memory_duration=100, policy=REJECT, event_log=log,
    )
    resolve(
        [QueryMessage(0, Color.GREEN, 3)], agents_by_id(querier, master),
        now=4, comm_radius=10, memory_duration=100, policy=REJECT, event_log=log,
    )
    assert querier.store.known_colors() == (Color.RED,)
    assert known_colors(querier.tree) == (Color.RED,)
    assert [rec.kind for rec in log] == [ev.DELIVERY, ev.REJECT]
    assert log[1] == ev.EventRecord(4, ev.REJECT, 0, Color.GREEN, 1)


def test_eviction_prunes_victim_and_logs_forget():
    querier = Agent(0, pos=(0, 0), capacity=1)
    master = Agent(1, pos=(1, 0), innate=COLORS)
    log = []
    resolve(
        [QueryMessage(0, Color.RED, 1)], agents_by_id(querier, master),
        now=2, comm_radius=10, memory_duration=100, policy=EVICT, event_log=log,
    )
    resolve(
        [QueryMessage(0, Color.GREEN, 3)], agents_by_id(querier, master),
        now=4, comm_radius=10, memory_duration=100, policy=EVICT, event_log=log,
    )
    assert querier.store.known_colors() == (Color.GREEN,)
    assert known_colors(querier.tree) == (Color.GREEN,)
    assert [rec.kind for rec in log] == [ev.DELIVERY, ev.FORGET, ev.DELIVERY]
    assert log[1] == ev.EventRecord(4, ev.FORGET, 0, Color.RED, None)


def test_queries_resolve_in_querier_id_order():
    master = Agent(0, pos=(0, 0), innate=COLORS)
    q1 = Agent(1, pos=(1, 0))
    q2 = Agent(2, pos=(2, 0))
    deliveries = resolve(
        [QueryMessage(2, Color.RED, 1), QueryMessage(1, Color.RED, 1)],
        agents_by_id(master, q1, q2),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert [d.querier for d in deliveries] == [1, 2]


# --- payload validation -------------------------------------------------------------

def test_merge_payload_rejects_garbage():
    querier = Agent(0)
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, "not a tree", Color.RED, 1, 10, REJECT, [])


def test_merge_payload_rejects_wrong_subtree():
    querier = Agent(0)
    wrong_color = "seq(cond(SeeTarget:Blue),act(Collect:Blue))"
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, wrong_color, Color.RED, 1, 10, REJECT, [])
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, "act(Explore)", Color.RED, 1, 10, REJECT, [])


def test_payloads_are_the_serialized_skill_subtrees():
    assert protocol._PAYLOADS == tuple(serialize(make_knowledge_subtree(c)) for c in COLORS)


def test_payload_that_does_not_decode_fails_the_encoding(monkeypatch):
    monkeypatch.setattr(protocol, "parse", lambda text: make_knowledge_subtree(Color.BLUE))
    with pytest.raises(ProtocolError):
        protocol._encode(Color.RED)

    def broken(text):
        raise ParseError("unknown token", 0)

    monkeypatch.setattr(protocol, "parse", broken)
    with pytest.raises(ProtocolError):
        protocol._encode(Color.RED)


def test_knower_beyond_radius_lapses_however_far():
    querier = Agent(0, pos=(0, 0))
    far = Agent(1, pos=(25, 3), innate=COLORS)
    deliveries = resolve(
        [QueryMessage(0, Color.RED, 1)], agents_by_id(querier, far),
        now=2, comm_radius=10, memory_duration=10, policy=REJECT, event_log=[],
    )
    assert deliveries == []


def test_evicted_responder_no_longer_answers():
    # Agent 1 holds a learned Red and is nearest to agent 2. Its Green query
    # comes first and evicts Red, so agent 2's Red query goes to the master.
    master = Agent(0, pos=(6, 0), innate=COLORS)
    holder = Agent(1, pos=(1, 0), capacity=1)
    holder.store.learn(Color.RED, 0, 100)
    asker = Agent(2, pos=(2, 0))
    deliveries = resolve(
        [QueryMessage(1, Color.GREEN, 1), QueryMessage(2, Color.RED, 1)],
        agents_by_id(master, holder, asker),
        now=2, comm_radius=10, memory_duration=10, policy=EVICT, event_log=[],
    )
    assert [(d.querier, d.responder) for d in deliveries] == [(1, 0), (2, 0)]


def test_known_masks_are_updated_in_place():
    master = Agent(0, pos=(0, 0), innate=COLORS)
    learner = Agent(1, pos=(1, 0), innate=(Color.BLUE,), capacity=1)
    agents = agents_by_id(master, learner)
    xs, ys = np.array([0, 1]), np.array([0, 0])
    known = np.array([0b1111, 0b1000])
    resolve_and_deliver(
        [QueryMessage(1, Color.GREEN, 1)], agents, now=2, comm_radius=3,
        memory_duration=10, policy=EVICT, event_log=[], xs=xs, ys=ys, known=known,
    )
    assert known.tolist() == [0b1111, 0b1010]


def reference_resolve(pending, agents, now, comm_radius, memory_duration, policy, event_log):
    """The per-agent scan that the numpy search replaced: every agent checked
    against every query, in querier-ID order."""
    answered = []
    for message in sorted(pending, key=lambda m: m.querier):
        querier = agents[message.querier]
        best_d = best_id = None
        for other in agents:
            if other.id == message.querier or not other.store.knows(message.color):
                continue
            d = max(abs(other.x - querier.x), abs(other.y - querier.y))
            if d <= comm_radius and (best_d is None or d < best_d):
                best_d, best_id = d, other.id
        if best_id is None:
            continue
        payload = serialize(make_knowledge_subtree(message.color))
        merge_payload(querier, best_id, payload, message.color, now, memory_duration, policy,
                      event_log)
        answered.append((message.querier, best_id))
    return answered


agent_specs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 15), st.integers(0, 15)),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    specs=agent_specs,
    asks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3)), max_size=12),
    comm_radius=st.integers(0, 8),
    capacity=st.sampled_from([None, 1, 2]),
    policy=st.sampled_from([REJECT, EVICT]),
)
def test_resolve_matches_reference_scan(specs, asks, comm_radius, capacity, policy):
    def build():
        agents = []
        for i, (x, y, innate, learned) in enumerate(specs):
            agent = Agent(i, pos=(x, y), innate=[c for c in COLORS if innate >> c & 1],
                          capacity=capacity)
            for color in COLORS:  # learned skills can be evicted during the pass
                if learned >> color & 1 and not innate >> color & 1:
                    agent.store.learn(color, 0, 100, REJECT)
            agents.append(agent)
        return agents

    # One query per querier, as the arena emits them; colors may be known.
    pending = list({q: QueryMessage(q, COLORS[c], 3) for q, c in asks if q < len(specs)}.values())
    expected_agents, agents = build(), build()
    expected_log, log = [], []
    expected = reference_resolve(pending, expected_agents, 4, comm_radius, 5, policy, expected_log)
    got = resolve(pending, agents, now=4, comm_radius=comm_radius, memory_duration=5,
                  policy=policy, event_log=log)
    assert [(d.querier, d.responder) for d in got] == expected
    assert log == expected_log
    for a, b in zip(agents, expected_agents):
        assert a.store.entries == b.store.entries
        assert a.tree == b.tree
