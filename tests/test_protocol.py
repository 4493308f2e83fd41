import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera import events as ev
from ephemera import protocol
from ephemera.arena import _QUERY, INTENT_TABLE, TREES, Arena, RobotType
from ephemera.bt import COLORS, Color, ParseError, known_colors, make_knowledge_subtree, serialize
from ephemera.experiment import ScenarioConfig
from ephemera.knowledge import (COLORS_OF, CapacityPolicy, Knowledge, KnowledgeStore, LearnOutcome,
                                LearnResult)
from ephemera.protocol import ProtocolError, emit_query, merge_payload, resolve_and_deliver

from stores import one_row_store, row_state

REJECT = CapacityPolicy.REJECT_WHEN_FULL
EVICT = CapacityPolicy.EVICT_OLDEST


class Agent:
    """Minimal stand-in satisfying the protocol's agent contract. Its store
    holds its innate colors alone until :func:`population` moves it into
    the population's :class:`Knowledge`."""

    def __init__(self, agent_id, pos=(0, 0), innate=()):
        self.id = agent_id
        self.x, self.y = pos
        self.innate = sum(1 << c for c in {*innate})
        self.store = one_row_store(innate)
        self.cooldown_until = 0

    @property
    def tree(self):
        return TREES[self.store.known_mask()]


def sight(**by_color):
    """A sense row: nearest distance per color (far for unseen) and the seen mask."""
    nearest = {Color[name.upper()]: d for name, d in by_color.items()}
    return [nearest.get(c, 1 << 20) for c in COLORS], sum(1 << c for c in nearest)


def positions(agents, dtype=np.int64):
    """The position arrays the arena keeps for ``agents``, in ``dtype``: the
    arena's is the narrowest that holds its board's differences."""
    return dict(xs=np.array([a.x for a in agents], dtype),
                ys=np.array([a.y for a in agents], dtype))


def queries(*rows):
    """The pending input of resolve_and_deliver: one (querier, color) row per query."""
    return np.array(rows, np.intp).reshape(-1, 2)


def resolve(pending, agents, dtype=np.int64, **kwargs):
    """resolve_and_deliver on the one Knowledge that the agents' stores
    view, with positions in ``dtype``."""
    knowledge = agents[0].store.table
    assert all(a.store.table is knowledge and a.store.row == a.id for a in agents)
    return resolve_and_deliver(pending, knowledge, **kwargs, **positions(agents, dtype))


# --- emit_query -----------------------------------------------------------------

def test_emit_query_basic():
    agent = Agent(3)
    message = emit_query(agent, *sight(red=2), now=10, query_cooldown=25)
    assert message == (3, Color.RED)
    assert type(message[1]) is Color
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
    _, color = emit_query(agent, *sight(red=1, green=4, blue=3), now=1, query_cooldown=5)
    assert color is Color.BLUE  # red is known; blue nearer than green


def test_emit_query_tie_breaks_canonical():
    agent = Agent(0)
    _, color = emit_query(agent, *sight(blue=2, red=2), now=1, query_cooldown=5)
    assert color is Color.RED


def test_emit_query_none_when_nothing_unknown():
    agent = Agent(0, innate=(Color.RED,))
    assert emit_query(agent, *sight(red=1), now=1, query_cooldown=5) is None


# --- batch emission -------------------------------------------------------------

def test_every_query_intent_sees_an_unknown_color():
    for known in range(16):
        for seen in range(16):
            if INTENT_TABLE[known, seen] == _QUERY:
                assert seen & ~known, (known, seen)


def emission_arena(known, cooldowns, query_cooldown):
    """An arena whose agents know the colors ``known`` and may query again
    from ``cooldowns``."""
    cfg = ScenarioConfig(name="emit", grid=(8, 8), targets_per_color=1,
                         robot_counts=(len(known), 0, 0, 0, 0, 0),
                         query_cooldown=query_cooldown)
    arena = Arena.from_layout(cfg, [(c, c, 0) for c in COLORS],
                              [(RobotType.IGNORANT, 0, 7)] * len(known))
    for agent, mask, until in zip(arena.agents, known, cooldowns):
        for color in COLORS_OF[mask]:
            agent.store.learn(color, 0)
        agent.cooldown_until = until
    return arena


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.lists(st.integers(0, 3), min_size=4, max_size=4), st.integers(0, 12)),
        min_size=1, max_size=12,
    ),
    now=st.integers(1, 10),
    query_cooldown=st.integers(0, 6),
    dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
)
def test_batch_emission_matches_emit_query_per_agent(rows, now, query_cooldown, dtype):
    # Distances from 0 to 3 make ties common; the arena hands over ``_near``,
    # which is in the position dtype: int8 up to 64 cells a side, int16 up to
    # 16384, and int32 or int64 beyond.
    known = [k for k, _, _, _ in rows]
    cooldowns = [c for _, _, _, c in rows]
    seen = np.array([s for _, s, _, _ in rows], np.uint8)
    nearest_d = np.array([d for _, _, d, _ in rows], dtype)
    batch = emission_arena(known, cooldowns, query_cooldown)
    single = emission_arena(known, cooldowns, query_cooldown)
    intents = INTENT_TABLE[batch.knowledge.known, seen]

    batch.t = now
    pending = batch._emit_queries(intents == _QUERY, seen, nearest_d)

    expected = []
    for agent in single.agents:
        if intents[agent.id] != _QUERY:
            continue
        message = emit_query(agent, nearest_d[agent.id].tolist(), int(seen[agent.id]), now,
                             query_cooldown)
        if message is not None:
            expected.append(message)
            # The per-agent rule emit_query applied before the batch existed.
            unknown = COLORS_OF[int(seen[agent.id]) & ~known[agent.id]]
            assert message[1] == min(unknown, key=nearest_d[agent.id].tolist().__getitem__)
    assert pending.shape == (len(expected), 2)
    assert pending.tolist() == [[q, int(c)] for q, c in expected]
    assert ([a.cooldown_until for a in batch.agents]
            == [a.cooldown_until for a in single.agents])


# --- resolve_and_deliver ----------------------------------------------------------

def population(*agents, capacity=None, policy=REJECT, duration=10):
    """The agents, by ID, with one Knowledge of their innate colors and the
    learn settings given built for them; each agent's store becomes the view
    of its row."""
    out = list(agents)
    assert [a.id for a in out] == list(range(len(out)))
    knowledge = Knowledge([a.innate for a in out], capacity, policy, duration)
    for a in out:
        a.store = KnowledgeStore(knowledge, a.id)
    return out


def test_delivery_payload_is_the_skill_subtree():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(3, 3), innate=COLORS)
    log = []
    deliveries = resolve(
        queries((0, Color.RED)), population(querier, master),
        now=5, comm_radius=10, event_log=log,
    )
    assert deliveries == [(0, 1)]
    assert querier.store.knows(Color.RED)
    assert querier.store.table.learned_at[0, Color.RED] == 5
    assert known_colors(querier.tree) == (Color.RED,)
    assert log == [ev.EventRecord(5, ev.DELIVERY, 0, Color.RED, 1)]


def test_learn_result_keeps_its_fields():
    result = LearnResult(LearnOutcome.EVICTED, Color.RED)
    assert result._fields == ("outcome", "victim")
    assert (result.outcome.value, result.victim) == ("evicted", Color.RED)
    assert LearnResult(LearnOutcome.MERGED).victim is None


def test_out_of_range_query_lapses():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(11, 0), innate=COLORS)  # Chebyshev 11 > radius 10
    log = []
    deliveries = resolve(
        queries((0, Color.RED)), population(querier, master),
        now=5, comm_radius=10, event_log=log,
    )
    assert deliveries == []
    assert log == []
    assert not querier.store.knows(Color.RED)


def test_boundary_distance_is_in_range():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(10, 10), innate=COLORS)
    deliveries = resolve(
        queries((0, Color.RED)), population(querier, master),
        now=5, comm_radius=10, event_log=[],
    )
    assert len(deliveries) == 1


def test_nearest_responder_wins_and_ties_break_low_id():
    querier = Agent(0, pos=(0, 0))
    far = Agent(1, pos=(5, 0), innate=COLORS)
    near = Agent(2, pos=(2, 0), innate=COLORS)
    deliveries = resolve(
        queries((0, Color.RED)), population(querier, far, near),
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(0, 2)]

    querier = Agent(0, pos=(0, 0))
    a = Agent(1, pos=(0, 4), innate=COLORS)
    b = Agent(2, pos=(4, 0), innate=COLORS)
    deliveries = resolve(
        queries((0, Color.RED)), population(querier, a, b),
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(0, 1)]


def test_responder_store_is_never_mutated():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(1, 1), innate=COLORS)
    agents = population(querier, master)
    before = row_state(master.store)
    resolve(
        queries((0, Color.GREEN)), agents,
        now=2, comm_radius=10, event_log=[],
    )
    assert row_state(master.store) == before


def test_learned_knowledge_is_shareable_in_same_pass():
    # Agent 1 learns Red from the master, then answers agent 2's red query
    # in the same resolution pass (agent 2 is out of the master's range).
    first = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(5, 0), innate=COLORS)
    second = Agent(2, pos=(-8, 0))
    deliveries = resolve(
        queries((0, Color.RED), (2, Color.RED)),
        population(first, master, second),
        now=4, comm_radius=10, event_log=[],
    )
    assert deliveries == [(0, 1), (2, 0)]
    assert second.store.knows(Color.RED)


def test_one_responder_can_answer_many():
    master = Agent(0, pos=(0, 0), innate=COLORS)
    q1 = Agent(1, pos=(1, 0))
    q2 = Agent(2, pos=(0, 1))
    deliveries = resolve(
        queries((1, Color.RED), (2, Color.BLUE)),
        population(master, q1, q2),
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(1, 0), (2, 0)]


def test_full_store_rejects_and_logs():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(1, 0), innate=COLORS)
    agents = population(querier, master, capacity=1)
    log = []
    resolve(
        queries((0, Color.RED)), agents,
        now=2, comm_radius=10, event_log=log,
    )
    resolve(
        queries((0, Color.GREEN)), agents,
        now=4, comm_radius=10, event_log=log,
    )
    assert querier.store.known_colors() == (Color.RED,)
    assert known_colors(querier.tree) == (Color.RED,)
    assert [rec.kind for rec in log] == [ev.DELIVERY, ev.REJECT]
    assert log[1] == ev.EventRecord(4, ev.REJECT, 0, Color.GREEN, 1)


def test_eviction_prunes_victim_and_logs_forget():
    querier = Agent(0, pos=(0, 0))
    master = Agent(1, pos=(1, 0), innate=COLORS)
    agents = population(querier, master, capacity=1, policy=EVICT)
    log = []
    resolve(
        queries((0, Color.RED)), agents,
        now=2, comm_radius=10, event_log=log,
    )
    resolve(
        queries((0, Color.GREEN)), agents,
        now=4, comm_radius=10, event_log=log,
    )
    assert querier.store.known_colors() == (Color.GREEN,)
    assert known_colors(querier.tree) == (Color.GREEN,)
    assert [rec.kind for rec in log] == [ev.DELIVERY, ev.FORGET, ev.DELIVERY]
    assert log[1] == ev.EventRecord(4, ev.FORGET, 0, Color.RED, None)


def test_queries_resolve_in_querier_id_order():
    # Agent 1 learns Red first and is nearer agent 2 than the master is.
    master = Agent(0, pos=(0, 0), innate=COLORS)
    q1 = Agent(1, pos=(5, 0))
    q2 = Agent(2, pos=(7, 0))
    deliveries = resolve(
        queries((1, Color.RED), (2, Color.RED)),
        population(master, q1, q2),
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(1, 0), (2, 1)]


def test_queries_out_of_querier_id_order_are_refused():
    master = Agent(0, pos=(0, 0), innate=COLORS)
    q1 = Agent(1, pos=(1, 0))
    q2 = Agent(2, pos=(2, 0))
    log = []
    with pytest.raises(ValueError):
        resolve(
            queries((2, Color.RED), (1, Color.RED)),
            population(master, q1, q2),
            now=2, comm_radius=10, event_log=log,
        )
    assert log == []
    assert not q1.store.knows(Color.RED) and not q2.store.knows(Color.RED)


# --- payload validation -------------------------------------------------------------

def test_merge_payload_rejects_garbage():
    querier = Agent(0)
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, "not a tree", Color.RED, 1, [])


def test_merge_payload_rejects_wrong_subtree():
    querier = Agent(0)
    wrong_color = "seq(cond(SeeTarget:Blue),act(Collect:Blue))"
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, wrong_color, Color.RED, 1, [])
    with pytest.raises(ProtocolError):
        merge_payload(querier, 1, "act(Explore)", Color.RED, 1, [])


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
        queries((0, Color.RED)), population(querier, far),
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == []


def test_evicted_responder_no_longer_answers():
    # Agent 1 holds a learned Red and is nearest to agent 2. Its Green query
    # comes first and evicts Red, so agent 2's Red query goes to the master.
    master = Agent(0, pos=(6, 0), innate=COLORS)
    holder = Agent(1, pos=(1, 0))
    asker = Agent(2, pos=(2, 0))
    agents = population(master, holder, asker, capacity=1, policy=EVICT)
    holder.store.learn(Color.RED, 0)
    deliveries = resolve(
        queries((1, Color.GREEN), (2, Color.RED)), agents,
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(1, 0), (2, 0)]


@pytest.mark.parametrize("rows, comm_radius", [
    pytest.param([(1, Color.RED), (1, Color.GREEN), (2, Color.RED)], 10, id="repeated-querier"),
    pytest.param([(1, Color.RED), (2, Color.BLUE)], 10, id="known-color"),
    # No other agent is in reach: the querier is its own knower.
    pytest.param([(1, Color.RED), (2, Color.BLUE)], 0, id="known-color-alone-in-reach"),
])
def test_queries_off_the_contract_are_refused(rows, comm_radius):
    # Resolve takes one query per querier, each for a color its querier
    # does not know (see also the out-of-order test above); other rows
    # change nothing, although a resolve that took them would write.
    knowledge = Knowledge([0b1111, 0, 0b1000], 1, EVICT, 10)
    knowledge.learn(1, Color.YELLOW, 0)
    before = knowledge.known.tolist(), knowledge.learned_at.tolist(), knowledge.next_expiry
    log = []
    with pytest.raises(ValueError):
        resolve_and_deliver(queries(*rows), knowledge, now=2, comm_radius=comm_radius,
                            event_log=log, xs=np.array([8, 1, 2]), ys=np.zeros(3, np.int64))
    assert log == []
    assert (knowledge.known.tolist(), knowledge.learned_at.tolist(),
            knowledge.next_expiry) == before


def test_learner_as_near_as_the_responder_wins_only_with_a_lower_id():
    # Agent 2 is as near agent 1 (which learns Red from the master) as the
    # master: the master has the lower ID.
    master, learner, asker = population(Agent(0, pos=(0, 0), innate=COLORS),
                                        Agent(1, pos=(4, 0)), Agent(2, pos=(2, 0)))
    deliveries = resolve(
        queries((1, Color.RED), (2, Color.RED)), [master, learner, asker],
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(1, 0), (2, 0)]
    # Here the learner, agent 0, has the lower ID.
    learner, asker, master = population(Agent(0, pos=(0, 0)), Agent(1, pos=(2, 0)),
                                        Agent(2, pos=(4, 0), innate=COLORS))
    deliveries = resolve(
        queries((0, Color.RED), (1, Color.RED)), [learner, asker, master],
        now=2, comm_radius=10, event_log=[],
    )
    assert deliveries == [(0, 2), (1, 0)]


def test_known_masks_are_updated_in_place():
    knowledge = Knowledge([0b1111, 0b1000], 1, EVICT, 10)
    known = knowledge.known
    resolve_and_deliver(
        queries((1, Color.GREEN)), knowledge, now=2, comm_radius=3, event_log=[],
        xs=np.array([0, 1]), ys=np.array([0, 0]),
    )
    assert knowledge.known is known
    assert known.tolist() == [0b1111, 0b1010]


def reference_resolve(pending, agents, now, comm_radius, event_log):
    """The per-agent scan that the numpy search replaced: every agent checked
    against every query, in querier-ID order."""
    answered = []
    for q, c in sorted(pending.tolist(), key=lambda row: row[0]):
        querier, color = agents[q], COLORS[c]
        best_d = best_id = None
        for other in agents:
            if other.id == q or not other.store.knows(color):
                continue
            d = max(abs(other.x - querier.x), abs(other.y - querier.y))
            if d <= comm_radius and (best_d is None or d < best_d):
                best_d, best_id = d, other.id
        if best_id is None:
            continue
        payload = serialize(make_knowledge_subtree(color))
        merge_payload(querier, best_id, payload, color, now, event_log)
        answered.append((q, best_id))
    return answered


agent_specs = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 15), st.integers(0, 15)),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    specs=agent_specs,
    asks=st.dictionaries(st.integers(0, 11), st.integers(0, 3), max_size=12),
    comm_radius=st.integers(0, 8),
    capacity=st.sampled_from([None, 1, 2]),
    policy=st.sampled_from([REJECT, EVICT]),
    dtype=st.sampled_from([np.int8, np.int16, np.int64]),  # as arenas of each size hold them
)
def test_resolve_matches_reference_scan(specs, asks, comm_radius, capacity, policy, dtype):
    def build():
        agents = population(*(Agent(i, pos=(x, y), innate=COLORS_OF[innate])
                              for i, (x, y, innate, _) in enumerate(specs)),
                            capacity=capacity, policy=policy, duration=5)
        for agent, (_, _, innate, learned) in zip(agents, specs):
            for color in COLORS_OF[learned & ~innate]:  # can be evicted during the pass
                agent.store.learn(color, 0)
        return agents

    expected_agents, agents = build(), build()
    # One query per querier, in ascending ID, each for a color the querier
    # does not know (one of them, by the drawn index), as the arena emits.
    rows = []
    for q, pick in sorted(asks.items()):
        unknown = [c for c in COLORS if q < len(specs) and not agents[q].store.knows(c)]
        if unknown:
            rows.append((q, unknown[pick % len(unknown)]))
    pending = queries(*rows)
    expected_log, log = [], []
    expected = reference_resolve(pending, expected_agents, 4, comm_radius, expected_log)
    got = resolve(pending, agents, dtype, now=4, comm_radius=comm_radius, event_log=log)
    assert got == expected
    assert log == expected_log
    for a, b in zip(agents, expected_agents):
        assert row_state(a.store) == row_state(b.store)
        assert a.tree == b.tree
    assert agents[0].store.table.next_expiry == expected_agents[0].store.table.next_expiry
