"""Query/respond/deliver: an agent that cannot handle a visible target
broadcasts a color question; the nearest in-range knower answers with the
serialized skill subtree; the querier checks it and learns the color.

The payload of each color is serialized once, at import, and must parse
back to its skill subtree or the import fails, so the grammar is checked in
every run without a codec round-trip per delivery.

Queries emitted at iteration t are resolved at the start of t+1 against the
positions and knowledge holding then; answering never mutates the responder.
A step's queries travel as one array of (querier, color) rows, in ascending
querier ID, from emission to :func:`resolve_and_deliver`; :func:`query_colors`
is the rule for the color a querier asks about, for a batch of agents and
for :func:`emit_query`'s one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import events as ev
from .bt import COLORS, Color, ParseError, make_knowledge_subtree, parse, serialize
from .bt import graft, prune  # noqa: F401  (bench/tracing.py patches protocol.graft/prune)
from .knowledge import CapacityPolicy, LearnOutcome


@dataclass(frozen=True, slots=True)
class QueryMessage:
    querier: int
    color: Color
    emitted_at: int


class Delivery(NamedTuple):
    querier: int
    responder: int
    payload: str  # serialized skill subtree, canonical grammar
    delivered_at: int


# Bound on comm_radius in the numpy search, above any grid distance.
_MAX_REACH = 1 << 62
# Distance given to the colors a querier knows or does not see.
_NOT_ASKED = np.int64(np.iinfo(np.int64).max)
# Bit c of every 4-bit mask, as a 16 x 4 table.
_MASK_BITS = np.array([[mask >> c & 1 for c in COLORS] for mask in range(16)], bool)


class ProtocolError(RuntimeError):
    """A payload failed to parse or validate; indicates an implementation bug."""


def _encode(color: Color) -> str:
    subtree = make_knowledge_subtree(color)
    payload = serialize(subtree)
    try:
        decoded = parse(payload)
    except ParseError as exc:
        raise ProtocolError(f"undecodable payload {payload!r}: {exc}") from exc
    if decoded != subtree:
        raise ProtocolError(f"payload {payload!r} does not decode to the {color.label} skill")
    return payload


# The payload each responder sends, by color.
_PAYLOADS = tuple(_encode(color) for color in COLORS)


def query_colors(unknown: np.ndarray, nearest_d: np.ndarray) -> np.ndarray:
    """The color each querier asks about: the nearest of its unknown seen
    colors, distance ties toward the canonical color order.

    ``unknown`` holds one 4-bit mask per querier (bit c for color c, never
    0) and ``nearest_d`` one row per querier of the distance to the nearest
    target of each color."""
    return np.where(_MASK_BITS[unknown], nearest_d, _NOT_ASKED).argmin(axis=1)


def emit_query(agent, nearest_d, seen: int, now: int,
               query_cooldown: int) -> Optional[QueryMessage]:
    """Broadcast a question for the nearest seen color the agent does not know.

    ``nearest_d`` holds the distance to the nearest target of each color and
    ``seen`` the mask of the colors within the sense radius (bit c for color
    c). Returns None while the agent's cooldown is running or when it sees no
    unknown color. The color is :func:`query_colors`' for this one agent.
    """
    if now < agent.cooldown_until:
        return None
    unknown = seen & ~agent.store.known_mask()
    if not unknown:
        return None
    color = COLORS[int(query_colors(np.array([unknown]), np.array([nearest_d]))[0])]
    agent.cooldown_until = now + query_cooldown
    return QueryMessage(agent.id, color, now)


def merge_payload(
    querier,
    responder_id: int,
    payload: str,
    expected_color: Color,
    now: int,
    memory_duration: int,
    policy: CapacityPolicy,
    event_log: list[ev.EventRecord],
) -> None:
    """Querier side of a delivery: check the payload, then learn the color.

    Appends Forget (capacity eviction), Delivery, or Reject records to
    ``event_log``; a Delivery record is written only when the store kept the
    skill, so replaying the log reproduces knowledge exactly.
    """
    if payload != _PAYLOADS[expected_color]:
        raise ProtocolError(
            f"payload {payload!r} is not the skill subtree for {expected_color.label}"
        )
    result = querier.store.learn(expected_color, now, memory_duration, policy)
    if result.outcome is LearnOutcome.REJECTED_FULL:
        event_log.append(ev.EventRecord(now, ev.REJECT, querier.id, expected_color, responder_id))
        return
    if result.victim is not None:
        event_log.append(ev.EventRecord(now, ev.FORGET, querier.id, result.victim))
    event_log.append(ev.EventRecord(now, ev.DELIVERY, querier.id, expected_color, responder_id))


def _nearest_knower(xs, ys, known, q: int, color: int, lapse: int) -> tuple[int, int]:
    """(distance, ID) of the nearest agent other than ``q`` that knows
    ``color``; the distance is ``lapse`` or more if none is in reach."""
    d = np.maximum(np.abs(xs - xs[q]), np.abs(ys - ys[q]))
    d = np.where(known & (1 << color), d, np.int64(lapse))
    d[q] = lapse
    best = int(d.argmin())  # first minimum = lowest ID
    return int(d[best]), best


def resolve_and_deliver(
    pending: np.ndarray,
    agents,
    now: int,
    comm_radius: int,
    memory_duration: int,
    policy: CapacityPolicy,
    event_log: list[ev.EventRecord],
    xs: np.ndarray,
    ys: np.ndarray,
    known: np.ndarray,
) -> list[Delivery]:
    """Resolve last iteration's queries in ascending querier ID.

    ``pending`` is an m x 2 integer array of (querier, color) rows, one per
    query, in ascending querier ID, as :meth:`Arena.step` emits them; rows
    out of that order raise ValueError. ``agents`` is indexed by agent ID.
    For each query the nearest agent within ``comm_radius`` (Chebyshev) that
    currently knows the color answers (ties to the lowest ID); the querier
    merges the answer immediately, so a skill learned here can answer a later
    query in the same pass. Queries with no responder lapse. Returns one :class:`Delivery` per
    answered query, whether the querier kept the skill or rejected it.

    ``xs``, ``ys`` and ``known`` are the agents' positions and known-color
    masks as numpy arrays indexed by ID, the positions in an integer dtype
    that holds the difference of any two of them; ``known`` is updated in
    place as queriers learn or evict, if it is not already the array their
    stores write.
    """
    deliveries: list[Delivery] = []
    if not len(pending):
        return deliveries
    queriers, colors = pending.T
    qs = queriers.tolist()
    if qs != sorted(qs):
        raise ValueError("resolve_and_deliver() needs the queries in ascending querier ID")
    knowers = np.flatnonzero(known)  # only they can answer, until one learns
    if knowers.size == 0:
        return deliveries
    # Distances from `lapse` up are out of reach.
    lapse = min(comm_radius, _MAX_REACH) + 1
    # Every query's answer from the knowledge at the start of the pass, as
    # (distance, responder); kept current below as queriers learn or evict.
    qx, qy = xs[queriers], ys[queriers]
    dist = np.maximum(np.abs(xs[knowers] - qx[:, None]), np.abs(ys[knowers] - qy[:, None]))
    can_answer = _MASK_BITS[known[knowers]].T[colors] & (knowers != queriers[:, None])
    reach = np.where(can_answer, dist, np.int64(lapse))
    best = reach.min(axis=1)
    if best.min() >= lapse:  # no query is answered, so no one learns
        return deliveries
    first = reach.argmin(axis=1)  # first minimum = lowest ID
    answers = list(zip(best.tolist(), knowers[first].tolist()))
    cs = colors.tolist()
    qx, qy = qx.tolist(), qy.tolist()
    for r, (best_d, best_id) in enumerate(answers):
        if best_d >= lapse:
            continue
        q, color = qs[r], COLORS[cs[r]]
        querier = agents[q]
        payload = _PAYLOADS[color]
        old = int(known[q])
        merge_payload(querier, best_id, payload, color, now, memory_duration, policy, event_log)
        deliveries.append(Delivery(q, best_id, payload, now))
        mask = querier.store.known_mask()
        if mask == old:
            continue
        known[q] = mask
        # Only a color q gained or lost can change a later query's answer.
        changed = mask ^ old
        for s in [s for s in range(r + 1, len(qs)) if changed >> cs[s] & 1]:
            if mask >> cs[s] & 1:  # q learned the color, so it can answer
                if qs[s] != q:
                    d = max(abs(qx[r] - qx[s]), abs(qy[r] - qy[s]))
                    answers[s] = min(answers[s], (d, q))
            elif answers[s][1] == q:  # q forgot the color it was to answer with
                answers[s] = _nearest_knower(xs, ys, known, qs[s], cs[s], lapse)
    return deliveries
