"""Query/respond/deliver: an agent that cannot handle a visible target
broadcasts a color question; the nearest in-range knower answers with the
serialized skill subtree; the querier checks it and learns the color.

The payload of each color is serialized once, at import, and must parse
back to its skill subtree or the import fails, so the grammar is checked in
every run without a codec round-trip per delivery.

Queries emitted at iteration t are resolved at the start of t+1 against the
positions and knowledge holding then; answering never mutates the responder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence as SequenceT

import numpy as np

from . import events as ev
from .bt import COLORS, Color, ParseError, make_knowledge_subtree, parse, serialize
from .bt import graft, prune  # noqa: F401  (bench/tracing.py patches protocol.graft/prune)
from .knowledge import COLORS_OF, CapacityPolicy, LearnOutcome


@dataclass(frozen=True, slots=True)
class QueryMessage:
    querier: int
    color: Color
    emitted_at: int


@dataclass(frozen=True, slots=True)
class Delivery:
    querier: int
    responder: int
    payload: str  # serialized skill subtree, canonical grammar
    delivered_at: int


# Bound on comm_radius in the numpy search, above any grid distance.
_MAX_REACH = 1 << 62


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


def emit_query(agent, nearest_d, seen: int, now: int,
               query_cooldown: int) -> Optional[QueryMessage]:
    """Broadcast a question for the nearest seen color the agent does not know.

    ``nearest_d`` holds the distance to the nearest target of each color and
    ``seen`` the mask of the colors within the sense radius (bit c for color
    c). Returns None while the agent's cooldown is running or when it sees no
    unknown color. Distance ties break toward the canonical color order.
    """
    if now < agent.cooldown_until:
        return None
    unknown = seen & ~agent.store.known_mask()
    if not unknown:
        return None
    color = min(COLORS_OF[unknown], key=nearest_d.__getitem__)
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


def _nearest_knower(xs, ys, known, message, lapse: int) -> tuple[int, int]:
    """(distance, ID) of the nearest agent other than the querier that knows
    the message's color; the distance is ``lapse`` or more if none is in reach."""
    q = message.querier
    d = np.maximum(np.abs(xs - xs[q]), np.abs(ys - ys[q]))
    d = np.where(known & (1 << message.color), d, lapse)
    d[q] = lapse
    best = int(d.argmin())  # first minimum = lowest ID
    return int(d[best]), best


def resolve_and_deliver(
    pending: SequenceT[QueryMessage],
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

    ``agents`` is indexed by agent ID. For each query the nearest agent
    within ``comm_radius`` (Chebyshev) that currently knows the color answers
    (ties to the lowest ID); the querier merges the answer immediately, so a
    skill learned here can answer a later query in the same pass. Queries
    with no responder lapse.

    ``xs``, ``ys`` and ``known`` are the agents' positions and known-color
    masks as numpy arrays indexed by ID; ``known`` is updated in place as
    queriers learn or evict, if it is not already the array their stores
    write.
    """
    deliveries: list[Delivery] = []
    messages = sorted(pending, key=lambda m: m.querier)
    knowers = np.flatnonzero(known)  # only they can answer, until one learns
    if not messages or knowers.size == 0:
        return deliveries
    xs = np.asarray(xs, np.int64)
    ys = np.asarray(ys, np.int64)
    queriers = np.array([m.querier for m in messages], np.intp)
    bits = np.array([1 << m.color for m in messages], np.int64)
    # Distances from `lapse` up are out of reach.
    lapse = min(comm_radius, _MAX_REACH) + 1
    # Every query's answer from the knowledge at the start of the pass, as
    # (distance, responder); kept current below as queriers learn or evict.
    qx, qy = xs[queriers], ys[queriers]
    dist = np.maximum(np.abs(xs[knowers] - qx[:, None]), np.abs(ys[knowers] - qy[:, None]))
    can_answer = ((known[knowers] & bits[:, None]) != 0) & (knowers != queriers[:, None])
    reach = np.where(can_answer, dist, lapse)
    first = reach.argmin(axis=1)  # first minimum = lowest ID
    answers = list(zip(reach.min(axis=1).tolist(), knowers[first].tolist()))
    qx, qy = qx.tolist(), qy.tolist()
    for r, message in enumerate(messages):
        best_d, best_id = answers[r]
        if best_d >= lapse:
            continue
        q, color = message.querier, message.color
        querier = agents[q]
        payload = _PAYLOADS[color]
        old = int(known[q])
        merge_payload(querier, best_id, payload, color, now, memory_duration, policy, event_log)
        deliveries.append(Delivery(q, best_id, payload, now))
        mask = querier.store.known_mask()
        if mask == old:
            continue
        known[q] = mask
        for s in range(r + 1, len(messages)):
            other = messages[s]
            bit = 1 << other.color
            if mask & bit and other.querier != q:  # q can now answer it
                d = max(abs(qx[r] - qx[s]), abs(qy[r] - qy[s]))
                answers[s] = min(answers[s], (d, q))
            elif old & bit and answers[s][1] == q:  # q was its responder
                answers[s] = _nearest_knower(xs, ys, known, other, lapse)
    return deliveries
