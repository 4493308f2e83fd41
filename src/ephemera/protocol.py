"""Query/respond/deliver: an agent that cannot handle a visible target
broadcasts a color question; the nearest in-range knower answers with the
serialized skill subtree; the querier learns the color.

The payload of each color is serialized once, at import, and must parse
back to its skill subtree or the import fails, so the grammar is checked in
every run without a codec round-trip per delivery. A responder always sends
its color's payload, so :func:`resolve_and_deliver` learns the asked color
without re-reading it; :func:`merge_payload`, the querier side for one
agent, checks the payload it is handed.

Queries emitted at iteration t are resolved at the start of t+1, in
querier ID order. Each query takes its answer when the pass reaches it, from
the positions of t+1 and the knowledge holding at that point of the pass: a
skill learned earlier in the pass can answer, and one evicted earlier cannot.
Answering never mutates the responder.
A step's queries travel as one array of (querier, color) rows from emission
to :func:`resolve_and_deliver`, which states what the rows must hold;
:func:`query_colors` is the rule for the color a querier asks about, for a
batch of agents and for :func:`emit_query`'s one. A query is a
``(querier, color)`` pair and an answered one a ``(querier, responder)``
pair. Resolve works on the population's knowledge arrays
(:class:`Knowledge`), which also hold the learn rule's capacity, policy and
duration, with no per-agent object: what a delivery taught is in the
querier's row and in the event log, which resolve and :func:`merge_payload`
write with one helper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import events as ev
from .bt import COLORS, Color, ParseError, make_knowledge_subtree, parse, serialize
from .bt import graft, prune  # noqa: F401  (bench/tracing.py patches protocol.graft/prune)
from .knowledge import MASK_BITS, Knowledge, LearnOutcome


# Bound on comm_radius in the numpy search, above any grid distance.
_MAX_REACH = 1 << 62
# Distance given to the colors a querier knows or does not see.
_NOT_ASKED = np.int64(np.iinfo(np.int64).max)


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
    return np.where(MASK_BITS[unknown], nearest_d, _NOT_ASKED).argmin(axis=1)


def emit_query(agent, nearest_d, seen: int, now: int,
               query_cooldown: int) -> Optional[tuple[int, Color]]:
    """Broadcast a question for the nearest seen color the agent does not know.

    ``nearest_d`` holds the distance to the nearest target of each color and
    ``seen`` the mask of the colors within the sense radius (bit c for color
    c). Returns the query as a ``(querier, color)`` pair, one row of the
    array :meth:`Arena.step` emits, and restarts the cooldown; returns None
    while the cooldown is running or when the agent sees no unknown color.
    The color is :func:`query_colors`' for this one agent.
    """
    if now < agent.cooldown_until:
        return None
    unknown = seen & ~agent.store.known_mask()
    if not unknown:
        return None
    color = COLORS[int(query_colors(np.array([unknown]), np.array([nearest_d]))[0])]
    agent.cooldown_until = now + query_cooldown
    return agent.id, color


def merge_payload(
    querier,
    responder_id: int,
    payload: str,
    expected_color: Color,
    now: int,
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
    outcome, victim = querier.store.learn(expected_color, now)
    _log_learn(event_log, now, querier.id, expected_color, responder_id, outcome, victim)


def _log_learn(event_log: list[ev.EventRecord], now: int, querier: int, color: Color,
               responder: int, outcome: LearnOutcome, victim: Optional[Color]) -> None:
    """Log a delivery's outcome: Reject when the store was full, else a
    Forget of the evicted color, if any, then Delivery."""
    if outcome is LearnOutcome.REJECTED_FULL:
        event_log.append(ev.EventRecord(now, ev.REJECT, querier, color, responder))
        return
    if victim is not None:
        event_log.append(ev.EventRecord(now, ev.FORGET, querier, victim))
    event_log.append(ev.EventRecord(now, ev.DELIVERY, querier, color, responder))


def _nearest_knowers(xs, ys, known, queriers, colors, lapse):
    """(distances, IDs) of the nearest agent that knows each querier's
    color, ties to the lowest ID; a querier does not know its own color, so
    it is never its own knower. A distance is at least ``lapse`` when no
    knower is in reach, as a knower beyond reach may return its own
    distance; the ID then means nothing."""
    knowers = known.nonzero()[0]
    if not knowers.size:  # every query lapses
        return np.full(len(queriers), lapse), queriers
    dist = np.maximum(np.abs(xs[knowers] - xs[queriers][:, None]),
                      np.abs(ys[knowers] - ys[queriers][:, None]))
    reach = np.where(MASK_BITS[known[knowers]].T[colors], dist, np.int64(lapse))
    return reach.min(axis=1), knowers[reach.argmin(axis=1)]  # first minimum = lowest ID


def resolve_and_deliver(
    pending: np.ndarray,
    knowledge: Knowledge,
    now: int,
    comm_radius: int,
    event_log: list[ev.EventRecord],
    xs: np.ndarray,
    ys: np.ndarray,
) -> list[tuple[int, int]]:
    """Resolve last iteration's queries in ascending querier ID.

    ``pending`` is an m x 2 integer array of (querier, color) rows, as
    :meth:`Arena.step` emits them: one query per querier, in strictly
    ascending querier ID, each for a color its querier does not know. Any
    other rows raise ValueError before anything changes. ``knowledge`` holds
    the skills of the agents, by ID. For each query the nearest agent within
    ``comm_radius`` (Chebyshev) that knows the color when the pass reaches
    the query answers (ties to the lowest ID); the querier learns the color
    at once, under the table's settings (:meth:`Knowledge.learn`), so a
    skill learned here can answer a later query in the same pass, and a
    skill evicted here no longer answers. Queries with no responder lapse.
    Each outcome is logged as :func:`merge_payload` logs it: Forget of an
    evicted color and Delivery, or Reject. Returns one ``(querier,
    responder)`` pair per answered query, in ascending querier ID, whether
    the querier kept the skill or rejected it.

    ``xs`` and ``ys`` are the agents' positions as numpy arrays indexed by
    ID, in an integer dtype that holds the difference of any two of them.
    """
    deliveries: list[tuple[int, int]] = []
    if not len(pending):
        return deliveries
    queriers, colors = pending.T
    qs = queriers.tolist()
    if qs != sorted(set(qs)):
        raise ValueError("resolve_and_deliver() needs one query per querier, in ascending ID")
    known = knowledge.known
    # Distances from `lapse` up are out of reach.
    lapse = min(comm_radius, _MAX_REACH) + 1
    # Each query pulls its answer when the pass reaches it: the one from the
    # start of the pass, searched again if that responder has forgotten the
    # color since, against the agents that learned the color earlier in the
    # pass. A learner queries once per pass, so it keeps the color it learned.
    dists, ids = _nearest_knowers(xs, ys, known, queriers, colors, lapse)
    if dists.min() >= lapse:  # no query is answered, so no one learns
        return deliveries
    # A querier that knows its color is its own knower at distance 0 < lapse,
    # so its pass never returns above: checked here, only answering passes pay.
    if MASK_BITS[known[queriers], colors].any():
        raise ValueError("resolve_and_deliver() needs each query for a color its querier lacks")
    qx, qy = xs[queriers].tolist(), ys[queriers].tolist()
    learners = ([], [], [], [])  # (ID, x, y) of the agents that learned each color
    learn = knowledge.learn
    for q, c, x, y, d, r in zip(qs, colors.tolist(), qx, qy, dists.tolist(), ids.tolist()):
        if d < lapse and not known.item(r) >> c & 1:  # the responder forgot the color
            ds, rs = _nearest_knowers(xs, ys, known, np.array([q]), np.array([c]), lapse)
            d, r = int(ds[0]), int(rs[0])
        for p, px, py in learners[c]:
            e = max(abs(px - x), abs(py - y))
            if e < d or e == d and p < r:  # nearer, or as near with a lower ID
                d, r = e, p
        if d >= lapse:
            continue
        color = COLORS[c]
        outcome, victim = learn(q, color, now)
        _log_learn(event_log, now, q, color, r, outcome, victim)
        deliveries.append((q, r))
        if outcome is not LearnOutcome.REJECTED_FULL:
            learners[c].append((q, x, y))
    return deliveries
