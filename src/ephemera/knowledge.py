"""Skills of a population as agents x colors arrays: innate vs learned
skills, expiry, and a capacity bound on learned skills per agent.

Per agent, :class:`Knowledge` holds the 4-bit innate mask, ``learned_at``
and ``expires_at`` per color (``NEVER`` for an absent or innate color), and
the known mask (bit c for color c): the innate plus the learned colors,
updated by every write to the row. The learn rule and expiry are methods of
:class:`Knowledge`; a :class:`KnowledgeStore` views one row."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bt import COLORS, Color

NEVER = np.iinfo(np.int64).max  # learned_at and expires_at of an absent or innate color

# Number of colors, and the colors in canonical order, of each 4-bit mask.
POPCOUNT = np.array([mask.bit_count() for mask in range(16)], np.int64)
COLORS_OF = tuple(tuple(c for c in COLORS if mask >> c & 1) for mask in range(16))


class CapacityPolicy(Enum):
    REJECT_WHEN_FULL = "reject"
    EVICT_OLDEST = "evict_oldest"


class LearnOutcome(Enum):
    MERGED = "merged"
    REFRESHED = "refreshed"
    ALREADY_INNATE = "already_innate"
    REJECTED_FULL = "rejected_full"
    EVICTED = "evicted"


class LearnResult(NamedTuple):
    outcome: LearnOutcome
    victim: Optional[Color] = None  # set only when outcome is EVICTED


class Knowledge:
    """The skills of agents ``0..n-1``, each holding at most ``capacity``
    learned ones (None = unlimited); innate skills never expire or leave."""

    __slots__ = ("capacity", "innate", "known", "learned_at", "expires_at", "next_expiry")

    def __init__(self, innate: Sequence[int], capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self.innate = np.array(innate, np.int64)
        self.known = self.innate.copy()
        self.learned_at = np.full((len(self.innate), len(COLORS)), NEVER, np.int64)
        self.expires_at = self.learned_at.copy()
        self.next_expiry = NEVER  # at most the smallest expires_at

    def __len__(self) -> int:
        """The number of agents."""
        return len(self.known)

    def learn(self, row: int, color: Color, now: int, duration: int,
              policy: CapacityPolicy) -> tuple[LearnOutcome, Optional[Color]]:
        """Merge one skill taught to agent ``row``; a full row rejects or
        evicts per ``policy``. Returns the outcome and the evicted color
        (None unless the outcome is EVICTED); the row knows the color unless
        it rejected it. The eviction victim is the learned color with the
        smallest ``learned_at``, ties to the canonical color order."""
        if duration < 1:
            raise ValueError("duration must be >= 1")
        bit, innate, known = 1 << color, self.innate.item(row), self.known.item(row)
        if innate & bit:
            return LearnOutcome.ALREADY_INNATE, None
        learned, victim = known & ~innate, None
        if learned & bit:
            # Re-learning restamps the entry so expires_at stays learned_at + duration.
            outcome = LearnOutcome.REFRESHED
        elif self.capacity is None or learned.bit_count() < self.capacity:
            outcome = LearnOutcome.MERGED
        elif policy is CapacityPolicy.REJECT_WHEN_FULL:
            return LearnOutcome.REJECTED_FULL, None
        else:
            # Innate and absent colors hold NEVER: the first minimum is the
            # oldest learned color.
            outcome, times = LearnOutcome.EVICTED, self.learned_at[row].tolist()
            victim = COLORS[times.index(min(times))]
            self.learned_at[row, victim] = self.expires_at[row, victim] = NEVER
            known &= ~(1 << victim)
        self.learned_at[row, color] = now
        self.expires_at[row, color] = now + duration
        self.next_expiry = min(self.next_expiry, now + duration)
        self.known[row] = known | bit
        return outcome, victim

    def expire(self, now: int, first: int = 0, stop: Optional[int] = None) -> tuple[list, list]:
        """Drop the learned skills of agents ``first..stop-1`` with
        ``expires_at <= now``; returns their agent IDs and colors, in
        ascending agent ID and then canonical color order."""
        if now < self.next_expiry:
            return [], []
        agents, colors = np.nonzero(self.expires_at[first:stop] <= now)
        agents += first
        self.learned_at[agents, colors] = self.expires_at[agents, colors] = NEVER
        np.bitwise_and.at(self.known, agents, ~(1 << colors))
        self.next_expiry = int(self.expires_at.min())
        return agents.tolist(), colors.tolist()


class KnowledgeStore:
    """One agent's skills: the view of row ``row`` of ``table``, or without
    a table, a population of one with the given innate colors and capacity.
    A table holds its own innate colors and capacity, so giving either with
    it raises ValueError."""

    __slots__ = ("table", "row")

    def __init__(self, innate: Optional[Iterable[Color]] = None, capacity: Optional[int] = None,
                 table: Optional[Knowledge] = None, row: int = 0):
        if table is None:
            table = Knowledge([sum(1 << c for c in {*(innate or ())})], capacity)
        elif innate is not None or capacity is not None:
            raise ValueError("innate and capacity are those of the table given")
        if not 0 <= row < len(table):
            raise ValueError(f"row {row} is not an agent of a {len(table)}-agent table")
        self.table, self.row = table, row

    def knows(self, color: Color) -> bool:
        return bool(self.known_mask() >> color & 1)

    def known_colors(self) -> tuple[Color, ...]:
        return COLORS_OF[self.known_mask()]

    def known_mask(self) -> int:
        """The known colors as a 4-bit mask, bit ``c`` for color ``c``."""
        return int(self.table.known[self.row])

    def learn(self, color: Color, now: int, duration: int,
              policy: CapacityPolicy = CapacityPolicy.REJECT_WHEN_FULL) -> LearnResult:
        """Merge one taught skill, by :meth:`Knowledge.learn`'s rule."""
        return LearnResult(*self.table.learn(self.row, color, now, duration, policy))

    def forget_expired(self, now: int) -> list[Color]:
        """Drop learned entries with expires_at <= now; returns them in
        canonical color order. Innate entries are untouched."""
        return [COLORS[c] for c in self.table.expire(now, self.row, self.row + 1)[1]]
