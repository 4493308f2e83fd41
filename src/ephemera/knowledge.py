"""Skills of a population as agents x colors arrays: innate vs learned
skills, expiry, and a capacity bound on learned skills per agent.

Per agent, :class:`Knowledge` holds the 4-bit innate mask, ``learned_at``
per color (``NEVER`` for an absent or innate color), and the known mask
(bit c for color c): the innate plus the learned colors, updated by every
write to the row. It also holds the learn rule's settings, the same for
every agent: the capacity, the policy of a full row and the duration. A
learned skill expires ``duration`` iterations after its ``learned_at``,
so the learn time is the one record of when it goes. The learn rule and
expiry are methods of :class:`Knowledge`; a :class:`KnowledgeStore` views
one row."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bt import COLORS, Color

NEVER = np.iinfo(np.int64).max  # learned_at of an absent or innate color

# Bit c of a 4-bit mask is color c. Each mask's number of colors, its
# colors in canonical order, and its bits as a 16 x 4 table; and each
# color's bit weight, in COLORS order.
POPCOUNT = np.array([mask.bit_count() for mask in range(16)], np.int64)
COLORS_OF = tuple(tuple(c for c in COLORS if mask >> c & 1) for mask in range(16))
MASK_BITS = np.array([[mask >> c & 1 for c in COLORS] for mask in range(16)], bool)
COLOR_BITS = np.array([1 << c for c in COLORS], np.uint8)


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
    learned ones (None = unlimited); a full row rejects or evicts a new one
    per ``policy``, and a learned skill expires ``duration`` iterations
    after it was learned. Innate skills never expire or leave."""

    __slots__ = ("capacity", "policy", "duration", "innate", "known", "learned_at",
                 "next_expiry")

    def __init__(self, innate: Sequence[int], capacity: Optional[int],
                 policy: CapacityPolicy, duration: int):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if duration < 1:
            raise ValueError("duration must be >= 1")
        self.capacity = capacity
        self.policy = CapacityPolicy(policy)
        self.duration = duration
        self.innate = np.array(innate, np.int64)
        self.known = self.innate.copy()
        self.learned_at = np.full((len(self.innate), len(COLORS)), NEVER, np.int64)
        self.next_expiry = NEVER  # at most the smallest learned_at + duration

    def __len__(self) -> int:
        """The number of agents."""
        return len(self.known)

    def learn(self, row: int, color: Color, now: int) -> tuple[LearnOutcome, Optional[Color]]:
        """Merge one skill taught to agent ``row``. Returns the outcome and
        the evicted color (None unless the outcome is EVICTED); the row
        knows the color unless it rejected it. The eviction victim is the
        learned color with the smallest ``learned_at``, ties to the
        canonical color order."""
        bit, innate, known = 1 << color, self.innate.item(row), self.known.item(row)
        if innate & bit:
            return LearnOutcome.ALREADY_INNATE, None
        learned, victim = known & ~innate, None
        if learned & bit:
            outcome = LearnOutcome.REFRESHED  # restamped: it expires duration from now
        elif self.capacity is None or learned.bit_count() < self.capacity:
            outcome = LearnOutcome.MERGED
        elif self.policy is CapacityPolicy.REJECT_WHEN_FULL:
            return LearnOutcome.REJECTED_FULL, None
        else:
            # Innate and absent colors hold NEVER: the first minimum is the
            # oldest learned color.
            outcome, times = LearnOutcome.EVICTED, self.learned_at[row].tolist()
            victim = COLORS[times.index(min(times))]
            self.learned_at[row, victim] = NEVER
            known &= ~(1 << victim)
        self.learned_at[row, color] = now
        self.next_expiry = min(self.next_expiry, now + self.duration)
        self.known[row] = known | bit
        return outcome, victim

    def expire(self, now: int, first: int = 0, stop: Optional[int] = None) -> tuple[list, list]:
        """Drop the learned skills of agents ``first..stop-1`` learned
        ``duration`` or more iterations before ``now``; returns their agent
        IDs and colors, in ascending agent ID and then canonical color
        order."""
        if now < self.next_expiry:
            return [], []
        agents, colors = np.nonzero(self.learned_at[first:stop] <= now - self.duration)
        agents += first
        self.learned_at[agents, colors] = NEVER
        np.bitwise_and.at(self.known, agents, ~(1 << colors))
        self.next_expiry = int(self.learned_at.min()) + self.duration
        return agents.tolist(), colors.tolist()


class KnowledgeStore:
    """One agent's skills: the view of row ``row`` of ``table``, whose
    innate colors and learn settings it reads."""

    __slots__ = ("table", "row")

    def __init__(self, table: Knowledge, row: int):
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

    def learn(self, color: Color, now: int) -> LearnResult:
        """Merge one taught skill, by :meth:`Knowledge.learn`'s rule."""
        return LearnResult(*self.table.learn(self.row, color, now))

    def forget_expired(self, now: int) -> list[Color]:
        """Drop the learned skills that are due at ``now``; returns them in
        canonical color order. Innate entries are untouched."""
        return [COLORS[c] for c in self.table.expire(now, self.row, self.row + 1)[1]]
