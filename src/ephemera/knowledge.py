"""Per-agent skill store: innate vs learned entries, expiry, and a capacity
bound on how many learned skills can be held at once."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .bt import COLORS, Color


class CapacityPolicy(Enum):
    REJECT_WHEN_FULL = "reject"
    EVICT_OLDEST = "evict_oldest"


class LearnOutcome(Enum):
    MERGED = "merged"
    REFRESHED = "refreshed"
    ALREADY_INNATE = "already_innate"
    REJECTED_FULL = "rejected_full"
    EVICTED = "evicted"


@dataclass(frozen=True, slots=True)
class LearnResult:
    outcome: LearnOutcome
    victim: Optional[Color] = None  # set only when outcome is EVICTED


@dataclass(frozen=True, slots=True)
class KnowledgeEntry:
    color: Color
    learned_at: Optional[int] = None  # None marks an innate entry
    expires_at: Optional[int] = None  # None never expires

    @property
    def innate(self) -> bool:
        return self.learned_at is None


# Known-color tuple (canonical order) -> 4-bit mask, bit c for color c.
_MASKS = {tuple(c for c in COLORS if mask >> c & 1): mask for mask in range(16)}


class KnowledgeStore:
    """At most one entry per color. ``capacity`` bounds learned entries only
    (None = unlimited); innate entries never expire and are never evicted."""

    __slots__ = ("entries", "capacity", "_known", "_mask", "_next_expiry")

    def __init__(self, innate: Iterable[Color] = (), capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.capacity = capacity
        self.entries: dict[Color, KnowledgeEntry] = {
            c: KnowledgeEntry(c) for c in sorted(set(innate))
        }
        self._known: tuple[Color, ...] = tuple(self.entries)
        self._mask = _MASKS[self._known]
        self._next_expiry: Optional[int] = None

    def _refresh_caches(self) -> None:
        self._known = tuple(sorted(self.entries))
        self._mask = _MASKS[self._known]
        expiries = [e.expires_at for e in self.entries.values() if e.expires_at is not None]
        self._next_expiry = min(expiries) if expiries else None

    def knows(self, color: Color) -> bool:
        return color in self.entries

    def known_colors(self) -> tuple[Color, ...]:
        return self._known

    def known_mask(self) -> int:
        """The known colors as a 4-bit mask, bit ``c`` for color ``c``."""
        return self._mask

    def next_expiry(self) -> Optional[int]:
        """Earliest ``expires_at`` of the learned entries; None if none expire."""
        return self._next_expiry

    def learned_count(self) -> int:
        return sum(1 for e in self.entries.values() if not e.innate)

    def learn(
        self,
        color: Color,
        now: int,
        duration: int,
        policy: CapacityPolicy = CapacityPolicy.REJECT_WHEN_FULL,
    ) -> LearnResult:
        """Merge one taught skill; full stores reject or evict per policy."""
        if duration < 1:
            raise ValueError("duration must be >= 1")
        entry = self.entries.get(color)
        if entry is not None and entry.innate:
            return LearnResult(LearnOutcome.ALREADY_INNATE)
        if entry is not None:
            # Re-learning restamps the entry so expires_at stays learned_at + duration.
            self.entries[color] = KnowledgeEntry(color, now, now + duration)
            self._refresh_caches()
            return LearnResult(LearnOutcome.REFRESHED)
        if self.capacity is None or self.learned_count() < self.capacity:
            self.entries[color] = KnowledgeEntry(color, now, now + duration)
            self._refresh_caches()
            return LearnResult(LearnOutcome.MERGED)
        if policy is CapacityPolicy.REJECT_WHEN_FULL:
            return LearnResult(LearnOutcome.REJECTED_FULL)
        victim = min(
            (e for e in self.entries.values() if not e.innate),
            key=lambda e: (e.learned_at, e.color),
        ).color
        del self.entries[victim]
        self.entries[color] = KnowledgeEntry(color, now, now + duration)
        self._refresh_caches()
        return LearnResult(LearnOutcome.EVICTED, victim)

    def forget_expired(self, now: int) -> list[Color]:
        """Drop learned entries with expires_at <= now; returns them in
        canonical color order. Innate entries are untouched."""
        if self._next_expiry is None or now < self._next_expiry:
            return []
        removed = sorted(
            c
            for c, e in self.entries.items()
            if e.expires_at is not None and e.expires_at <= now
        )
        for color in removed:
            del self.entries[color]
        self._refresh_caches()
        return removed


@dataclass(frozen=True, slots=True)
class KnowledgeCensus:
    """Per-color counts of agents that hold the skill."""

    r_k: int
    g_k: int
    y_k: int
    b_k: int
    max_possible: int

    def count(self, color: Color) -> int:
        return (self.r_k, self.g_k, self.y_k, self.b_k)[color]

    @property
    def total(self) -> int:
        return self.r_k + self.g_k + self.y_k + self.b_k


def census(stores: Iterable[KnowledgeStore]) -> KnowledgeCensus:
    stores = list(stores)
    if not stores:
        raise ValueError("census requires at least one store")
    counts = [0, 0, 0, 0]
    for store in stores:
        for color in store.entries:
            counts[color] += 1
    return KnowledgeCensus(*counts, max_possible=len(stores) * len(COLORS))
