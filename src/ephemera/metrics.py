"""Group-knowledge percentage, per-interval snapshots, CSV emission, and
cross-trial aggregation.

Per-trial CSV schema (LF line endings, knowledge at 4 decimal places)::

    trial,t,knowledge_pct,cap_total,cap_r,cap_g,cap_y,cap_b,queries,deliveries,forgets,rejects

Aggregate CSV schema::

    t,mean_knowledge_pct,min,max,mean_cap_total,min,max
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bt import COLORS, Color
from .knowledge import POPCOUNT, KnowledgeCensus

CSV_HEADER = "trial,t,knowledge_pct,cap_total,cap_r,cap_g,cap_y,cap_b,queries,deliveries,forgets,rejects"
AGGREGATE_HEADER = "t,mean_knowledge_pct,min,max,mean_cap_total,min,max"


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    trial: int
    t: int
    knowledge_percent: float
    captured_total: int
    captured_red: int
    captured_green: int
    captured_yellow: int
    captured_blue: int
    queries_sent: int
    deliveries: int
    forgets: int  # expiry sweeps plus capacity evictions
    rejects_full: int

    def csv_row(self) -> str:
        return (
            f"{self.trial},{self.t},{self.knowledge_percent:.4f},"
            f"{self.captured_total},{self.captured_red},{self.captured_green},"
            f"{self.captured_yellow},{self.captured_blue},"
            f"{self.queries_sent},{self.deliveries},{self.forgets},{self.rejects_full}"
        )


def knowledge_percent(group: KnowledgeCensus) -> float:
    """Sum of per-color knower counts over the maximum possible, times 100.

    Multiplies before dividing so grid-exact values (10.0, 100.0) come out
    exact in floating point.
    """
    if group.max_possible <= 0:
        raise ValueError("max_possible must be positive")
    return (group.r_k + group.g_k + group.y_k + group.b_k) * 100 / group.max_possible


def snapshot(arena, trial: int) -> MetricsSnapshot:
    """Freeze the arena's observable state at this instant."""
    known = arena.knowledge.known  # knowledge_percent of their census, by popcount
    counts = arena.capture_counts
    return MetricsSnapshot(
        trial=trial,
        t=arena.t,
        knowledge_percent=int(POPCOUNT[known].sum()) * 100 / (len(known) * len(COLORS)),
        captured_total=sum(counts),
        captured_red=counts[Color.RED],
        captured_green=counts[Color.GREEN],
        captured_yellow=counts[Color.YELLOW],
        captured_blue=counts[Color.BLUE],
        queries_sent=arena.queries_sent,
        deliveries=arena.deliveries,
        forgets=arena.forgets,
        rejects_full=arena.rejects_full,
    )


def _write_lines(path, lines: Sequence[str]) -> None:
    """Write LF-terminated ASCII lines through a temp file in the target's
    directory renamed over it, so the target is never left half written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="ascii", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(snapshots: Sequence[MetricsSnapshot], path) -> None:
    _write_lines(path, [CSV_HEADER, *(s.csv_row() for s in snapshots)])


@dataclass(frozen=True, slots=True)
class AggregateRow:
    t: int
    mean_knowledge: float
    min_knowledge: float
    max_knowledge: float
    mean_captured: float
    min_captured: int
    max_captured: int

    def csv_row(self) -> str:
        return (
            f"{self.t},{self.mean_knowledge:.4f},{self.min_knowledge:.4f},"
            f"{self.max_knowledge:.4f},{self.mean_captured:.4f},"
            f"{self.min_captured},{self.max_captured}"
        )


def aggregate_trials(per_trial: Sequence[Sequence[MetricsSnapshot]]) -> list[AggregateRow]:
    """Mean/min/max of knowledge and capture totals per snapshot index.

    All trials must share the snapshot grid (early-finish padding guarantees
    this for harness-produced series).
    """
    if not per_trial:
        raise ValueError("aggregate_trials needs at least one trial")
    length = len(per_trial[0])
    for series in per_trial:
        if len(series) != length:
            raise ValueError("trials disagree on snapshot count")
    rows = []
    n = len(per_trial)
    for i in range(length):
        at = [series[i] for series in per_trial]
        t = at[0].t
        if any(s.t != t for s in at):
            raise ValueError(f"trials disagree on snapshot time at index {i}")
        knowledge = [s.knowledge_percent for s in at]
        captured = [s.captured_total for s in at]
        rows.append(AggregateRow(
            t=t,
            mean_knowledge=sum(knowledge) / n,
            min_knowledge=min(knowledge),
            max_knowledge=max(knowledge),
            mean_captured=sum(captured) / n,
            min_captured=min(captured),
            max_captured=max(captured),
        ))
    return rows


def write_aggregate_csv(rows: Sequence[AggregateRow], path) -> None:
    _write_lines(path, [AGGREGATE_HEADER, *(r.csv_row() for r in rows)])


def read_aggregate_csv(path) -> list[AggregateRow]:
    path = Path(path)
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0] != AGGREGATE_HEADER:
        raise ValueError(f"{path}: not an aggregate CSV (bad header)")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        try:
            if len(f) != 7:
                raise ValueError("expected 7 fields")
            floats = [float(v) for v in f[1:5]]
            if not all(map(math.isfinite, floats)):
                raise ValueError("non-finite value")
            rows.append(AggregateRow(int(f[0]), *floats, int(f[5]), int(f[6])))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {line!r} ({exc})") from None
    return rows
