"""Group-knowledge percentage, per-interval snapshots, CSV emission, and
cross-trial aggregation.

Per-trial CSV schema (LF line endings, floats at 4 decimal places)::

    trial,t,knowledge_pct,cap_total,cap_r,cap_g,cap_y,cap_b,queries,deliveries,forgets,rejects

Aggregate CSV schema (the same format)::

    t,mean_knowledge_pct,min,max,mean_cap_total,min,max
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .bt import COLORS, Color
from .knowledge import POPCOUNT

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


def snapshot(arena, trial: int, t: int) -> MetricsSnapshot:
    """Freeze the arena's observable state as the row of time ``t``: the
    arena's clock, or a later grid time when the trial finished early.

    ``knowledge_percent`` is Eq. 1, group knowledge: the number of (agent,
    color) skills held over agents x colors, times 100. It multiplies
    before dividing, so grid-exact values (10.0, 100.0) come out exact.
    """
    known = arena.knowledge.known
    counts = arena.capture_counts
    return MetricsSnapshot(
        trial=trial,
        t=t,
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


def _write_lines(path, lines: Sequence[str], encoding: str = "ascii") -> None:
    """Write LF-terminated lines, in ``encoding``, through a temp file in the
    target's directory renamed over it, so the target is never left half
    written. Every output file, CSV or SVG, is written so."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding=encoding, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_line(row) -> str:
    """The CSV line of a snapshot or an aggregate row: its fields in
    declaration order, the float ones at 4 decimal places."""
    return ",".join(format(getattr(row, f.name), ".4f" if f.type == "float" else "")
                    for f in fields(row))


def write_csv(snapshots: Sequence[MetricsSnapshot], path) -> None:
    _write_lines(path, [CSV_HEADER, *map(_csv_line, snapshots)])


@dataclass(frozen=True, slots=True)
class AggregateRow:
    t: int
    mean_knowledge: float
    min_knowledge: float
    max_knowledge: float
    mean_captured: float
    min_captured: int
    max_captured: int


def aggregate_trials(per_trial: Sequence[Sequence[MetricsSnapshot]]) -> list[AggregateRow]:
    """Mean/min/max of knowledge and capture totals per snapshot index.

    All trials must share the snapshot grid (``run_trial`` records a row at
    every grid time, early finish or not).
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
    _write_lines(path, [AGGREGATE_HEADER, *map(_csv_line, rows)])


def read_aggregate_csv(path) -> list[AggregateRow]:
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} at byte offset {exc.start}") from None
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
