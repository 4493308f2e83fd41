"""Oracles from the simulation contract alone, which read no table or array
of the program: the innate skills and the event-log replay of Eq. 1."""

from ephemera import events as ev
from ephemera.bt import COLORS, Color

_INNATE = {"I": (), "M": COLORS, "R": (Color.RED,), "G": (Color.GREEN,),
           "Y": (Color.YELLOW,), "B": (Color.BLUE,)}


def innate_sets(config):
    """Each agent's innate colors, by ID: robots in the letter order IMRGYB
    of ``config.robot_counts``."""
    return [set(_INNATE[letter])
            for letter, count in zip("IMRGYB", config.robot_counts) for _ in range(count)]


def replay(config, records, times):
    """Replay the event ``records`` from the innate skills. For each of the
    ascending ``times``, after every record at or before it: (knowledge
    percent, captures of red, green, yellow and blue, deliveries, forgets,
    rejects). Asserts that the records' times ascend, that a Delivery never
    teaches a held color and that a Forget drops a held color."""
    records = list(records)
    assert [r.t for r in records] == sorted(r.t for r in records)
    known = innate_sets(config)
    captures = [0, 0, 0, 0]
    counts = dict.fromkeys((ev.DELIVERY, ev.FORGET, ev.REJECT), 0)
    out, i = [], 0
    for t in times:
        while i < len(records) and records[i].t <= t:
            record = records[i]
            if record.kind == ev.CAPTURE:
                captures[record.color] += 1
            else:
                counts[record.kind] += 1
            if record.kind == ev.DELIVERY:
                assert record.color not in known[record.agent], record
                known[record.agent].add(record.color)
            elif record.kind == ev.FORGET:
                assert record.color in known[record.agent], record
                known[record.agent].remove(record.color)
            i += 1
        out.append((sum(map(len, known)) * 100 / (len(known) * len(COLORS)), tuple(captures),
                    *counts.values()))
    return out
