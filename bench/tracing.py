"""Span tracing of the program's layer boundaries, installed from outside.

The tracer replaces the entry points listed in ``_BOUNDARIES`` with wrappers
that time each call, charge the time to the span's name, and subtract it from
the enclosing span, so ``self_s[name]`` is time spent in that layer itself.
Nothing under ``src/`` is edited: the wrappers are set as attributes of the
program's modules and classes and removed again by :meth:`Tracer.uninstall`.

Spans are aggregated as they close (per-name self time, calls and work
counts) rather than stored one by one: a paper-sweep round closes about a
million spans, and keeping them would cost more memory than the program.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict


def _count_step(counts, args, result):
    counts["arena.agent_steps"] += len(args[0].agents)


def _count_expired(counts, args, result):
    counts["knowledge.expired"] += len(result)


def _count_learn(counts, args, result):
    outcome = result.outcome.value
    if outcome == "evicted":
        counts["knowledge.evictions"] += 1
    elif outcome == "rejected_full":
        counts["knowledge.rejects"] += 1


def _count_resolve(counts, args, result):
    pending, agents = args[0], args[1]
    counts["protocol.scan_pairs"] += len(pending) * len(agents)
    counts["protocol.deliveries"] += len(result)


def _count_emit(counts, args, result):
    if result is not None:
        counts["protocol.queries"] += 1


def _count_payload(counts, args, result):
    counts["bt.payloads"] += 1


def _count_written(counts, args, result):
    counts["metrics.bytes_written"] += os.path.getsize(args[1])


# (module, attribute path, span name, count hook). A name imported with
# ``from .x import f`` is patched where it is looked up, not where it is
# defined: ``arena.tick`` is the root tick of each agent, while the recursive
# child ticks inside ``bt`` stay untraced.
_BOUNDARIES = (
    ("arena", "Arena.__init__", "arena.init", None),
    ("arena", "Arena.step", "arena.step", _count_step),
    ("arena", "Arena._sense_all", "arena.sense", None),
    ("arena", "Arena._execute_intent", "arena.execute", None),
    ("arena", "Arena._capture", "arena.capture", None),
    ("arena", "tick", "bt.tick", None),
    ("arena", "prune", "bt.edit", None),
    ("protocol", "graft", "bt.edit", None),
    ("protocol", "prune", "bt.edit", None),
    ("protocol", "serialize", "bt.codec", _count_payload),
    ("protocol", "parse", "bt.codec", None),
    ("rng", "SplitMix64.below", "rng.below", None),
    ("knowledge", "KnowledgeStore.forget_expired", "knowledge.expire", _count_expired),
    ("knowledge", "KnowledgeStore.learn", "knowledge.learn", _count_learn),
    ("protocol", "resolve_and_deliver", "protocol.resolve", _count_resolve),
    ("protocol", "emit_query", "protocol.emit", _count_emit),
    ("protocol", "merge_payload", "protocol.merge", None),
    ("metrics", "snapshot", "metrics.snapshot", None),
    ("metrics", "write_csv", "metrics.write", _count_written),
    ("metrics", "write_aggregate_csv", "metrics.write", _count_written),
    ("metrics", "aggregate_trials", "metrics.aggregate", None),
    ("experiment", "run_scenario", "experiment.run", None),
    ("experiment", "run_trials", "experiment.pool", None),
    ("experiment", "run_trial", "experiment.run", None),
)

class Tracer:
    """Per-name self time, call counts and work counts of traced spans."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # One frame per open span: [time covered by child spans, child count].
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        # Wrapper cost that falls outside a child's own clock reads, charged
        # back to no span; measured once by calibrate().
        self.outside_s = 0.0

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name, fn, hook=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                self_s[name] += span - frame[0] - frame[1] * tracer.outside_s
                calls[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += span
                    parent[1] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def calibrate(self, rounds: int = 5, calls: int = 20000) -> None:
        """Estimate the wrapper time a parent sees around each child span."""

        def noop():
            return None

        inner = self.wrap("calibrate.inner", noop)
        outer = self.wrap("calibrate.outer", lambda: [inner() for _ in range(calls)])
        plain = lambda: [noop() for _ in range(calls)]
        best = None
        for _ in range(rounds):
            self.reset()
            start = time.perf_counter()
            plain()
            base = time.perf_counter() - start
            outer()
            # outer's self time minus the plain loop is the per-child cost
            # that lies outside each child's span.
            per_call = (self.self_s["calibrate.outer"] - base) / calls
            best = per_call if best is None else min(best, per_call)
        self.outside_s = max(best, 0.0)
        self.reset()

    def install(self, modules: dict) -> None:
        """Patch every boundary found in ``modules`` (name -> module)."""
        for module_name, path, name, hook in _BOUNDARIES:
            module = modules.get(module_name)
            if module is None:
                continue
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def merge(summaries) -> dict:
    """Sum summaries taken in several processes (a CLI run and its workers)."""
    out = {"self_s": defaultdict(float), "calls": Counter(), "counts": Counter()}
    for summary in summaries:
        for key in ("self_s", "calls", "counts"):
            for name, value in summary[key].items():
                out[key][name] += value
    return {key: dict(value) for key, value in out.items()}
