"""Seeded faults: show that the quick suite catches each one.

Each fault is a small edit that makes the program wrong: a file, its exact
old text (which must match once), the new text, and why the result is
wrong. For each fault the script extracts a copy of the tree of ``HEAD``
with ``git archive`` (so commit first), applies the edit and runs
``pytest -m "not slow"`` in the copy, with the hypothesis seed fixed at
``HYPOTHESIS_SEED``, so that two runs report the same tests, and without
``tests/test_faults.py`` (see :func:`pytest_command`). The unchanged copy
is run first and must pass within ``BASE_LIMIT`` seconds. Each faulted
copy's run is stopped after ten times the unchanged copy's time, and at
least ``MIN_LIMIT`` seconds; a copy stopped so counts as caught and prints
``timed out after N s``, since a fault that makes a loop endless is found.
The script exits non-zero unless every fault fails at least one test, and
prints the tests that caught each fault. When a change moves the code a
fault edits, the fault's old text no longer matches and the script fails
until the fault is aimed again (``tests/test_faults.py`` checks the old
texts against the working tree in the quick suite). Each copy's pytest
runs in a session of its own; when the script is stopped by SIGTERM, it
kills that session's whole process group and removes its temporary
directory of copies before it exits.

    python tests/faults.py

Each run of the quick suite takes about half a minute on two cores. pytest
does not collect this file (it is not ``test_*.py``), so it is not part of
the suite.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
ARENA = "src/ephemera/arena.py"
PROTOCOL = "src/ephemera/protocol.py"
KNOWLEDGE = "src/ephemera/knowledge.py"
# The unchanged copy's time limit, and the least limit of a faulted copy,
# in seconds.
BASE_LIMIT = 1800
MIN_LIMIT = 300
HYPOTHESIS_SEED = 0


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    why: str


FAULTS = (
    Fault("responder-not-searched-again", PROTOCOL,
          "if d < lapse and not known.item(r) >> c & 1:",
          "if d < lapse and False:",
          "a responder that forgot the color earlier in the pass still answers"),
    Fault("learner-forgot-still-answers", PROTOCOL,
          " and p != q and known.item(p) >> c & 1:",
          " and p != q:",
          "an agent that learned the color and then evicted it still answers"),
    Fault("learner-ties-to-higher-id", PROTOCOL,
          "e == d and p < r",
          "e == d and p > r",
          "a learner as near as the responder wins only with a higher ID"),
    Fault("lapse-at-comm-radius", PROTOCOL,
          "lapse = min(comm_radius, _MAX_REACH) + 1",
          "lapse = min(comm_radius, _MAX_REACH)",
          "a knower exactly at comm_radius is out of reach"),
    Fault("eviction-ties-to-last-color", KNOWLEDGE,
          "victim = COLORS[times.index(min(times))]",
          "victim = COLORS[len(times) - 1 - times[::-1].index(min(times))]",
          "colors learned at the same time are evicted last color first"),
    Fault("capture-conflict-to-highest-id", ARENA,
          "for p, i, t, dt in zip(range(len(k)), rows.tolist(), k.tolist(), d.tolist()):",
          "for p, i, t, dt in reversed([*zip(range(len(k)), rows.tolist(), k.tolist(),"
          " d.tolist())]):",
          "of two Collect agents on one target, the higher ID takes it"),
    Fault("slot-search-ties-to-higher-id", ARENA,
          "k = slots[at, colors].argmin(axis=1) + colors * slot",
          "k = slot - 1 - slots[at, colors][:, ::-1].argmin(axis=1) + colors * slot",
          "a Collect agent heads for the higher ID of two equally near targets"),
    Fault("explore-draws-in-descending-id", ARENA,
          "explorers = (intents == _EXPLORE).nonzero()[0]",
          "explorers = (intents == _EXPLORE).nonzero()[0][::-1]",
          "explorers take their draws from the highest ID down"),
    Fault("learner-not-unparked", ARENA,
          "self._parked[[q for q, _ in delivered]] = False",
          "pass",
          "an agent that learned a color in resolve keeps its stale view"),
    Fault("sense-radius-plus-one", ARENA,
          "self._radius = min(self.config.sense_radius, span)",
          "self._radius = min(self.config.sense_radius + 1, span)",
          "an agent sees a target one cell beyond the sense radius"),
    Fault("cooldown-one-step-short", ARENA,
          "self._cooldown[askers] = now + self.config.query_cooldown",
          "self._cooldown[askers] = now + self.config.query_cooldown - 1",
          "an agent queries again one step before its cooldown runs out"),
    Fault("no-unpark-on-capture-at-kept-distance", ARENA,
          "parked &= ~(d == near).any(axis=0)",
          "pass",
          "a Query agent keeps a nearest distance whose target was captured"),
    Fault("dtype-ladder-ignores-off-board-distance", ARENA,
          "self._far <= np.iinfo(t).max",
          "span <= np.iinfo(t).max",
          "a dtype that holds the board but not the off-board distance wraps"),
    Fault("capture-keeps-its-distance-in-the-step", ARENA,
          "dist[:, t] = self._far",
          "pass",
          "a Collect agent whose target a lower ID took heads for that target again"),
    Fault("seen-excludes-the-sense-radius", ARENA,
          "(self._near <= self._radius).view(np.uint8)",
          "(self._near < self._radius).view(np.uint8)",
          "an agent does not see a target exactly at the sense radius"),
    Fault("expiry-one-step-late", KNOWLEDGE,
          "self.learned_at[first:stop] <= now - self.duration",
          "self.learned_at[first:stop] < now - self.duration",
          "a learned skill is forgotten one step after its duration has run out"),
    # At the call, not in SplitMix64._draws: placement draws through it too,
    # and its loop would draw the same cells for ever.
    Fault("explore-draws-reuse-the-block", ARENA,
          "move = self.rng._draws(_MOVE_COUNT[cls])",
          "move = self.rng._draws(_MOVE_COUNT[cls]); self.rng._pos -= move.size",
          "the explorers' draws leave the read position, so the next batch reuses their words"),
    Fault("explore-move-row-stride", ARENA,
          "move += cls * 8",
          "move += cls * 7",
          "an explorer reads its move from the wrong edge class's row of the move table"),
    Fault("single-expiry-not-logged", ARENA,
          "if agents:",
          "if len(agents) > 1:",
          "a step in which one skill expires logs no Forget and does not count it"),
    # Only the recount: the learners of a single delivery are still un-parked.
    Fault("single-delivery-not-counted", ARENA,
          "kinds = [record.kind for record in self.events[mark:]]",
          "kinds = [record.kind for record in self.events[mark:]] if len(delivered) > 1 else []",
          "a step that answers one query does not count its delivery or rejection"),
)


def extract(into: Path) -> None:
    """Write the tree of ``HEAD`` into the directory ``into``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "HEAD"], check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def apply(fault: Fault, root: Path) -> None:
    path = root / fault.path
    text = path.read_text()
    count = text.count(fault.old)
    if count != 1:
        sys.exit(f"fault {fault.name}: its old text matches {count} times in {fault.path}, "
                 "not once; aim it again")
    path.write_text(text.replace(fault.old, fault.new))


def pytest_command() -> list[str]:
    """The quick suite's command, with the hypothesis seed fixed and without
    ``tests/test_faults.py``: a faulted copy no longer holds its fault's old
    text, so that file's check of the table would catch every fault."""
    return [sys.executable, "-m", "pytest", "-m", "not slow", "-q", "-rfE",
            "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
            "--ignore=tests/test_faults.py"]


@contextlib.contextmanager
def sigterm_exits():
    """Within the block SIGTERM raises SystemExit, so the ``with`` blocks
    and ``finally`` clauses it unwinds run; the previous handler is restored
    after it."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run_child(args: list[str], timeout: float | None = None,
              **popen) -> subprocess.CompletedProcess:
    """``subprocess.run(args, capture_output=True, timeout=timeout)`` with
    the child in a session of its own, whose whole process group (pytest's
    pool workers and ``python -O`` subprocesses too) is killed on the way
    out: on return, on a timeout, or on SystemExit from SIGTERM."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True, **popen) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
    return subprocess.CompletedProcess(args, child.returncode, out, err)


def failing_tests(root: Path, limit: float) -> list[str]:
    """The tests of the quick suite that fail or error in the copy ``root``,
    or the one line ``timed out after N s`` if the run takes more than
    ``limit`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = run_child(pytest_command(), cwd=root, env=env, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return [f"timed out after {limit:g} s"]
    failed = [line.split(" - ")[0].split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode and not failed:
        failed = [f"pytest exited {run.returncode}: {run.stdout[-300:]}{run.stderr[-300:]}"]
    return failed


def main() -> int:
    with sigterm_exits(), tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        extract(base)
        start = time.monotonic()
        failed = failing_tests(base, BASE_LIMIT)
        if failed:
            print("the unchanged tree of HEAD fails:", *failed, sep="\n  ")
            return 1
        limit = max(MIN_LIMIT, round(10 * (time.monotonic() - start)))
        missed = []
        for i, fault in enumerate(FAULTS):
            root = Path(tmp, str(i))
            extract(root)
            apply(fault, root)
            caught = failing_tests(root, limit)
            print(f"{fault.name} ({fault.path}): {fault.why}")
            print(f"  caught by {len(caught)}:" if caught else "  NOT CAUGHT", *caught,
                  sep="\n    ", flush=True)
            if not caught:
                missed.append(fault.name)
    print(f"{len(FAULTS) - len(missed)} of {len(FAULTS)} faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
