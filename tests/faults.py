"""Seeded faults: show that the quick suite catches each one.

Each fault is a small edit that makes the program wrong: a file, its exact
old text (which must match once), the new text, and why the result is
wrong. For each fault the script extracts a copy of the tree of ``HEAD``
with ``git archive`` (so commit first), applies the edit and runs
``pytest -m "not slow"`` in the copy. The unchanged copy is run first and
must pass. The script exits non-zero unless every fault fails at least one
test, and prints the tests that caught each fault. When a change moves the
code a fault edits, the fault's old text no longer matches and the script
fails until the fault is aimed again.

    python tests/faults.py

Each run of the quick suite takes about half a minute on two cores. pytest
does not collect this file (it is not ``test_*.py``), so it is not part of
the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
ARENA = "src/ephemera/arena.py"
PROTOCOL = "src/ephemera/protocol.py"
KNOWLEDGE = "src/ephemera/knowledge.py"


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
          "np.packbits(self._near <= self._radius",
          "np.packbits(self._near < self._radius",
          "an agent does not see a target exactly at the sense radius"),
    Fault("expiry-one-step-late", KNOWLEDGE,
          "self.learned_at[first:stop] <= now - self.duration",
          "self.learned_at[first:stop] < now - self.duration",
          "a learned skill is forgotten one step after its duration has run out"),
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


def failing_tests(root: Path) -> list[str]:
    """The tests of the quick suite that fail or error in the copy ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "not slow", "-q", "-rfE", "-p", "no:cacheprovider"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = [line.split(" - ")[0].split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode and not failed:
        failed = [f"pytest exited {run.returncode}: {run.stdout[-300:]}{run.stderr[-300:]}"]
    return failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        extract(base)
        failed = failing_tests(base)
        if failed:
            print("the unchanged tree of HEAD fails:", *failed, sep="\n  ")
            return 1
        missed = []
        for i, fault in enumerate(FAULTS):
            root = Path(tmp, str(i))
            extract(root)
            apply(fault, root)
            caught = failing_tests(root)
            print(f"{fault.name} ({fault.path}): {fault.why}")
            print(f"  caught by {len(caught)}:" if caught else "  NOT CAUGHT", *caught,
                  sep="\n    ", flush=True)
            if not caught:
                missed.append(fault.name)
    print(f"{len(FAULTS) - len(missed)} of {len(FAULTS)} faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
