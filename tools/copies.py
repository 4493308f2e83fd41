"""Copies of a revision's tree, and child processes run in them that are
ended with the script: the helpers of ``tests/faults.py`` and
``tools/compare.py``.

A script wraps its work in :func:`sigterm_exits` and a
``tempfile.TemporaryDirectory``, so that SIGTERM kills the running child's
process group and removes the copies before the script exits.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def extract(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` (tracked files only) into the new
    directory ``into``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


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
    pool workers, ``ephemera run --jobs 2``'s workers and ``python -O``
    subprocesses too) is killed on the way out: on return, on a timeout, or
    on SystemExit from SIGTERM."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True, **popen) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
    return subprocess.CompletedProcess(args, child.returncode, out, err)
