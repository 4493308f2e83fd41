"""The seeded-fault script (``tests/faults.py``) without its long runs: its
table matches the working tree, a run that does not end is bounded, and
SIGTERM leaves no run or copy behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import faults


@pytest.mark.parametrize("fault", faults.FAULTS, ids=[f.name for f in faults.FAULTS])
def test_fault_old_text_occurs_once_in_the_working_tree(fault):
    text = (faults.REPO / fault.path).read_text()
    assert text.count(fault.old) == 1
    assert fault.new != fault.old


def test_pytest_command_fixes_the_hypothesis_seed():
    assert f"--hypothesis-seed={faults.HYPOTHESIS_SEED}" in faults.pytest_command()


def test_pytest_command_leaves_out_the_table_check():
    # In a faulted copy the table check fails by construction, for every fault.
    assert "--ignore=tests/test_faults.py" in faults.pytest_command()


def _stub(monkeypatch, base_times_out: bool) -> list:
    """Stub the copies and the pytest runs: the unchanged copy's run passes
    at once unless ``base_times_out``, every faulted copy's run overruns.
    Returns the time limit of each run, in order."""
    limits = []

    def run(command, cwd, timeout, **kwargs):
        assert command == faults.pytest_command()
        limits.append(timeout)
        if cwd.name != "base" or base_times_out:
            raise subprocess.TimeoutExpired(command, timeout)
        return subprocess.CompletedProcess(command, 0, stdout="", stderr="")

    monkeypatch.setattr(faults, "extract", lambda into: into.mkdir())
    monkeypatch.setattr(faults, "apply", lambda fault, root: None)
    monkeypatch.setattr(faults, "run_child", run)
    return limits


def test_a_faulted_copy_that_overruns_is_caught(monkeypatch, capsys):
    limits = _stub(monkeypatch, base_times_out=False)
    assert faults.main() == 0
    out = capsys.readouterr().out
    # The unchanged copy took no time, so each fault gets the least limit.
    assert limits == [faults.BASE_LIMIT] + [faults.MIN_LIMIT] * len(faults.FAULTS)
    caught = f"  caught by 1:\n    timed out after {faults.MIN_LIMIT} s\n"
    assert out.count(caught) == len(faults.FAULTS)
    assert f"{len(faults.FAULTS)} of {len(faults.FAULTS)} faults caught" in out


def test_an_unchanged_copy_that_overruns_fails_the_script(monkeypatch, capsys):
    limits = _stub(monkeypatch, base_times_out=True)
    assert faults.main() == 1
    assert limits == [faults.BASE_LIMIT]
    out = capsys.readouterr().out
    assert f"the unchanged tree of HEAD fails:\n  timed out after {faults.BASE_LIMIT} s" in out


# Stands in for a script's child: starts a grandchild, writes "PID
# GRANDCHILD_PID" to the file named by $SLEEPER_PIDS, then sleeps.
SLEEPER = """\
import os, subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
path = os.environ["SLEEPER_PIDS"]
with open(path + ".part", "w") as f:
    f.write(f"{os.getpid()} {grandchild.pid}")
os.replace(path + ".part", path)
time.sleep(60)
"""


def alive(pid: int) -> bool:
    """Whether process ``pid`` runs; a zombie not yet reaped does not."""
    try:
        os.kill(pid, 0)
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def assert_sigterm_cleans_up(tmp_path, code: str, pythonpath: Path) -> None:
    """Run ``code`` in a subprocess, with ``pythonpath`` on its path and its
    temporary directories under ``tmp_path``. ``code`` calls a script's
    ``main`` with the child stubbed as :data:`SLEEPER`, whose script it
    finds at ``sleeper``. Once the sleeper has written its PIDs, send
    SIGTERM, and assert that the run exits non-zero within seconds, that no
    recorded process is left alive and that the temporary directory is
    gone."""
    sleeper, pids, tmp = tmp_path / "sleeper.py", tmp_path / "pids", tmp_path / "tmp"
    sleeper.write_text(SLEEPER)
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), SLEEPER_PIDS=str(pids),
               PYTHONPATH=os.pathsep.join([str(pythonpath), os.environ.get("PYTHONPATH", "")]))
    code = f"sleeper = {str(sleeper)!r}\n" + code
    with subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        deadline = time.monotonic() + 60
        while not pids.exists() and run.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pids.exists(), run.communicate(timeout=10)
        run.send_signal(signal.SIGTERM)
        _, err = run.communicate(timeout=10)
    assert run.returncode != 0, err
    recorded = [int(pid) for pid in pids.read_text().split()]
    deadline = time.monotonic() + 5
    while any(map(alive, recorded)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in recorded if alive(pid)]
    for pid in left:  # so that a failure leaves no sleeper behind
        os.kill(pid, signal.SIGKILL)
    assert not left, left
    assert list(tmp.iterdir()) == []


def test_sigterm_ends_the_copies_runs_and_removes_the_copies(tmp_path):
    code = ("import sys, faults\n"
            "faults.extract = lambda into: into.mkdir()\n"
            "faults.pytest_command = lambda: [sys.executable, sleeper]\n"
            "sys.exit(faults.main())\n")
    assert_sigterm_cleans_up(tmp_path, code, faults.REPO / "tests")
