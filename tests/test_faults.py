"""The seeded-fault script (``tests/faults.py``) without its long runs: its
table matches the working tree, and a run that does not end is bounded."""

import subprocess

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
    monkeypatch.setattr(faults.subprocess, "run", run)
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
