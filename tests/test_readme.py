"""The README's "Library use" block runs as written, so an API change that
leaves the README stale fails the quick suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= 4
