"""``tools/fastpaths.py`` without its traced rounds: every line it counts
occurs once in the working tree, so a change that moves one fails here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fastpaths  # noqa: E402


def test_every_counted_line_occurs_once():
    for *_, taken, of in fastpaths.PATHS:
        for module, text, _ in (*taken, *of):
            fastpaths.line_of(module, text)  # SystemExit unless it occurs once
