"""Count how often each fast path of the step is taken, per workload.

usage: python3 tools/fastpaths.py [--seed S]

Run from anywhere inside the repository. The script runs one round of the
trials of ``paper-sweep``, ``skill-churn`` and ``crowd``, as
``bench/workloads.py`` builds them for the seed (default 1), in this
process under the stdlib ``trace`` line counter, and prints a markdown
table: for each fast path, how often it was taken over how often it could
have been. Each count is the count of the last line of a text that must
occur once in its module, so the script fails when the code it counts has
changed. The three rounds take about 5 s on two cores.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import trace
from pathlib import Path
from types import SimpleNamespace

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
import workloads  # noqa: E402
from ephemera import arena, experiment, knowledge, protocol  # noqa: E402

WORKLOADS = ("paper-sweep", "skill-churn", "crowd")
SENSE = (arena, "every = len(rows) == len(parked)")
RESOLVE_LOOP = (protocol, "if d < lapse and not known.item(r) >> c & 1:")
COLLECT_WALK = (arena, "for p, i, t, dt in zip(range(len(k)), rows.tolist(), k.tolist(),"
                       " d.tolist()):")
COLLECT_BODY = (arena, "if t in self._captured:")

# Per fast path: its name, what it is counted over, and the lines whose
# counts sum to how often it was taken and how often it could have been,
# as (module, text, weight). A ``for`` line counts once per iteration and
# once more at the end, so a walk entered is that line less its body.
PATHS = (
    ("every row sensed (`every`)", "steps",
     [(arena, "rows = slice(None)", 1)], [(*SENSE, 1)]),
    ("un-park check", "steps",
     [(arena, "tx, ty = self._cat_x[captured], self._cat_y[captured]", 1)], [(*SENSE, 1)]),
    ("expiry skipped (`next_expiry`)", "calls",
     [(knowledge, "if now < self.next_expiry:\n            return [], []", 1)],
     [(knowledge, "if now < self.next_expiry:", 1)]),
    ("resolve: no query in reach", "calls",
     [(protocol, "if dists.min() >= lapse:  # no query is answered, so no one learns\n"
                 "        return deliveries", 1)],
     [(protocol, "dists, ids = _nearest_knowers(xs, ys, known, queriers, colors, lapse)", 1)]),
    ("responder searched again", "queries",
     [(protocol, "ds, rs = _nearest_knowers(xs, ys, known, np.array([q]), np.array([c]), lapse)",
       1)], [(*RESOLVE_LOOP, 1)]),
    ("learner scan: learners compared", "queries",
     [(protocol, "e = max(abs(px - x), abs(py - y))", 1)], [(*RESOLVE_LOOP, 1)]),
    ("Collect conflict walk", "calls",
     [(*COLLECT_WALK, 1), (*COLLECT_BODY, -1)], [(arena, "if not d.all():", 1)]),
)


def line_of(module, text: str) -> tuple[str, int]:
    """The file and number of the last line of ``text`` in ``module``."""
    source = Path(module.__file__).read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{module.__name__}: {text!r} does not occur once")
    return module.__file__, source[:source.index(text)].count("\n") + text.count("\n") + 1


def count_round(name: str, seed: int) -> dict:
    """Line counts of one round of the workload ``name``."""
    ep = SimpleNamespace(experiment=experiment)
    with tempfile.TemporaryDirectory() as workdir:
        configs = workloads.CONFIGS[name](ep, seed, Path(workdir))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    for config in configs:
        tracer.runfunc(experiment.run_trials, config)
    return tracer.results().counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    lines = {(m, text): line_of(m, text) for *_, taken, of in PATHS
             for m, text, _ in (*taken, *of)}
    counts = {name: count_round(name, args.seed) for name in WORKLOADS}

    def total(spec, name):
        return sum(w * counts[name].get(lines[m, text], 0) for m, text, w in spec)

    print(f"| fast path: taken/of | {' | '.join(WORKLOADS)} |")
    print(f"|---|{'---|' * len(WORKLOADS)}")
    for label, unit, taken, of in PATHS:
        cells = [f"{total(taken, n)}/{total(of, n)}" for n in WORKLOADS]
        print(f"| {label}, of {unit} | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
