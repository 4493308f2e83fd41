"""Command-line entry point: list builtin scenarios, run one, or plot the
curves from aggregate CSVs.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime errors. All
diagnostics go to stderr. EPHEMERA_OUT supplies the default output directory
for ``run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Optional, Sequence

from . import experiment, metrics
from .arena import SetupError
from .experiment import ConfigError, builtin_scenarios, get_scenario, load_config
from .plot import PlotSeries, render_plot


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ephemera",
        description="Foraging-swarm simulator with shared, expiring behavior-tree skills.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("list", help="print the builtin scenarios and their parameters")

    run_p = sub.add_parser("run", help="run a scenario and write per-trial + aggregate CSVs")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="NAME", help="builtin scenario name")
    source.add_argument("--config", metavar="PATH", help="scenario config file")
    run_p.add_argument("--out", metavar="DIR", default=os.environ.get("EPHEMERA_OUT"),
                       help="output directory (default: $EPHEMERA_OUT)")
    run_p.add_argument("--seed", type=int, metavar="N", help="override base_seed")
    run_p.add_argument("--trials", type=positive_int, metavar="K", help="override trial count")
    run_p.add_argument("--jobs", type=positive_int, metavar="J", default=1,
                       help="worker processes for trials (default 1; output is identical)")

    plot_p = sub.add_parser("plot", help="draw one polyline per aggregate CSV into an SVG")
    plot_p.add_argument("--metric", choices=("knowledge", "targets"), default="knowledge")
    plot_p.add_argument("--out", metavar="FILE", required=True, help="output SVG path")
    plot_p.add_argument("csvs", nargs="+", metavar="CSV", help="aggregate CSV files")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plot(args)
    # BrokenProcessPool: a --jobs worker died mid-trial, as under the OOM killer.
    # MemoryError: the arena's arrays do not fit, as for a very large board.
    except (ConfigError, SetupError, ValueError, OSError, BrokenProcessPool,
            MemoryError) as exc:
        print(f"ephemera: error: {exc}", file=sys.stderr)
        return 2


def _cmd_list() -> int:
    for cfg in builtin_scenarios():
        size = "unlimited" if cfg.memory_size is None else str(cfg.memory_size)
        robots = ",".join(str(c) for c in cfg.robot_counts)
        print(
            f"{cfg.name:<4} robots(I,M,R,G,Y,B)=({robots}) targets={cfg.targets_per_color}x4 "
            f"duration={cfg.memory_duration} size={size} "
            f"learning={'on' if cfg.learning_enabled else 'off'} "
            f"iterations={cfg.max_iterations} trials={cfg.trials}"
        )
    return 0


def _cmd_run(args) -> int:
    if args.scenario is not None:
        try:
            config = get_scenario(args.scenario)
        except KeyError as exc:
            print(f"ephemera: error: {exc.args[0]}", file=sys.stderr)
            return 1
    else:
        config = load_config(args.config)
    if not args.out:  # unset, or set to the empty string
        print("ephemera: error: no output directory (--out or EPHEMERA_OUT)", file=sys.stderr)
        return 1
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if overrides:
        config = dataclasses.replace(config, **overrides)
    rows = experiment.run_scenario(config, args.out, jobs=args.jobs)
    last = rows[-1]
    print(
        f"{config.name}: {config.trials} trials -> {args.out} "
        f"({config.trials + 1} CSV files); final mean captures "
        f"{last.mean_captured:.1f}, mean knowledge {last.mean_knowledge:.1f}%"
    )
    return 0


def _cmd_plot(args) -> int:
    series = []
    for csv_path in args.csvs:
        rows = metrics.read_aggregate_csv(csv_path)
        xs = [row.t for row in rows]
        if args.metric == "knowledge":
            ys = [row.mean_knowledge for row in rows]
        else:
            ys = [row.mean_captured for row in rows]
        series.append(PlotSeries(Path(csv_path).stem, xs, ys))
    if args.metric == "knowledge":
        title, y_label = "Mean group knowledge over time", "knowledge (%)"
    else:
        title, y_label = "Mean targets captured over time", "targets captured"
    render_plot(series, title, args.out, x_label="iteration", y_label=y_label)
    print(f"wrote {args.out}")
    return 0


def entrypoint() -> None:
    sys.exit(main())
