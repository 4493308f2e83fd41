"""Run the ephemera command line with the layer tracer installed.

usage: python3 bench/traced_cli.py TRACE_OUT OUTSIDE_S <ephemera arguments>

Writes this process's span summary to TRACE_OUT and each pool worker's to
TRACE_OUT.<pid>. Workers are forked from this process, so they inherit the
wrappers; each resets the copied totals at its first trial and rewrites its
file after every trial. OUTSIDE_S is the calibrated wrapper cost from
``Tracer.calibrate`` in the calling process.
"""

from __future__ import annotations

import functools
import os
import sys

import tracing


def main() -> int:
    trace_out, outside_s, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    from ephemera import arena, cli, experiment, knowledge, metrics, protocol, rng

    tracer = tracing.Tracer()
    tracer.outside_s = outside_s
    tracer.install({"arena": arena, "experiment": experiment, "knowledge": knowledge,
                    "metrics": metrics, "protocol": protocol, "rng": rng})
    traced_trial = experiment.run_trial
    owner = [os.getpid()]
    parent = owner[0]

    # pool.map pickles run_trial by name, so the replacement keeps the
    # original's module and qualified name and is found again in the worker.
    @functools.wraps(traced_trial)
    def run_trial(config, trial_index):
        pid = os.getpid()
        if pid != owner[0]:
            tracer.reset()
            owner[0] = pid
        result = traced_trial(config, trial_index)
        if pid != parent:
            tracer.dump(f"{trace_out}.{pid}")
        return result

    experiment.run_trial = run_trial
    code = cli.main(argv)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
