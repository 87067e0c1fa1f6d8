"""Regenerate reference.json: the final objective of every data set a run
with one of the listed seeds solves.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter results, and say so with the
change.  Runs with other seeds check against the band the table spans.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import run

RUN_SEEDS = list(range(10))
HELD_OUT_SEED = 1009  # kept out of tuning; verify claims on it (see README.md)
REL_TOL = 1e-6


def main():
    run.pin_environment()
    run.import_package()
    from workloads import WORKLOADS, Runner

    table = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in run.WORKLOAD_NAMES:
            workload = WORKLOADS[name]
            table[name] = {}
            for seed in RUN_SEEDS + [HELD_OUT_SEED]:
                for data_seed in workload.data_seeds(seed):
                    runner = Runner(workload, workload.data(data_seed), Path(tmp))
                    if workload.method == "cli":
                        runner.write_input()
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        out = runner.outcome(runner.call())
                    problems = runner.check(out, None)
                    if problems:
                        sys.exit(f"{name} data seed {data_seed}: {problems}")
                    table[name][str(data_seed)] = float(out.objectives[-1])
            print(f"{name}: {len(table[name])} data sets", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"rel_tol": REL_TOL, "final_objective": table}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
