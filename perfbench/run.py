"""Reference benchmark of deepbnmf.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload deep_kl_chain --seed 3 --seconds 20 --trace 0

A run solves the workload's data sets for ``--seed`` (see workloads.py) in
whole passes, starting another pass only while it should end within
``--seconds`` (the first pass always runs).  ``--trace 0`` times every solve
with tracing off and reports the end-to-end metrics.  ``--trace 1`` solves
each data set untraced and then traced, and reports the per-layer metrics of
the traced solves (see tracer.py).  Every solve passes through the
correctness gate of workloads.py; a solve that raises or fails a check counts
as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run's environment, sample counts, raw times and objective-trace
hash; that record, with the spans of traced runs, is also written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# Same names as workloads.WORKLOADS, which cannot be imported before BLAS
# threading is pinned (it imports numpy).
WORKLOAD_NAMES = (
    "deep_kl_chain", "deep_half_chain", "minvol_hsi", "minvol_hsi_raw", "cli_deep_kl_large",
)
# One BLAS thread: the matrices are small enough that threading only adds
# noise, and it keeps results bitwise reproducible.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# A traced pass covers only the first data sets, which keeps a traced run
# about as long as an untraced one.
TRACE_DRAWS = 3
STALL_WARNING = re.compile(
    r"(\d+) inner ADMM solves stopped at the iteration cap .*\((\d+) of them rejected"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few sweeps on small inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment():
    """Fix BLAS threading before numpy loads; keep row threading at its default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("DBNMF_THREADS", None)


def import_package():
    """Import deepbnmf from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "deepbnmf" / "__init__.py").is_file():
        raise ImportError(f"no deepbnmf sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import deepbnmf

    if Path(deepbnmf.__file__).resolve().parent != (src / "deepbnmf").resolve():
        raise ImportError(f"imported deepbnmf from {deepbnmf.__file__}, not from {src}")


def build_runners(workload, seed, work_dir):
    """Generate the run's data sets; the CLI workload also writes its input file."""
    from workloads import Runner

    runners = []
    for j, data_seed in enumerate(workload.data_seeds(seed)):
        draw_dir = work_dir / f"draw{j}"
        draw_dir.mkdir(parents=True)
        runner = Runner(workload, workload.data(data_seed), draw_dir)
        if workload.method == "cli":
            runner.write_input()
        runners.append(runner)
    return runners


def time_setup(args, repeats, speed):
    """Scaled wall time of fresh processes that import the package, generate
    the inputs and write them.  Each probe prints its monotonic clock when it
    is done; that clock is shared by all processes on Linux."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    raw, scaled = [], []
    before = speed.sample()
    for _ in range(repeats):
        started = time.perf_counter()
        probe = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        raw.append(float(probe.stdout.split()[-1]) - started)
        after = speed.sample()
        scaled.append(raw[-1] * speed.scale(before, after))
        before = after
    return raw, scaled


def references_for(name, data_seeds):
    """Reference entry of each data set: the stored value for a known seed,
    else the band spanned by all stored seeds (see workloads.check_reference)."""
    table = json.loads((HERE / "reference.json").read_text())
    values = table["final_objective"].get(name, {})
    if not values:
        return [None] * len(data_seeds)
    lo, hi = min(values.values()), max(values.values())
    margin = max(hi - lo, 0.1 * max(abs(lo), abs(hi)))
    return [
        {"value": values[str(s)], "rel_tol": table["rel_tol"]} if str(s) in values
        else {"band": [lo - margin, hi + margin]}
        for s in data_seeds
    ]


def cache_bytes(level):
    """Size of the CPU cache at ``level`` as the kernel reports it, or None."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment(X):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    src_files = sorted((ROOT / "src" / "deepbnmf").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "DBNMF_THREADS": os.environ.get("DBNMF_THREADS", "unset (1)"),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "largest_array_bytes": int(X.nbytes),
        "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
    }


class Tally:
    """Attempted and failed solves of one run, the first failure messages,
    and the objective-trace hash of each data set."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.hashes = {}
        self.finals = {}

    def record(self, problems, draw, out=None):
        self.attempted += 1
        if out is not None:
            first = self.hashes.setdefault(draw, out.trace_hash())
            self.finals.setdefault(draw, float(out.objectives[-1]))
            if out.trace_hash() != first:
                problems = problems + [f"draw {draw}: objective trace differs between solves"]
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])

    def run_hash(self):
        """SHA-256 over the per-data-set hashes, in data-set order."""
        joined = "".join(self.hashes[draw] for draw in sorted(self.hashes))
        return hashlib.sha256(joined.encode()).hexdigest()


def solve_once(runner, reference, tally, draw):
    """One gated solve; returns (wall s, cpu s, outcome, stall counts) or None."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu0, wall0 = time.process_time(), time.perf_counter()
            returned = runner.call()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        out = runner.outcome(returned)
        problems = runner.check(out, reference)
    except Exception as exc:  # a failed solve is counted, and the run goes on
        tally.record([f"draw {draw}: {type(exc).__name__}: {exc}"], draw)
        return None
    tally.record([f"draw {draw}: {p}" for p in problems], draw, out)
    stalled = rejected = 0
    for w in caught:
        match = STALL_WARNING.search(str(w.message))
        if match:
            stalled += int(match.group(1))
            rejected += int(match.group(2))
    return wall, cpu, out, (stalled, rejected)


def run_passes(seconds, one_pass):
    """Whole passes over the data sets; another starts only if a pass as long
    as the last one would end within ``seconds``."""
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if 2 * now - pass_started - started > seconds:
            return


def timed_run(args, runners, references, tally, speed):
    """Untraced solves; times are scaled to nominal host speed (hostspeed.py)."""
    import numpy as np

    raw, walls, cpus, sweeps, stalls = [], [], [], [], []
    before = [speed.sample()]

    def one_pass():
        for draw, (runner, reference) in enumerate(zip(runners, references)):
            solved = solve_once(runner, reference, tally, draw)
            after = speed.sample()
            factor = speed.scale(before[0], after)
            before[0] = after
            if solved is None:
                continue
            wall, cpu, out, stall = solved
            raw.append(wall)
            walls.append(wall * factor)
            cpus.append(cpu * factor)
            sweeps.extend(out.sweep_seconds * factor)
            stalls.append(stall)

    run_passes(args.seconds, one_pass)
    if not walls:
        return None, {}
    metrics = {
        "solve_s": (statistics.median(walls), "s"),
        "solve_cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Per-sweep times mix sweeps whose inner loops stop early with sweeps that
    # run to an iteration cap, so their quantiles move with the data drawn;
    # they are reported here, unbounded, rather than as gated metrics.
    info = {
        "solves": len(walls),
        "solve_s_samples": walls,
        "raw_solve_s": statistics.median(raw),
        "sweep_ms_p50": 1e3 * float(np.percentile(sweeps, 50)),
        "sweep_ms_p90": 1e3 * float(np.percentile(sweeps, 90)),
        "sweep_samples": len(sweeps),
        "admm_stalled_per_solve": statistics.fmean(s[0] for s in stalls),
        "steps_rejected_per_solve": statistics.fmean(s[1] for s in stalls),
    }
    return metrics, info


def traced_run(args, runners, references, tally, speed):
    """Each of the first data sets untraced, then traced; per-layer metrics
    are means over the traced solves, so counts repeat exactly for a seed."""
    from tracer import Tracer, per_layer_metrics, span_records

    untraced, traced, per_solve, records = [], [], [], []
    before = [speed.sample()]

    def one_pass():
        for draw, (runner, reference) in enumerate(zip(runners[:TRACE_DRAWS], references)):
            plain = solve_once(runner, reference, tally, draw)
            middle = speed.sample()
            with Tracer(runner.X.shape[1], runner.workload.ranks) as tracer:
                solved = solve_once(runner, reference, tally, draw)
            after = speed.sample()
            if plain is not None and solved is not None:
                untraced.append(plain[0] * speed.scale(before[0], middle))
                traced.append(solved[0] * speed.scale(middle, after))
                metrics = per_layer_metrics(tracer.spans)
                metrics["minvol.admm_stalled"], metrics["minvol.steps_rejected"] = solved[3]
                metrics["trace.solve_s"] = tracer.spans[0].seconds
                per_solve.append(metrics)
                records.append(span_records(tracer.spans))
            before[0] = after

    run_passes(args.seconds, one_pass)
    if not per_solve:
        return None, {}
    units = {"_s": "s", "_ratio": "ratio", "_ns_per_cell": "ns", "bytes_written": "bytes"}
    metrics = {}
    for name in per_solve[0]:
        mean = statistics.fmean(m[name] for m in per_solve)
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (mean, unit)
    ratio = statistics.fmean(traced) / statistics.fmean(untraced)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    info = {"solves": len(untraced) + len(traced), "traced_solves": len(traced), "spans": records}
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}; run from the root of a deepbnmf checkout", file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, tiny

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            build_runners(workload, args.seed, work_dir)
            print(time.perf_counter())
            return 0
        runners = build_runners(workload, args.seed, work_dir)
        speed = HostSpeed(*runners[0].X.shape, workload.ranks[0])
        if not args.trace:
            raw_setup, setup = time_setup(args, 1 if args.tiny else SETUP_REPEATS, speed)
        data_seeds = workload.data_seeds(args.seed)
        references = (
            [None] * len(data_seeds) if args.tiny else references_for(workload.name, data_seeds)
        )
        # Warm-up: load every code path once before anything is timed.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runners[0].outcome(runners[0].call(warm_sweeps=1, sweeps=1))
        tally = Tally()
        if args.trace:
            metrics, info = traced_run(args, runners, references, tally, speed)
        else:
            metrics, info = timed_run(args, runners, references, tally, speed)
            if metrics is not None:
                metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
                info["raw_setup_s"] = statistics.median(raw_setup)
                info["setup_samples"] = len(setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    spans = info.pop("spans", None)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.messages[:10],
        "reference": [None if r is None else "seed" if "value" in r else "band"
                      for r in references],
        "final_objectives": {data_seeds[d]: v for d, v in sorted(tally.finals.items())},
        "trace_hash": tally.run_hash(),
        **info,
        "host_speed_factor": statistics.median(speed.nominal_s / t for t in speed.samples),
        "env": environment(runners[0].X),
    }
    result = {
        "correct": metrics is not None and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in (metrics or {}).items()
        },
    }
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"info": info, "result": result, "spans": spans}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
