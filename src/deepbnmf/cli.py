"""Command line entry point: factorize, compare, render, metrics.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All diagnostics go
to standard error; the only things written to standard out are requested
reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataio import read_matrix, write_matrix, write_mosaic_pgm, write_trace
from .divergence import SUPPORTED_BETAS, check_beta
from .errors import DeepBnmfError
from .metrics import compare_runs, composite_features, hoyer_sparsity, ssc_row_zero_check
from .model import DeepState, LayerSpec, SolverConfig
from .minvol import minvol_factorize
from .solvers import deep_factorize, multilayer_factorize

METHODS = ("multilayer", "deep", "minvol")


class UsageError(Exception):
    pass


def _parse_floats(text, name, count=None):
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"--{name} expects a comma-separated list of numbers")
    if count is not None and len(values) != count:
        raise UsageError(f"--{name} expects {count} values, got {len(values)}")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="deepbnmf",
        description="Deep beta-NMF and minimum-volume deep KL-NMF solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fac = sub.add_parser("factorize", help="run a factorization and write artifacts")
    fac.add_argument("--input", required=True, help="path to the data matrix")
    fac.add_argument("--input-format", choices=("csv", "binary"), default="csv")
    fac.add_argument("--method", choices=METHODS, required=True)
    fac.add_argument("--beta", type=float, choices=SUPPORTED_BETAS, default=1.0)
    fac.add_argument("--ranks", required=True, help="comma-separated layer ranks")
    fac.add_argument("--lambda", dest="lam", default="auto",
                     help="'auto' or comma-separated per-layer weights")
    fac.add_argument("--alpha", default=None,
                     help="comma-separated per-layer volume weights (minvol)")
    fac.add_argument("--delta", type=float, default=0.1)
    fac.add_argument("--rho", type=float, default=100.0)
    fac.add_argument("--admm-iters", type=int, default=50)
    fac.add_argument("--admm-tol", type=float, default=1e-6)
    fac.add_argument("--sweeps", type=int, default=200)
    fac.add_argument("--warm-sweeps", type=int, default=100)
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--rel-obj-tol", type=float, default=0.0,
                     help="early stop on relative objective change (0 disables)")
    fac.add_argument("--timing", action="store_true",
                     help="record wall time in the trace (breaks byte-level "
                          "reproducibility of trace files)")
    fac.add_argument("--out", required=True, help="output directory")

    cmp_ = sub.add_parser("compare", help="compare two factorization runs")
    cmp_.add_argument("--deep", required=True, help="run directory of the deep run")
    cmp_.add_argument("--baseline", required=True, help="run directory of the baseline")
    cmp_.add_argument("--out", default=None, help="write CSV here instead of stdout")

    ren = sub.add_parser("render", help="render layer features as a PGM mosaic")
    ren.add_argument("--factors", required=True, help="run directory with factors")
    ren.add_argument("--layer", type=int, required=True)
    ren.add_argument("--tile", required=True, help="tile size HxW")
    ren.add_argument("--grid", type=int, required=True, help="tiles per mosaic row")
    ren.add_argument("--out", default=None, help="output PGM path")

    met = sub.add_parser("metrics", help="Hoyer sparsity and scatteredness reports")
    met.add_argument("--h-file", required=True, help="matrix file (csv or binary)")
    met.add_argument("--format", choices=("csv", "binary"), default=None,
                     help="override format detection by extension")
    return parser


def _resolve_layers(args):
    ranks = []
    try:
        ranks = [int(tok) for tok in args.ranks.split(",") if tok != ""]
    except ValueError:
        raise UsageError("--ranks expects a comma-separated list of integers")
    if not ranks:
        raise UsageError("--ranks must name at least one rank")
    if args.lam == "auto":
        lams = [None] * len(ranks)
    else:
        lams = _parse_floats(args.lam, "lambda", len(ranks))
    if args.alpha is None:
        alphas = [0.0] * len(ranks)
        if args.method == "minvol":
            raise UsageError("--alpha is required for the minvol method")
    else:
        alphas = _parse_floats(args.alpha, "alpha", len(ranks))
        if args.method != "minvol":
            print("note: --alpha is only used by the minvol method", file=sys.stderr)
    return [LayerSpec(rank=r, lam=l, alpha=a) for r, l, a in zip(ranks, lams, alphas)]


def _write_manifest(path, entries):
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


def _read_manifest(path):
    entries = {}
    with open(path) as fh:
        for line in fh:
            if " = " in line:
                key, value = line.rstrip("\n").split(" = ", 1)
                entries[key] = value
    return entries


def _cmd_factorize(args):
    if args.method == "minvol" and args.beta != 1.0:
        raise UsageError("the minvol method requires beta = 1")
    layers = _resolve_layers(args)
    config = SolverConfig(
        beta=args.beta,
        layers=layers,
        delta=args.delta,
        rho=args.rho,
        admm_max_iter=args.admm_iters,
        admm_tol=args.admm_tol,
        max_sweeps=args.sweeps,
        warm_start_sweeps=args.warm_sweeps,
        seed=args.seed,
        rel_obj_tol=args.rel_obj_tol,
    )
    X = read_matrix(args.input, args.input_format)
    if args.method == "multilayer":
        state, trace = multilayer_factorize(X, config)
    elif args.method == "deep":
        state, trace = deep_factorize(X, config)
    else:
        state, trace = minvol_factorize(X, config)
    resolved_lams = trace.lambdas
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(X, out / "X.bin", "binary")
    for i, (w, h) in enumerate(zip(state.W, state.H), start=1):
        write_matrix(w, out / f"W_{i}.bin", "binary")
        write_matrix(h, out / f"H_{i}.bin", "binary")
    write_trace(trace, out / "trace.csv", timing=args.timing)
    manifest = {
        "input": args.input,
        "input_format": args.input_format,
        "method": args.method,
        "beta": args.beta,
        "ranks": ",".join(str(s.rank) for s in layers),
        "lambda": ",".join(f"{v:.17g}" for v in resolved_lams),
        "alpha": ",".join(f"{s.alpha:.17g}" for s in layers),
        "delta": config.delta,
        "rho": config.rho,
        "admm_iters": config.admm_max_iter,
        "admm_tol": config.admm_tol,
        "sweeps": config.max_sweeps,
        "warm_sweeps": config.warm_start_sweeps,
        "seed": config.seed,
        "rel_obj_tol": config.rel_obj_tol,
        "timing": args.timing,
        "out": str(out),
    }
    _write_manifest(out / "manifest.txt", manifest)
    print(f"wrote {2 * state.num_layers + 1} factor files and trace to {out}", file=sys.stderr)
    return 0


def _load_run(run_dir):
    run_dir = Path(run_dir)
    manifest = _read_manifest(run_dir / "manifest.txt")
    X = read_matrix(run_dir / "X.bin", "binary")
    W, H = [], []
    i = 1
    while (run_dir / f"W_{i}.bin").exists():
        W.append(read_matrix(run_dir / f"W_{i}.bin", "binary"))
        H.append(read_matrix(run_dir / f"H_{i}.bin", "binary"))
        i += 1
    if not W:
        raise DeepBnmfError(f"no factors found in {run_dir}")
    state = DeepState(X=X, W=W, H=H)
    state.check_dims()
    return state, manifest


def _cmd_compare(args):
    state_a, manifest_a = _load_run(args.deep)
    state_b, manifest_b = _load_run(args.baseline)
    beta = check_beta(manifest_a.get("beta", "1"))
    if manifest_b.get("beta") is not None and check_beta(manifest_b["beta"]) != beta:
        print("warning: runs used different beta values; using the deep run's",
              file=sys.stderr)
    text = compare_runs(state_a, state_b, beta).to_csv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args):
    try:
        tile_h, tile_w = (int(t) for t in args.tile.lower().split("x"))
    except ValueError:
        raise UsageError("--tile expects HxW, e.g. 19x19")
    state, _ = _load_run(args.factors)
    features = composite_features(state, args.layer)
    out = args.out or str(Path(args.factors) / f"layer{args.layer}_features.pgm")
    write_mosaic_pgm(features, tile_h, tile_w, args.grid, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_metrics(args):
    path = Path(args.h_file)
    fmt = args.format or ("binary" if path.suffix == ".bin" else "csv")
    H = read_matrix(path, fmt)
    # Everything is computed before the first write: a bad file prints nothing.
    ssc = ssc_row_zero_check(H)
    sparsity = [hoyer_sparsity(row) for row in H]
    sys.stdout.write("row,hoyer_sparsity,zero_count,ssc_pass\n")
    for i, (value, row) in enumerate(zip(sparsity, ssc.rows)):
        sys.stdout.write(f"{i},{value:.17g},{row.zero_count},{int(row.passes)}\n")
    sys.stdout.write(
        "# contained_pairs: "
        + ";".join(f"{i}<={j}" for i, j in ssc.contained_pairs)
        + "\n"
    )
    return 0


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "factorize":
            return _cmd_factorize(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "render":
            return _cmd_render(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeepBnmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
