"""Benchmark workloads: input generators, solver calls and correctness gates.

The generators rebuild the synthetic data of the acceptance suite (the sparse
chain of criterion 9 and the hyperspectral mixture of criterion 8) so that a
seed here produces the same matrix as the same seed there.  Solvers receive
only the generated arrays (or, for the CLI workload, a binary file written
during set-up).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

# Slack of the deep solver's own monotonicity check (deepbnmf.solvers).
DEEP_REL_SLACK = 1e-10
SIMPLEX_TOL = 1e-8


def sparse_simplex_rows(rng, rows, cols, density):
    H = np.zeros((rows, cols))
    k = max(2, int(density * cols))
    for i in range(rows):
        idx = rng.choice(cols, size=k, replace=False)
        H[i, idx] = rng.uniform(0.2, 1.0, size=k)
        H[i] /= H[i].sum()
    return H


def sparse_chain_data(seed, m=200, n=100, ranks=(20, 10, 5)):
    """Exactly factorizable data from a sparse three-layer chain."""
    rng = np.random.default_rng(seed)
    W3 = rng.uniform(0.1, 1.0, (m, ranks[2]))
    H3 = sparse_simplex_rows(rng, ranks[2], ranks[1], 0.4)
    H2 = sparse_simplex_rows(rng, ranks[1], ranks[0], 0.35)
    H1 = sparse_simplex_rows(rng, ranks[0], n, 0.3)
    return (W3 @ H3 @ H2) @ H1


def hyperspectral_mixture(seed, scale=0.12, bands=20, pixels=2500, r=3):
    """Linear mixture of r smooth spectra with Dirichlet abundances."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, bands)
    centers = np.linspace(0.2, 0.8, r) + rng.uniform(-0.05, 0.05, r)
    S = np.empty((bands, r))
    for k in range(r):
        width = rng.uniform(0.08, 0.14)
        S[:, k] = 0.15 + np.exp(-0.5 * ((grid - centers[k]) / width) ** 2)
        S[:, k] += 0.1 * rng.uniform(size=bands)
    S /= S.sum(axis=0, keepdims=True)
    abundances = rng.dirichlet(0.25 * np.ones(r), size=pixels).T
    return scale * (S @ abundances)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "deep", "minvol" or "cli" (deep KL through the CLI)
    beta: float
    ranks: Tuple[int, ...]
    warm_sweeps: int
    sweeps: int
    data: Callable[[int], np.ndarray]
    init_seed: int  # the solver's own seed, fixed: --seed only draws the data
    draws: int  # data sets per run, so one unusual draw cannot move the medians

    def data_seeds(self, seed: int) -> List[int]:
        """Seeds of the data sets a run with ``--seed seed`` solves."""
        return [seed * self.draws + j for j in range(self.draws)]


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep_kl_chain", "deep", 1.0, (20, 10, 5), 200, 200,
                 sparse_chain_data, init_seed=0, draws=10),
        Workload("deep_half_chain", "deep", 0.5, (20, 10, 5), 200, 200,
                 sparse_chain_data, init_seed=0, draws=7),
        Workload("minvol_hsi", "minvol", 1.0, (3, 2), 100, 300,
                 hyperspectral_mixture, init_seed=2, draws=6),
        Workload("minvol_hsi_raw", "minvol", 1.0, (3, 2), 100, 100,
                 lambda seed: 1e4 * hyperspectral_mixture(seed), init_seed=1, draws=4),
        Workload("cli_deep_kl_large", "cli", 1.0, (50, 20, 10), 20, 100,
                 lambda seed: sparse_chain_data(seed, m=1000, n=500, ranks=(50, 20, 10)),
                 init_seed=0, draws=4),
    )
}

# Shapes and sweep counts of the --tiny variants used by the smoke test.
_TINY_CHAIN = dict(m=30, n=16, ranks=(8, 5, 3))


def tiny(workload: Workload) -> Workload:
    if workload.method == "minvol":
        scale = 1e4 if workload.name.endswith("_raw") else 1.0
        data = lambda seed: scale * hyperspectral_mixture(seed, pixels=60)
        return replace(workload, data=data, warm_sweeps=2, sweeps=3, draws=2)
    data = lambda seed: sparse_chain_data(seed, **_TINY_CHAIN)
    return replace(workload, data=data, ranks=_TINY_CHAIN["ranks"], warm_sweeps=2, sweeps=3,
                   draws=2)


@dataclass
class Outcome:
    """What one solve left behind, read back after the timed call."""

    objectives: np.ndarray
    sweep_seconds: np.ndarray
    max_residuals: np.ndarray
    lambdas: List[float]
    W: List[np.ndarray]
    H: List[np.ndarray]

    def trace_hash(self) -> str:
        """SHA-256 of the per-sweep objectives as little-endian float64."""
        return hashlib.sha256(self.objectives.astype("<f8").tobytes()).hexdigest()


class Runner:
    """Builds one workload's solver call and reads back its outcome."""

    def __init__(self, workload: Workload, X: np.ndarray, work_dir: Path):
        import deepbnmf.cli
        import deepbnmf.minvol
        import deepbnmf.solvers
        from deepbnmf.model import LayerSpec, SolverConfig

        self.workload = workload
        self.X = X
        if workload.method == "minvol":
            layers = [LayerSpec(3, alpha=0.5), LayerSpec(2, alpha=0.1)]
            self.config = SolverConfig(
                beta=1.0, layers=layers, delta=0.1, rho=100.0, admm_max_iter=50,
                admm_tol=1e-6, max_sweeps=workload.sweeps,
                warm_start_sweeps=workload.warm_sweeps, seed=workload.init_seed,
            )
        else:
            self.config = SolverConfig(
                beta=workload.beta, layers=[LayerSpec(r) for r in workload.ranks],
                max_sweeps=workload.sweeps, warm_start_sweeps=workload.warm_sweeps,
                seed=workload.init_seed,
            )
        self.input_path = work_dir / "X.bin"
        self.out_dir = work_dir / "out"
        self._modules = {
            "deep": (deepbnmf.solvers, "deep_factorize"),
            "minvol": (deepbnmf.minvol, "minvol_factorize"),
            "cli": (deepbnmf.cli, "run_command"),
        }

    def write_input(self):
        from deepbnmf.dataio import write_matrix

        write_matrix(self.X, self.input_path, "binary")

    def cli_args(self, warm_sweeps: int, sweeps: int) -> List[str]:
        w = self.workload
        return [
            "factorize", "--input", str(self.input_path), "--input-format", "binary",
            "--method", "deep", "--beta", f"{w.beta:g}",
            "--ranks", ",".join(str(r) for r in w.ranks), "--lambda", "auto",
            "--sweeps", str(sweeps), "--warm-sweeps", str(warm_sweeps),
            "--seed", str(self.workload.init_seed), "--timing", "--out", str(self.out_dir),
        ]

    def call(self, warm_sweeps: Optional[int] = None, sweeps: Optional[int] = None):
        """The timed solver call; the warm-up passes shorter sweep counts.  The
        entry point is looked up at call time, so a tracer that has replaced
        it sees the call."""
        config = self.config
        if warm_sweeps is not None:
            config = replace(config, warm_start_sweeps=warm_sweeps, max_sweeps=sweeps)
        module, name = self._modules[self.workload.method]
        entry = getattr(module, name)
        if self.workload.method != "cli":
            return entry(self.X, config)
        # The CLI reports progress on stderr; keep it for failure messages.
        self.cli_stderr = io.StringIO()
        with contextlib.redirect_stderr(self.cli_stderr):
            return entry(self.cli_args(config.warm_start_sweeps, config.max_sweeps))

    def outcome(self, returned) -> Outcome:
        if self.workload.method == "cli":
            from deepbnmf.dataio import read_matrix, read_trace

            if returned != 0:
                raise RuntimeError(
                    f"deepbnmf factorize exited with code {returned}: "
                    f"{self.cli_stderr.getvalue().strip()}"
                )
            trace = read_trace(self.out_dir / "trace.csv")
            layers = range(1, len(self.workload.ranks) + 1)
            W = [read_matrix(self.out_dir / f"W_{i}.bin", "binary") for i in layers]
            H = [read_matrix(self.out_dir / f"H_{i}.bin", "binary") for i in layers]
            lambdas = None
        else:
            state, trace = returned
            W, H, lambdas = state.W, state.H, trace.lambdas
        return Outcome(
            objectives=trace.objectives(),
            sweep_seconds=np.array([r.seconds for r in trace.records]),
            max_residuals=trace.max_residuals(),
            lambdas=lambdas,
            W=W,
            H=H,
        )

    def check(self, out: Outcome, reference: Optional[dict]) -> List[str]:
        """Correctness gate of one solve; returns the failed checks."""
        problems = []
        obj = out.objectives
        if len(obj) != self.workload.sweeps or not np.all(np.isfinite(obj)):
            return [f"expected {self.workload.sweeps} finite objectives, got {obj!r}"]
        if self.workload.method == "minvol":
            slack = np.full(len(obj) - 1, 10.0 * self.config.admm_tol * (
                sum(self.config.alphas()) + sum(out.lambdas)))
            residuals = [np.abs(w.sum(axis=0) - 1.0).max() for w in out.W]
        else:
            slack = DEEP_REL_SLACK * np.maximum(1.0, np.abs(obj[:-1]))
            residuals = [np.abs(h.sum(axis=1) - 1.0).max() for h in out.H]
        rises = np.flatnonzero(obj[1:] > obj[:-1] + slack)
        if rises.size:
            k = int(rises[0])
            problems.append(f"objective rose at sweep {k + 1}: {obj[k]!r} -> {obj[k + 1]!r}")
        if max(residuals) > SIMPLEX_TOL or out.max_residuals.max() > SIMPLEX_TOL:
            problems.append(
                f"simplex residual {max(max(residuals), out.max_residuals.max())!r} "
                f"exceeds {SIMPLEX_TOL}"
            )
        if not all(np.all(np.isfinite(m)) and np.all(m > 0) for m in out.W + out.H):
            problems.append("a factor has a non-finite or nonpositive entry")
        if reference is not None:
            problems += check_reference(obj[-1], reference)
        return problems


def check_reference(final: float, reference: dict) -> List[str]:
    """Compare a final objective with the stored reference for its seed, or,
    for a seed outside the table, with the band the table spans."""
    if "value" in reference:
        rel = abs(final - reference["value"]) / abs(reference["value"])
        if rel > reference["rel_tol"]:
            return [
                f"final objective {final!r} differs from reference "
                f"{reference['value']!r} by {rel:.3g} (tolerance {reference['rel_tol']})"
            ]
        return []
    lo, hi = reference["band"]
    if not lo <= final <= hi:
        return [f"final objective {final!r} outside the reference band [{lo}, {hi}]"]
    return []
