"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS` line (run with `pytest -s` to see
them all); a failure of any assertion fails the corresponding criterion.
All data is synthetic and generated in-process.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import (
    best_permutation_cosine,
    hyperspectral_mixture,
    exact_two_layer_chain,
    sparse_chain_data,
)
from deepbnmf.cli import run_command
from deepbnmf.divergence import SUPPORTED_BETAS, beta_div_matrix
from deepbnmf.metrics import hoyer_sparsity
from deepbnmf.minvol import (
    build_logdet_context,
    minvol_factorize,
    z_min_step,
)
from deepbnmf.model import DeepState, LayerSpec, SolverConfig, logdet_gram
from deepbnmf.solvers import deep_factorize, multilayer_factorize
from deepbnmf.updates import (
    half_inner_cells,
    is_inner_cells,
    kl_inner_cells,
    three_half_inner_cells,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
    InnerWContext,
)
from deepbnmf.scalars import lambert_w0_exp
from oracles import (
    beta_fit_majorizer_value,
    bisect_lambert_exp,
    brute_force_scalar_min,
    check_majorizer,
    logdet_majorizer,
)

SEEDS = range(5)


@pytest.fixture(scope="module")
def deep_runs():
    """Criterion 1/5 workload: 5 betas x 5 seeds of 200 deep sweeps."""
    started = time.time()
    traces = {}
    for beta in SUPPORTED_BETAS:
        for seed in SEEDS:
            X = np.random.default_rng(9000 + seed).uniform(0.0, 1.0, (30, 20))
            cfg = SolverConfig(
                beta=beta,
                layers=[LayerSpec(8), LayerSpec(4), LayerSpec(2)],
                max_sweeps=200,
                warm_start_sweeps=20,
                seed=seed,
            )
            _, trace = deep_factorize(X, cfg)
            traces[(beta, seed)] = trace
    return traces, time.time() - started


@pytest.fixture(scope="module")
def minvol_runs():
    """Criterion 8/5 workload: 5 seeds of min-vol on 20 bands x 2500 pixels."""
    started = time.time()
    results = []
    for seed in SEEDS:
        X, S = hyperspectral_mixture(seed)
        cfg = SolverConfig(
            beta=1.0,
            layers=[LayerSpec(3, alpha=0.5), LayerSpec(2, alpha=0.1)],
            delta=0.1,
            rho=100.0,
            admm_max_iter=50,
            admm_tol=1e-6,
            max_sweeps=300,
            warm_start_sweeps=100,
            seed=seed,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, trace = minvol_factorize(X, cfg)
        slack = 10.0 * cfg.admm_tol * (sum(cfg.alphas()) + sum(trace.lambdas))
        results.append((state, trace, S, slack))
    return results, time.time() - started


def test_criterion_01_monotone_deep_objective(deep_runs):
    traces, elapsed = deep_runs
    worst = -np.inf
    for (beta, seed), trace in traces.items():
        obj = trace.objectives()
        rel = np.diff(obj) / np.maximum(1.0, np.abs(obj[:-1]))
        worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-10), f"beta={beta} seed={seed}"
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS monotone deep objective "
          f"(worst relative increase {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_scalar_update_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.0, 2.0)
        b = rng.uniform(0.5, 2.0)
        w = kl_inner_cells(np.array([b]), np.array([a]), lam)[0]
        phi = lambda t: a * t - b * np.log(t) + lam * (t * np.log(t) - t)
        worst = max(worst, abs(w - brute_force_scalar_min(phi, 1e-4, 200.0)))

        a2, b2, c2 = rng.uniform(0.5, 3.0, 3)
        w = three_half_inner_cells(np.array([a2]), np.array([b2]), np.array([c2]))[0]
        phi = lambda t: (2.0 * a2 / 3.0) * t ** 1.5 - 2.0 * b2 * np.sqrt(t) - c2 * t
        worst = max(worst, abs(w - brute_force_scalar_min(phi, 1e-4, 200.0)))

        a0, c0 = rng.uniform(0.5, 3.0, 2)
        w = is_inner_cells(np.array([a0]), np.array([c0]), lam)[0]
        phi = lambda t: c0 * t - lam * np.log(t) + a0 / t
        worst = max(worst, abs(w - brute_force_scalar_min(phi, 1e-4, 200.0)))

        lam_h = rng.uniform(0.5, 1.0)
        ah = rng.uniform(0.5, 2.0)
        ch = rng.uniform(1.0, 3.0)
        w = half_inner_cells(np.array([ah]), np.array([ch]), lam_h)[0]
        phi = lambda t: ch * t - 4.0 * lam_h * np.sqrt(t) + 2.0 * ah / np.sqrt(t)
        worst = max(worst, abs(w - brute_force_scalar_min(phi, 1e-4, 200.0)))
        assert worst <= 1e-6
    elapsed = time.time() - started
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS scalar updates match brute force "
          f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_lambert_contract():
    xs = np.concatenate([[0.0], np.logspace(-8, 8, 161)])
    with np.errstate(divide="ignore"):
        w = lambert_w0_exp(np.log(xs))
    residual = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
    assert residual.max() <= 1e-12
    log_x = np.linspace(0.0, np.log(1e300), 150)
    oracle = bisect_lambert_exp(log_x)
    agreement = np.abs(lambert_w0_exp(log_x) - oracle) / np.maximum(1.0, np.abs(oracle))
    assert agreement.max() <= 1e-12
    # Relative to the root, from far below 1 to far beyond exp overflow.
    t = np.concatenate([np.linspace(-700.0, 700.0, 2801), np.logspace(np.log10(700.0), 300, 200)])
    oracle = bisect_lambert_exp(t)
    relative = np.abs(lambert_w0_exp(t) - oracle) / oracle
    assert relative.max() <= 1e-14
    print(f"\n[criterion 3] PASS Lambert W contract (identity {residual.max():.2e}, "
          f"oracle agreement {agreement.max():.2e}, relative {relative.max():.2e})")


def test_criterion_04_fixed_points_on_exact_chains():
    worst = 0.0
    for beta in SUPPORTED_BETAS:
        X, W, H = exact_two_layer_chain(17)
        warm = DeepState(X=X, W=[w.copy() for w in W], H=[h.copy() for h in H])
        cfg = SolverConfig(
            beta=beta, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=1, seed=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, _ = deep_factorize(X, cfg, warm=warm)
        for new, old in zip(state.W + state.H, W + H):
            worst = max(worst, float(np.max(np.abs(new - old) / old)))
    assert worst <= 1e-8
    print(f"\n[criterion 4] PASS exact chains are fixed points "
          f"(worst relative move {worst:.2e})")


def test_criterion_05_constraint_contracts(deep_runs, minvol_runs):
    traces, _ = deep_runs
    worst_rows = max(float(t.max_residuals().max()) for t in traces.values())
    assert worst_rows <= 1e-8
    results, _ = minvol_runs
    worst_cols = max(float(trace.max_residuals().max()) for _, trace, _, _ in results)
    assert worst_cols <= 1e-8
    print(f"\n[criterion 5] PASS simplex residuals "
          f"(rows {worst_rows:.2e}, columns {worst_cols:.2e})")


def test_criterion_06_majorizer_suite():
    rng = np.random.default_rng(3)
    W = rng.uniform(0.2, 1.0, (4, 3))
    y = rng.uniform(0.1, 2.0, (4, 1))
    h_ref = rng.uniform(0.2, 1.0, (3, 1))
    for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
        report = check_majorizer(
            f=lambda h, b=beta: beta_div_matrix(y, W @ h, b),
            u=lambda h, ref, b=beta: beta_fit_majorizer_value(W, y, h, ref, b),
            x_ref=h_ref,
            samples=200,
            seed=int(10 * beta),
        )
        assert report.passed, f"beta={beta}: {report}"
    W_ref = rng.uniform(0.1, 1.0, (5, 3))
    A = build_logdet_context(W_ref, 0.1)
    report = check_majorizer(
        f=lambda M: logdet_gram(M, 0.1),
        u=lambda M, ref: logdet_majorizer(M, A, ref, 0.1),
        x_ref=W_ref,
        samples=200,
        seed=99,
    )
    assert report.passed
    print("\n[criterion 6] PASS majorizer tangency and domination "
          "(fit majorizers for all betas, log-det majorizer)")


def test_criterion_07_z_min_kkt():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        w_bar = rng.uniform(0.05, 3.0, (3, 2))
        v = rng.uniform(-2.0, 3.0, (3, 2))
        nu = rng.uniform(0.1, 10.0)
        z = z_min_step(w_bar, v, nu)
        residual = np.abs(np.log(z / w_bar) + nu * (z - v))
        worst = max(worst, float(residual.max()))
    assert worst <= 1e-10
    print(f"\n[criterion 7] PASS Z-step optimality residual ({worst:.2e})")


def test_criterion_08_minvol_recovery(minvol_runs):
    results, elapsed = minvol_runs
    cosines = []
    for state, trace, S, slack in results:
        obj = trace.objectives()
        assert np.all(np.diff(obj) <= slack)
        cosines.append(best_permutation_cosine(state.W[0], S))
    median = float(np.median(cosines))
    assert median >= 0.95
    assert elapsed < 120.0
    print(f"\n[criterion 8] PASS min-vol endmember recovery "
          f"(median cosine {median:.3f}, cosines {np.round(cosines, 3)}, {elapsed:.0f}s)")


def test_criterion_09_deep_vs_multilayer_direction():
    started = time.time()
    ratios2, ratios3, sparsity_gap = [], [], []
    for seed in SEEDS:
        X = sparse_chain_data(seed)
        layers = [LayerSpec(20), LayerSpec(10), LayerSpec(5)]
        ml_cfg = SolverConfig(beta=1.0, layers=layers, max_sweeps=400, seed=seed)
        ml_state, _ = multilayer_factorize(X, ml_cfg)
        deep_cfg = SolverConfig(
            beta=1.0, layers=layers, max_sweeps=200, warm_start_sweeps=200, seed=seed
        )
        deep_state, _ = deep_factorize(X, deep_cfg)
        errs_ml = [
            beta_div_matrix(ml_state.prev_w(i), ml_state.W[i] @ ml_state.H[i], 1.0)
            for i in range(3)
        ]
        errs_deep = [
            beta_div_matrix(deep_state.prev_w(i), deep_state.W[i] @ deep_state.H[i], 1.0)
            for i in range(3)
        ]
        ratios2.append(errs_deep[1] / errs_ml[1])
        ratios3.append(errs_deep[2] / errs_ml[2])
        deep_sparsity = np.mean([hoyer_sparsity(r) for r in deep_state.H[0]])
        ml_sparsity = np.mean([hoyer_sparsity(r) for r in ml_state.H[0]])
        sparsity_gap.append(deep_sparsity - ml_sparsity)
    elapsed = time.time() - started
    med2, med3 = float(np.median(ratios2)), float(np.median(ratios3))
    med_gap = float(np.median(sparsity_gap))
    assert med2 < 0.9
    assert med3 < 0.9
    assert med_gap >= -0.02
    assert elapsed < 60.0
    print(f"\n[criterion 9] PASS deep vs multilayer direction "
          f"(layer-2 ratio {med2:.3f}, layer-3 ratio {med3:.3f}, "
          f"sparsity gap {med_gap:+.4f}, {elapsed:.0f}s)")


def test_criterion_10_hoyer_exactness():
    assert hoyer_sparsity([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-6)
    assert hoyer_sparsity([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-6)
    assert hoyer_sparsity([3.0, 1.0, 0.0, 0.0]) == pytest.approx(0.735089, abs=1e-6)
    print("\n[criterion 10] PASS Hoyer sparsity tabulated values")


def test_criterion_11_cli_determinism(tmp_path):
    data = tmp_path / "X.csv"
    from deepbnmf.dataio import write_matrix

    rng = np.random.default_rng(7)
    write_matrix(rng.uniform(0.0, 1.0, (20, 15)), data, "csv")
    args = lambda out: [
        "factorize", "--input", str(data), "--method", "deep", "--beta", "1",
        "--ranks", "6,3", "--lambda", "auto", "--sweeps", "30",
        "--warm-sweeps", "10", "--seed", "5", "--out", str(out),
    ]
    assert run_command(args(tmp_path / "a")) == 0
    assert run_command(args(tmp_path / "b")) == 0
    trace_a = (tmp_path / "a" / "trace.csv").read_bytes()
    trace_b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert trace_a == trace_b
    print("\n[criterion 11] PASS CLI trace files are byte-identical per seed")
