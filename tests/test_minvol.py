import warnings

import numpy as np
import pytest

from conftest import best_permutation_cosine, hyperspectral_mixture
from deepbnmf.divergence import beta_div_matrix
from deepbnmf.errors import ConfigError, PreconditionError
from deepbnmf.minvol import (
    AdmmRun,
    _simplex_w_minimize,
    _w_step_terms,
    admm_solve_w,
    build_logdet_context,
    minvol_factorize,
    minvol_terminal_w_step,
    simplex_w_cells,
    z_min_step,
)
from deepbnmf.model import LayerSpec, SolverConfig, logdet_gram
from deepbnmf.updates import InnerWContext
from oracles import (
    brute_force_scalar_min,
    check_majorizer,
    logdet_majorizer,
    simplex_descent_min,
    w_fit_majorizer_value,
)


def column_simplex_instance(seed, m=6, r=3, p=8):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.2, 1.0, (m, r))
    W /= W.sum(axis=0, keepdims=True)
    H = rng.uniform(0.2, 1.0, (r, p))
    Y = rng.uniform(0.05, 1.0, (m, p))
    W_bar = rng.uniform(0.2, 1.0, (m, r))
    return W, H, Y, W_bar


def admm_w_step(ctx, ldctx, Z, U, rho, alpha_ratio):
    """One W minimization of the ADMM: fit majorizer + volume bound + penalty."""
    C0, S, T = _w_step_terms(ctx.Y, ctx.W_tilde, ctx.H, ldctx, rho, alpha_ratio)
    return _simplex_w_minimize(ctx.W_tilde, C0 - rho * (Z - U), S, T)[0]


class TestLogdetMajorizer:
    def test_tangency(self):
        rng = np.random.default_rng(0)
        W = rng.uniform(0.1, 1.0, (5, 3))
        ctx = build_logdet_context(W, 0.1)
        assert logdet_majorizer(W, ctx, W) == pytest.approx(
            logdet_gram(W, 0.1), abs=1e-10
        )

    def test_orthonormal_reference(self):
        # Nonnegative orthonormal columns force zero entries, which the
        # curvature term cannot divide by; a floored identity embedding is
        # orthonormal to within the floor.
        W = np.maximum(np.vstack([np.eye(3), np.zeros((2, 3))]), 1e-9)
        ctx = build_logdet_context(W, 0.1)
        val = logdet_majorizer(W, ctx, W)
        assert val == pytest.approx(logdet_gram(W, 0.1), abs=1e-10)
        assert val == pytest.approx(3.0 * np.log(1.1), abs=1e-6)

    def test_domination_random(self):
        rng = np.random.default_rng(2)
        W_ref = rng.uniform(0.1, 1.0, (5, 3))
        ctx = build_logdet_context(W_ref, 0.1)
        for _ in range(50):
            W = W_ref * rng.uniform(0.3, 1.8, size=W_ref.shape)
            assert logdet_majorizer(W, ctx, W_ref) >= logdet_gram(W, 0.1) - 1e-9

    def test_check_majorizer_harness(self):
        rng = np.random.default_rng(3)
        W_ref = rng.uniform(0.1, 1.0, (5, 3))
        ctx = build_logdet_context(W_ref, 0.1)
        report = check_majorizer(
            f=lambda W: logdet_gram(W, 0.1),
            u=lambda W, R: logdet_majorizer(W, ctx, R),
            x_ref=W_ref,
            samples=200,
            seed=5,
        )
        assert report.passed

    def test_zero_reference_rejected(self):
        W = np.ones((4, 2))
        W[0, 0] = 0.0
        ctx = build_logdet_context(np.ones((4, 2)), 0.1)
        with pytest.raises(PreconditionError):
            logdet_majorizer(np.ones((4, 2)), ctx, W)


class TestSimplexWCells:
    def test_monotone_in_mu(self):
        rng = np.random.default_rng(4)
        W_tilde = rng.uniform(0.2, 1.0, (4, 2))
        C = rng.uniform(-1.0, 2.0, (4, 2))
        T = rng.uniform(0.5, 2.0, (4, 2))
        S = 2.0 * T * rng.uniform(0.2, 1.5, (4, 2))
        grid = np.linspace(-20.0, 20.0, 400)
        prev = None
        for mu in grid:
            W, _ = simplex_w_cells(W_tilde, C, S, T, np.array([mu, mu]))
            assert np.all(W >= 0)
            if prev is not None:
                assert np.all(W <= prev + 1e-12)
            prev = W

    def test_nonnegative_by_construction(self):
        W_tilde = np.full((3, 2), 0.4)
        C = np.array([[5.0, -5.0], [0.0, 1.0], [2.0, -3.0]])
        T = np.ones((3, 2))
        S = np.zeros((3, 2))
        W, _ = simplex_w_cells(W_tilde, C, S, T, np.zeros(2))
        assert np.all(W >= 0)


class TestAdmmWStep:
    def test_columns_sum_to_one(self):
        W, H, Y, _ = column_simplex_instance(5)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W, lambda_ratio=1.0)
        ld = build_logdet_context(W, 0.1)
        Z = W.copy()
        U = np.zeros_like(W)
        out = admm_w_step(ctx, ld, Z, U, rho=100.0, alpha_ratio=0.5)
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.all(out >= 0)

    def test_degenerates_to_constrained_mu(self):
        # As the volume and splitting forces vanish the step approaches the
        # multiplicative update with a per-column multiplier, which for KL
        # reduces to column-normalizing the update numerator.
        W, H, Y, _ = column_simplex_instance(6)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W, lambda_ratio=1.0)
        ld = build_logdet_context(W, 0.1)
        tiny = 1e-10
        out = admm_w_step(ctx, ld, W.copy(), np.zeros_like(W), rho=tiny, alpha_ratio=tiny)
        numer = W * ((Y / (W @ H)) @ H.T)
        expected = numer / numer.sum(axis=0, keepdims=True)
        assert np.max(np.abs(out - expected)) <= 1e-4


class TestZMin:
    def test_unit_fixed_point(self):
        z = z_min_step(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert z[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_analytic_point(self):
        # log(z/e) + (z - 0) = 0 holds at z = 1.
        z = z_min_step(np.array([[np.e]]), np.array([[0.0]]), 1.0)
        assert z[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_kkt_residual_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w_bar = rng.uniform(0.05, 3.0)
            v = rng.uniform(-2.0, 3.0)
            nu = rng.uniform(0.1, 10.0)
            z = z_min_step(np.array([[w_bar]]), np.array([[v]]), nu)[0, 0]
            residual = np.log(z / w_bar) + nu * (z - v)
            assert abs(residual) <= 1e-10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w_bar = rng.uniform(0.2, 2.0)
            v = rng.uniform(-1.0, 2.0)
            nu = rng.uniform(0.5, 4.0)
            lam_rho = nu  # minimize d_KL(z, w_bar) + (nu/2)(z - v)^2
            z = z_min_step(np.array([[w_bar]]), np.array([[v]]), nu)[0, 0]
            phi = lambda t: (
                t * np.log(t / w_bar) - t + w_bar + 0.5 * lam_rho * (t - v) ** 2
            )
            oracle = brute_force_scalar_min(phi, 1e-6, 20.0)
            assert z == pytest.approx(oracle, abs=1e-6)

    def test_overflow_routes_to_log_domain(self):
        z = z_min_step(np.array([[1.0]]), np.array([[2000.0]]), 1.0)
        assert np.isfinite(z[0, 0])
        residual = np.log(z[0, 0]) + (z[0, 0] - 2000.0)
        assert abs(residual) <= 1e-6 * 2000.0

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            z_min_step(np.ones((1, 1)), np.ones((1, 1)), 0.0)
        with pytest.raises(PreconditionError):
            z_min_step(np.zeros((1, 1)), np.ones((1, 1)), 1.0)


class TestAdmmSolve:
    def test_converges_and_reports_residuals(self):
        W, H, Y, W_bar = column_simplex_instance(9)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=1.0)
        ld = build_logdet_context(W, 0.1)
        out, run = admm_solve_w(ctx, ld, alpha_ratio=0.3, rho=5.0, max_iter=50, tol=1e-6)
        assert isinstance(run, AdmmRun)
        assert run.converged
        assert run.state.iterations <= 50
        assert run.residuals[-1] <= 1e-6
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.all(out > 0)

    def test_initialization_contract(self):
        # One iteration from Z = W, U = 0 must match the hand-rolled steps.
        W, H, Y, W_bar = column_simplex_instance(10)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=2.0)
        ld = build_logdet_context(W, 0.1)
        _, run = admm_solve_w(ctx, ld, alpha_ratio=0.4, rho=7.0, max_iter=1, tol=0.0 + 1e-300)
        W1 = admm_w_step(ctx, ld, W.copy(), np.zeros_like(W), 7.0, 0.4)
        Z1 = z_min_step(W_bar, W1 + 0.0, 7.0 / 2.0)
        assert np.array_equal(run.state.W, W1)
        assert np.array_equal(run.state.Z, Z1)
        assert np.array_equal(run.state.U, W1 - Z1)

    def test_deterministic(self):
        W, H, Y, W_bar = column_simplex_instance(11)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=1.5)
        ld = build_logdet_context(W, 0.1)
        out_a, run_a = admm_solve_w(ctx, ld, alpha_ratio=0.2, rho=10.0, max_iter=40, tol=1e-8)
        out_b, run_b = admm_solve_w(ctx, ld, alpha_ratio=0.2, rho=10.0, max_iter=40, tol=1e-8)
        assert np.array_equal(out_a, out_b)
        assert run_a.residuals == run_b.residuals


    def test_warm_multipliers_match_cold_start(self, monkeypatch):
        # At 1e4 times the data scale the multipliers are large; each W step
        # grows its bracket from the previous step's multipliers and must land
        # on the W that a bracket grown from zero finds.
        import deepbnmf.minvol as minvol

        W, H, Y, W_bar = column_simplex_instance(12, m=20, r=3, p=40)
        ctx = InnerWContext(Y=1e4 * Y, W_tilde=W, H=1e4 * H, W_bar=W_bar, lambda_ratio=1.0)
        ld = build_logdet_context(W, 0.1)
        solve = minvol._simplex_w_minimize
        starts, returned = [], []

        def recording(*args, start=None, **kwargs):
            starts.append(start)
            W_step, mu = solve(*args, start=start, **kwargs)
            returned.append(mu)
            return W_step, mu

        monkeypatch.setattr(minvol, "_simplex_w_minimize", recording)
        warm, run = admm_solve_w(ctx, ld, alpha_ratio=0.5, rho=100.0, max_iter=50, tol=1e-6)
        assert run.state.iterations == len(starts) > 1
        assert starts[0] is None
        assert all(a is b for a, b in zip(starts[1:], returned))
        assert np.abs(returned[-1]).min() > 1.0

        monkeypatch.setattr(
            minvol, "_simplex_w_minimize", lambda *args, start=None, **kwargs: solve(*args, **kwargs)
        )
        cold, _ = admm_solve_w(ctx, ld, alpha_ratio=0.5, rho=100.0, max_iter=50, tol=1e-6)
        assert np.abs(warm - cold).max() <= 1e-10
        assert np.abs(warm.sum(axis=0) - 1.0).max() <= 1e-12


class TestTerminalStep:
    def test_columns_sum_to_one_and_descend(self):
        W, H, Y, _ = column_simplex_instance(12)
        ld = build_logdet_context(W, 0.1)
        out = minvol_terminal_w_step(Y, W, H, ld, alpha_ratio=0.5)
        assert np.abs(out.sum(axis=0) - 1.0).max() <= 1e-10

        def block(Wm):
            return beta_div_matrix(Y, Wm @ H, 1.0) + 0.5 * logdet_gram(Wm, 0.1)

        assert block(out) <= block(W) + 1e-10 * max(1.0, abs(block(W)))

    def test_minimizes_its_surrogate(self):
        # The surrogate is the KL fit majorizer plus alpha_ratio times the
        # log-det majorizer, both anchored at W; it separates by column, so
        # each column of the step must be that column's simplex minimizer.
        for seed in range(5):
            W, H, Y, _ = column_simplex_instance(20 + seed, m=4, r=2, p=6)
            ld = build_logdet_context(W, 0.1)
            out = minvol_terminal_w_step(Y, W, H, ld, alpha_ratio=0.5)

            def surrogate(Wm):
                return w_fit_majorizer_value(Y, Wm, W, H, 1.0) + 0.5 * logdet_majorizer(Wm, ld, W)

            anchor = surrogate(W)
            assert surrogate(out) <= anchor + 1e-12 * max(1.0, abs(anchor))
            for k in range(W.shape[1]):
                def column_objective(col, k=k):
                    trial = out.copy()
                    trial[:, k] = col
                    return surrogate(trial)

                oracle = simplex_descent_min(column_objective, W.shape[0])
                assert np.max(np.abs(out[:, k] - oracle)) <= 1e-7
                assert column_objective(out[:, k]) <= column_objective(oracle) + 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the ADMM W step weights its coupling by rho/w_tilde, "
    "so its fixed point is not the minimizer of its surrogate",
)
def test_admm_descends_its_surrogate():
    # The inner ADMM's subproblem: KL fit majorizer + alpha_ratio * log-det
    # majorizer + lambda_ratio * KL(W, W_bar), all anchored at W_tilde.  Its
    # output must not raise that surrogate above its value at the anchor.
    rises = []
    for seed in range(5):
        W, H, Y, W_bar = column_simplex_instance(30 + seed, m=4, r=2, p=6)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=0.8)
        ld = build_logdet_context(W, 0.1)
        out, _ = admm_solve_w(ctx, ld, alpha_ratio=0.5, tol=1e-12)

        def surrogate(Wm):
            return (
                w_fit_majorizer_value(Y, Wm, W, H, 1.0)
                + 0.5 * logdet_majorizer(Wm, ld, W)
                + 0.8 * beta_div_matrix(Wm, W_bar, 1.0)
            )

        rises.append((surrogate(out) - surrogate(W)) / max(1.0, abs(surrogate(W))))
    assert max(rises) <= 1e-12


class TestMinvolFactorize:
    def test_requires_kl_and_positive_alpha(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (6, 8))
        with pytest.raises(ConfigError):
            minvol_factorize(X, SolverConfig(beta=0.5, layers=[LayerSpec(3, alpha=1.0), LayerSpec(2, alpha=1.0)]))
        with pytest.raises(ConfigError):
            minvol_factorize(X, SolverConfig(beta=1.0, layers=[LayerSpec(3), LayerSpec(2)]))

    def test_small_run_contracts(self):
        X, _ = hyperspectral_mixture(0, pixels=120, bands=12)
        cfg = SolverConfig(
            beta=1.0,
            layers=[LayerSpec(3, alpha=0.2), LayerSpec(2, alpha=0.05)],
            max_sweeps=40,
            warm_start_sweeps=30,
            seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, trace = minvol_factorize(X, cfg)
        assert trace.max_residuals().max() <= 1e-6
        obj = trace.objectives()
        slack = 10.0 * cfg.admm_tol * (sum(cfg.alphas()) + sum(trace.lambdas))
        assert np.all(np.diff(obj) <= slack)
        assert np.all(np.isfinite([r for rec in trace.records for r in rec.logdet_terms]))

    def test_three_layer_chain(self):
        # Two stacked inner-ADMM layers plus the terminal step.
        X, _ = hyperspectral_mixture(2, pixels=300, bands=24, r=4)
        cfg = SolverConfig(
            beta=1.0,
            layers=[
                LayerSpec(4, alpha=0.3),
                LayerSpec(3, alpha=0.1),
                LayerSpec(2, alpha=0.05),
            ],
            max_sweeps=40,
            warm_start_sweeps=20,
            seed=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, trace = minvol_factorize(X, cfg)
        slack = 10.0 * cfg.admm_tol * (sum(cfg.alphas()) + sum(trace.lambdas))
        assert np.all(np.diff(trace.objectives()) <= slack)
        assert trace.max_residuals().max() <= 1e-8

    def test_endmember_recovery_single_seed(self):
        X, S = hyperspectral_mixture(0, pixels=600, bands=16)
        cfg = SolverConfig(
            beta=1.0,
            layers=[LayerSpec(3, alpha=0.2), LayerSpec(2, alpha=0.05)],
            max_sweeps=150,
            warm_start_sweeps=60,
            seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, _ = minvol_factorize(X, cfg)
        assert best_permutation_cosine(state.W[0], S) >= 0.9
