import warnings

import numpy as np
import pytest

import deepbnmf.solvers
from conftest import exact_two_layer_chain
from deepbnmf.divergence import beta_div_matrix
from deepbnmf.errors import ConfigError, DimensionError, DomainError, MonotonicityError
from deepbnmf.minvol import minvol_factorize
from deepbnmf.model import (
    COLUMN_SIMPLEX_W,
    DeepState,
    LayerSpec,
    ROW_SIMPLEX_H,
    SolverConfig,
    init_random,
)
from deepbnmf.solvers import deep_factorize, multilayer_factorize

DEEP_BETAS = (0.0, 0.5, 1.0, 1.5)


class TestMultilayer:
    def test_rank_one_exact_recovery(self):
        from deepbnmf.model import ROW_SIMPLEX_H, init_random

        rng = np.random.default_rng(0)
        u = rng.uniform(0.2, 1.0, (8, 1))
        v = rng.uniform(0.2, 1.0, (1, 6))
        X = u @ v
        layers = [LayerSpec(1)]
        init = init_random(X, layers, seed=1, constraint=ROW_SIMPLEX_H)
        at_init = beta_div_matrix(X, init.W[0] @ init.H[0], 1.0)
        cfg = SolverConfig(beta=1.0, layers=layers, max_sweeps=200, seed=1)
        state, _ = multilayer_factorize(X, cfg)
        final = beta_div_matrix(X, state.W[0] @ state.H[0], 1.0)
        assert at_init > 0
        assert final <= 1e-8 * at_init

    def test_two_layer_chain_recovery(self):
        X, _, _ = exact_two_layer_chain(5, m=4, n=4, r1=2, r2=1)
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(2), LayerSpec(1)], max_sweeps=400, seed=0)
        state, _ = multilayer_factorize(X, cfg)
        scale = beta_div_matrix(X, np.full_like(X, X.mean()), 1.0)
        err1 = beta_div_matrix(X, state.W[0] @ state.H[0], 1.0)
        err2 = beta_div_matrix(state.W[0], state.W[1] @ state.H[1], 1.0)
        assert err1 <= 1e-6 * max(1.0, scale)
        assert err2 <= 1e-4 * max(1.0, scale)

    def test_trace_length_is_sweeps_per_layer(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.1, 1.0, (6, 6))
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(3), LayerSpec(2)], max_sweeps=7, seed=0)
        _, trace = multilayer_factorize(X, cfg)
        assert len(trace) == 7 * 2
        sweeps = [r.sweep for r in trace.records]
        assert sweeps == sorted(sweeps)

    def test_beta_two_supported(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.1, 1.0, (6, 6))
        cfg = SolverConfig(beta=2.0, layers=[LayerSpec(3), LayerSpec(2)], max_sweeps=20, seed=0)
        state, _ = multilayer_factorize(X, cfg)
        for h in state.H:
            assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-8


class TestDeep:
    def test_beta_two_rejected(self):
        cfg = SolverConfig(beta=2.0, layers=[LayerSpec(3), LayerSpec(2)])
        with pytest.raises(ConfigError):
            deep_factorize(np.ones((5, 5)), cfg)

    @pytest.mark.parametrize("beta", DEEP_BETAS)
    def test_exact_chain_is_global_fixed_point(self, beta):
        X, W, H = exact_two_layer_chain(6)
        warm = DeepState(X=X, W=[w.copy() for w in W], H=[h.copy() for h in H])
        cfg = SolverConfig(
            beta=beta, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=10, seed=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, trace = deep_factorize(X, cfg, warm=warm)
        for a, b in zip(state.W + state.H, W + H):
            assert np.max(np.abs(a - b) / b) <= 1e-8
        assert len(trace) == 10

    @pytest.mark.parametrize("beta", DEEP_BETAS)
    def test_monotone_objective(self, beta):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.05, 1.0, (15, 12))
        cfg = SolverConfig(
            beta=beta,
            layers=[LayerSpec(6), LayerSpec(3)],
            max_sweeps=60,
            warm_start_sweeps=10,
            seed=4,
        )
        _, trace = deep_factorize(X, cfg)
        obj = trace.objectives()
        slack = 1e-10 * np.maximum(1.0, np.abs(obj[:-1]))
        assert np.all(np.diff(obj) <= slack)

    def test_simplex_residuals_small_every_sweep(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.05, 1.0, (12, 10))
        cfg = SolverConfig(
            beta=0.5, layers=[LayerSpec(5), LayerSpec(2)], max_sweeps=30,
            warm_start_sweeps=5, seed=2,
        )
        _, trace = deep_factorize(X, cfg)
        assert trace.max_residuals().max() <= 1e-8

    def test_deterministic_traces(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0.05, 1.0, (10, 8))
        cfg = SolverConfig(
            beta=1.0, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=25,
            warm_start_sweeps=5, seed=11,
        )
        state_a, trace_a = deep_factorize(X, cfg)
        state_b, trace_b = deep_factorize(X, cfg)
        assert trace_a.objectives().tobytes() == trace_b.objectives().tobytes()
        for ma, mb in zip(state_a.W + state_a.H, state_b.W + state_b.H):
            assert np.array_equal(ma, mb)

    def test_explicit_lambdas_respected(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0.05, 1.0, (10, 8))
        layers = [LayerSpec(4, lam=4.0), LayerSpec(2, lam=1.0)]
        cfg = SolverConfig(beta=1.0, layers=layers, max_sweeps=10, warm_start_sweeps=5, seed=1)
        _, trace = deep_factorize(X, cfg)
        assert trace.lambdas == [4.0, 1.0]

    def test_auto_lambda_balances_at_warm_state(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0.05, 1.0, (10, 8))
        cfg = SolverConfig(
            beta=1.0, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=5,
            warm_start_sweeps=8, seed=1,
        )
        _, trace = deep_factorize(X, cfg)
        assert trace.lambdas is not None
        assert all(lam > 0 for lam in trace.lambdas)

    def test_degenerate_rows_and_columns_accepted(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(0.05, 1.0, (12, 10))
        X[3, :] = 0.0
        X[:, 7] = 0.0
        cfg = SolverConfig(
            beta=1.0, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=30,
            warm_start_sweeps=10, seed=3,
        )
        _, trace = deep_factorize(X, cfg)
        obj = trace.objectives()
        assert np.all(np.isfinite(obj))
        assert np.all(np.diff(obj) <= 1e-10 * np.maximum(1.0, np.abs(obj[:-1])))

    def test_rel_obj_tol_stops_early(self):
        X, W, H = exact_two_layer_chain(13)
        warm = DeepState(X=X, W=W, H=H)
        cfg = SolverConfig(
            beta=1.0, layers=[LayerSpec(4), LayerSpec(2)], max_sweeps=50,
            rel_obj_tol=1e-9, seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, trace = deep_factorize(X, cfg, warm=warm)
        assert len(trace) < 50


SOLVERS = {
    "deep": (deep_factorize, ROW_SIMPLEX_H, (0.0, 0.0)),
    "minvol": (minvol_factorize, COLUMN_SIMPLEX_W, (0.2, 0.05)),
}


def driver_data():
    return np.random.default_rng(21).uniform(0.05, 1.0, (10, 8))


def driver_layers(model, lams=(None, None)):
    alphas = SOLVERS[model][2]
    return [LayerSpec(4, lam=lams[0], alpha=alphas[0]), LayerSpec(2, lam=lams[1], alpha=alphas[1])]


def driver_solve(model, X, warm=None, lams=(None, None), **overrides):
    settings = {"max_sweeps": 6, "warm_start_sweeps": 4, "seed": 3, **overrides}
    cfg = SolverConfig(beta=1.0, layers=driver_layers(model, lams), **settings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return SOLVERS[model][0](X, cfg, warm=warm)


@pytest.mark.parametrize("model", sorted(SOLVERS))
class TestSweepDriver:
    def test_explicit_warm_resumes_a_run(self, model):
        X = driver_data()
        lams = (1.0, 0.5)
        full_state, full = driver_solve(model, X, lams=lams)
        half_state, _ = driver_solve(model, X, lams=lams, max_sweeps=3)
        state, resumed = driver_solve(model, X, warm=half_state, lams=lams, max_sweeps=3)
        assert np.allclose(resumed.objectives(), full.objectives()[3:], rtol=1e-9, atol=0)
        for a, b in zip(state.W + state.H, full_state.W + full_state.H):
            assert np.allclose(a, b, rtol=1e-8, atol=1e-14)

    def test_warm_factors_must_fit_x(self, model):
        warm, _ = driver_solve(model, driver_data())
        with pytest.raises(DimensionError):
            driver_solve(model, np.ones((5, 5)), warm=warm)

    @pytest.mark.parametrize("bad", ["nan", "negative"])
    def test_warm_start_checks_x(self, model, bad):
        X = driver_data()
        warm, _ = driver_solve(model, X)
        if bad == "nan":
            X[2, 3] = np.nan
        else:
            X = -X
        with pytest.raises(DomainError, match="X must be finite and entrywise nonnegative"):
            driver_solve(model, X, warm=warm)

    def test_no_warm_sweeps_starts_at_random_init(self, model, monkeypatch):
        X = driver_data()

        def no_multilayer(*args, **kwargs):
            raise AssertionError("warm_start_sweeps=0 must skip the multilayer run")

        monkeypatch.setattr(deepbnmf.solvers, "multilayer_factorize", no_multilayer)
        state, trace = driver_solve(model, X, warm_start_sweeps=0)
        init = init_random(X, driver_layers(model), 3, SOLVERS[model][1])
        warm_state, warm_trace = driver_solve(model, X, warm=init)
        assert trace.objectives().tobytes() == warm_trace.objectives().tobytes()
        assert trace.lambdas == warm_trace.lambdas
        for a, b in zip(state.W + state.H, warm_state.W + warm_state.H):
            assert np.array_equal(a, b)

    def test_rel_obj_tol_stops_early(self, model):
        _, trace = driver_solve(model, driver_data(), max_sweeps=200, rel_obj_tol=1e-3)
        obj = trace.objectives()
        assert 2 <= len(obj) < 200
        assert abs(obj[-2] - obj[-1]) <= 1e-3 * max(1.0, abs(obj[-2]))

    def test_rising_objective_raises(self, model, monkeypatch):
        real = deepbnmf.solvers.eval_objective
        calls = []

        def rising(state, config, kind):
            total, per_layer = real(state, config, kind)
            calls.append(total)
            return total + len(calls), per_layer

        monkeypatch.setattr(deepbnmf.solvers, "eval_objective", rising)
        with pytest.raises(MonotonicityError):
            driver_solve(model, driver_data(), lams=(1.0, 0.5))
        assert len(calls) == 2

    def test_multilayer_warm_start_gets_run_settings(self, model, monkeypatch):
        real = deepbnmf.solvers.multilayer_factorize
        seen = []

        def spy(X, config):
            seen.append(config)
            return real(X, config)

        monkeypatch.setattr(deepbnmf.solvers, "multilayer_factorize", spy)
        driver_solve(model, driver_data(), rel_obj_tol=1e-4)
        assert [(c.max_sweeps, c.rel_obj_tol) for c in seen] == [(4, 1e-4)]

    def test_mixed_lambdas_fill_only_unset_layers(self, model):
        X = driver_data()
        _, auto = driver_solve(model, X)
        _, mixed = driver_solve(model, X, lams=(7.0, None))
        assert mixed.lambdas == [7.0, auto.lambdas[1]]
