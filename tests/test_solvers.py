import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import deepbnmf.minvol
import deepbnmf.model
import deepbnmf.solvers
from conftest import exact_two_layer_chain, sparse_chain_data
from deepbnmf.divergence import SUPPORTED_BETAS, beta_div_matrix
from deepbnmf.errors import DimensionError, DomainError, MonotonicityError
from deepbnmf.minvol import minvol_factorize
from deepbnmf.dataio import read_matrix
from deepbnmf.model import (
    COLUMN_SIMPLEX_W,
    DeepState,
    LayerSpec,
    ROW_SIMPLEX_H,
    SolverConfig,
    init_random,
    logdet_gram,
    simplex_residual,
)
from deepbnmf.solvers import MONOTONICITY_REL_SLACK, deep_factorize, multilayer_factorize

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_30x20.csv"


def rising_objective(monkeypatch):
    """Make each objective evaluation of the sweep driver exceed the last one.

    ``run_sweeps`` evaluates the objective of every model, so one patch covers all.
    """
    real = deepbnmf.model.eval_objective
    calls = []

    def rising(*args, **kwargs):
        total, per_layer = real(*args, **kwargs)
        calls.append(total)
        return total + 1e3 * len(calls), per_layer

    monkeypatch.setattr(deepbnmf.solvers, "eval_objective", rising)
    return calls


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


    def test_rel_obj_tol_stops_each_layer_late(self):
        # The first sweep of a layer has no previous objective to compare
        # with, so it can never meet the relative tolerance.
        X = read_matrix(DATA, "csv")
        cfg = SolverConfig(
            beta=1.0, layers=[LayerSpec(8), LayerSpec(4)], max_sweeps=200, rel_obj_tol=1e-4
        )
        _, trace = multilayer_factorize(X, cfg)
        fitting_second = [np.isfinite(r.layer_errors[1]) for r in trace.records]
        assert 1 < fitting_second.count(False) < 200
        assert fitting_second.count(True) > 1

    def test_rising_objective_raises(self, monkeypatch):
        calls = rising_objective(monkeypatch)
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(3), LayerSpec(2)], max_sweeps=5, seed=0)
        with pytest.raises(MonotonicityError):
            multilayer_factorize(np.random.default_rng(2).uniform(0.1, 1.0, (6, 6)), cfg)
        assert len(calls) == 2

    def test_nan_residual_reaches_the_trace(self, monkeypatch):
        # Only layer 2's own sweeps fit a target with 3 columns; their NaN
        # residual must survive the max with the other layers' residual.
        real = deepbnmf.solvers.simplex_residual
        monkeypatch.setattr(
            deepbnmf.solvers,
            "simplex_residual",
            lambda state, c: np.nan if state.X.shape[1] == 3 else real(state, c),
        )
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(3), LayerSpec(2)], max_sweeps=2, seed=0)
        _, trace = multilayer_factorize(np.random.default_rng(2).uniform(0.1, 1.0, (6, 6)), cfg)
        residuals = trace.max_residuals()
        assert np.all(residuals[:2] <= 1e-10) and np.all(np.isnan(residuals[2:]))

    def test_trace_structure(self):
        X = np.random.default_rng(4).uniform(0.1, 1.0, (10, 8))
        layers = [LayerSpec(5), LayerSpec(3), LayerSpec(2)]
        sweeps, delta = 6, 0.3
        cfg = SolverConfig(beta=0.5, layers=layers, max_sweeps=sweeps, delta=delta, seed=5)
        state, trace = multilayer_factorize(X, cfg)
        init = init_random(X, layers, 5, ROW_SIMPLEX_H)
        assert [r.sweep for r in trace.records] == list(range(3 * sweeps))
        assert trace.max_residuals().max() <= 1e-8
        for i in range(3):
            records = trace.records[i * sweeps : (i + 1) * sweeps]
            errors = np.array([r.layer_errors for r in records])
            logdets = np.array([r.logdet_terms for r in records])
            assert np.all(np.isfinite(errors[:, : i + 1]))
            assert np.all(np.isnan(errors[:, i + 1 :]))
            assert np.all(np.diff(errors[:, i]) <= 0)
            assert logdets[-1, i] == logdet_gram(state.W[i], delta)
            for j in range(3):
                if j != i:
                    W = state.W[j] if j < i else init.W[j]
                    assert np.all(logdets[:, j] == logdet_gram(W, delta))
            for j in range(i):
                assert np.all(errors[:, j] == trace.records[(j + 1) * sweeps - 1].layer_errors[j])


class TestDeep:
    def test_beta_two_lowers_every_sweep(self):
        # The least-squares baseline of the deep model: the beta = 2 inner W
        # step must keep every sweep a strict descent, at every data scale.
        ranks = (8, 5, 3)
        for seed in (10090, 7063):
            for scale in (1e-6, 1.0, 1e8):
                X = scale * sparse_chain_data(seed, m=40, n=30, ranks=ranks)
                cfg = SolverConfig(
                    beta=2.0, layers=[LayerSpec(r) for r in ranks], max_sweeps=200,
                    warm_start_sweeps=200,
                )
                _, trace = deep_factorize(X, cfg)
                obj = trace.objectives()
                assert len(obj) == 200 and np.all(np.isfinite(obj))
                assert np.all(np.diff(obj) < -1e-4 * obj[:-1]), (seed, scale)

    @pytest.mark.parametrize("beta", (0.0, 1.0))
    def test_underflowing_quotient_keeps_the_objective_finite(self, beta):
        # 1e-320 over a fitted value near 1e4 underflows to 0: the KL objective
        # must not read -inf, nor the Itakura-Saito one rise to +inf.
        X = 1e4 * np.random.default_rng(0).uniform(0.5, 1.0, (30, 20))
        X[3, 5] = 1e-320
        cfg = SolverConfig(
            beta=beta, layers=[LayerSpec(8), LayerSpec(4)], max_sweeps=50, warm_start_sweeps=20
        )
        _, trace = deep_factorize(X, cfg)
        obj = trace.objectives()
        assert np.all(np.isfinite(obj))
        assert np.all(np.diff(obj) <= MONOTONICITY_REL_SLACK * np.abs(obj[:-1]))

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
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

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
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

    def test_beta_three_halves_emits_no_runtime_warning(self):
        # The unselected branches of the beta = 3/2 H update divide by zero;
        # those values are discarded and must not surface as warnings.
        cfg = SolverConfig(
            beta=1.5, layers=[LayerSpec(8), LayerSpec(4)], max_sweeps=50, warm_start_sweeps=20
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = deep_factorize(read_matrix(DATA, "csv"), cfg)
        assert len(trace) == 50

    def test_peak_memory_of_the_sweeps(self):
        # Python-traced peak of a beta = 1 deep run on the 200x100 chain, in
        # X-sized arrays.  It falls in layer 1's inner W step, the Lambert
        # step's work arrays on top of the held products.  Forming every
        # product and quotient afresh peaks at 4.73; holding a second X-sized
        # array per layer beside the product, at 6.13; the out-of-place
        # Lambert kernel (about 11 arrays of W's shape) at 4.45.  The
        # in-place kernel and KL cells read 3.71.
        X = sparse_chain_data(1009)
        layers = [LayerSpec(r) for r in (20, 10, 5)]
        warm, _ = multilayer_factorize(X, SolverConfig(beta=1.0, layers=layers, max_sweeps=5))
        tracemalloc.start()
        try:
            deep_factorize(X, SolverConfig(beta=1.0, layers=layers, max_sweeps=5), warm=warm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / X.nbytes <= 4.1

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
        half = half_state.copy()
        state, resumed = driver_solve(model, X, warm=half_state, lams=lams, max_sweeps=3)
        for a, b in zip(half_state.W + half_state.H, half.W + half.H):
            assert np.array_equal(a, b)
        assert np.allclose(resumed.objectives(), full.objectives()[3:], rtol=1e-9, atol=0)
        for a, b in zip(state.W + state.H, full_state.W + full_state.H):
            assert np.allclose(a, b, rtol=1e-8, atol=1e-14)

    @pytest.mark.parametrize("factor, index, bad", [("W", 1, np.nan), ("H", 0, np.inf)])
    def test_non_finite_warm_factor_rejected(self, model, factor, index, bad, monkeypatch):
        X = driver_data()
        warm, _ = driver_solve(model, X)
        getattr(warm, factor)[index][1, 0] = bad

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran on a non-finite warm state")

        monkeypatch.setattr(deepbnmf.solvers, "eval_objective", no_sweep)
        with pytest.raises(DomainError, match="warm factors must be finite"):
            driver_solve(model, X, warm=warm)

    def test_warm_factors_must_fit_x(self, model):
        warm, _ = driver_solve(model, driver_data())
        with pytest.raises(DimensionError):
            driver_solve(model, np.ones((5, 5)), warm=warm)

    # One layer fewer than the warm state, and the same count at other ranks.
    @pytest.mark.parametrize("ranks", [(4,), (5, 2)])
    def test_warm_ranks_must_match_config(self, model, ranks):
        X = driver_data()
        warm, _ = driver_solve(model, X)
        solve, _, alphas = SOLVERS[model]
        layers = [LayerSpec(r, alpha=a) for r, a in zip(ranks, alphas)]
        cfg = SolverConfig(beta=1.0, layers=layers, max_sweeps=2)
        with pytest.raises(DimensionError, match=r"warm ranks \[4, 2\] differ"):
            solve(X, cfg, warm=warm)

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
        # Fires inside the multilayer warm start.
        calls = rising_objective(monkeypatch)
        with pytest.raises(MonotonicityError):
            driver_solve(model, driver_data(), lams=(1.0, 0.5))
        assert len(calls) == 2

    def test_rising_objective_raises_without_warm_start(self, model, monkeypatch):
        calls = rising_objective(monkeypatch)
        with pytest.raises(MonotonicityError):
            driver_solve(model, driver_data(), lams=(1.0, 0.5), warm_start_sweeps=0)
        assert len(calls) == 2

    def test_multilayer_warm_start_gets_run_settings(self, model, monkeypatch):
        # The warm start runs multilayer's layer loop, with no trace.
        real = deepbnmf.solvers.multilayer_factorize
        seen = []

        def spy(X, config, traced=True):
            seen.append((config, traced))
            return real(X, config, traced=traced)

        monkeypatch.setattr(deepbnmf.solvers, "multilayer_factorize", spy)
        driver_solve(model, driver_data(), rel_obj_tol=1e-4)
        assert [(c.max_sweeps, c.rel_obj_tol, t) for c, t in seen] == [(4, 1e-4, False)]

    def test_warm_start_keeps_no_trace(self, model, monkeypatch):
        # The multilayer warm start forms no log-det, residual or record;
        # multilayer's own trace keeps them (TestMultilayer::test_trace_structure).
        real_fit = deepbnmf.solvers.multilayer_factorize
        warm_calls, phase = [], ["sweeps"]

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                warm_calls.append((phase[0], name))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (deepbnmf.model, "logdet_gram"),
            (deepbnmf.solvers, "logdet_gram"),
            (deepbnmf.minvol, "logdet_gram"),
            (deepbnmf.solvers, "simplex_residual"),
            (deepbnmf.solvers, "SweepRecord"),
        ):
            counting(module, name)

        def fit(X, config, traced=True):
            phase[0] = "warm"
            try:
                return real_fit(X, config, traced=traced)
            finally:
                phase[0] = "sweeps"

        monkeypatch.setattr(deepbnmf.solvers, "multilayer_factorize", fit)
        _, trace = driver_solve(model, driver_data())
        assert len(trace) == 6
        assert not [c for c in warm_calls if c[0] == "warm"]
        assert ("sweeps", "SweepRecord") in warm_calls and ("sweeps", "logdet_gram") in warm_calls

    def test_mixed_lambdas_fill_only_unset_layers(self, model):
        X = driver_data()
        _, auto = driver_solve(model, X)
        _, mixed = driver_solve(model, X, lams=(7.0, None))
        assert mixed.lambdas == [7.0, auto.lambdas[1]]


# The block update that returns a NaN entry on its third call, and where the
# sweep driver must then stop: the third sweep's last layer for the deep and
# min-vol solvers (two layers, no warm start), and the first sweep of layer
# 2's one-layer problem for multilayer (two sweeps per layer).
NAN_ON_THIRD_CALL = {
    "deep": (deepbnmf.solvers, "update_w_terminal", r"after sweep 2, in layer 2$"),
    "minvol": (deepbnmf.minvol, "minvol_terminal_w_step", r"after sweep 2, in layer 2$"),
    "multilayer": (
        deepbnmf.solvers,
        "update_w_terminal",
        r"after sweep 0, in layer 1 of the one-layer problem for layer 2$",
    ),
}


@pytest.mark.parametrize("solver", sorted(NAN_ON_THIRD_CALL))
def test_non_finite_block_output_names_sweep_and_layer(solver, monkeypatch):
    module, name, message = NAN_ON_THIRD_CALL[solver]
    real = getattr(module, name)
    calls = []

    def nan_on_third_call(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(name)
        if len(calls) == 3:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(module, name, nan_on_third_call)
    with pytest.raises(DomainError, match=message):
        if solver == "multilayer":
            cfg = SolverConfig(beta=1.0, layers=driver_layers("deep"), max_sweeps=2)
            multilayer_factorize(driver_data(), cfg)
        else:
            driver_solve(solver, driver_data(), warm_start_sweeps=0)
    assert len(calls) == 3


# The sweep whose objective takes a NaN divergence from the third call of the
# objective's divergence, with every weight given (no balancing calls it) and
# no warm start: deep forms two divergences per sweep, min-vol only the last
# layer's, and multilayer one per sweep of layer 1's one-layer problem.
NAN_OBJECTIVE_SWEEP = {"deep": 1, "minvol": 2, "multilayer": 2}


@pytest.mark.parametrize("solver", sorted(NAN_OBJECTIVE_SWEEP))
def test_nan_objective_raises(solver, monkeypatch):
    real = deepbnmf.model.beta_div_matrix
    calls = []

    def nan_on_third_call(*args, **kwargs):
        calls.append(1)
        return np.nan if len(calls) == 3 else real(*args, **kwargs)

    monkeypatch.setattr(deepbnmf.model, "beta_div_matrix", nan_on_third_call)
    sweep = NAN_OBJECTIVE_SWEEP[solver]
    with pytest.raises(MonotonicityError, match=rf"to nan at sweep {sweep},"):
        if solver == "multilayer":
            cfg = SolverConfig(beta=1.0, layers=driver_layers("deep"), max_sweeps=4)
            multilayer_factorize(driver_data(), cfg)
        else:
            driver_solve(solver, driver_data(), lams=(1.0, 0.5), warm_start_sweeps=0)


MATRIX_CELLS = (
    [("multilayer", b) for b in SUPPORTED_BETAS]
    + [("deep", b) for b in SUPPORTED_BETAS]
    + [("minvol", 1.0)]
)


def rises(objectives, slack):
    """Indices where an objective exceeds its predecessor by more than slack."""
    objectives = np.asarray(objectives)
    return np.flatnonzero(objectives[1:] > objectives[:-1] + slack(objectives[:-1]))


@pytest.mark.filterwarnings("ignore:.*inner ADMM solves stopped:RuntimeWarning")
@pytest.mark.parametrize("scale", (1e-6, 1.0, 1e8))
@pytest.mark.parametrize("seed", (10090, 7063))
@pytest.mark.parametrize("solver, beta", MATRIX_CELLS)
def test_solver_beta_scale_matrix(solver, beta, seed, scale):
    # Every solver at every beta it accepts, on a sparse chain scaled from
    # 1e-6 to 1e8: the multipliers scale with the data, so no cell may fail.
    X = scale * sparse_chain_data(seed, m=40, n=30, ranks=(8, 5, 3))
    ranks = (8, 5, 3)
    if beta == 0.0:
        # The chain's zeros make every IS objective infinite, so they are
        # refused; the cell runs on the chain lifted off zero instead.
        solve = multilayer_factorize if solver == "multilayer" else deep_factorize
        config = SolverConfig(beta=beta, layers=[LayerSpec(r) for r in ranks])
        with pytest.raises(DomainError, match=r"beta = 0 needs strictly positive data: X has \d+ zero"):
            solve(X, config)
        X = X + 0.01 * X.mean()
    relative = lambda prev: MONOTONICITY_REL_SLACK * np.maximum(1.0, np.abs(prev))
    if solver == "multilayer":
        config = SolverConfig(beta=beta, layers=[LayerSpec(r) for r in ranks], max_sweeps=40)
        state, trace = multilayer_factorize(X, config)
        errors = np.array([rec.layer_errors for rec in trace.records])
        for k in range(len(ranks)):
            assert rises(errors[40 * k : 40 * (k + 1), k], relative).size == 0
        constraint = ROW_SIMPLEX_H
    elif solver == "deep":
        config = SolverConfig(
            beta=beta, layers=[LayerSpec(r) for r in ranks], max_sweeps=20, warm_start_sweeps=20
        )
        state, trace = deep_factorize(X, config)
        assert rises(trace.objectives(), relative).size == 0
        constraint = ROW_SIMPLEX_H
    else:
        config = SolverConfig(
            beta=1.0,
            layers=[LayerSpec(3, alpha=0.5), LayerSpec(2, alpha=0.1)],
            max_sweeps=20,
            warm_start_sweeps=20,
        )
        state, trace = minvol_factorize(X, config)
        budget = 10.0 * config.admm_tol * (sum(config.alphas()) + sum(trace.lambdas))
        assert rises(trace.objectives(), lambda prev: budget).size == 0
        constraint = COLUMN_SIMPLEX_W
    for M in state.W + state.H:
        assert np.all(np.isfinite(M)) and np.all(M > 0)
    assert simplex_residual(state, constraint) <= 1e-10
