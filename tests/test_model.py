import math

import numpy as np
import pytest

from conftest import exact_two_layer_chain
from oracles import logdet_gram_eig
from deepbnmf.divergence import beta_div_matrix
from deepbnmf.errors import ConfigError, DegenerateInputError, DimensionError
from deepbnmf.model import (
    COLUMN_SIMPLEX_W,
    DeepState,
    LayerSpec,
    ROW_SIMPLEX_H,
    SolverConfig,
    auto_balance_weights,
    check_ranks,
    eval_objective,
    init_random,
    logdet_gram,
    simplex_residual,
)


def two_layer_config(beta=1.0, **kwargs):
    return SolverConfig(
        beta=beta, layers=[LayerSpec(4, lam=1.0), LayerSpec(2, lam=1.0)], **kwargs
    )


class TestInitRandom:
    def test_row_simplex(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (4, 4))
        state = init_random(X, [LayerSpec(2), LayerSpec(1)], seed=7, constraint=ROW_SIMPLEX_H)
        for h in state.H:
            assert np.abs(h.sum(axis=1) - 1.0).max() <= 1e-12
        for mat in state.W + state.H:
            assert np.all(mat > 0)

    def test_column_simplex(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (4, 4))
        state = init_random(X, [LayerSpec(2), LayerSpec(1)], seed=7, constraint=COLUMN_SIMPLEX_W)
        for w in state.W:
            assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12

    def test_deterministic(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (4, 4))
        a = init_random(X, [LayerSpec(2), LayerSpec(1)], seed=3, constraint=ROW_SIMPLEX_H)
        b = init_random(X, [LayerSpec(2), LayerSpec(1)], seed=3, constraint=ROW_SIMPLEX_H)
        for ma, mb in zip(a.W + a.H, b.W + b.H):
            assert np.array_equal(ma, mb)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            init_random(np.zeros((3, 3)), [LayerSpec(2)], seed=0, constraint=ROW_SIMPLEX_H)

    def test_nondecreasing_ranks_rejected(self):
        X = np.ones((4, 4))
        with pytest.raises(ConfigError):
            init_random(X, [LayerSpec(2), LayerSpec(2)], seed=0, constraint=ROW_SIMPLEX_H)
        with pytest.raises(ConfigError):
            check_ranks(4, [LayerSpec(4)])


class TestAutoBalance:
    def test_reciprocal(self):
        X, W, H = exact_two_layer_chain(1)
        state = DeepState(X=X, W=[w.copy() for w in W], H=[h.copy() for h in H])
        # Perturb so divergences are (some known) positive values.
        state.W[0] = state.W[0] * 1.3
        state.W[1] = state.W[1] * 0.8
        weights = auto_balance_weights(state, 1.0)
        for i, lam in enumerate(weights):
            div = beta_div_matrix(state.prev_w(i), state.W[i] @ state.H[i], 1.0)
            assert lam == pytest.approx(1.0 / div, rel=1e-12)

    def test_zero_divergence_warns(self):
        X, W, H = exact_two_layer_chain(2)
        state = DeepState(X=X, W=W, H=H)
        with pytest.warns(RuntimeWarning):
            weights = auto_balance_weights(state, 1.0)
        assert weights == [1.0, 1.0]

    def test_weighted_terms_equal_one(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.1, 1.0, (10, 8))
        state = init_random(X, [LayerSpec(4), LayerSpec(2)], seed=1, constraint=ROW_SIMPLEX_H)
        weights = auto_balance_weights(state, 1.0)
        for i, lam in enumerate(weights):
            term = lam * beta_div_matrix(state.prev_w(i), state.W[i] @ state.H[i], 1.0)
            assert term == pytest.approx(1.0, abs=1e-10)


class TestEvalObjective:
    def test_exact_chain_is_zero(self):
        X, W, H = exact_two_layer_chain(3)
        state = DeepState(X=X, W=W, H=H)
        for beta in (0.0, 0.5, 1.0, 1.5, 2.0):
            total, _ = eval_objective(state, two_layer_config(beta=beta), "plain")
            assert total == 0.0

    def test_perturbation_is_positive(self):
        X, W, H = exact_two_layer_chain(3)
        state = DeepState(X=X, W=W, H=H)
        state.W[0] = state.W[0] * 1.01
        total, _ = eval_objective(state, two_layer_config(), "plain")
        assert total > 0

    def test_matches_divergence_recomputation(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 1.0, (6, 5))
        state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=2, constraint=ROW_SIMPLEX_H)
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(3, lam=1.0), LayerSpec(2, lam=1.0)])
        total, per_layer = eval_objective(state, cfg, "plain")
        expected = beta_div_matrix(X, state.W[0] @ state.H[0], 1.0) + beta_div_matrix(
            state.W[0], state.W[1] @ state.H[1], 1.0
        )
        assert total == pytest.approx(expected, rel=1e-12)
        assert per_layer[0].weighted_divergence == per_layer[0].divergence

    def test_plain_reports_unweighted_logdet(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 1.0, (6, 5))
        state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=2, constraint=ROW_SIMPLEX_H)
        layers = [LayerSpec(3, lam=1.0, alpha=0.5), LayerSpec(2, lam=1.0, alpha=0.5)]
        cfg = SolverConfig(beta=1.0, layers=layers, delta=0.2)
        total, per_layer = eval_objective(state, cfg, "plain")
        for w, term in zip(state.W, per_layer):
            assert term.logdet == logdet_gram(w, 0.2)
            assert term.weighted_logdet == 0.0
        assert total == sum(t.weighted_divergence for t in per_layer)

    def test_minvol_identity_logdet(self):
        # Exact chain built on W2 = [I2; 0]: all divergence terms vanish, so
        # the total reduces to the layer-2 volume term 2 log(1.1) at delta 0.1.
        rng = np.random.default_rng(4)
        m, r1, r2, n = 6, 4, 2, 10
        W2 = np.vstack([np.eye(r2), np.zeros((m - r2, r2))])
        H2 = rng.uniform(0.2, 1.0, (r2, r1))
        H1 = rng.uniform(0.2, 1.0, (r1, n))
        W1 = W2 @ H2
        state = DeepState(X=W1 @ H1, W=[W1, W2], H=[H1, H2])
        cfg = SolverConfig(
            beta=1.0,
            layers=[LayerSpec(r1, lam=1.0, alpha=0.0), LayerSpec(r2, lam=1.0, alpha=1.0)],
            delta=0.1,
        )
        total, per_layer = eval_objective(state, cfg, "minvol")
        assert per_layer[1].logdet == pytest.approx(2.0 * math.log(1.1), abs=1e-10)
        assert per_layer[1].logdet == pytest.approx(0.190620, abs=1e-6)
        assert total == pytest.approx(per_layer[0].logdet * 0.0 + 2.0 * math.log(1.1), abs=1e-10)

    def test_logdets_flag_skips_only_plain_diagnostics(self):
        # The min-vol log-dets are objective terms, so logdets=False keeps them.
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 1.0, (6, 5))
        state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=2, constraint=COLUMN_SIMPLEX_W)
        layers = [LayerSpec(3, lam=1.0, alpha=0.5), LayerSpec(2, lam=0.7, alpha=0.2)]
        cfg = SolverConfig(beta=1.0, layers=layers, delta=0.2)
        total, per_layer = eval_objective(state, cfg, "minvol")
        skipped_total, skipped = eval_objective(state, cfg, "minvol", logdets=False)
        assert np.float64(skipped_total).tobytes() == np.float64(total).tobytes()
        for kept, term in zip(skipped, per_layer):
            assert np.isfinite(kept.logdet) and kept.logdet == term.logdet
        plain_total, plain = eval_objective(state, cfg, "plain")
        skipped_total, skipped = eval_objective(state, cfg, "plain", logdets=False)
        assert skipped_total == plain_total
        assert all(np.isnan(t.logdet) for t in skipped)

    def test_unresolved_lambda_rejected(self):
        X, W, H = exact_two_layer_chain(3)
        state = DeepState(X=X, W=W, H=H)
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(4), LayerSpec(2)])
        with pytest.raises(ConfigError):
            eval_objective(state, cfg, "plain")


class TestLogdetGram:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        for delta in (0.1, 0.5):
            assert logdet_gram(Q, delta) == pytest.approx(3.0 * math.log(1.0 + delta), abs=1e-10)

    def test_matches_slogdet(self):
        rng = np.random.default_rng(12)
        W = rng.uniform(0.0, 1.0, (8, 3))
        expected = np.linalg.slogdet(W.T @ W + 0.1 * np.eye(3))[1]
        assert logdet_gram(W, 0.1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e8])
    @pytest.mark.parametrize("shape", [(20, 3), (50, 5), (200, 20)])
    def test_agrees_with_eigenvalues(self, scale, shape):
        # Well conditioned: Gaussian columns, so LU and eigenvalues agree.
        # delta != 1 keeps the log-det away from 0 at the small scales.
        W = scale * np.random.default_rng(shape[1]).normal(size=shape)
        for delta in (0.1, 0.5):
            expected = logdet_gram_eig(W, delta)
            assert abs(logdet_gram(W, delta) - expected) <= 1e-12 * abs(expected)

    def test_leaves_w_unchanged(self):
        W = np.random.default_rng(4).uniform(size=(30, 4))
        before = W.copy()
        logdet_gram(W, 0.1)
        assert np.array_equal(W, before)

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_nan_unless_the_sign_is_positive(self, monkeypatch, sign):
        # A sign of -1 or 0 means rounding lost the definiteness: the
        # log|det| that comes with it is no log-det at all.
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (sign, 3.0))
        assert np.isnan(logdet_gram(np.eye(4, 2), 0.1))

    def test_positive_sign_gives_the_log_abs_det(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (1.0, 3.0))
        assert logdet_gram(np.eye(4, 2), 0.1) == 3.0

    def test_nan_exactly_where_the_sign_is_not_positive(self):
        # Nearly collinear columns at a scale where delta = 0.1 is lost in the
        # Gram matrix's rounding.  Whether a draw's sign comes out -1, 0 or
        # +1 is up to the host's LAPACK; the rule must hold on each.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            W = rng.uniform(size=(200, 3))
            W[:, 1] = W[:, 0] * (1.0 + 1e-9 * rng.normal(size=200))
            W *= 1e10
            gram = W.T @ W + 0.1 * np.eye(3)
            sign = np.linalg.slogdet(gram)[0]
            value = logdet_gram(W, 0.1)
            assert np.isnan(value) if sign != 1.0 else np.isfinite(value)

    def test_exactly_collinear_columns_give_nan(self):
        W = np.random.default_rng(5).uniform(size=(200, 3)) * 1e10
        W[:, 2] = W[:, 0]
        assert np.isnan(logdet_gram(W, 0.1))
        X, Wc, H = exact_two_layer_chain(3)
        Wc[0][:, 1] = Wc[0][:, 0] * 1e10
        Wc[0][:, 0] = Wc[0][:, 1]
        _, per_layer = eval_objective(DeepState(X=X, W=Wc, H=H), two_layer_config(), "plain")
        assert np.isnan(per_layer[0].logdet)


class TestValidateState:
    def test_fresh_state_clean(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (5, 5))
        state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=0, constraint=ROW_SIMPLEX_H)
        state.check_dims()
        assert all(np.all(mat > 0) for mat in state.W + state.H)
        assert simplex_residual(state, ROW_SIMPLEX_H) <= 1e-12

    def test_simplex_residual_reported(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (5, 5))
        state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=0, constraint=ROW_SIMPLEX_H)
        state.H[0][0] = state.H[0][0] * 1.01
        assert simplex_residual(state, ROW_SIMPLEX_H) == pytest.approx(0.01, abs=1e-9)

    def test_simplex_residual_keeps_nan(self):
        X = np.random.default_rng(0).uniform(0.1, 1.0, (5, 5))
        for layer in (0, 1):
            state = init_random(X, [LayerSpec(3), LayerSpec(2)], seed=0, constraint=ROW_SIMPLEX_H)
            state.H[layer][1, 0] = np.nan
            assert np.isnan(simplex_residual(state, ROW_SIMPLEX_H))

    def test_dims_checked(self):
        X, W, H = exact_two_layer_chain(3)
        state = DeepState(X=X, W=W, H=[H[0][:, :-1], H[1]])
        with pytest.raises(DimensionError):
            state.check_dims()


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(beta=1.0, layers=[LayerSpec(2)], delta=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(beta=0.7, layers=[LayerSpec(2)])
        with pytest.raises(ConfigError):
            LayerSpec(0)
        with pytest.raises(ConfigError):
            LayerSpec(2, lam=-1.0)

    @pytest.mark.parametrize("name", ["delta", "rho", "admm_tol", "rel_obj_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SolverConfig(beta=1.0, layers=[LayerSpec(2)], **{name: value})

    @pytest.mark.parametrize("field", ["lam", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_layer_weights_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            LayerSpec(2, **{field: value})

    def test_with_lambdas(self):
        cfg = SolverConfig(beta=1.0, layers=[LayerSpec(4), LayerSpec(2)])
        resolved = cfg.with_lambdas([0.5, 2.0])
        assert resolved.lambdas() == [0.5, 2.0]
        with pytest.raises(ConfigError):
            cfg.lambdas()
