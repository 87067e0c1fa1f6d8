"""The deep and min-vol sweeps share one product per layer, bit for bit.

The sweep driver keeps ``V_l = W_l H_l`` from one objective evaluation to
the next sweep and hands the same list to every layer update of a run.
There ``DeepBlocks`` reads it as the H step's ``W H~`` and the ``W_bar`` of
the layer below, and the kernels write their beta = 1 quotients into it.
``MinvolBlocks`` reads the same products, shares ``W~ H`` between its W
step and the step's rejection test, and hands the accepted side's product,
divergence and log-det to the objective.  These tests pin that every kernel
and the divergence return the same bits with and without the shared arrays,
that the driver never hands a kernel or the objective a stale product or
value, and that no returned factor aliases another or a buffer.
"""

import itertools

import numpy as np
import pytest

import deepbnmf.minvol
import deepbnmf.solvers
from conftest import sparse_chain_data
from deepbnmf.divergence import SUPPORTED_BETAS, beta_div_matrix
from deepbnmf.minvol import minvol_factorize
from deepbnmf.model import LayerSpec, SolverConfig, logdet_gram
from deepbnmf.solvers import deep_factorize, multilayer_factorize
from deepbnmf.updates import InnerWContext, update_h_simplex, update_w_inner, update_w_terminal


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def instance(seed, m=12, r=4, n=9, zeros=True):
    """Positive factors and a target whose zero entries exercise the masks."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.05, 1.0, (m, r))
    H = rng.uniform(0.05, 1.0, (r, n))
    H /= H.sum(axis=1, keepdims=True)
    Y = rng.uniform(0.05, 2.0, (m, n))
    if zeros:
        Y[rng.random((m, n)) < 0.3] = 0.0
        Y[:, 2] = 0.0
    return W, H, Y


def garbage(shape):
    """A scratch array whose old contents must not leak into a result."""
    return np.full(shape, np.nan)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_h_step_bit_for_bit_with_shared_product(beta, seed):
    W, H, Y = instance(seed)
    assert np.array_equal(update_h_simplex(W, Y, H, beta, V=W @ H), update_h_simplex(W, Y, H, beta))


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_inner_w_step_bit_for_bit_with_scratch(beta, seed):
    W, H, Y = instance(seed)
    rng = np.random.default_rng(seed + 10)
    W_bar = rng.uniform(0.05, 1.0, W.shape)
    ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=0.7)
    plain = update_w_inner(ctx, beta)
    scratch = garbage(Y.shape)
    assert np.array_equal(update_w_inner(ctx, beta, scratch=scratch), plain)
    assert np.array_equal(update_w_inner(ctx, beta, scratch=scratch), plain)  # reused


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_terminal_w_step_bit_for_bit_with_scratch(beta, seed):
    W, H, Y = instance(seed)
    plain = update_w_terminal(Y, W, H, beta)
    scratch = garbage(Y.shape)
    assert np.array_equal(update_w_terminal(Y, W, H, beta, scratch=scratch), plain)
    assert np.array_equal(update_w_terminal(Y, W, H, beta, scratch=scratch), plain)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("zeros", (True, False))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_divergence_bit_for_bit_on_the_solver_path(beta, zeros):
    # The solver path skips the input scans and, for beta = 1, takes the
    # mask A > 0 from the caller (None where A has no zero).
    _, _, A = instance(3, m=30, n=20, zeros=zeros)
    rng = np.random.default_rng(4)
    cases = [
        rng.uniform(0.05, 2.0, A.shape),
        rng.uniform(1e-300, 1e-290, A.shape),  # A / B overflows to inf
        np.where(A > 0, A, 0.5),  # A == B cells
    ]
    positive = A > 0 if zeros else None
    for B in cases:
        expected = beta_div_matrix(A, B, beta)
        got = beta_div_matrix(A, B, beta, out=garbage(A.shape), positive=positive)
        assert same_bits(got, expected)


CHAIN_RANKS = (8, 5, 3)


def chain_config(beta, **overrides):
    settings = {"max_sweeps": 6, "warm_start_sweeps": 4, "seed": 2, **overrides}
    return SolverConfig(beta=beta, layers=[LayerSpec(r) for r in CHAIN_RANKS], **settings)


def spy_on_kernels(monkeypatch):
    """Check each shared product the deep sweeps hand a kernel against a fresh
    product of the same factors; return every buffer handed out, and the
    product list of every layer update and objective call in order."""
    buffers, lists = [], []
    expected_bar = {}
    real_layer = deepbnmf.solvers.DeepBlocks.update_layer
    real_h = deepbnmf.solvers.update_h_simplex
    real_inner = deepbnmf.solvers.update_w_inner
    real_objective = deepbnmf.solvers.eval_objective

    def update_layer(self, state, i, lams, V):
        lists.append(("update", V))
        if i + 1 < state.num_layers:
            expected_bar["W_bar"] = state.W[i + 1] @ state.H[i + 1]
        return real_layer(self, state, i, lams, V)

    def h_step(W, Y, H_tilde, beta, V):
        assert V is not None and np.array_equal(V, W @ H_tilde)
        buffers.append(V)
        return real_h(W, Y, H_tilde, beta, V=V)

    def inner_step(ctx, beta, scratch):
        assert np.array_equal(ctx.W_bar, expected_bar.pop("W_bar"))
        buffers.extend((ctx.W_bar, scratch))
        return real_inner(ctx, beta, scratch=scratch)

    def objective(state, config, model, products, positive, cached, logdets):
        lists.append(("objective", products))
        return real_objective(state, config, model, products, positive, cached, logdets=logdets)

    monkeypatch.setattr(deepbnmf.solvers.DeepBlocks, "update_layer", update_layer)
    monkeypatch.setattr(deepbnmf.solvers, "update_h_simplex", h_step)
    monkeypatch.setattr(deepbnmf.solvers, "update_w_inner", inner_step)
    monkeypatch.setattr(deepbnmf.solvers, "eval_objective", objective)
    return buffers, lists


def assert_one_product_list_per_run(lists, runs):
    """Every layer update of a sweep gets the list that the sweep's objective
    then refreshes, and each run keeps one list for all its sweeps."""
    pending = []
    for kind, V in lists:
        if kind == "update":
            pending.append(V)
        else:
            assert pending and all(U is V for U in pending)
            pending = []
    assert not pending
    assert len({id(V) for _, V in lists}) == runs  # lists holds every list alive


def assert_no_aliasing(state, buffers):
    factors = state.W + state.H
    for a, b in itertools.combinations(factors, 2):
        assert not np.shares_memory(a, b)
    for factor, buffer in itertools.product(factors, buffers):
        assert not np.shares_memory(factor, buffer)


@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_deep_sweeps_share_fresh_products(beta, monkeypatch):
    # The warm start's multilayer sweeps run the same strategy, one layer at a time.
    buffers, lists = spy_on_kernels(monkeypatch)
    X = sparse_chain_data(10090, m=40, n=30, ranks=CHAIN_RANKS)
    if beta == 0.0:
        X = X + 0.01 * X.mean()
    state, trace = deep_factorize(X, chain_config(beta))
    assert len(trace) == 6
    assert len(buffers) == (4 + 6) * 3 + 2 * 6 * 2  # H steps, then inner W steps
    assert_no_aliasing(state, buffers)
    assert_one_product_list_per_run(lists, runs=3 + 1)  # three warm layers, then the deep run


def test_multilayer_factors_alias_nothing(monkeypatch):
    buffers, lists = spy_on_kernels(monkeypatch)
    X = sparse_chain_data(7063, m=40, n=30, ranks=CHAIN_RANKS)
    state, _ = multilayer_factorize(X, chain_config(1.0))
    assert len(buffers) == 6 * 3
    assert_no_aliasing(state, buffers)
    assert_one_product_list_per_run(lists, runs=3)


def spy_on_minvol(monkeypatch):
    """Check each product, divergence and log-det the min-vol sweeps hand a
    kernel or the objective against a fresh evaluation at the same factors;
    return the blocks objects made, every product handed out, and the
    product list of every min-vol layer update and objective call in order."""
    made, buffers, lists, expected_bar = [], [], [], {}
    mv = deepbnmf.minvol
    real_init, real_layer = mv.MinvolBlocks.__init__, mv.MinvolBlocks.update_layer
    real_h, real_admm, real_terminal = mv.update_h_plain, mv.admm_solve_w, mv.minvol_terminal_w_step
    real_objective = deepbnmf.solvers.eval_objective

    def init(self, config):
        real_init(self, config)
        made.append(self)

    def update_layer(self, state, i, lams, V):
        lists.append(("update", V))
        if i + 1 < state.num_layers:
            expected_bar["W_bar"] = state.W[i + 1] @ state.H[i + 1]
        return real_layer(self, state, i, lams, V)

    def h_step(W, Y, H_tilde, beta, V):
        assert V is not None and np.array_equal(V, W @ H_tilde)
        buffers.append(V)
        return real_h(W, Y, H_tilde, beta, V=V)

    def admm(ctx, ldctx, alpha_ratio, V, **kwargs):
        assert np.array_equal(V, ctx.W_tilde @ ctx.H)
        assert np.array_equal(ctx.W_bar, expected_bar.pop("W_bar"))
        buffers.extend((V, ctx.W_bar))
        return real_admm(ctx, ldctx, alpha_ratio, V=V, **kwargs)

    def terminal(Y, W_tilde, H, ldctx, alpha_ratio, V):
        assert np.array_equal(V, W_tilde @ H)
        buffers.append(V)
        return real_terminal(Y, W_tilde, H, ldctx, alpha_ratio, V=V)

    def objective(state, config, model, products, positive, cached, logdets):
        if model != "minvol":  # the multilayer warm start
            return real_objective(state, config, model, products, positive, cached, logdets=logdets)
        lists.append(("objective", products))
        assert sorted(cached) == list(range(state.num_layers - 1))  # the last is formed here
        for i, (div, ld) in cached.items():
            fresh = state.W[i] @ state.H[i]
            assert np.array_equal(products[i], fresh)
            assert same_bits(div, beta_div_matrix(state.prev_w(i), fresh, 1.0))
            assert same_bits(ld, logdet_gram(state.W[i], config.delta))
        total, per_layer = real_objective(
            state, config, model, products, positive, cached, logdets=logdets
        )
        assert all(np.array_equal(V, w @ h) for V, w, h in zip(products, state.W, state.H))
        assert same_bits(total, real_objective(state, config, model)[0])
        buffers.extend(products)
        return total, per_layer

    monkeypatch.setattr(mv.MinvolBlocks, "__init__", init)
    monkeypatch.setattr(mv.MinvolBlocks, "update_layer", update_layer)
    monkeypatch.setattr(mv, "update_h_plain", h_step)
    monkeypatch.setattr(mv, "admm_solve_w", admm)
    monkeypatch.setattr(mv, "minvol_terminal_w_step", terminal)
    monkeypatch.setattr(deepbnmf.solvers, "eval_objective", objective)
    return made, buffers, lists


@pytest.mark.filterwarnings("ignore:.*inner ADMM solves stopped:RuntimeWarning")
@pytest.mark.parametrize("scale", (1.0, 1e4))
def test_minvol_sweeps_share_fresh_products(scale, monkeypatch):
    # At scale 1e4 half the ADMM steps are rejected, so both sides of the
    # rejection test hand their product on; at 1 every step is.
    made, buffers, lists = spy_on_minvol(monkeypatch)
    X = scale * sparse_chain_data(10090, m=40, n=30, ranks=CHAIN_RANKS)
    layers = [LayerSpec(r, alpha=a) for r, a in zip(CHAIN_RANKS, (0.2, 0.1, 0.05))]
    config = SolverConfig(beta=1.0, layers=layers, max_sweeps=6, warm_start_sweeps=4, seed=2)
    state, trace = minvol_factorize(X, config)
    (blocks,) = made
    assert len(trace) == 6
    assert 0 < blocks.rejected_steps <= 12
    # Per sweep: 3 H steps, 2 ADMM solves (2 arrays each), 1 terminal step, 3 products.
    assert len(buffers) == 6 * (3 + 2 * 2 + 1 + 3)
    assert_no_aliasing(state, buffers)
    assert_one_product_list_per_run(lists, runs=1)
