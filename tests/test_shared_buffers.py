"""The sweeps share one product per layer and write into run-owned arrays, bit for bit.

The sweep driver keeps ``V_l = W_l H_l`` from one objective evaluation to
the next sweep and hands the same list to every layer update of a run.
There ``DeepBlocks`` reads it as the H step's ``W H~`` and the ``W_bar`` of
the layer below, and the kernels write their quotients into it.
``MinvolBlocks`` reads the same products, shares ``W~ H`` between its W
step and the step's rejection test, and hands the accepted side's product,
divergence and log-det to the objective.  Min-vol runs and deep runs at
beta != 1 also hold a pair of work arrays per layer, which take every other
target-sized intermediate.  These tests pin that every kernel and the
divergence return the same bits with and without the shared arrays, that
the kernels then allocate nothing of the target's size, that the driver
never hands a kernel or the objective a stale product or value, that no
returned factor aliases another or a buffer, and that the sweeps fault in
no pages.
"""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import deepbnmf.minvol
import deepbnmf.solvers
from conftest import hyperspectral_mixture, sparse_chain_data
from deepbnmf.divergence import SUPPORTED_BETAS, beta_div_matrix, mu_exponent
from deepbnmf.minvol import (
    _w_block_value,
    _w_step_terms,
    admm_solve_w,
    build_logdet_context,
    minvol_factorize,
    minvol_terminal_w_step,
)
from deepbnmf.model import MACHINE_EPS, LayerSpec, SolverConfig, logdet_gram
from deepbnmf.solvers import deep_factorize, multilayer_factorize
from deepbnmf.updates import (
    InnerWContext,
    _power_into,
    update_h_plain,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
)


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


def flat(x):
    """The arrays and numbers of a (nested) tuple, as float arrays."""
    return [b for a in x for b in flat(a)] if isinstance(x, tuple) else [np.asarray(x, dtype=float)]


def assert_same_with_work(kernel, expected, shape):
    """``kernel(work)`` returns ``expected``, bit for bit, with a NaN-filled
    work array and again when that array is reused."""
    work = garbage(shape)
    for _ in range(2):
        got, want = flat(kernel(work)), flat(expected)
        assert [a.shape for a in got] == [b.shape for b in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("e", (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0))
def test_power_into_is_numpys_power_operator(e):
    # The exponents beta - 2 and beta - 1 of the multiplicative steps: numpy's
    # ** takes reciprocal, ones and sqrt at -1, 0 and 1/2, and np.power does
    # not, so the helper must pick the operator's ufunc to keep the bits.
    rng = np.random.default_rng(5)
    V = np.concatenate([np.exp(rng.uniform(-300.0, 300.0, 4000)), rng.uniform(0.0, 2.0, 4000)])
    out = garbage(V.shape)
    assert _power_into(V, e, out) is out
    assert out.tobytes() == (V ** e).tobytes()
    assert _power_into(V.copy(), e, V).tobytes() == out.tobytes()  # in place


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_h_step_bit_for_bit_with_shared_product(beta, seed):
    W, H, Y = instance(seed)
    plain = update_h_simplex(W, Y, H, beta)
    assert_same_with_work(
        lambda work: update_h_simplex(W, Y, H, beta, V=W @ H, work=work), plain, Y.shape
    )


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_plain_h_step_bit_for_bit_with_work(beta, seed):
    W, H, Y = instance(seed)
    V = W @ H
    expected = np.maximum(  # the step's formula on fresh arrays, numpy's ** included
        H * ((W.T @ (Y * V ** (beta - 2.0))) / (W.T @ V ** (beta - 1.0))) ** mu_exponent(beta),
        MACHINE_EPS,
    )
    assert np.array_equal(update_h_plain(W, Y, H, beta), expected)
    assert_same_with_work(
        lambda work: update_h_plain(W, Y, H, beta, V=W @ H, work=work), expected, Y.shape
    )


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_inner_w_step_bit_for_bit_with_scratch(beta, seed):
    W, H, Y = instance(seed)
    rng = np.random.default_rng(seed + 10)
    W_bar = rng.uniform(0.05, 1.0, W.shape)
    ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=0.7)
    plain = update_w_inner(ctx, beta)
    scratch = garbage(Y.shape)
    assert_same_with_work(
        lambda work: update_w_inner(ctx, beta, scratch=scratch, work=work), plain, Y.shape
    )


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_terminal_w_step_bit_for_bit_with_scratch(beta, seed):
    W, H, Y = instance(seed)
    V = W @ H
    expected = np.maximum(  # the step's formula on fresh arrays, numpy's ** included
        W * (((Y * V ** (beta - 2.0)) @ H.T) / (V ** (beta - 1.0) @ H.T)) ** mu_exponent(beta),
        MACHINE_EPS,
    )
    assert np.array_equal(update_w_terminal(Y, W, H, beta), expected)
    scratch = garbage(Y.shape)
    assert_same_with_work(
        lambda work: update_w_terminal(Y, W, H, beta, scratch=scratch, work=work), expected, Y.shape
    )


@pytest.mark.parametrize("seed", (0, 1))
def test_minvol_w_steps_bit_for_bit_with_work(seed):
    W, H, Y = instance(seed)
    W /= W.sum(axis=0)
    A = build_logdet_context(W, 0.1)
    terms = _w_step_terms(Y, W, H, A, 100.0, 0.3)
    assert_same_with_work(
        lambda work: _w_step_terms(Y, W, H, A, 100.0, 0.3, W @ H, work), terms, Y.shape
    )
    step = minvol_terminal_w_step(Y, W, H, A, 0.3)
    assert_same_with_work(
        lambda work: minvol_terminal_w_step(Y, W, H, A, 0.3, V=W @ H, work=work), step, Y.shape
    )
    ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=np.roll(W, 1, axis=0), lambda_ratio=0.7)
    settings = {"rho": 100.0, "max_iter": 20, "tol": 1e-8}
    admm, _ = admm_solve_w(ctx, A, 0.3, **settings)
    assert_same_with_work(
        lambda work: admm_solve_w(ctx, A, 0.3, **settings, V=W @ H, work=work)[0], admm, Y.shape
    )


@pytest.mark.parametrize("zeros", (True, False))
def test_rejection_test_fit_bit_for_bit_on_the_solver_path(zeros):
    # The min-vol rejection test takes the solvers' path, with the run's
    # mask (None where the target has no zero) and a layer's work array.
    W, H, Y = instance(6, zeros=zeros)
    W /= W.sum(axis=0)
    args = (W, W @ H, Y, np.roll(W, 1, axis=0), 0.7, 1.3, 0.2, 0.1)
    checked = _w_block_value(*args)
    positive = Y > 0 if zeros else None
    assert_same_with_work(lambda out: _w_block_value(*args, out, positive), checked, Y.shape)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("zeros", (True, False))
@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_divergence_bit_for_bit_on_the_solver_path(beta, zeros):
    # The solver path skips the input scans and, for beta = 1, takes the
    # mask A > 0 from the caller (None where A has no zero); the beta = 0
    # and 1/2 cells take a second work array if one is given.
    _, _, A = instance(3, m=30, n=20, zeros=zeros)
    rng = np.random.default_rng(4)
    cases = [
        rng.uniform(0.05, 2.0, A.shape),
        rng.uniform(1e-300, 1e-290, A.shape),  # A / B overflows to inf
        np.where(A > 0, A, 0.5),  # A == B cells
    ]
    positive = A > 0 if zeros else None
    out, work = garbage(A.shape), garbage(A.shape)
    for B in cases:
        expected = beta_div_matrix(A, B, beta)
        got = beta_div_matrix(A, B, beta, out=garbage(A.shape), positive=positive)
        assert same_bits(got, expected)
        for _ in range(2):
            got = beta_div_matrix(A, B, beta, out=out, positive=positive, work=work)
            assert same_bits(got, expected)


def peak_bytes(call):
    """Peak bytes that ``call`` allocates, numpy arrays included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("beta", SUPPORTED_BETAS)
def test_kernels_allocate_no_target_sized_array(beta):
    # With the run's arrays handed in, a kernel's own allocations are of the
    # factors' size (r = 3 here), far below one array of the target's size.
    # At beta = 0 the solvers take no zero data.
    W, H, Y = instance(7, m=300, r=3, n=200, zeros=beta != 0.0)
    positive = Y > 0
    ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=np.roll(W, 1, axis=0), lambda_ratio=0.7)
    A = build_logdet_context(W / W.sum(axis=0), 0.1)
    V, work, spare = W @ H, garbage(Y.shape), garbage(Y.shape)
    calls = [
        lambda: update_h_simplex(W, Y, H, beta, V=np.matmul(W, H, out=V), work=work),
        lambda: update_h_plain(W, Y, H, beta, V=np.matmul(W, H, out=V), work=work),
        lambda: update_w_inner(ctx, beta, scratch=V, work=work),
        lambda: update_w_terminal(Y, W, H, beta, scratch=V, work=work),
    ]
    if beta != 1.5:  # its cells also allocate A - B
        calls.append(lambda: beta_div_matrix(Y, V, beta, out=work, positive=positive, work=spare))
    if beta == 1.0:  # min-vol's kernels, on the solvers' path
        np.matmul(W, H, out=V)
        calls += [
            lambda: minvol_terminal_w_step(Y, W, H, A, 0.3, V=V, work=work),
            lambda: admm_solve_w(ctx, A, 0.3, rho=100.0, max_iter=5, tol=1e-8, V=V, work=work),
            lambda: _w_block_value(W, V, Y, ctx.W_bar, 0.7, 1.3, 0.2, 0.1, work, positive),
        ]
    for call in calls:
        call()  # numpy's first-call caches
        assert peak_bytes(call) < Y.nbytes / 2


CHAIN_RANKS = (8, 5, 3)


def chain_config(beta, **overrides):
    settings = {"max_sweeps": 6, "warm_start_sweeps": 4, "seed": 2, **overrides}
    return SolverConfig(beta=beta, layers=[LayerSpec(r) for r in CHAIN_RANKS], **settings)


def note_run_arrays(V, work, arrays):
    """Check that no two of a run's products and work arrays share memory,
    and record them all."""
    held = list(V) + ([] if work is None else [a for pair in work for a in pair])
    for a, b in itertools.combinations(held, 2):
        assert not np.shares_memory(a, b)
    arrays.extend(held)


def distinct(arrays):
    return len({id(a) for a in arrays})  # the list keeps every array alive


def spy_on_kernels(monkeypatch):
    """Check each shared product the deep sweeps hand a kernel against a fresh
    product of the same factors; return every buffer handed out, the product
    list of every layer update and objective call in order, and the products
    and work arrays held at every layer update."""
    buffers, lists, arrays = [], [], []
    expected_bar = {}
    real_layer = deepbnmf.solvers.DeepBlocks.update_layer
    real_h = deepbnmf.solvers.update_h_simplex
    real_inner = deepbnmf.solvers.update_w_inner
    real_objective = deepbnmf.solvers.eval_objective

    def update_layer(self, state, i, lams, V, work, positive):
        lists.append(("update", V))
        note_run_arrays(V, work, arrays)
        if i + 1 < state.num_layers:
            expected_bar["W_bar"] = state.W[i + 1] @ state.H[i + 1]
        return real_layer(self, state, i, lams, V, work, positive)

    def h_step(W, Y, H_tilde, beta, V, work):
        assert V is not None and np.array_equal(V, W @ H_tilde)
        buffers.append(V)
        return real_h(W, Y, H_tilde, beta, V=V, work=work)

    def inner_step(ctx, beta, scratch, work):
        assert np.array_equal(ctx.W_bar, expected_bar.pop("W_bar"))
        buffers.extend((ctx.W_bar, scratch))
        return real_inner(ctx, beta, scratch=scratch, work=work)

    def objective(state, config, model, products, positive, cached, logdets, work):
        lists.append(("objective", products))
        return real_objective(
            state, config, model, products, positive, cached, logdets=logdets, work=work
        )

    monkeypatch.setattr(deepbnmf.solvers.DeepBlocks, "update_layer", update_layer)
    monkeypatch.setattr(deepbnmf.solvers, "update_h_simplex", h_step)
    monkeypatch.setattr(deepbnmf.solvers, "update_w_inner", inner_step)
    monkeypatch.setattr(deepbnmf.solvers, "eval_objective", objective)
    return buffers, lists, arrays


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
    buffers, lists, arrays = spy_on_kernels(monkeypatch)
    X = sparse_chain_data(10090, m=40, n=30, ranks=CHAIN_RANKS)
    if beta == 0.0:
        X = X + 0.01 * X.mean()
    state, trace = deep_factorize(X, chain_config(beta))
    assert len(trace) == 6
    assert len(buffers) == (4 + 6) * 3 + 2 * 6 * 2  # H steps, then inner W steps
    # Each of the four runs holds a product per layer and, except deep KL
    # (README: peak memory), a pair of work arrays: the same arrays all along.
    assert distinct(arrays) == (1 if beta == 1.0 else 3) * (3 + 3)
    assert_no_aliasing(state, buffers + arrays)
    assert_one_product_list_per_run(lists, runs=3 + 1)  # three warm layers, then the deep run


def test_multilayer_factors_alias_nothing(monkeypatch):
    buffers, lists, arrays = spy_on_kernels(monkeypatch)
    X = sparse_chain_data(7063, m=40, n=30, ranks=CHAIN_RANKS)
    state, _ = multilayer_factorize(X, chain_config(1.0))
    assert len(buffers) == 6 * 3
    assert distinct(arrays) == 3  # a product per run, no work arrays
    assert_no_aliasing(state, buffers)
    assert_one_product_list_per_run(lists, runs=3)


def spy_on_minvol(monkeypatch):
    """Check each product, divergence and log-det the min-vol sweeps hand a
    kernel or the objective against a fresh evaluation at the same factors;
    return the blocks objects made, every product handed out, the product
    list of every min-vol layer update and objective call in order, and the
    products and work arrays held at every min-vol layer update."""
    made, buffers, lists, arrays, expected_bar = [], [], [], [], {}
    mv = deepbnmf.minvol
    real_init, real_layer = mv.MinvolBlocks.__init__, mv.MinvolBlocks.update_layer
    real_h, real_admm, real_terminal = mv.update_h_plain, mv.admm_solve_w, mv.minvol_terminal_w_step
    real_objective = deepbnmf.solvers.eval_objective

    def init(self, config):
        real_init(self, config)
        made.append(self)

    def update_layer(self, state, i, lams, V, work, positive):
        lists.append(("update", V))
        note_run_arrays(V, work, arrays)
        if i + 1 < state.num_layers:
            expected_bar["W_bar"] = state.W[i + 1] @ state.H[i + 1]
        return real_layer(self, state, i, lams, V, work, positive)

    def h_step(W, Y, H_tilde, beta, V):
        assert V is not None and np.array_equal(V, W @ H_tilde)
        buffers.append(V)
        return real_h(W, Y, H_tilde, beta, V=V)

    def admm(ctx, A, alpha_ratio, V, **kwargs):
        assert np.array_equal(V, ctx.W_tilde @ ctx.H)
        assert np.array_equal(ctx.W_bar, expected_bar.pop("W_bar"))
        buffers.extend((V, ctx.W_bar))
        return real_admm(ctx, A, alpha_ratio, V=V, **kwargs)

    def terminal(Y, W_tilde, H, A, alpha_ratio, V, work):
        assert np.array_equal(V, W_tilde @ H)
        buffers.append(V)
        return real_terminal(Y, W_tilde, H, A, alpha_ratio, V=V, work=work)

    def objective(state, config, model, products, positive, cached, logdets, work):
        if model != "minvol":  # the multilayer warm start
            return real_objective(
                state, config, model, products, positive, cached, logdets=logdets, work=work
            )
        lists.append(("objective", products))
        assert sorted(cached) == list(range(state.num_layers - 1))  # the last is formed here
        for i, (div, ld) in cached.items():
            fresh = state.W[i] @ state.H[i]
            assert np.array_equal(products[i], fresh)
            assert same_bits(div, beta_div_matrix(state.prev_w(i), fresh, 1.0))
            assert same_bits(ld, logdet_gram(state.W[i], config.delta))
        total, per_layer = real_objective(
            state, config, model, products, positive, cached, logdets=logdets, work=work
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
    return made, buffers, lists, arrays


@pytest.mark.filterwarnings("ignore:.*inner ADMM solves stopped:RuntimeWarning")
@pytest.mark.parametrize("scale", (1.0, 1e4))
def test_minvol_sweeps_share_fresh_products(scale, monkeypatch):
    # At scale 1e4 half the ADMM steps are rejected, so both sides of the
    # rejection test hand their product on; at 1 every step is.
    made, buffers, lists, arrays = spy_on_minvol(monkeypatch)
    X = scale * sparse_chain_data(10090, m=40, n=30, ranks=CHAIN_RANKS)
    layers = [LayerSpec(r, alpha=a) for r, a in zip(CHAIN_RANKS, (0.2, 0.1, 0.05))]
    config = SolverConfig(beta=1.0, layers=layers, max_sweeps=6, warm_start_sweeps=4, seed=2)
    state, trace = minvol_factorize(X, config)
    (blocks,) = made
    assert len(trace) == 6
    assert 0 < blocks.rejected_steps <= 12
    # Per sweep: 3 H steps, 2 ADMM solves (2 arrays each), 1 terminal step, 3 products.
    assert len(buffers) == 6 * (3 + 2 * 2 + 1 + 3)
    # A product and a pair of work arrays per layer: an accepted step swaps
    # its candidate product with the layer's, and no sweep adds an array.
    assert distinct(arrays) == 3 * 3
    assert_no_aliasing(state, buffers + arrays)
    assert_one_product_list_per_run(lists, runs=1)


# Sweeps of the second solve counted in the page-fault guard below.
FAULT_SWEEPS = 40


def mixture_solve():
    layers = [LayerSpec(3, alpha=0.5), LayerSpec(2, alpha=0.1)]
    config = SolverConfig(
        beta=1.0, layers=layers, max_sweeps=FAULT_SWEEPS, warm_start_sweeps=10, seed=2
    )
    return minvol_factorize(hyperspectral_mixture(3)[0], config)


def half_chain_solve():
    layers = [LayerSpec(r) for r in (20, 10, 5)]
    config = SolverConfig(beta=0.5, layers=layers, max_sweeps=FAULT_SWEEPS, warm_start_sweeps=10)
    return deep_factorize(sparse_chain_data(3, m=400, n=200), config)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
@pytest.mark.filterwarnings("ignore:.*inner ADMM solves stopped:RuntimeWarning")
@pytest.mark.parametrize("solve", (mixture_solve, half_chain_solve), ids=("minvol", "deep_half"))
def test_sweeps_fault_in_no_pages(solve, monkeypatch):
    # Every X-sized intermediate of these sweeps goes into an array that
    # lasts the run.  Fresh ones, two of them freed together, passed glibc's
    # heap trim threshold: the pages went back to the OS and the next sweep
    # faulted them in again: about 95 faults per min-vol sweep here and 940
    # per deep sweep, where the new code takes none.  Counted over
    # the second solve's sweeps from the third on, after the allocator's
    # thresholds and the heap's high-water mark have settled, so the run's
    # own arrays are left out.  glibc raises its thresholds to the largest
    # block a process has freed, which hides the churn of smaller arrays: on
    # the 200 x 100 chain it did not show in a test process.  So the chain
    # is 400 x 200 (640 KB arrays) and runs after the 400 KB mixture.
    resource = pytest.importorskip("resource")
    marks = []
    real_objective = deepbnmf.solvers.eval_objective

    def objective(*args, **kwargs):
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real_objective(*args, **kwargs)

    monkeypatch.setattr(deepbnmf.solvers, "eval_objective", objective)
    solve()
    marks.clear()
    solve()
    counted = marks[-FAULT_SWEEPS + 2:]  # from the third sweep's objective call on
    assert counted[-1] - counted[0] < len(counted) - 1
