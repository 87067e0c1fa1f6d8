from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deepbnmf.updates
from conftest import assert_started_left_and_rose, recorded_solves
from deepbnmf.divergence import SUPPORTED_BETAS, beta_div_matrix
from deepbnmf.updates import (
    InnerWContext,
    epsilon_floor,
    half_inner_cells,
    is_inner_cells,
    kl_inner_cells,
    three_half_inner_cells,
    update_h_plain,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
)
from oracles import (
    beta_fit_majorizer_value,
    brute_force_scalar_min,
    kl_terminal_w_ones,
    simplex_descent_min,
    w_fit_majorizer_value,
)

# The betas whose simplex H update solves for one multiplier per row.
SOLVED_BETAS = (0.0, 0.5, 1.5, 2.0)


def random_instance(seed, m=5, r=3, n=6, simplex_rows=True):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.2, 1.0, (m, r))
    H = rng.uniform(0.2, 1.0, (r, n))
    if simplex_rows:
        H /= H.sum(axis=1, keepdims=True)
    Y = rng.uniform(0.05, 2.0, (m, n))
    return W, H, Y


def implied_multipliers(W, Y, H_tilde, H, beta):
    """The row multiplier each positive entry of H implies through the
    stationarity of the H majorizer, the size of the terms it is the
    difference of, and the least multiplier that keeps a zero entry at zero.

    With V = W H~ the stationarity reads, for beta = 1/2 (e = 2/3) and
    beta = 0 (e = 1/2), mu = B (h~/h)^(1/e) - C with B = W^T (Y V^(beta-2))
    and C = W^T V^(beta-1), and h = 0 needs mu >= -C; for beta = 3/2,
    mu = B/x - A x with x = sqrt(h/h~), B = W^T (Y/sqrt V) and
    A = W^T sqrt V; for beta = 2, mu = B - A h/h~ with B = W^T Y and
    A = W^T V.  For those two, h = 0 needs mu >= B.
    """
    V = W @ H_tilde
    # Entries at the floor overflow; the caller leaves them out.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if beta in (0.0, 0.5):
            B = W.T @ (Y * V ** (beta - 2.0))
            C = W.T @ V ** (beta - 1.0)
            terms = B * (H_tilde / H) ** (1.5 if beta == 0.5 else 2.0)
            return terms - C, np.maximum(terms, C), -C
        if beta == 1.5:
            B = W.T @ (Y / np.sqrt(V))
            A = W.T @ np.sqrt(V)
            x = np.sqrt(H / H_tilde)
            return B / x - A * x, np.maximum(B / x, A * x), B
    B = W.T @ Y
    pull = (W.T @ V) * H / H_tilde
    return B - pull, np.maximum(B, pull), B


def brute_force_cell(surrogate, M, cell):
    """Brute-force minimizer of ``surrogate`` over one entry of M, the others fixed."""
    trial = M.copy()

    def along(grid):
        values = []
        for x in grid:
            trial[cell] = x
            values.append(surrogate(trial))
        return values

    return brute_force_scalar_min(along, 1e-6, 50.0)


class TestEpsilonFloor:
    def test_basic(self):
        out = epsilon_floor(np.array([[0.0, 1.0]]), 1e-16)
        assert out[0, 0] == 1e-16 and out[0, 1] == 1.0

    def test_above_floor_unchanged(self):
        M = np.array([[0.5, 2.0]])
        assert np.array_equal(epsilon_floor(M, 1e-16), M)

    def test_signed_zero(self):
        out = epsilon_floor(np.array([[-0.0]]), 1e-16)
        assert out[0, 0] == 1e-16

    def test_float64_output(self):
        # A warm state's float32 factors leave the solver's first floor in float64.
        out = epsilon_floor(np.ones((1, 2), dtype=np.float32), 1e-16)
        assert out.dtype == np.float64 and out[0, 0] == 1.0


class TestHSimplex:
    def test_kl_reduces_to_row_normalization(self):
        W = np.array([[1.0], [1.0]])
        H_tilde = np.array([[0.5, 0.5]])
        Y = np.array([[0.6, 0.4], [0.6, 0.4]])
        H = update_h_simplex(W, Y, H_tilde, 1.0)
        assert H == pytest.approx(np.array([[0.6, 0.4]]), abs=1e-12)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_fixed_point_on_exact_data(self, beta):
        W, H_tilde, _ = random_instance(1)
        Y = W @ H_tilde
        H = update_h_simplex(W, Y, H_tilde, beta)
        assert np.max(np.abs(H - H_tilde) / H_tilde) <= 1e-10

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_rows_on_simplex(self, beta):
        W, H_tilde, Y = random_instance(2)
        H = update_h_simplex(W, Y, H_tilde, beta)
        assert np.abs(H.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.all(H >= 0)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_matches_constrained_oracle(self, beta):
        # Row-wise constrained minimizer of the majorizer via independent
        # pairwise-transfer descent on the simplex.
        W, H_tilde, Y = random_instance(3, m=3, r=3, n=4)
        H = update_h_simplex(W, Y, H_tilde, beta, eps=1e-300)
        for k in range(H_tilde.shape[0]):
            def row_objective(row, k=k):
                trial = H.copy()
                trial[k] = row
                return beta_fit_majorizer_value(W, Y, trial, H_tilde, beta)

            oracle_row = simplex_descent_min(row_objective, H_tilde.shape[1])
            assert np.max(np.abs(H[k] - oracle_row)) <= 1e-5

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_majorizer_and_objective_descend(self, beta):
        for seed in range(50):
            W, H_tilde, Y = random_instance(100 + seed)
            H = update_h_simplex(W, Y, H_tilde, beta, eps=1e-300)
            before = beta_fit_majorizer_value(W, Y, H_tilde, H_tilde, beta)
            after = beta_fit_majorizer_value(W, Y, H, H_tilde, beta)
            assert after <= before + 1e-10 * max(1.0, abs(before))
            obj_before = beta_div_matrix(Y, W @ H_tilde, beta)
            obj_after = beta_div_matrix(Y, W @ H, beta)
            assert obj_after <= obj_before + 1e-10 * max(1.0, abs(obj_before))

    def test_zero_numerator_row_unchanged(self):
        W = np.full((3, 2), 0.5)
        H_tilde = np.full((2, 3), 1.0 / 3.0)
        Y = np.zeros((3, 3))
        with pytest.warns(RuntimeWarning):
            H = update_h_simplex(W, Y, H_tilde, 1.0)
        assert H == pytest.approx(H_tilde, abs=1e-15)

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 8.0),
        beta=st.sampled_from(SOLVED_BETAS),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(2, 6)),
        sparse=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    # Rows where a zero-data entry stops the multiplier and takes the rest.
    @example(seed=1, log_scale=-1.0, beta=0.5, shape=(1, 2, 2), sparse=True)
    @example(seed=0, log_scale=0.0, beta=0.0, shape=(1, 2, 3), sparse=True)
    def test_certified_at_every_scale(self, seed, log_scale, beta, shape, sparse):
        # The update minimizes its majorizer over the simplex at data scales
        # 1e-6 to 1e8: it does not raise the majorizer above its anchor
        # value, and every row meets the KKT conditions with one multiplier.
        # Each row's solve starts left of its root and rises to it.
        m, r, n = shape
        rng = np.random.default_rng(seed)
        W = rng.uniform(0.05, 1.0, (m, r))
        H_tilde = rng.uniform(0.05, 1.0, (r, n))
        H_tilde /= H_tilde.sum(axis=1, keepdims=True)
        Y = 10.0 ** log_scale * rng.uniform(0.05, 2.0, (m, n))
        if sparse:
            Y[:, 1:] *= rng.uniform(size=(m, n - 1)) < 0.5
        with recorded_solves(deepbnmf.updates) as solves:
            H = update_h_simplex(W, Y, H_tilde, beta, eps=1e-300)
        assert len(solves) == 1
        assert_started_left_and_rose(solves)
        assert np.abs(H.sum(axis=1) - 1.0).max() <= 1e-12
        before = beta_fit_majorizer_value(W, Y, H_tilde, H_tilde, beta)
        after = beta_fit_majorizer_value(W, Y, H, H_tilde, beta)
        # Zero data makes the IS divergence, and so its majorizer, infinite.
        assert after <= before + 1e-10 * abs(before) or np.isinf(before)

        mu, size, bound = implied_multipliers(W, Y, H_tilde, H, beta)
        on = H > 1e-280
        for k in range(r):
            row_mu = mu[k, on[k]]
            tol = 1e-8 * size[k, on[k]].max()
            assert row_mu.max() - row_mu.min() <= tol
            assert np.all(bound[k, ~on[k]] <= row_mu.min() + tol)


class TestWInner:
    def make_ctx(self, seed, lam=0.7):
        W, H, _ = random_instance(seed, m=5, r=3, n=6)
        Y = W @ H
        return InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W, lambda_ratio=lam)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_fixed_point_on_exact_chain(self, beta):
        ctx = self.make_ctx(4)
        W_new = update_w_inner(ctx, beta)
        assert np.max(np.abs(W_new - ctx.W_tilde) / ctx.W_tilde) <= 1e-8

    def test_kl_scalar_probe(self):
        # a = 0, b = 1, lam = 1: the update is 1/W0(1) and satisfies
        # a = b/w - lam*log(w) to machine precision.
        w = kl_inner_cells(np.array([1.0]), np.array([0.0]), 1.0)[0]
        assert w == pytest.approx(1.763223, abs=1e-6)
        assert abs(1.0 / w - np.log(w)) <= 1e-12

    def test_kl_vanishing_numerator_limit(self):
        a = 1.7
        exact = np.exp(-a)
        cells = kl_inner_cells(np.array([1e-13, 0.0]), np.array([a, a]), 1.0)
        assert cells[1] == pytest.approx(exact, rel=1e-12)
        assert cells[0] == pytest.approx(exact, rel=1e-6)

    def test_kl_log_domain_path(self):
        # Arguments that would overflow exp() must still produce finite cells.
        w = kl_inner_cells(np.array([2.0]), np.array([900.0]), 1.0)
        assert np.isfinite(w[0]) and w[0] > 0
        residual = 900.0 - (2.0 / w[0] - np.log(w[0]))
        assert abs(residual) <= 1e-9 * 900.0

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_majorizer_descends(self, beta):
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            W, H, Y = random_instance(200 + seed)
            W_bar = rng.uniform(0.2, 1.0, W.shape)
            lam = rng.uniform(0.3, 2.0)
            ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=lam)
            W_new = update_w_inner(ctx, beta, eps=1e-300)

            def surrogate(Wm):
                return w_fit_majorizer_value(Y, Wm, W, H, beta) + lam * beta_div_matrix(
                    Wm, W_bar, beta
                )

            assert surrogate(W_new) <= surrogate(W) + 1e-10 * max(1.0, abs(surrogate(W)))
            block = lambda Wm: beta_div_matrix(Y, Wm @ H, beta) + lam * beta_div_matrix(
                Wm, W_bar, beta
            )
            assert block(W_new) <= block(W) + 1e-10 * max(1.0, abs(block(W)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 8.0),
        beta=st.sampled_from(SUPPORTED_BETAS),
        shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 5)),
        sparse=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_minimizes_its_surrogate_cell_by_cell(self, seed, log_scale, beta, shape, sparse):
        # At data scales 1e-6 to 1e8, moving any cell above the floor by a
        # relative 1e-6 either way must not lower the fit majorizer plus
        # lam * D_beta(W, W_bar): the output is the surrogate's minimizer.
        m, r, n = shape
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        W = scale * rng.uniform(0.05, 1.0, (m, r))
        W_bar = scale * rng.uniform(0.05, 1.0, (m, r))
        H = rng.uniform(0.05, 1.0, (r, n))
        H /= H.sum(axis=1, keepdims=True)
        Y = scale * rng.uniform(0.05, 2.0, (m, n))
        if sparse and beta > 0:  # zero data makes the IS surrogate infinite
            Y *= rng.uniform(size=(m, n)) < 0.6
        lam = rng.uniform(0.1, 3.0)
        ctx = InnerWContext(Y=Y, W_tilde=W, H=H, W_bar=W_bar, lambda_ratio=lam)
        eps = 1e-300
        W_new = update_w_inner(ctx, beta, eps=eps)

        def surrogate(Wm):
            return w_fit_majorizer_value(Y, Wm, W, H, beta) + lam * beta_div_matrix(Wm, W_bar, beta)

        best = surrogate(W_new)
        assert np.isfinite(best)
        for cell in zip(*np.nonzero(W_new > eps)):
            for step in (1.0 - 1e-6, 1.0 + 1e-6):
                moved = W_new.copy()
                moved[cell] *= step
                assert surrogate(moved) >= best - 1e-12 * abs(best), (cell, step)

    def test_output_positive(self):
        ctx = self.make_ctx(6)
        for beta in SUPPORTED_BETAS:
            assert np.all(update_w_inner(ctx, beta) > 0)


class TestScalarCells:
    def test_kl_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            lam = rng.uniform(0.5, 2.0)
            a = rng.uniform(0.0, 2.0)
            b = rng.uniform(0.5, 2.0)
            w = kl_inner_cells(np.array([b]), np.array([a]), lam)[0]
            phi = lambda t: a * t - b * np.log(t) + lam * (t * np.log(t) - t)
            assert w == pytest.approx(brute_force_scalar_min(phi, 1e-4, 200.0), abs=1e-6)

    def test_three_half_matches_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            a, b, c = rng.uniform(0.5, 3.0, 3)
            w = three_half_inner_cells(np.array([a]), np.array([b]), np.array([c]))[0]
            phi = lambda t: (2.0 * a / 3.0) * t ** 1.5 - 2.0 * b * np.sqrt(t) - c * t
            assert w == pytest.approx(brute_force_scalar_min(phi, 1e-4, 200.0), abs=1e-6)

    def test_is_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            lam = rng.uniform(0.5, 2.0)
            a, c = rng.uniform(0.5, 3.0, 2)
            w = is_inner_cells(np.array([a]), np.array([c]), lam)[0]
            phi = lambda t: c * t - lam * np.log(t) + a / t
            assert w == pytest.approx(brute_force_scalar_min(phi, 1e-4, 200.0), abs=1e-6)

    def test_half_matches_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            lam = rng.uniform(0.5, 1.0)
            a = rng.uniform(0.5, 2.0)
            c = rng.uniform(1.0, 3.0)
            w = half_inner_cells(np.array([a]), np.array([c]), lam)[0]
            phi = lambda t: c * t - 4.0 * lam * np.sqrt(t) + 2.0 * a / np.sqrt(t)
            assert w == pytest.approx(brute_force_scalar_min(phi, 1e-4, 200.0), abs=1e-6)

    def test_half_degenerate_cells(self):
        # abar = 0 collapses the cubic discriminant to zero; the root is
        # (2 lam / cbar)^2 rather than the spurious w = 0.  The second cell
        # is a near-degenerate one from the beta = 1/2 chain workload.
        for abar, cbar, lam in [
            (0.0, 2.0, 1.0),
            (7.919462551247228e-24, 46.58580434737714, 0.14324710024980672),
        ]:
            w = half_inner_cells(np.array([abar]), np.array([cbar]), lam)[0]
            expected = (2.0 * lam / cbar) ** 2
            assert abs(w - expected) <= 1e-14 * expected
        # A layer-2 cell of the same workload, where cbar nears 1e7 and abar
        # moves the root 6e-7 away from (2 lam / cbar)^2.  In exact arithmetic
        # the cubic changes sign within 5e-15 of x = sqrt(w) on every cell,
        # so w is within about 1e-14 of the true root.
        for abar, cbar, lam in [
            (0.0, 2.0, 1.0),
            (7.919462551247228e-24, 46.58580434737714, 0.14324710024980672),
            (4.5041125287940784e-23, 9708517.410509156, 0.12285480888161826),
        ]:
            x = Fraction(float(np.sqrt(half_inner_cells(np.array([abar]), np.array([cbar]), lam)[0])))
            cubic = lambda t: Fraction(cbar) * t ** 3 - 2 * Fraction(lam) * t ** 2 - Fraction(abar)
            step = Fraction(5, 10 ** 15)
            assert cubic(x * (1 - step)) < 0 < cubic(x * (1 + step))

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=-25.0, max_value=3.0).map(lambda e: 10.0 ** e)),
        st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0 ** e),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_half_cubic_residual(self, abar, cbar, lam):
        # x = sqrt(w) solves cbar x^3 - 2 lam x^2 - abar = 0 to a few ulps
        # of the size of its terms.  cbar reaches 1e7, as on layer 2 of the
        # beta = 1/2 chain workload.
        x = np.sqrt(half_inner_cells(np.array([abar]), np.array([cbar]), lam)[0])
        terms = (cbar * x ** 3, 2.0 * lam * x ** 2, abar)
        assert abs(terms[0] - terms[1] - terms[2]) <= 1e-14 * sum(terms)


class TestWTerminal:
    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_fixed_point(self, beta):
        W, H, _ = random_instance(7)
        Y = W @ H
        W_new = update_w_terminal(Y, W, H, beta)
        assert np.max(np.abs(W_new - W) / W) <= 1e-12

    def test_single_entry_kl(self):
        W = update_w_terminal(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert W[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_rank_one_frobenius_fixed_point(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(0.2, 1.0, (6, 1))
        v = rng.uniform(0.2, 1.0, (1, 8))
        W_new = update_w_terminal(u @ v, u, v, 2.0)
        assert np.max(np.abs(W_new - u) / u) <= 1e-12

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_objective_descends(self, beta):
        for seed in range(20):
            W, H, Y = random_instance(300 + seed, simplex_rows=False)
            W_new = update_w_terminal(Y, W, H, beta, eps=1e-300)
            before = beta_div_matrix(Y, W @ H, beta)
            after = beta_div_matrix(Y, W_new @ H, beta)
            assert after <= before + 1e-10 * max(1.0, before)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_minimizes_its_surrogate(self, beta):
        # One multiplicative step minimizes the separable fit majorizer
        # anchored at W: it never raises it, and a cell matches brute force.
        for seed in range(30):
            W, H, Y = random_instance(400 + seed, simplex_rows=False)
            W_new = update_w_terminal(Y, W, H, beta, eps=1e-300)
            before = w_fit_majorizer_value(Y, W, W, H, beta)
            after = w_fit_majorizer_value(Y, W_new, W, H, beta)
            assert after <= before + 1e-10 * max(1.0, abs(before))
        surrogate = lambda Wm: w_fit_majorizer_value(Y, Wm, W, H, beta)
        cell = (1, 2)  # on the last draw
        assert W_new[cell] == pytest.approx(brute_force_cell(surrogate, W_new, cell), abs=1e-6)


class TestTerminalRowSums:
    # At beta = 1 the denominator ones @ H.T is H's row sums on every row.
    # The step forms it in its shared buffer; any other form of the row sums
    # (the broadcast H.sum(axis=1), say) must stay within a few ulp of it.
    @given(
        st.integers(1, 40), st.integers(2, 60), st.integers(1, 12),
        st.integers(0, 2**32 - 1), st.sampled_from([1e-6, 1.0, 1e8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_ones_matmul(self, m, n, r, seed, scale):
        rng = np.random.default_rng(seed)
        Y = scale * rng.uniform(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.7)
        W = np.sqrt(scale) * rng.uniform(0.01, 1.0, (m, r))
        H = np.sqrt(scale) * rng.uniform(0.01, 1.0, (r, n))
        got = update_w_terminal(Y, W, H, 1.0, eps=1e-300)
        expected = kl_terminal_w_ones(Y, W, H, 1e-300)
        assert np.all(np.abs(got - expected) <= 1e-14 * expected)


class TestHPlain:
    def test_fixed_point(self):
        W, H, _ = random_instance(8)
        Y = W @ H
        H_new = update_h_plain(W, Y, H, 1.0)
        assert np.max(np.abs(H_new - H) / H) <= 1e-12

    def test_objective_descends(self):
        W, H, Y = random_instance(9, simplex_rows=False)
        H_new = update_h_plain(W, Y, H, 1.0, eps=1e-300)
        assert beta_div_matrix(Y, W @ H_new, 1.0) <= beta_div_matrix(Y, W @ H, 1.0)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_minimizes_its_surrogate(self, beta):
        # The H-side twin of TestWTerminal.test_minimizes_its_surrogate.
        for seed in range(30):
            W, H_tilde, Y = random_instance(500 + seed, simplex_rows=False)
            H = update_h_plain(W, Y, H_tilde, beta, eps=1e-300)
            before = beta_fit_majorizer_value(W, Y, H_tilde, H_tilde, beta)
            after = beta_fit_majorizer_value(W, Y, H, H_tilde, beta)
            assert after <= before + 1e-10 * max(1.0, abs(before))
        surrogate = lambda Hm: beta_fit_majorizer_value(W, Y, Hm, H_tilde, beta)
        cell = (1, 2)  # on the last draw
        assert H[cell] == pytest.approx(brute_force_cell(surrogate, H, cell), abs=1e-6)
