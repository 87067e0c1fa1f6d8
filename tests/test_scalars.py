import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepbnmf.minvol
import deepbnmf.scalars
from conftest import assert_started_left_and_rose, recorded_solves
from deepbnmf.errors import ConfigError, DomainError, NoRootError
from deepbnmf.scalars import lambert_w0_exp
from deepbnmf.updates import solve_multipliers
from oracles import bisect_lambert_exp, lambert_w0_exp_out_of_place


def log_of(x):
    """log(x) with log(0) = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0_exp(-np.inf) == 0.0
        assert lambert_w0_exp(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_unit_argument_matches_bisection(self):
        # Frozen from the bisection oracle.
        assert lambert_w0_exp(0.0) == pytest.approx(0.5671432904097838, abs=1e-12)
        assert lambert_w0_exp(0.0) == pytest.approx(bisect_lambert_exp(0.0), abs=1e-12)

    def test_identity_on_decade_grid(self):
        xs = np.array([0.0] + [10.0 ** k for k in range(-8, 9)])
        w = lambert_w0_exp(log_of(xs))
        residual = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
        assert residual.max() <= 1e-12

    def test_monotone_on_grid(self):
        w = lambert_w0_exp(np.log(np.logspace(-6, 6, 200)))
        assert np.all(np.diff(w) > 0)

    def test_log_domain_agreement(self):
        # x in [1, 1e300], sampled logarithmically, against the oracle.
        t = np.linspace(0.0, np.log(1e300), 120)
        w = lambert_w0_exp(t)
        oracle = bisect_lambert_exp(t)
        rel = np.abs(w - oracle) / np.maximum(1.0, np.abs(oracle))
        assert rel.max() <= 1e-12

    def test_log_domain_beyond_overflow(self):
        w = lambert_w0_exp(5000.0)
        assert w + np.log(w) == pytest.approx(5000.0, abs=1e-9)

    def test_huge_arguments_stay_finite(self):
        # Up to the largest float, without an overflow warning on the way.
        for t in (1e200, 1e300, 1.7e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = lambert_w0_exp(t)
            assert np.isfinite(w)
            assert abs(w - (t - np.log(t))) <= 1e-15 * w

    def test_exp_entry_point_routes_overflow(self):
        t = np.array([-np.inf, 0.0, 650.0, 1200.0])
        w = lambert_w0_exp(t)
        assert w[0] == 0.0
        finite = w[1:]
        assert np.all(np.isfinite(finite))
        assert finite[0] == pytest.approx(0.5671432904097838, abs=1e-12)
        assert np.abs(finite + np.log(finite) - t[1:]).max() <= 1e-12 * 1200.0

    def test_log_domain_infinity(self):
        assert lambert_w0_exp(np.inf) == np.inf
        w = lambert_w0_exp(np.array([np.inf, 5000.0]))
        assert w[0] == np.inf
        assert w[1] == lambert_w0_exp(5000.0)

    def test_exp_entry_point_infinity(self):
        w = lambert_w0_exp(np.array([np.inf, 1.0, -np.inf, -800.0]))
        assert w[0] == np.inf
        assert w[1] == lambert_w0_exp(1.0)
        assert w[2] == w[3] == 0.0
        assert lambert_w0_exp(np.inf) == np.inf

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0_exp(np.array([np.nan, 1.0]))
        with pytest.raises(DomainError):
            lambert_w0_exp(np.array([np.inf, np.nan]))
        with pytest.raises(DomainError):
            lambert_w0_exp(np.nan)

    @given(st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_identity_property(self, x):
        w = lambert_w0_exp(log_of(x))
        assert abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, x)


class _CountingNumpy:
    """Stands in for numpy inside ``deepbnmf.scalars`` and counts calls."""

    def __init__(self, counted):
        self.calls = dict.fromkeys(counted, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


# The grids of this file and of acceptance criterion 3, with the infinities,
# the underflow of e^t and t up to the largest float.
_FLOAT_MAX = np.finfo(float).max
IN_PLACE_GRIDS = [
    log_of(np.array([0.0] + [10.0 ** k for k in range(-8, 9)])),
    np.log(np.logspace(-6, 6, 200)),
    np.linspace(0.0, np.log(1e300), 120),
    np.log(np.logspace(0, 8, 2001)),
    np.linspace(1.0, 700.0, 2001),
    np.concatenate([np.linspace(-50.0, 50.0, 1000), np.logspace(2, 6, 1001)]),
    np.concatenate([np.linspace(-700.0, 700.0, 2801), np.logspace(np.log10(700.0), 300, 200)]),
    np.array([-np.inf, np.inf, -_FLOAT_MAX, -800.0, -745.2, -745.1, -0.0, 0.0, 1.0,
              650.0, 1200.0, 5000.0, 1e200, 1e300, 1.7e308, _FLOAT_MAX]),
]


class TestInPlaceKernel:
    # The kernel runs in place with the operations of the plain expressions,
    # in their order, so it keeps their bits.
    @pytest.mark.parametrize("grid", IN_PLACE_GRIDS, ids=range(len(IN_PLACE_GRIDS)))
    def test_bits_of_the_out_of_place_form(self, grid):
        assert np.array_equal(lambert_w0_exp(grid), lambert_w0_exp_out_of_place(grid))

    def test_two_dimensional_input(self):
        t = np.random.default_rng(3).normal(0.0, 30.0, (40, 7))
        for arr in (t, t.T, np.asfortranarray(t), t[::2, 1:5]):
            w = lambert_w0_exp(arr)
            assert w.shape == arr.shape
            assert np.array_equal(w, lambert_w0_exp_out_of_place(arr))

    @pytest.mark.parametrize("t", [0.5, -np.inf, np.inf, -800.0, 1.7e308])
    def test_zero_dimensional_input(self, t):
        expected = lambert_w0_exp_out_of_place(t)
        for arg in (t, np.float64(t), np.array(t)):
            w = lambert_w0_exp(arg)
            assert type(w) is float
            assert w == expected

    def test_input_left_unchanged(self):
        for t in IN_PLACE_GRIDS + [np.array(0.5), np.array(-np.inf)]:
            before = t.copy()
            lambert_w0_exp(t)
            assert np.array_equal(t, before)


class TestFixedWork:
    def test_same_numpy_calls_for_any_input(self, monkeypatch):
        # Two steps for every entry: no loop runs longer for harder inputs.
        proxy = _CountingNumpy(["exp", "log", "log1p"])
        monkeypatch.setattr(deepbnmf.scalars, "np", proxy)
        lambert_w0_exp(0.5)
        scalar = dict(proxy.calls)
        proxy.calls = dict.fromkeys(scalar, 0)
        lambert_w0_exp(np.concatenate([np.linspace(-50.0, 50.0, 1000), np.logspace(2, 6, 1001)]))
        assert proxy.calls == scalar


class TestHalleyIterations:
    # The two fixed steps must leave the result where a further Newton step
    # is at most two ulp, with one np.exp and one np.log per step at most.
    # These grids held entries that settled into a one-ulp two-cycle under
    # the former converge-until-small loops.
    def test_direct_loop_stops_at_ulp_steps(self, monkeypatch):
        x = np.logspace(0, 8, 2001)
        proxy = _CountingNumpy(["exp"])
        monkeypatch.setattr(deepbnmf.scalars, "np", proxy)
        w = lambert_w0_exp(np.log(x))
        assert proxy.calls["exp"] <= 8
        step = (w * np.exp(w) - x) / (np.exp(w) * (1.0 + w))
        assert np.all(np.abs(step) <= 2.0 * np.spacing(w))

    def test_log_domain_loop_stops_at_ulp_steps(self, monkeypatch):
        t = np.linspace(1.0, 700.0, 2001)
        proxy = _CountingNumpy(["log"])
        monkeypatch.setattr(deepbnmf.scalars, "np", proxy)
        w = lambert_w0_exp(t)
        assert proxy.calls["log"] <= 9
        step = (t - w - np.log(w)) * w / (1.0 + w)
        assert np.all(np.abs(step) <= 2.0 * np.spacing(w))


def _concat_chunks(fn, values, cuts):
    parts = np.split(values, sorted(set(cuts)))
    return np.concatenate([np.asarray(fn(p)) for p in parts])


def _assert_independent_of_chunking(values, cuts):
    whole = lambert_w0_exp(values)
    assert whole.tobytes() == _concat_chunks(lambert_w0_exp, values, cuts).tobytes()
    assert whole.tobytes() == np.array([lambert_w0_exp(v) for v in values]).tobytes()


class TestLambertProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_direct_independent_of_chunking(self, xs, cuts):
        _assert_independent_of_chunking(log_of(np.array(xs)), cuts)

    @given(
        st.lists(st.floats(min_value=-800.0, max_value=1e300), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_log_domain_independent_of_chunking(self, lxs, cuts):
        _assert_independent_of_chunking(np.array(lxs), cuts)

    @given(st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_log_domain_identity(self, lx):
        w = lambert_w0_exp(lx)
        assert abs(w + np.log(w) - lx) <= 1e-12 * max(1.0, lx)


def column_instance(scale=1.0):
    """Cells of a small simplex W map; scaling C, S, T by c, c^2, c scales its roots by c."""
    rng = np.random.default_rng(7)
    W_tilde = rng.uniform(0.2, 1.0, (3, 2))
    C = rng.uniform(-1.0, 2.0, (3, 2))
    T = rng.uniform(0.5, 2.0, (3, 2))
    S = 2.0 * T * rng.uniform(0.2, 1.5, (3, 2))
    return W_tilde, scale * C, scale * scale * S, scale * T


def column_map(scale=1.0):
    """(f, df) of the column sums of ``column_instance``.  They are convex and
    decreasing on the whole line, so any start converges."""
    from deepbnmf.minvol import simplex_w_cells

    cells = column_instance(scale)

    def f_df(mu):
        w, root = simplex_w_cells(*cells, mu)
        return w.sum(axis=0) - 1.0, -(w / root).sum(axis=0)

    return f_df


def half_row_map():
    """(f, df) of the row sums of the beta = 1/2 H map, h = h~ (B / (C + mu))^(2/3),
    their domain's lower limit -min(C) and a start left of their roots.

    The row sums are convex and decreasing on that domain; f_df fails at or
    below its limit."""
    rng = np.random.default_rng(11)
    Ht = rng.uniform(0.05, 1.0, (3, 5))
    Ht /= Ht.sum(axis=1, keepdims=True)
    B = rng.uniform(0.2, 2.0, (3, 5))
    C = rng.uniform(0.5, 3.0, (3, 5))
    lower_limit = -C.min(axis=1)

    def f_df(mu):
        assert np.all(mu > lower_limit), "evaluated outside the multiplier domain"
        u = C + mu[:, None]
        h = Ht * (B / u) ** (2.0 / 3.0)
        return h.sum(axis=1) - 1.0, (-(2.0 / 3.0) * h / u).sum(axis=1)

    # h_j = 1 at mu = B_j h~_j^(3/2) - C_j, so the row sum is >= 1 at the largest.
    left = (B * Ht ** 1.5 - C).max(axis=1)
    return f_df, lower_limit, left


def counting(f_df):
    """f_df that counts its evaluations in ``.calls``."""

    def wrapped(mu):
        wrapped.calls += 1
        return f_df(mu)

    wrapped.calls = 0
    return wrapped


class TestMonotoneSolve:
    def test_no_sign_change(self):
        # f > 0 everywhere (convex, decreasing to 1), and f < 0 everywhere
        # (concave, outside the contract): either way Newton runs off to
        # infinity, which is reported, not returned.
        positive = lambda mu: (1.0 + np.exp(-mu), -np.exp(-mu))
        negative = lambda mu: (-1.0 - np.exp(mu), -np.exp(mu))
        for f_df in (positive, negative):
            for start in (-5.0, 0.0, 5.0):
                with pytest.raises(NoRootError):
                    solve_multipliers(f_df, np.array([start]), 1e-12)

    def test_column_sum_instance(self):
        # Column sums of the simplex W map are monotone in the multiplier;
        # the dense scan pins the root, the solver must agree.
        from deepbnmf.minvol import simplex_w_cells

        W_tilde, C, S, T = column_instance()
        f_df = column_map()
        j = 0

        def colsum(mu):
            mu_vec = np.array([mu, 0.0])
            return float(simplex_w_cells(W_tilde, C, S, T, mu_vec)[0][:, j].sum()) - 1.0

        grid = np.linspace(-50.0, 50.0, 20001)
        values = np.array([colsum(g) for g in grid])
        signs = np.sign(values)
        crossings = np.flatnonzero(np.diff(signs) != 0)
        assert len(crossings) == 1
        root = solve_multipliers(f_df, np.zeros(2), 1e-10)[j]
        assert abs(colsum(root)) <= 1e-10
        assert grid[crossings[0]] <= root <= grid[crossings[0] + 1]

    @pytest.mark.parametrize(
        "make_map, offset",
        [(column_map, d) for d in (0.0, 1e-9, -1e-9, 1e3, -1e3, 1e6, -1e6)]
        + [(half_row_map, d) for d in (0.0, 1e-9, -1e-9, -1e3, -1e6)],
    )
    def test_warm_start_finds_the_cold_root(self, make_map, offset):
        tol = 1e-12
        if make_map is column_map:
            f_df = make_map()
            cold = solve_multipliers(f_df, np.zeros(2), tol)
            start = cold + offset
        else:
            # The domain ends on the left: a start must lie inside it and
            # left of the root, or just right of it.  Far-left offsets start
            # near the edge of the domain instead, where f is large.
            f_df, lower_limit, left = make_map()
            cold = solve_multipliers(f_df, left, tol)
            start = np.maximum(cold + offset, lower_limit + 1e-3 * (cold - lower_limit))
        warm = solve_multipliers(f_df, start, tol)
        assert np.abs(f_df(warm)[0]).max() <= tol
        assert np.abs(warm - cold).max() <= 1e-10

    @pytest.mark.parametrize("stall", [5e-11, 1e-9])
    def test_stalled_residual_against_the_contract(self, stall):
        # The residual never meets the tolerance; once the step budget is
        # spent, a stall within the 1e-10 row-sum contract is accepted and
        # one beyond it raises.
        f_df = counting(lambda mu: (np.full(mu.shape, stall), np.full(mu.shape, -1.0)))
        if stall <= 1e-10:
            mu = solve_multipliers(f_df, np.zeros(2), 1e-13)
            assert np.allclose(mu, 200 * stall, rtol=1e-12, atol=0)
            assert f_df.calls == 201
        else:
            with pytest.raises(NoRootError, match="stalled"):
                solve_multipliers(f_df, np.zeros(2), 1e-13)

    @pytest.mark.parametrize(
        "start",
        [np.zeros(3), np.zeros((2, 1)), np.zeros(1), [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]],
    )
    def test_bad_start_rejected(self, start):
        with pytest.raises(ConfigError):
            solve_multipliers(column_map(), start, 1e-12)

    def test_warm_start_near_root_is_cheap(self):
        # At 1e4 times the scale the roots lie in the thousands.
        f_df = column_map(1e4)
        cold_f = counting(f_df)
        root = solve_multipliers(cold_f, np.zeros(2), 1e-12)
        assert np.abs(root).min() >= 1e3
        warm_f = counting(f_df)
        warm = solve_multipliers(warm_f, root + np.array([1e-6, -1e-6]), 1e-12)
        assert np.abs(warm - root).max() <= 1e-10 * np.abs(root).max()
        # One evaluation at the start and one after a single Newton step.
        assert warm_f.calls <= 2 < cold_f.calls

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 8.0),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_certified_start_is_left_of_the_root(self, seed, log_scale, shape):
        # A cold min-vol column solve starts where one entry alone reaches 1:
        # there f >= 0, and the Newton iterates rise from it to the root, at
        # every scale.  test_updates checks the row maps of the H update.
        rng = np.random.default_rng(seed)
        c = 10.0 ** log_scale
        W_tilde = rng.uniform(0.01, 1.0, shape)
        C = c * rng.uniform(-2.0, 2.0, shape)
        T = c * rng.uniform(0.5, 2.0, shape)
        S = 2.0 * T * c * rng.uniform(0.0, 1.5, shape)
        with recorded_solves(deepbnmf.minvol) as solves:
            W, _ = deepbnmf.minvol._simplex_w_minimize(W_tilde, C, S, T)
        assert_started_left_and_rose(solves)
        assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-12
