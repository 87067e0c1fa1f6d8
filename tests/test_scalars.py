import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepbnmf.scalars
from deepbnmf.errors import ConfigError, DomainError, NoRootError
from deepbnmf.scalars import lambert_w0, lambert_w0_exp, lambert_w0_from_log
from deepbnmf.updates import solve_multipliers


def bisect_lambert(x, tol=1e-14):
    # Independent oracle: plain bisection on w*exp(w) = x.
    lo, hi = 0.0, 1.0
    while hi * np.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * np.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(np.e) == pytest.approx(1.0, abs=1e-14)

    def test_unit_argument_matches_bisection(self):
        # Frozen from the bisection oracle below.
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(bisect_lambert(1.0), abs=1e-12)

    def test_identity_on_decade_grid(self):
        xs = np.array([0.0] + [10.0 ** k for k in range(-8, 9)])
        w = lambert_w0(xs)
        residual = np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)
        assert residual.max() <= 1e-12

    def test_monotone_on_grid(self):
        xs = np.logspace(-6, 6, 200)
        w = lambert_w0(xs)
        assert np.all(np.diff(w) > 0)

    def test_log_domain_agreement(self):
        # Overlap x in [1, 1e300], sampled logarithmically.
        log_x = np.linspace(0.0, np.log(1e300), 120)
        direct = lambert_w0(np.exp(log_x))
        logged = lambert_w0_from_log(log_x)
        rel = np.abs(direct - logged) / np.maximum(1.0, np.abs(direct))
        assert rel.max() <= 1e-10

    def test_log_domain_beyond_overflow(self):
        w = lambert_w0_from_log(5000.0)
        assert w + np.log(w) == pytest.approx(5000.0, abs=1e-9)

    def test_exp_entry_point_routes_overflow(self):
        t = np.array([-np.inf, 0.0, 650.0, 1200.0])
        w = lambert_w0_exp(t)
        assert w[0] == 0.0
        finite = w[1:]
        assert np.all(np.isfinite(finite))
        assert finite[0] == pytest.approx(lambert_w0(1.0), abs=1e-12)

    def test_log_domain_infinity(self):
        assert lambert_w0_from_log(np.inf) == np.inf
        w = lambert_w0_from_log(np.array([np.inf, 5000.0]))
        assert w[0] == np.inf
        assert w[1] == lambert_w0_from_log(5000.0)

    def test_exp_entry_point_infinity(self):
        w = lambert_w0_exp(np.array([np.inf, 1.0]))
        assert w[0] == np.inf
        assert w[1] == lambert_w0_exp(1.0)
        assert lambert_w0_exp(np.inf) == np.inf

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0_from_log(np.array([np.nan, 1.0]))
        with pytest.raises(DomainError):
            lambert_w0_exp(np.array([np.inf, np.nan]))

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0(-1e-9)
        with pytest.raises(DomainError):
            lambert_w0(np.array([1.0, -2.0]))

    @given(st.floats(min_value=0.0, max_value=1e8, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_identity_property(self, x):
        w = lambert_w0(x)
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


class TestHalleyIterations:
    # One np.exp (direct loop) or one np.log (log-domain loop) per Halley
    # iteration.  These grids hold entries that settle into a one-ulp
    # two-cycle; they must still stop well before the 50-iteration cap.
    def test_direct_loop_stops_at_ulp_steps(self, monkeypatch):
        proxy = _CountingNumpy(["exp"])
        monkeypatch.setattr(deepbnmf.scalars, "np", proxy)
        lambert_w0(np.logspace(0, 8, 2001))
        assert proxy.calls["exp"] <= 8

    def test_log_domain_loop_stops_at_ulp_steps(self, monkeypatch):
        proxy = _CountingNumpy(["log"])
        monkeypatch.setattr(deepbnmf.scalars, "np", proxy)
        lambert_w0_from_log(np.linspace(1.0, 700.0, 2001))
        assert proxy.calls["log"] <= 9


def _concat_chunks(fn, values, cuts):
    parts = np.split(values, sorted(set(cuts)))
    return np.concatenate([np.asarray(fn(p)) for p in parts])


class TestLambertProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_direct_independent_of_chunking(self, xs, cuts):
        values = np.array(xs)
        whole = lambert_w0(values)
        assert whole.tobytes() == _concat_chunks(lambert_w0, values, cuts).tobytes()
        assert whole.tobytes() == np.array([lambert_w0(v) for v in xs]).tobytes()

    @given(
        st.lists(st.floats(min_value=-800.0, max_value=1e12), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_log_domain_independent_of_chunking(self, lxs, cuts):
        values = np.array(lxs)
        whole = lambert_w0_from_log(values)
        assert whole.tobytes() == _concat_chunks(lambert_w0_from_log, values, cuts).tobytes()
        assert whole.tobytes() == np.array([lambert_w0_from_log(v) for v in lxs]).tobytes()

    @given(st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_log_domain_identity(self, lx):
        w = lambert_w0_from_log(lx)
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
    """(f, df) of the column sums of ``column_instance``, its count and no lower limit."""
    from deepbnmf.minvol import simplex_w_cells

    cells = column_instance(scale)

    def f_df(mu):
        w, root = simplex_w_cells(*cells, mu)
        return w.sum(axis=0) - 1.0, -(w / root).sum(axis=0)

    return f_df, 2, None


def half_row_map():
    """(f, df) of the row sums of the beta = 1/2 H map, h = h~ (B / (C + mu))^(2/3),
    their count and lower limit -min(C); f_df fails at or below that limit."""
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

    return f_df, 3, lower_limit


def counting(f_df):
    """f_df that counts its evaluations in ``.calls``."""

    def wrapped(mu):
        wrapped.calls += 1
        return f_df(mu)

    wrapped.calls = 0
    return wrapped


class TestMonotoneSolve:
    def test_no_sign_change(self):
        positive = lambda mu: (1.0 + np.exp(-mu), -np.exp(-mu))
        negative = lambda mu: (-1.0 - np.exp(mu), -np.exp(mu))
        for f_df, lower_limit in [
            (positive, None), (negative, None), (negative, np.array([-3.0]))
        ]:
            with pytest.raises(NoRootError):
                solve_multipliers(f_df, 1, 1e-12, lower_limit)
            for start in (-5.0, 5.0):
                with pytest.raises(NoRootError):
                    solve_multipliers(f_df, 1, 1e-12, lower_limit, start=np.array([start]))

    def test_column_sum_instance(self):
        # Column sums of the simplex W map are monotone in the multiplier;
        # the dense scan pins the root, the solver must agree.
        from deepbnmf.minvol import simplex_w_cells

        W_tilde, C, S, T = column_instance()
        f_df, _, _ = column_map()
        j = 0

        def colsum(mu):
            mu_vec = np.array([mu, 0.0])
            return float(simplex_w_cells(W_tilde, C, S, T, mu_vec)[0][:, j].sum()) - 1.0

        grid = np.linspace(-50.0, 50.0, 20001)
        values = np.array([colsum(g) for g in grid])
        signs = np.sign(values)
        crossings = np.flatnonzero(np.diff(signs) != 0)
        assert len(crossings) == 1
        root = solve_multipliers(f_df, 2, 1e-10)[j]
        assert abs(colsum(root)) <= 1e-10
        assert grid[crossings[0]] <= root <= grid[crossings[0] + 1]

    @pytest.mark.parametrize(
        "make_map, offset",
        [(m, d) for m in (column_map, half_row_map) for d in (0.0, 1e-9, -1e-9, 1e3, -1e3, 1e6, -1e6)]
        + [(half_row_map, "below")],  # under the domain's lower limit
    )
    def test_warm_start_finds_the_cold_root(self, make_map, offset):
        f_df, count, lower_limit = make_map()
        tol = 1e-12
        cold = solve_multipliers(f_df, count, tol, lower_limit)
        if offset == "below":
            start = lower_limit - np.array([0.0, 1e-3, 5.0])
        else:
            start = cold + offset
        warm = solve_multipliers(f_df, count, tol, lower_limit, start=start)
        assert np.abs(f_df(warm)[0]).max() <= tol
        assert np.abs(warm - cold).max() <= 1e-10

    @pytest.mark.parametrize(
        "start",
        [np.zeros(3), np.zeros((2, 1)), np.zeros(1), [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf]],
    )
    def test_bad_start_rejected(self, start):
        f_df, _, _ = column_map()
        with pytest.raises(ConfigError):
            solve_multipliers(f_df, 2, 1e-12, start=start)

    def test_warm_start_near_root_is_cheap(self):
        # At 1e4 times the scale the roots lie in the thousands, so the cold
        # bracket has to double its way out from [-1, 1].
        f_df, _, _ = column_map(1e4)
        cold_f = counting(f_df)
        root = solve_multipliers(cold_f, 2, 1e-12)
        assert np.abs(root).min() >= 1e3
        warm_f = counting(f_df)
        warm = solve_multipliers(warm_f, 2, 1e-12, start=root + np.array([1e-6, -1e-6]))
        assert np.abs(warm - root).max() <= 1e-10 * np.abs(root).max()
        assert cold_f.calls >= 10
        assert warm_f.calls <= 6
