import numpy as np
import pytest

from oracles import brute_force_scalar_min, check_majorizer, simplex_descent_min


class TestBruteForce:
    def test_quadratic(self):
        x = brute_force_scalar_min(lambda w: (w - 2.0) ** 2, 0.0, 10.0)
        assert x == pytest.approx(2.0, abs=1e-9)

    def test_random_convex_quadratics(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            center = rng.uniform(-5.0, 5.0)
            curvature = rng.uniform(0.5, 4.0)
            x = brute_force_scalar_min(
                lambda w: curvature * (w - center) ** 2, -10.0, 10.0
            )
            assert abs(x - center) <= 1e-8

    def test_kl_majorizer_scalar_matches_lambert(self):
        # Cross-check of two independent paths: a*w - b*log w + lam*(w log w - w)
        # with a=0, b=1, lam=1 is minimized at 1/W0(1).
        from deepbnmf.scalars import lambert_w0_exp

        phi = lambda w: -np.log(w) + w * np.log(w) - w
        x = brute_force_scalar_min(phi, 1e-3, 10.0)
        assert x == pytest.approx(1.0 / lambert_w0_exp(0.0), abs=1e-7)
        assert x == pytest.approx(1.763223, abs=1e-6)

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            brute_force_scalar_min(lambda w: np.log(w - 5.0), 0.0, 10.0)

    def test_itakura_saito_closed_form_cross_check(self):
        from deepbnmf.updates import is_inner_cells

        rng = np.random.default_rng(3)
        a, c, lam = rng.uniform(0.5, 2.0, 3)
        w_closed = is_inner_cells(np.array([a]), np.array([c]), lam)[0]
        phi = lambda w: c * w - lam * np.log(w) + a / w
        w_oracle = brute_force_scalar_min(phi, 1e-4, 100.0)
        assert w_closed == pytest.approx(w_oracle, abs=1e-6)


class TestSimplexDescent:
    def test_linear_objective_picks_vertex(self):
        costs = np.array([3.0, 1.0, 2.0])
        x = simplex_descent_min(lambda v: costs @ v, 3)
        assert x == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)

    def test_quadratic_interior(self):
        target = np.array([0.5, 0.3, 0.2])
        x = simplex_descent_min(lambda v: np.sum((v - target) ** 2), 3)
        assert x == pytest.approx(target, abs=1e-7)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)


class TestCheckMajorizer:
    def test_quadratic_upper_bound_passes(self):
        f = lambda y: float(np.sum(np.sin(y)))
        # sin(y) <= sin(x) + cos(x)(y-x) + 0.5 (y-x)^2 since |sin''| <= 1.
        def u(y, x):
            return float(np.sum(np.sin(x) + np.cos(x) * (y - x) + 0.5 * (y - x) ** 2))

        report = check_majorizer(f, u, np.array([0.3, 1.2]), samples=200)
        assert report.passed
        assert report.tangency_gap <= 1e-12

    def test_negative_control_fails(self):
        f = lambda y: float(np.sum(y ** 2))
        u = lambda y, x: f(y) - 1e-3  # strictly below f: not a majorizer
        report = check_majorizer(f, u, np.array([1.0, 2.0]), samples=50)
        assert not report.passed
        assert report.worst_margin < 0
