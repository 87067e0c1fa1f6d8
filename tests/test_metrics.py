import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_two_layer_chain
from deepbnmf.errors import ComparisonError, DomainError
from deepbnmf.metrics import (
    ComparisonReport,
    compare_runs,
    composite_features,
    hoyer_sparsity,
    ssc_row_zero_check,
)
from deepbnmf.model import ConvergenceTrace, DeepState


class TestHoyer:
    def test_single_nonzero_entry(self):
        assert hoyer_sparsity([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vector(self):
        assert hoyer_sparsity([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_tabulated_value(self):
        # (sqrt(4) - 4/sqrt(10)) / (sqrt(4) - 1), evaluated directly.
        expected = (2.0 - 4.0 / math.sqrt(10.0)) / 1.0
        assert hoyer_sparsity([3.0, 1.0, 0.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert hoyer_sparsity([3.0, 1.0, 0.0, 0.0]) == pytest.approx(0.735089, abs=1e-6)

    def test_all_zero_sentinel(self):
        assert math.isnan(hoyer_sparsity([0.0, 0.0, 0.0]))

    def test_needs_two_entries(self):
        with pytest.raises(DomainError):
            hoyer_sparsity([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            hoyer_sparsity([1.0, 0.0, bad])

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, values, c):
        x = np.array(values)
        base = hoyer_sparsity(x)
        scaled = hoyer_sparsity(c * x)
        if math.isnan(base):
            assert math.isnan(scaled)
        else:
            assert scaled == pytest.approx(base, abs=1e-12)


def make_run(seed, scale_w0=1.0):
    X, W, H = exact_two_layer_chain(seed)
    state = DeepState(X=X, W=[w.copy() for w in W], H=[h.copy() for h in H])
    state.W[0] = state.W[0] * scale_w0
    return state, ConvergenceTrace(2)


class TestCompareRuns:
    def test_identical_runs_give_unit_ratios(self):
        run_a = make_run(0, scale_w0=1.1)
        run_b = make_run(0, scale_w0=1.1)
        report = compare_runs(run_a, run_b, 1.0)
        for row in report.layers:
            assert row.error_ratio == pytest.approx(1.0, rel=1e-12)
            assert row.sparsity_a_composite == row.sparsity_b_composite
            assert row.sparsity_a_rows == row.sparsity_b_rows

    def test_ratio_arithmetic_and_antisymmetry(self):
        from deepbnmf.divergence import beta_div_matrix

        run_a = make_run(1, scale_w0=1.05)
        run_b = make_run(1, scale_w0=1.2)
        fwd = compare_runs(run_a, run_b, 1.0)
        rev = compare_runs(run_b, run_a, 1.0)
        for f, r in zip(fwd.layers, rev.layers):
            assert f.error_ratio == pytest.approx(1.0 / r.error_ratio, rel=1e-10)
        for i, row in enumerate(fwd.layers):
            err_a = beta_div_matrix(
                run_a[0].prev_w(i), run_a[0].W[i] @ run_a[0].H[i], 1.0
            )
            err_b = beta_div_matrix(
                run_b[0].prev_w(i), run_b[0].W[i] @ run_b[0].H[i], 1.0
            )
            assert row.error_ratio == pytest.approx(err_a / err_b, rel=1e-12)

    def test_rank_mismatch_rejected(self):
        run_a = make_run(2)
        X, W, H = exact_two_layer_chain(2, r1=3, r2=2)
        run_b = (DeepState(X=run_a[0].X, W=W, H=H), ConvergenceTrace(2))
        # same X required first; rebuild with matching X but different ranks
        X0 = run_a[0].X
        rng = np.random.default_rng(0)
        Wb = [rng.uniform(0.1, 1, (X0.shape[0], 3)), rng.uniform(0.1, 1, (X0.shape[0], 2))]
        Hb = [rng.uniform(0.1, 1, (3, X0.shape[1])), rng.uniform(0.1, 1, (2, 3))]
        run_b = (DeepState(X=X0, W=Wb, H=Hb), ConvergenceTrace(2))
        with pytest.raises(ComparisonError):
            compare_runs(run_a, run_b, 1.0)

    def test_different_data_rejected(self):
        run_a = make_run(3)
        run_b = make_run(4)
        with pytest.raises(ComparisonError):
            compare_runs(run_a, run_b, 1.0)

    def test_csv_shape(self):
        report = compare_runs(make_run(5), make_run(5), 1.0)
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("layer,error_ratio")
        assert len(lines) == 3


class TestCompositeFeatures:
    def test_layer_one_is_h1(self):
        state, _ = make_run(6)
        assert np.array_equal(composite_features(state, 1), state.H[0])

    def test_layer_two_is_product(self):
        state, _ = make_run(6)
        expected = state.H[1] @ state.H[0]
        assert np.allclose(composite_features(state, 2), expected)


class TestSscCheck:
    def test_identity_passes(self):
        report = ssc_row_zero_check(np.eye(3))
        assert all(r.zero_count == 2 and r.passes for r in report.rows)
        assert report.contained_pairs == []
        assert report.all_pass

    def test_all_ones_fails_everywhere(self):
        report = ssc_row_zero_check(np.ones((3, 4)))
        assert all(r.zero_count == 0 and not r.passes for r in report.rows)
        assert len(report.contained_pairs) == 6

    def test_scattered_example_matrix(self):
        # Rank-3 sparsest scattered pattern with mixing weight 0.25: every
        # row carries exactly two zeros, meeting the r - 1 requirement.
        w = 0.25
        H = np.array(
            [
                [w, 1.0, 1.0, w, 0.0, 0.0],
                [1.0, w, 0.0, 0.0, w, 1.0],
                [0.0, 0.0, w, 1.0, 1.0, w],
            ]
        )
        report = ssc_row_zero_check(H)
        assert all(r.zero_count == 2 for r in report.rows)
        assert all(r.passes for r in report.rows)
        assert report.contained_pairs == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # An infinite peak would make the default tolerance infinite and
        # count every entry as zero, so every row would pass.
        with pytest.raises(DomainError):
            ssc_row_zero_check(np.array([[1.0, 0.0, bad], [0.0, 1.0, 0.0]]))

    def test_negative_rejected(self):
        # A negative entry would otherwise count as a zero of its row.
        with pytest.raises(DomainError):
            ssc_row_zero_check(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_default_tolerance_scales_with_magnitude(self):
        H = np.array([[5.0, 5e-10], [5e-10, 5.0]])
        report = ssc_row_zero_check(H)
        assert all(r.zero_count == 1 for r in report.rows)
