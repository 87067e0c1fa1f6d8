import decimal
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepbnmf.divergence import (
    INFINITE_DIVERGENCE,
    SUPPORTED_BETAS,
    beta_div_matrix,
    check_beta,
    mu_exponent,
)
from deepbnmf.errors import ConfigError, DimensionError
from oracles import beta_div_cells, beta_div_scalar, decomposition_terms


class TestScalarDivergence:
    def test_zero_on_diagonal(self):
        for beta in SUPPORTED_BETAS:
            assert beta_div_scalar(2.0, 2.0, beta) == 0.0

    def test_half_squared_error(self):
        assert beta_div_scalar(3.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_itakura_saito_value(self):
        # 1/2 - log(1/2) - 1, evaluated directly.
        assert beta_div_scalar(1.0, 2.0, 0.0) == pytest.approx(
            0.5 - math.log(0.5) - 1.0, abs=1e-15
        )
        assert beta_div_scalar(1.0, 2.0, 0.0) == pytest.approx(0.193147, abs=1e-6)

    def test_infinite_sentinels(self):
        assert beta_div_scalar(1.0, 0.0, 1.0) == INFINITE_DIVERGENCE
        assert beta_div_scalar(0.0, 1.0, 0.0) == INFINITE_DIVERGENCE
        assert beta_div_scalar(1.0, 0.0, 0.5) == INFINITE_DIVERGENCE
        # beta > 1 divergences stay finite at y = 0.
        assert np.isfinite(beta_div_scalar(1.0, 0.0, 1.5))
        assert beta_div_scalar(0.0, 0.0, 1.0) == 0.0

    def test_unsupported_beta(self):
        with pytest.raises(ConfigError):
            beta_div_scalar(1.0, 1.0, 0.7)
        with pytest.raises(ConfigError):
            check_beta(-1)

    def test_nonnegative_on_grid(self):
        grid = np.linspace(0.05, 10.0, 20)
        for beta in SUPPORTED_BETAS:
            for x in grid:
                for y in grid:
                    d = beta_div_scalar(x, y, beta)
                    if x == y:
                        assert d == 0.0
                    else:
                        assert d > 0.0


class TestMatrixDivergence:
    def test_identical_matrices(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        for beta in SUPPORTED_BETAS:
            assert beta_div_matrix(A, A, beta) == 0.0

    def test_kl_example(self):
        # 2 log 2 - 2 + 1, evaluated directly.
        val = beta_div_matrix(np.array([[2.0, 1.0]]), np.array([[1.0, 1.0]]), 1.0)
        assert val == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-14)
        assert val == pytest.approx(0.386294, abs=1e-6)

    def test_three_half_example(self):
        # (4/3) * (4^1.5 + 0.5 - 1.5 * 4), evaluated directly.
        val = beta_div_matrix(np.array([[4.0]]), np.array([[1.0]]), 1.5)
        assert val == pytest.approx((4.0 / 3.0) * (8.0 + 0.5 - 6.0), abs=1e-13)
        assert val == pytest.approx(3.333333, abs=1e-6)

    def test_scalar_input(self):
        for beta in SUPPORTED_BETAS:
            assert beta_div_matrix(2.0, 1.0, beta) == pytest.approx(beta_div_scalar(2.0, 1.0, beta), rel=1e-15)
        assert beta_div_matrix(0.0, 1.0, 0.0) == math.inf
        assert beta_div_matrix(0.0, 0.0, 1.0) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            beta_div_matrix(np.ones((2, 2)), np.ones((2, 3)), 1.0)

    def test_matches_scalar_sum(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.1, 5.0, (4, 5))
        B = rng.uniform(0.1, 5.0, (4, 5))
        for beta in SUPPORTED_BETAS:
            direct = sum(
                beta_div_scalar(a, b, beta) for a, b in zip(A.ravel(), B.ravel())
            )
            assert beta_div_matrix(A, B, beta) == pytest.approx(direct, rel=1e-12)

    def test_zero_entries_saturate(self):
        A = np.array([[1.0, 0.0]])
        B = np.array([[0.0, 1.0]])
        assert beta_div_matrix(A, B, 1.0) == INFINITE_DIVERGENCE
        assert beta_div_matrix(A, B, 0.0) == INFINITE_DIVERGENCE


def masked_sum(A, B, beta=1.0):
    """The sum of the masked cell formula, the reference for the one-pass forms."""
    return float(np.sum(beta_div_cells(A, B, beta)))


def underflow_cells(A, B, beta):
    """The KL and Itakura-Saito cells where A > 0 over a finite B > 0 gives A / B == 0."""
    if beta not in (0.0, 1.0):
        return np.zeros(np.shape(A), dtype=bool)
    with np.errstate(all="ignore"):
        return (A > 0) & (B > 0) & (B < math.inf) & (A / B == 0)


def fixed_masked_sum(A, B, beta):
    """masked_sum, with the underflow cells taken from the scalar oracle."""
    cells = beta_div_cells(A, B, beta)
    for idx in zip(*np.nonzero(underflow_cells(A, B, beta))):
        cells[idx] = beta_div_scalar(A[idx], B[idx], beta)
    return float(np.sum(cells))


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


SPECIAL_VALUES = (0.0, -0.0, -1.0, 1e-310, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf, -math.inf, math.nan)


def special_grid_differences(beta):
    """Every pair of special values, embedded among ordinary cells and alone
    (where the sign of a zero shows): the pairs whose sum differs from the
    masked form's, with the underflow cells taken from the scalar oracle."""
    rng = np.random.default_rng(3)
    A = rng.uniform(0.1, 2.0, (3, 4))
    B = rng.uniform(0.1, 2.0, (3, 4))
    A[0, 0] = B[0, 0]
    A[2, 1] = 0.0
    differ = []
    for a, b in itertools.product(SPECIAL_VALUES, repeat=2):
        A[1, 2], B[1, 2] = a, b
        for pa, pb in ((A, B), (np.array([[a]]), np.array([[b]]))):
            if a < 0 or b < 0:  # -1 and -inf; -0.0 and NaN are not negative
                with pytest.raises(ConfigError, match="nonnegative"):
                    beta_div_matrix(pa, pb, beta)
                continue
            if not same_bits(beta_div_matrix(pa, pb, beta), fixed_masked_sum(pa, pb, beta)):
                differ.append((a, b, pa.size))
    return differ


def assert_layouts_match(beta, order):
    """C or F inputs, strided views of them, and B in the other order, over
    50 draws: a sum in another layout than the masked form's differs in its
    last bit on about a third of them."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.0, 3.0, (40, 30)) * (rng.random((40, 30)) < 0.5)
        B = rng.uniform(0.01, 3.0, (40, 30))
        other = "C" if order == "F" else "F"
        A, B = np.asarray(A, order=order), np.asarray(B, order=order)
        if beta == 0.0:
            A = A + 0.5  # no zero cell, where every Itakura-Saito sum is inf
        for a, b in ((A, B), (A[:, ::3], B[:, ::3]), (A, np.asarray(B, order=other))):
            assert same_bits(beta_div_matrix(a, b, beta), masked_sum(a, b, beta)), seed


class TestKlInPlace:
    """beta = 1 evaluates in one buffer and must match the masked form bit for
    bit, except at cells where A / B underflows: there the masked form takes
    log(0), and the value must be the scalar oracle's split log."""

    beta = 1.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_special_value_grid(self):
        assert special_grid_differences(self.beta) == []

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_layouts(self, order):
        assert_layouts_match(self.beta, order)

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0.0, 2.0, (5, 6))
        A[1] = 0.0
        B = rng.uniform(0.1, 2.0, (5, 6))
        A0, B0 = A.copy(), B.copy()
        beta_div_matrix(A, B, self.beta)
        assert np.array_equal(A, A0) and np.array_equal(B, B0)

    def test_read_only_integer_and_list_inputs(self):
        A = np.array([[2.0, 0.0], [1.0, 3.0]])
        B = np.array([[1.0, 1.0], [1.0, 2.0]])
        expected = masked_sum(A, B, self.beta)
        A.flags.writeable = False
        B.flags.writeable = False
        assert same_bits(beta_div_matrix(A, B, self.beta), expected)
        assert same_bits(beta_div_matrix(A.astype(int), B.astype(int), self.beta), expected)
        assert same_bits(beta_div_matrix(A.tolist(), B.tolist(), self.beta), expected)

    def test_empty_is_zero(self):
        for shape in ((0,), (0, 3), (4, 0)):
            assert beta_div_matrix(np.ones(shape), np.ones(shape), self.beta) == 0.0

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[1e300, math.inf]], [[1e-310, math.inf]]),  # the NaN sum takes the conventions
            ([[1e300]], [[1e-310]]),  # the cell formula alone
        ],
    )
    def test_overflow_warns_once(self, A, B):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = beta_div_matrix(np.array(A), np.array(B), self.beta)
        assert value == math.inf
        assert [str(w.message) for w in caught] == ["overflow encountered in divide"]

    def test_zero_next_to_tiny_is_quiet(self):
        # A == 0 over a tiny B is exact (the cell is B); the zero B makes the
        # cell with A = 1 infinite and the sum take the conventions.
        A, B = np.array([[0.0, 1.0]]), np.array([[1e-310, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beta_div_matrix(A, B, self.beta) == math.inf
            cells = beta_div_cells(A, B, self.beta)
        zero_cell = 1e-310 if self.beta == 1.0 else 2.0 * math.sqrt(1e-310)
        assert cells[0, 0] == zero_cell and cells[0, 1] == math.inf


class TestHalfOnePass(TestKlInPlace):
    """beta = 1/2 evaluates in two reused buffers and must match the masked form bit for bit."""

    beta = 0.5


@pytest.mark.parametrize("beta", (0.0, 1.5, 2.0))
class TestPlainForms:
    """beta = 0, 3/2 and 2 take their plain cell forms, and must match the
    masked form bit for bit, with the same exception as beta = 1."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_special_value_grid(self, beta):
        assert special_grid_differences(beta) == []

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_layouts(self, beta, order):
        assert_layouts_match(beta, order)


def exact_three_half(a, b):
    """The beta = 3/2 cell in 80-digit decimal arithmetic, from its expanded
    form (4/3)(a^1.5 + b^1.5 / 2 - 1.5 a sqrt(b)), with no rounding of its own
    that counts at double precision."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a, b = decimal.Decimal(float(a)), decimal.Decimal(float(b))
        return (4 * a * a.sqrt() + 2 * b * b.sqrt() - 6 * a * b.sqrt()) / 3


class TestThreeHalfCells:
    """beta = 3/2 cells are (4/3) d^2 (sqrt A + sqrt B / 2) with d = sqrt A -
    sqrt B taken as (A - B) / (sqrt A + sqrt B): the expanded form cancels
    near the diagonal and overflows on cells far below the largest float."""

    @staticmethod
    def cells():
        rng = np.random.default_rng(0)
        near = [(a, a * (1 + rng.uniform(-1e-6, 1e-6))) for a in 10 ** rng.uniform(-100, 100, 300)]
        ulp = [(a, np.nextafter(a, math.inf)) for a in 10.0 ** rng.uniform(-100, 200, 50)]
        ulp += [(np.nextafter(a, 0.0), a) for a in 10.0 ** rng.uniform(-100, 200, 50)]
        huge = [(a, a * rng.uniform(0.5, 1.5)) for a in 10.0 ** rng.uniform(150, 205, 100)]
        huge += [(1e206, np.nextafter(1e206, math.inf)), (2e205, 0.0)]
        zero = [(0.0, b) for b in 10.0 ** rng.uniform(-100, 200, 30)]
        zero += [(b, 0.0) for b in 10.0 ** rng.uniform(-100, 200, 30)]
        return near + ulp + huge + zero

    def test_cells_are_exact_to_1e_15(self):
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow where the cell is finite
            for a, b in self.cells():
                exact = exact_three_half(a, b)
                got = beta_div_matrix([[a]], [[b]], 1.5)
                assert math.isfinite(got) and exact > 0, (a, b)
                worst = max(worst, float(abs(decimal.Decimal(got) - exact) / exact))
        assert worst <= 1e-15

    def test_found_overflow_and_zero_cells(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(beta_div_matrix([[1e206]], [[np.nextafter(1e206, math.inf)]], 1.5))
            assert beta_div_matrix([[0.0, 3.0]], [[0.0, 3.0]], 1.5) == 0.0  # 0/0 guarded


class TestUnderflowingQuotient:
    """Where A > 0 over a finite B > 0 gives A / B == 0, the KL and
    Itakura-Saito cells take log A - log B, not log(0)."""

    @pytest.mark.parametrize("beta", (0.0, 1.0))
    def test_lone_cell_is_the_scalar_oracle(self, beta):
        expected = beta_div_scalar(5e-324, 2.0, beta)
        assert math.isfinite(expected)
        assert beta_div_matrix([[5e-324]], [[2.0]], beta) == expected

    def test_beside_an_infinite_cell_is_quiet(self):
        # The underflow cell (-inf before the split) and the B == 0 cell (+inf)
        # must not make the first sum warn of -inf + inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beta_div_matrix([[1e-320, 1.0]], [[1e4, 0.0]], 1.0) == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 4), st.integers(1, 5)),
            elements=st.one_of(
                st.sampled_from((0.0, 5e-324, 1e-320, 1e-300, 1e300, 1.7e308)),
                st.floats(min_value=0.0, max_value=1e308),
            ),
        ),
        st.data(),
        st.sampled_from(SUPPORTED_BETAS),
    )
    @settings(max_examples=300, deadline=None)
    def test_finite_input_never_sums_to_nan_or_minus_inf(self, A, data, beta):
        B = data.draw(arrays(float, A.shape, elements=st.floats(min_value=0.0, max_value=1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)
            value = beta_div_matrix(A, B, beta)
        assert not math.isnan(value) and value != -math.inf


class TestNegativeEntries:
    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    @pytest.mark.parametrize(
        "A, B",
        [
            ([[0.0, -1.0]], [[1e-310, 2.0]]),
            ([[1.0, 2.0]], [[1.0, -1e-300]]),
            ([[-math.inf]], [[1.0]]),
            ([[math.nan, -1.0]], [[1.0, 1.0]]),  # the NaN minimum hides the sign
            ([[1.0, 1.0]], [[-1.0, math.nan]]),
        ],
    )
    def test_raise_like_the_scalar(self, beta, A, B):
        # The message of beta_div_scalar(-1, 2, beta).
        with pytest.raises(ConfigError, match="arguments must be nonnegative"):
            beta_div_matrix(A, B, beta)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_negative_zero_and_nan_keep_the_masked_form(self, beta):
        for a, b in ((-0.0, 2.0), (2.0, -0.0), (-0.0, -0.0), (math.nan, 2.0), (2.0, math.nan)):
            A = np.array([[a, 1.0]])
            B = np.array([[b, 3.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert same_bits(beta_div_matrix(A, B, beta), masked_sum(A, B, beta))


@st.composite
def kl_pairs(draw):
    """Nonnegative A and positive B with some zero and some equal cells, scaled together."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 9)))
    unit = st.floats(min_value=1e-3, max_value=1e3)
    A = draw(arrays(float, shape, elements=st.one_of(st.just(0.0), unit)))
    B = draw(arrays(float, shape, elements=unit))
    B = np.where(draw(arrays(bool, shape)) & (A > 0), A, B)
    scale = draw(st.floats(min_value=1e-6, max_value=1e8))
    return A * scale, B * scale


@given(kl_pairs())
@settings(max_examples=300, deadline=None)
def test_kl_in_place_matches_masked_form(pair):
    A, B = pair
    assert same_bits(beta_div_matrix(A, B, 1.0), masked_sum(A, B))


@given(kl_pairs())
@settings(max_examples=300, deadline=None)
def test_half_one_pass_matches_masked_form(pair):
    A, B = pair
    assert same_bits(beta_div_matrix(A, B, 0.5), masked_sum(A, B, 0.5))


class TestDecomposition:
    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_identity_on_grid(self, beta):
        dt = decomposition_terms(beta)
        grid = np.linspace(0.05, 10.0, 20)
        V, U = np.meshgrid(grid, grid)
        total = dt.check_d(V, U) + dt.hat_d(V, U) + dt.bar_d(V)
        expected = np.array(
            [beta_div_scalar(v, u, beta) for v, u in zip(V.ravel(), U.ravel())]
        ).reshape(V.shape)
        assert np.max(np.abs(total - expected)) <= 1e-10

    def test_kl_row_has_no_concave_part(self):
        dt = decomposition_terms(1.0)
        v, u = 2.0, 3.0
        assert float(dt.hat_d(v, u)) == 0.0
        assert float(dt.bar_d(v)) == 0.0
        assert float(dt.check_d(v, u)) == pytest.approx(
            beta_div_scalar(v, u, 1.0), abs=1e-14
        )

    def test_itakura_saito_row(self):
        dt = decomposition_terms(0.0)
        v, u = 2.0, 3.0
        assert float(dt.check_d(v, u)) == pytest.approx(v / u, abs=1e-15)
        assert float(dt.hat_d(v, u)) == pytest.approx(math.log(u), abs=1e-15)
        total = float(dt.check_d(v, u) + dt.hat_d(v, u) + dt.bar_d(v))
        assert total == pytest.approx(beta_div_scalar(v, u, 0.0), abs=1e-12)

    def test_half_row(self):
        dt = decomposition_terms(0.5)
        v, u = 4.0, 1.0
        assert float(dt.check_d(v, u)) == pytest.approx(2.0 * v / math.sqrt(u), abs=1e-13)
        assert float(dt.hat_d(v, u)) == pytest.approx(2.0 * math.sqrt(u), abs=1e-13)
        total = float(dt.check_d(v, u) + dt.hat_d(v, u) + dt.bar_d(v))
        assert total == pytest.approx(beta_div_scalar(4.0, 1.0, 0.5), abs=1e-12)

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_convex_concave_split(self, beta):
        dt = decomposition_terms(beta)
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(0.05, 10.0)
            u1, u2 = rng.uniform(0.05, 10.0, 2)
            mid = 0.5 * (u1 + u2)
            check_mid = float(dt.check_d(v, mid))
            check_avg = 0.5 * float(dt.check_d(v, u1) + dt.check_d(v, u2))
            assert check_mid <= check_avg + 1e-10
            hat_mid = float(dt.hat_d(v, mid))
            hat_avg = 0.5 * float(dt.hat_d(v, u1) + dt.hat_d(v, u2))
            assert hat_mid >= hat_avg - 1e-10

    @pytest.mark.parametrize("beta", SUPPORTED_BETAS)
    def test_hat_prime_is_derivative(self, beta):
        dt = decomposition_terms(beta)
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.uniform(0.1, 5.0)
            u = rng.uniform(0.1, 5.0)
            h = 1e-6 * u
            fd = float(dt.hat_d(v, u + h) - dt.hat_d(v, u - h)) / (2.0 * h)
            assert float(dt.hat_d_prime(v, u)) == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestMuExponent:
    def test_values(self):
        assert mu_exponent(0.0) == pytest.approx(0.5)
        assert mu_exponent(0.5) == pytest.approx(1.0 / 1.5)
        assert mu_exponent(1.0) == 1.0
        assert mu_exponent(1.5) == 1.0
        assert mu_exponent(2.0) == 1.0


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(SUPPORTED_BETAS),
)
@settings(max_examples=300, deadline=None)
def test_divergence_nonnegative_property(x, y, beta):
    assert beta_div_scalar(x, y, beta) >= 0.0
