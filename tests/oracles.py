"""Reference oracles the tests certify the kernels against.

Brute-force minimizers, a bisection Lambert W, the out-of-place form of the
Lambert kernel, an eigenvalue log-det, the ``ones @ H.T`` form of the KL
terminal step, a majorizer check, a scalar beta-divergence, the convex-concave-constant split of Fevotte & Idier
(Neural Computation 23(9), 2011) and the surrogate values the kernels
minimize.  The package never evaluates any of these: the search oracles
share no code with the solver kernels on purpose, so every closed-form
update can be cross-checked against a dumb, obviously-correct search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from deepbnmf.divergence import INFINITE_DIVERGENCE, _beta_div_cells, check_beta
from deepbnmf.errors import ConfigError, DimensionError, DomainError
from deepbnmf.minvol import LogDetContext
from deepbnmf.model import logdet_gram


def brute_force_scalar_min(
    objective: Callable,
    lo: float,
    hi: float,
    levels: int = 6,
    points: int = 1000,
) -> float:
    """Argmin of a unimodal scalar function by multi-level grid refinement.

    ``objective`` must accept a numpy array of abscissae.  Each level zooms
    into one grid cell around the current best point, so the final resolution
    is roughly ``(hi - lo) * (2 / points) ** levels``.
    """
    if not hi > lo:
        raise ValueError("need lo < hi")
    a, b = float(lo), float(hi)
    best = None
    for _ in range(levels):
        grid = np.linspace(a, b, points)
        vals = np.asarray(objective(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("objective is not finite on the search grid")
        k = int(np.argmin(vals))
        best = grid[k]
        step = (b - a) / (points - 1)
        a, b = max(lo, best - step), min(hi, best + step)
        if b <= a:
            break
    return float(best)


def bisect_lambert_exp(t) -> np.ndarray:
    """W(e^t) for finite ``t`` by plain bisection, entrywise.

    For ``t <= 1`` it brackets the root of ``w e^w = e^t`` by
    ``[e^(t-1), e^t]``; above, the root of ``w + log w = t`` by
    ``[t - log t, t]``, so no ``exp`` overflows.  Each bracket is halved
    until its ends are adjacent floats.
    """

    def bisect(below, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            left = below(mid)
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        return hi

    t = np.asarray(t, dtype=float)
    direct = t <= 1.0
    out = np.empty(t.shape)
    x = np.exp(t[direct])
    out[direct] = bisect(lambda w: w * np.exp(w) < x, x / math.e, x)
    big = t[~direct]
    out[~direct] = bisect(lambda w: w + np.log(w) < big, big - np.log(big), big)
    return out


def lambert_w0_exp_out_of_place(t):
    """``deepbnmf.scalars.lambert_w0_exp`` as plain expressions, one fresh
    array per operation: the form the in-place kernel must match bit for bit.
    """
    arr = np.asarray(t, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("lambert_w0_exp requires non-NaN input")
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.exp(np.minimum(arr, 1.0))
        d = np.maximum(arr - 1.0, 0.0)
        lt = np.log(np.minimum(np.maximum(arr, 1.0), np.finfo(float).max))
        guess = np.where(arr <= 1.0, np.log1p(x), arr - lt + lt / arr)
        w = guess
        for _ in range(2):
            z = d + np.log(x / w) - w
            w1 = 1.0 + w
            h = z / w1
            p = w1 + z * (2.0 / 3.0)
            w = w + w * h * (p - 0.5 * h) / (p - h)
        w = np.where(np.isfinite(w), w, guess)
    if np.ndim(t) == 0:
        return float(w)
    return w


def logdet_gram_eig(W: np.ndarray, delta: float) -> float:
    """log det(W^T W + delta I) as the sum of the logs of its eigenvalues."""
    gram = W.T @ W + delta * np.eye(W.shape[1])
    return float(np.sum(np.log(np.linalg.eigvalsh(gram))))


def kl_terminal_w_ones(Y, W_tilde, H, eps) -> np.ndarray:
    """The beta = 1 multiplicative W step with its denominator as ``ones @ H.T``."""
    V = W_tilde @ H
    W = W_tilde * (((Y / V) @ H.T) / (np.ones_like(Y) @ H.T))
    return np.maximum(W, eps)


def simplex_descent_min(
    objective: Callable,
    dim: int,
    halvings: int = 45,
    initial_step: float = 0.5,
) -> np.ndarray:
    """Minimizer of a convex function over the probability simplex.

    Pairwise mass-transfer descent with step halving: starting from the
    barycenter, repeatedly move ``step`` of mass between coordinate pairs
    while that improves the objective, then halve the step.  Transfers span
    every edge direction of the simplex, so for convex objectives the limit
    satisfies the constrained optimality conditions.  Deliberately naive and
    independent of any multiplier-based solver.
    """
    x = np.full(dim, 1.0 / dim)
    best = float(objective(x))
    if not np.isfinite(best):
        raise ValueError("objective is not finite at the barycenter")
    step = initial_step
    for _ in range(halvings):
        improved = True
        while improved:
            improved = False
            for j in range(dim):
                for i in range(dim):
                    if i == j or x[j] < step:
                        continue
                    y = x.copy()
                    y[i] += step
                    y[j] -= step
                    val = float(objective(y))
                    if val < best:
                        x, best = y, val
                        improved = True
        step *= 0.5
    return x


@dataclass(frozen=True)
class MajorizerReport:
    """Outcome of a tangency-and-domination check for a surrogate function."""

    tangency_gap: float
    worst_margin: float
    samples: int
    passed: bool


def check_majorizer(
    f: Callable,
    u: Callable,
    x_ref,
    samples: int,
    sampler: Callable = None,
    seed: int = 0,
    tangency_tol: float = 1e-9,
    domination_slack: float = 1e-9,
) -> MajorizerReport:
    """Check that ``u(y, x_ref) >= f(y)`` with equality at ``y = x_ref``.

    ``sampler(rng)`` draws random feasible points; the default perturbs
    ``x_ref`` entrywise by uniform positive factors in [0.2, 2].  The worst
    margin is ``min(u(y, x_ref) - f(y))`` over the draws; negative values
    beyond ``domination_slack`` fail the check.
    """
    rng = np.random.default_rng(seed)
    ref = np.asarray(x_ref, dtype=float)
    if sampler is None:
        sampler = lambda r: ref * r.uniform(0.2, 2.0, size=ref.shape)
    tangency_gap = abs(float(u(ref, ref)) - float(f(ref)))
    worst = np.inf
    for _ in range(samples):
        y = sampler(rng)
        margin = float(u(y, ref)) - float(f(y))
        worst = min(worst, margin)
    passed = tangency_gap <= tangency_tol and worst >= -domination_slack
    return MajorizerReport(
        tangency_gap=tangency_gap,
        worst_margin=worst,
        samples=samples,
        passed=passed,
    )


def beta_div_scalar(x: float, y: float, beta) -> float:
    """Scalar beta-divergence d_beta(x, y) with saturating conventions.

    Points where the divergence diverges (``y == 0`` with ``x > 0`` for
    beta <= 1, or ``x == 0`` for beta == 0) return ``INFINITE_DIVERGENCE``
    rather than raising, and ``d(0, 0) = 0`` by continuity along the diagonal.
    """
    b = check_beta(beta)
    if x < 0 or y < 0:
        raise ConfigError("beta divergence arguments must be nonnegative")
    if x == y:
        return 0.0
    if b == 1.0:
        if y == 0.0:
            return INFINITE_DIVERGENCE
        if x == 0.0:
            return float(y)
        return float(x * math.log(x / y) - x + y)
    if b == 0.0:
        if x == 0.0 or y == 0.0:
            return INFINITE_DIVERGENCE
        r = x / y
        return float(r - math.log(r) - 1.0)
    if b == 2.0:
        return float(0.5 * (x - y) ** 2)
    if b == 0.5:
        if y == 0.0:
            return INFINITE_DIVERGENCE if x > 0 else 0.0
        return float(-4.0 * math.sqrt(x) + 2.0 * math.sqrt(y) + 2.0 * x / math.sqrt(y))
    # beta == 1.5
    return float((4.0 / 3.0) * (x ** 1.5 + 0.5 * y ** 1.5 - 1.5 * x * math.sqrt(y)))


@dataclass(frozen=True)
class DecompositionTerms:
    """Split d_beta(v, u) = check_d(v, u) + hat_d(v, u) + bar_d(v).

    ``check_d`` is convex in ``u``, ``hat_d`` concave in ``u`` and ``bar_d``
    does not depend on ``u``; ``hat_d_prime`` is the partial derivative of
    ``hat_d`` with respect to ``u``.  All callables are vectorized.
    """

    beta: float
    check_d: Callable
    hat_d: Callable
    bar_d: Callable
    hat_d_prime: Callable


def decomposition_terms(beta) -> DecompositionTerms:
    """Convex-concave-constant decomposition of d_beta as vectorized callables."""
    b = check_beta(beta)
    if b >= 1.0:
        # The divergence is already convex in u: no concave or constant part.
        return DecompositionTerms(
            beta=b,
            check_d=lambda v, u: _beta_div_cells(v, u, b),
            hat_d=lambda v, u: np.zeros(np.broadcast(v, u).shape),
            bar_d=lambda v: np.zeros(np.shape(v)),
            hat_d_prime=lambda v, u: np.zeros(np.broadcast(v, u).shape),
        )
    if b == 0.0:
        return DecompositionTerms(
            beta=b,
            check_d=lambda v, u: np.asarray(v, dtype=float) / u,
            hat_d=lambda v, u: np.log(u) + 0.0 * np.asarray(v, dtype=float),
            # The constant must make the identity hold:
            # v/u - log(v/u) - 1 - (v/u) - log(u) = -log(v) - 1.
            bar_d=lambda v: -np.log(v) - 1.0,
            hat_d_prime=lambda v, u: 1.0 / np.asarray(u, dtype=float) + 0.0 * np.asarray(v, dtype=float),
        )
    # beta == 0.5
    return DecompositionTerms(
        beta=b,
        check_d=lambda v, u: 2.0 * np.asarray(v, dtype=float) / np.sqrt(u),
        hat_d=lambda v, u: 2.0 * np.sqrt(u) + 0.0 * np.asarray(v, dtype=float),
        bar_d=lambda v: -4.0 * np.sqrt(v),
        hat_d_prime=lambda v, u: 1.0 / np.sqrt(u) + 0.0 * np.asarray(v, dtype=float),
    )


def beta_fit_majorizer_value(W, Y, H, H_tilde, beta) -> float:
    """Value of the separable majorizer of H |-> D_beta(Y, W H) anchored at H_tilde.

    Certifies descent of the closed-form kernels; the kernels themselves
    never evaluate this.
    """
    b = check_beta(beta)
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    H = np.asarray(H, dtype=float)
    H_tilde = np.asarray(H_tilde, dtype=float)
    dt = decomposition_terms(b)
    V = W @ H_tilde
    total = 0.0
    # Boundary evaluations (a zero H entry with beta < 1) are legal and give
    # an infinite surrogate value rather than a warning.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(W.shape[1]):
            scaled = V * (H[k][None, :] / H_tilde[k][None, :])
            weight = np.outer(W[:, k], H_tilde[k]) / V
            total += float(np.sum(weight * dt.check_d(Y, scaled)))
        total += float(np.sum(dt.hat_d_prime(Y, V) * (W @ (H - H_tilde))))
        total += float(np.sum(dt.hat_d(Y, V)))
        total += float(np.sum(dt.bar_d(Y)))
    return total


def w_fit_majorizer_value(Y, W, W_tilde, H, beta) -> float:
    """Majorizer of W |-> D_beta(Y, W H), by transposing the H-side majorizer."""
    return beta_fit_majorizer_value(H.T, Y.T, W.T, W_tilde.T, beta)


def logdet_majorizer(
    W: np.ndarray, ctx: LogDetContext, W_ref: np.ndarray, delta: float
) -> float:
    """Separable quadratic upper bound of logdet(W^T W + delta I), tight at W_ref.

    ``ctx`` is built from W_ref and delta; A = A+ - A- is the inverse of the
    regularized Gram matrix.  Row i contributes its linearization at the
    reference row plus a diagonal quadratic with weights
    2 (A+ + A-) w_ref / w_ref, which dominates the true curvature for
    strictly positive references.
    """
    if W.shape != W_ref.shape:
        raise DimensionError("W and W_ref must have equal shapes")
    if not np.all(W_ref > 0):
        raise ValueError("the majorizer reference must be entrywise positive")
    base = logdet_gram(W_ref, delta)
    diff = W - W_ref
    grad = 2.0 * W_ref @ (ctx.A_plus - ctx.A_minus)
    curv = 2.0 * (W_ref @ (ctx.A_plus + ctx.A_minus)) / W_ref
    return float(base + np.sum(grad * diff) + 0.5 * np.sum(curv * diff * diff))
