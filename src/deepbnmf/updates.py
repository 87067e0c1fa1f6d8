"""Per-block multiplicative update kernels for deep beta-NMF.

Each kernel minimizes the standard separable majorizer of its block objective
(the convex-concave construction of Fevotte & Idier) in closed form:

* ``update_h_simplex``  -- H-block under row sum-to-one constraints; the
  Lagrange multiplier of each row enters the entrywise stationarity equation
  and is found by safeguarded Newton on the row sum.
* ``update_w_inner``    -- W-block of an intermediate layer, where the layer
  above contributes a proximity term ``lam * D_beta(W, W_bar)``; entrywise
  closed forms exist for beta in {0, 1/2, 1, 3/2} (Lambert W, quadratic in
  1/w or sqrt(w), depressed cubic).
* ``update_w_terminal`` -- W-block of the last layer: one classical
  multiplicative update step.

All kernels floor their outputs elementwise, which combined with strictly
positive initialization rules out multiplicative zero-locking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import check_beta, decomposition_terms, mu_exponent
from .errors import ConfigError, DimensionError, NoRootError, PreconditionError
from .model import MACHINE_EPS
from .scalars import lambert_w0_exp

# Row sums are solved well below the documented 1e-10 contract so that the
# feasibility leak cannot eat into the solver's monotonicity slack.
_ROW_SUM_TOL = 1e-13
_ROW_SUM_CONTRACT = 1e-10


def epsilon_floor(M: np.ndarray, eps: float) -> np.ndarray:
    """Elementwise max(M, eps); the perturbation that keeps factors positive."""
    if not eps > 0:
        raise ConfigError("eps must be positive")
    return np.maximum(np.asarray(M, dtype=float), eps)


def _require_positive(name, M):
    if M.size == 0 or not np.all(M > 0):
        raise PreconditionError(f"{name} must be entrywise positive")


def solve_multipliers(f_df, count, tol, lower_limit=None):
    """Roots of ``count`` decreasing functions, one multiplier each.

    ``f_df(mu)`` returns the (f, df) arrays of all components at once.  The
    bracket starts at [-1, 1]: its upper end moves up by doubling steps until
    f < 0; its lower end moves down the same way until f > 0 or, when a
    per-component ``lower_limit`` bounds the domain, halves its gap above
    that limit.  Newton candidates outside the shrinking bracket fall back to
    bisection; components with |f| <= tol are frozen.
    """
    hi = np.ones(count)
    step = np.ones(count)
    for _ in range(80):
        grow = f_df(hi)[0] >= 0
        if not grow.any():
            break
        hi = np.where(grow, hi + step, hi)
        step = np.where(grow, 2.0 * step, step)
    else:
        raise NoRootError("upper bracket expansion failed")
    lo = -np.ones(count)
    step = np.ones(count)
    if lower_limit is not None:
        step = np.maximum(lo - lower_limit, 1.0)
        lo = lower_limit + step
    for _ in range(200):
        grow = f_df(lo)[0] <= 0
        if not grow.any():
            break
        if lower_limit is None:
            lo = np.where(grow, lo - step, lo)
            step = np.where(grow, 2.0 * step, step)
        else:
            step = np.where(grow, 0.5 * step, step)
            lo = lower_limit + step
    else:
        raise NoRootError("lower bracket expansion failed")

    mu = np.where((lo < 0.0) & (hi > 0.0), 0.0, 0.5 * (lo + hi))
    done = np.zeros(count, dtype=bool)
    for _ in range(200):
        f, df = f_df(mu)
        done = done | (np.abs(f) <= tol)
        if done.all():
            return mu
        lo = np.where(~done & (f > 0), mu, lo)
        hi = np.where(~done & (f < 0), mu, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = mu - f / df
        bad = ~np.isfinite(newton) | (newton <= lo) | (newton >= hi)
        step = np.where(bad, 0.5 * (lo + hi), newton)
        mu = np.where(done, mu, step)
    f, _ = f_df(mu)
    if np.all(np.abs(f) <= _ROW_SUM_CONTRACT):
        return mu
    raise NoRootError(
        f"multiplier solve stalled; worst residual {np.max(np.abs(f))}"
    )


def update_h_simplex(W, Y, H_tilde, beta, eps: float = MACHINE_EPS):
    """Majorizer minimizer of H |-> D_beta(Y, W H) over rows of H on the simplex.

    For beta = 1 the per-row stationarity has a row-constant denominator and
    the update collapses to row-normalizing the multiplicative-update
    numerator.  For other beta the row multiplier shifts the linear
    coefficient of the entrywise closed form and is solved per row.

    Rows whose update numerator vanishes identically (all-zero data) are
    returned unchanged with a warning.
    """
    b = check_beta(beta)
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    H_tilde = np.asarray(H_tilde, dtype=float)
    m, r = W.shape
    if Y.shape[0] != m or H_tilde.shape != (r, Y.shape[1]):
        raise DimensionError(
            f"inconsistent shapes: W {W.shape}, Y {Y.shape}, H {H_tilde.shape}"
        )
    _require_positive("W", W)
    _require_positive("H_tilde", H_tilde)
    V = W @ H_tilde

    if b == 1.0:
        numer = H_tilde * (W.T @ (Y / V))
        sums = numer.sum(axis=1)
        dead = sums <= 0
        H = numer / np.where(dead, 1.0, sums)[:, None]
    else:
        H, dead = _h_simplex_general(W, Y, H_tilde, V, b)
    if dead.any():
        warnings.warn(
            f"rows {np.flatnonzero(dead).tolist()} have an identically zero "
            "update numerator; left unchanged",
            RuntimeWarning,
            stacklevel=2,
        )
        H[dead] = H_tilde[dead]
    alive = ~dead
    # Kill the last-ulp feasibility drift before flooring.
    H[alive] /= H[alive].sum(axis=1, keepdims=True)
    return epsilon_floor(H, eps)


def _h_simplex_general(W, Y, H_tilde, V, b):
    """Row-multiplier solve shared by beta in {0, 1/2, 3/2, 2}.

    Rows with an identically zero numerator are excluded from the solve and
    reported back to the caller.
    """
    if b == 1.5:
        sqv = np.sqrt(V)
        A = W.T @ sqv
        B = W.T @ (Y / sqv)
        C = None
        expo = None
    elif b == 2.0:
        A = W.T @ V
        B = W.T @ Y
        C = None
        expo = None
    elif b == 0.5:
        B = W.T @ (Y * V ** -1.5)
        C = W.T @ (V ** -0.5)
        A = None
        expo = 2.0 / 3.0
    else:  # b == 0
        B = W.T @ (Y * V ** -2.0)
        C = W.T @ (1.0 / V)
        A = None
        expo = 0.5
    dead = B.sum(axis=1) <= 0
    alive = ~dead
    H = np.zeros_like(H_tilde)
    if not alive.any():
        return H, dead
    Ht = H_tilde[alive]
    Ba = B[alive]
    Aa = A[alive] if A is not None else None
    Ca = C[alive] if C is not None else None

    if b == 1.5:
        quad = 4.0 * Aa * Ba

        def h_and_slope(mu):
            u = mu[:, None]
            root = np.sqrt(u * u + quad)
            # Conjugate form for mu > 0 avoids cancellation in root - mu.
            with np.errstate(divide="ignore", invalid="ignore"):
                x = np.where(u > 0, 2.0 * Ba / (root + u), (root - u) / (2.0 * Aa))
                h = Ht * x * x
                return h, -2.0 * h / root

        lower_limit = None
    elif b == 2.0:

        def h_and_slope(mu):
            u = mu[:, None]
            active = Ba > u
            h = np.where(active, Ht * (Ba - u) / Aa, 0.0)
            return h, np.where(active, -Ht / Aa, 0.0)

        lower_limit = None
    else:
        positive = Ba > 0
        # The multiplier domain is bounded below by the smallest linear
        # coefficient among entries the data actually pulls on.
        lower_limit = -np.where(positive, Ca, np.inf).min(axis=1)

        def h_and_slope(mu):
            u = mu[:, None]
            with np.errstate(divide="ignore", over="ignore"):
                base = np.where(positive, Ba / (Ca + u), 0.0)
                h = Ht * base ** expo
                slope = np.where(positive, -expo * h / (Ca + u), 0.0)
            return h, slope

    def f_df(mu):
        h, slope = h_and_slope(mu)
        return h.sum(axis=1) - 1.0, slope.sum(axis=1)

    mu = solve_multipliers(f_df, int(alive.sum()), _ROW_SUM_TOL, lower_limit)
    H[alive], _ = h_and_slope(mu)
    return H, dead


def update_h_plain(W, Y, H_tilde, beta, eps: float = MACHINE_EPS):
    """One classical multiplicative update of H for D_beta(Y, W H), no constraint."""
    b = check_beta(beta)
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    H_tilde = np.asarray(H_tilde, dtype=float)
    _require_positive("W", W)
    _require_positive("H_tilde", H_tilde)
    V = W @ H_tilde
    numer = W.T @ (Y * V ** (b - 2.0))
    denom = W.T @ V ** (b - 1.0)
    H = H_tilde * (numer / denom) ** mu_exponent(b)
    return epsilon_floor(H, eps)


@dataclass(frozen=True)
class InnerWContext:
    """Inputs of an intermediate-layer W update.

    ``Y ~ W H`` is the fit below, ``W_bar`` the reconstruction from the layer
    above, and ``lambda_ratio`` the weight of the proximity term relative to
    the fit term.
    """

    Y: np.ndarray
    W_tilde: np.ndarray
    H: np.ndarray
    W_bar: np.ndarray
    lambda_ratio: float

    def __post_init__(self):
        m, r = self.W_tilde.shape
        if self.Y.shape[0] != m or self.H.shape != (r, self.Y.shape[1]):
            raise DimensionError("Y, W_tilde, H shapes are not chain-consistent")
        if self.W_bar.shape != (m, r):
            raise DimensionError("W_bar must have the shape of W_tilde")
        if not self.lambda_ratio > 0:
            raise ConfigError("lambda_ratio must be positive")
        _require_positive("W_tilde", self.W_tilde)
        _require_positive("W_bar", self.W_bar)


def update_w_inner(ctx: InnerWContext, beta, eps: float = MACHINE_EPS):
    """Entrywise minimizer of fit-majorizer + lam * D_beta(w, w_bar) over w >= 0."""
    b = check_beta(beta)
    if b not in (0.0, 0.5, 1.0, 1.5):
        raise ConfigError(f"inner W update supports beta in (0, 1/2, 1, 3/2), got {b}")
    Y, Wt, H, Wb = ctx.Y, ctx.W_tilde, ctx.H, ctx.W_bar
    lam = float(ctx.lambda_ratio)
    V = Wt @ H
    if b == 1.0:
        B = Wt * ((Y / V) @ H.T)
        A = H.sum(axis=1)[None, :] - lam * np.log(Wb)
        W = kl_inner_cells(B, A, lam)
    elif b == 1.5:
        sqv = np.sqrt(V)
        A = Wt ** -0.5 * (sqv @ H.T) + 2.0 * lam
        B = Wt ** 0.5 * ((Y / sqv) @ H.T)
        C = 2.0 * lam * np.sqrt(Wb)
        W = three_half_inner_cells(A, B, C)
    elif b == 0.0:
        A = Wt ** 2 * ((Y / V ** 2) @ H.T)
        C = (1.0 / V) @ H.T + lam / Wb
        W = is_inner_cells(A, C, lam)
    else:  # b == 0.5
        cbar = (V ** -0.5) @ H.T + 2.0 * lam * Wb ** -0.5
        abar = Wt ** 1.5 * ((Y / V ** 1.5) @ H.T)
        W = half_inner_cells(abar, cbar, lam)
    return epsilon_floor(W, eps)


def kl_inner_cells(B, A, lam):
    """Solve a = b/w - lam*log(w) entrywise: w = b / (lam * W0(b e^{a/lam}/lam)).

    Evaluated through the log of the Lambert argument so huge exponents never
    overflow; b = 0 cells take the analytic limit e^{-a/lam}.
    """
    with np.errstate(divide="ignore"):
        t = np.log(B) + A / lam - np.log(lam)
    w = lambert_w0_exp(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = B / (lam * w)
    return np.where(B > 0, out, np.exp(-A / lam))


def three_half_inner_cells(A, B, C):
    """Squared positive root of a*x^2 - c*x - b = 0 with x = sqrt(w).

    All coefficients are nonnegative, so the plus-branch quadratic formula
    is cancellation-free.
    """
    return ((C + np.sqrt(C * C + 4.0 * A * B)) / (2.0 * A)) ** 2


def is_inner_cells(A, C, lam):
    """Positive root of c*w^2 - lam*w - a = 0 (from a/w^2 + lam/w = c).

    Uses the subtraction-free branch, immune to cancellation when
    4*a*c << lam^2.
    """
    return (lam + np.sqrt(lam * lam + 4.0 * A * C)) / (2.0 * C)


def half_inner_cells(abar, cbar, lam):
    """Positive root of cbar*w^{3/2} - 2*lam*w - abar = 0 via the depressed cubic.

    Substituting x = sqrt(w) gives x^3 + p x^2 + r = 0 with p = -2*lam/cbar
    and r = -abar/cbar; shifting x = z - p/3 yields z^3 + a z + b = 0 with
    a < 0, b < 0 and a nonnegative discriminant, so z = u + v is the unique
    real root.  Taking v = -a/(3u) from Vieta's relation instead of a second
    cube root makes every term of x positive, so the root is free of
    cancellation, also at abar = 0 where the discriminant vanishes
    (Numerical Recipes, section 5.6).
    """
    p = -2.0 * lam / cbar
    a = -(p * p) / 3.0
    bq = (2.0 * p ** 3 - 27.0 * (abar / cbar)) / 27.0
    disc = 0.25 * bq * bq + a ** 3 / 27.0
    u = np.cbrt(-0.5 * bq + np.sqrt(np.maximum(disc, 0.0)))
    x = u - a / (3.0 * u) - p / 3.0
    return x * x


def update_w_terminal(Y, W_tilde, H, beta, eps: float = MACHINE_EPS):
    """One classical multiplicative update of W for D_beta(Y, W H)."""
    b = check_beta(beta)
    Y = np.asarray(Y, dtype=float)
    W_tilde = np.asarray(W_tilde, dtype=float)
    H = np.asarray(H, dtype=float)
    _require_positive("W_tilde", W_tilde)
    _require_positive("H", H)
    V = W_tilde @ H
    numer = (Y * V ** (b - 2.0)) @ H.T
    denom = V ** (b - 1.0) @ H.T
    W = W_tilde * (numer / denom) ** mu_exponent(b)
    return epsilon_floor(W, eps)


def beta_fit_majorizer_value(W, Y, H, H_tilde, beta) -> float:
    """Value of the separable majorizer of H |-> D_beta(Y, W H) anchored at H_tilde.

    Used by tests to certify descent of the closed-form kernels; the kernels
    themselves never evaluate this.
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
