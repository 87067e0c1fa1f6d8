"""Per-block multiplicative update kernels for deep beta-NMF.

Each kernel minimizes the standard separable majorizer of its block objective
(the convex-concave construction of Fevotte & Idier) in closed form:

* ``update_h_simplex``  -- H-block under row sum-to-one constraints; the
  Lagrange multiplier of each row enters the entrywise stationarity equation
  and is found by Newton on a residual that is convex and decreasing in it,
  started at a bound left of its root (``solve_multipliers``).
* ``update_w_inner``    -- W-block of an intermediate layer, where the layer
  above contributes a proximity term ``lam * D_beta(W, W_bar)``; entrywise
  closed forms exist for every supported beta (Lambert W, quadratic in 1/w
  or sqrt(w), depressed cubic, and at beta = 2 a linear equation).
* ``update_w_terminal`` -- W-block of the last layer: one classical
  multiplicative update step.

All kernels floor their outputs elementwise, which combined with strictly
positive initialization rules out multiplicative zero-locking.  They check
none of their inputs: each states the preconditions ``run_sweeps`` establishes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .divergence import mu_exponent
from .errors import ConfigError, NoRootError
from .model import MACHINE_EPS
from .scalars import lambert_w0_exp

# Row sums are solved well below the documented 1e-10 contract so that the
# feasibility leak cannot eat into the solver's monotonicity slack.
_ROW_SUM_TOL = 1e-13
_ROW_SUM_CONTRACT = 1e-10


def epsilon_floor(M: np.ndarray, eps: float) -> np.ndarray:
    """Elementwise max(M, eps) in float64, for eps > 0; NaN entries stay NaN."""
    return np.maximum(M, eps, dtype=float)


def floor_columns(W: np.ndarray) -> np.ndarray:
    """W floored at ``MACHINE_EPS`` with its columns renormalized to sum to one."""
    W = epsilon_floor(W, MACHINE_EPS)
    W /= W.sum(axis=0, keepdims=True)
    return W


def solve_multipliers(f_df, start, tol):
    """Roots of convex decreasing functions, one multiplier each, by Newton.

    ``f_df(mu)`` returns the (f, df) arrays of all components at once.  Each
    f must be convex and decreasing in its multiplier, so every tangent lies
    below it: from a point left of the root (f >= 0) the Newton iterates rise
    monotonically to it, and from the right one step lands on the left.  So
    no bracket is needed, only a finite ``start`` in f's domain, one per
    component; where the domain ends on the left, the caller's start is a
    bound left of the root.  Components with |f| <= tol are frozen.  The
    last call of ``f_df`` is at the returned multipliers.
    """
    mu = np.array(start, dtype=float)
    if mu.ndim != 1 or not np.isfinite(mu).all():
        raise ConfigError("start must be a vector of finite multipliers")
    try:
        f, df = f_df(mu)
    except ValueError as err:  # numpy could not broadcast the start
        raise ConfigError("start must hold one multiplier per component") from err
    if np.shape(f) != mu.shape:
        raise ConfigError("start must hold one multiplier per component")
    # f_df runs inside too: an inf or NaN step ends in NoRootError.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            live = ~(np.abs(f) <= tol)  # a NaN residual stays live and fails below
            if not live.any():
                return mu
            mu = np.where(live, mu - f / df, mu)
            if not np.isfinite(mu).all():
                raise NoRootError(f"multiplier solve diverged; worst residual {np.max(np.abs(f))}")
            f, df = f_df(mu)
    if np.all(np.abs(f) <= _ROW_SUM_CONTRACT):
        return mu
    raise NoRootError(f"multiplier solve stalled; worst residual {np.max(np.abs(f))}")


def update_h_simplex(W, Y, H_tilde, beta, eps: float = MACHINE_EPS, V=None, work=None):
    """Majorizer minimizer of H |-> D_beta(Y, W H) over rows of H on the simplex.

    For beta = 1 the per-row stationarity has a row-constant denominator and
    the update collapses to row-normalizing the multiplicative-update
    numerator.  For other beta the row multiplier shifts the linear
    coefficient of the entrywise closed form and is solved per row.

    Rows whose update numerator vanishes identically (all-zero data) are
    returned unchanged with a warning.  Unchecked preconditions: ``W`` (m, r)
    and ``H_tilde`` (r, n) positive, ``Y`` (m, n) nonnegative, a supported beta.

    ``V``, if given, is the product ``W @ H_tilde`` in a float array that
    the step's quotients and powers of V then overwrite.  ``work``, a float
    array of Y's shape, if given, takes the beta = 1/2 step's second one
    (else it is allocated).  The result is the same, bit for bit.
    """
    if V is None:
        V = W @ H_tilde

    if beta == 1.0:
        numer = H_tilde * (W.T @ np.divide(Y, V, out=V))
        sums = numer.sum(axis=1)
        dead = sums <= 0
        H = numer / np.where(dead, 1.0, sums)[:, None]
    else:
        H, dead = _h_simplex_general(W, Y, H_tilde, V, beta, work)
    # Kill the last-ulp feasibility drift before flooring; dead rows are
    # overwritten below, so their 0/0 here does not matter.
    with np.errstate(invalid="ignore", divide="ignore"):
        H /= H.sum(axis=1, keepdims=True)
    if dead.any():
        warnings.warn(
            f"rows {np.flatnonzero(dead).tolist()} have an identically zero "
            "update numerator; left unchanged",
            RuntimeWarning,
            stacklevel=2,
        )
        H[dead] = H_tilde[dead]
    return np.maximum(H, eps, out=H)


def _h_simplex_general(W, Y, H_tilde, V, b, work):
    """Row-multiplier solve shared by beta in {0, 1/2, 3/2, 2}.

    Each row's residual is convex and decreasing in its multiplier, and each
    row starts from a bound that places it left of the root, so plain Newton
    converges (see ``solve_multipliers``).  Rows with an identically zero
    numerator are excluded from the solve and reported back to the caller.
    The quotients of the product ``V`` go into V and ``work`` (None: allocated).
    """
    if b == 1.5:
        sqv = np.sqrt(V, out=V)
        A = W.T @ sqv
        B = W.T @ np.divide(Y, sqv, out=sqv)
    elif b == 2.0:
        A = W.T @ V
        B = W.T @ Y
    elif b == 0.5:
        # Reciprocals and roots, not numpy's slower general power.
        inv_sqv = np.sqrt(V, out=work)
        np.divide(1.0, inv_sqv, out=inv_sqv)
        C = W.T @ inv_sqv
        q = np.divide(inv_sqv, V, out=V)
        q *= Y
        B = W.T @ q
    else:  # b == 0
        inv = np.divide(1.0, V, out=V)
        C = W.T @ inv
        q = np.multiply(inv, inv, out=inv)
        q *= Y
        B = W.T @ q
    dead = B.sum(axis=1) <= 0
    alive = ~dead
    H = np.zeros_like(H_tilde)
    if not alive.any():
        return H, dead
    Ht = H_tilde[alive]
    B = B[alive]
    last = {}

    if b == 1.5:
        A = A[alive]
        quad = 4.0 * A * B
        twoA, twoB = 2.0 * A, 2.0 * B
        # h_j = Ht_j x_j^2 with A_j x^2 + mu x - B_j = 0, so h_j = 1 at
        # mu = B_j sqrt(Ht_j) - A_j / sqrt(Ht_j): the row sum is >= 1 at the
        # largest of these.
        rt = np.sqrt(Ht)
        start = (B * rt - A / rt).max(axis=1)

        def f_df(mu):
            u = mu[:, None]
            root = np.sqrt(u * u + quad)
            # x = (root - u) / 2A, in the conjugate form 2B / (root + u)
            # where u > 0: root - u loses digits when u >> AB.
            g = root + np.abs(u)
            x = g / twoA
            np.divide(twoB, g, out=x, where=u > 0)
            h = last["h"] = Ht * x * x
            return h.sum(axis=1) - 1.0, -2.0 * (h / root).sum(axis=1)

    elif b == 2.0:
        # In v = mu - max B the active terms are R_j (-v - E_j), with no
        # cancellation against B at large data scales.  The hinge lies above
        # its all-active line, so the line's root is left of the row's.
        R = Ht / A[alive]
        E = B.max(axis=1, keepdims=True) - B
        start = -(1.0 + (R * E).sum(axis=1)) / R.sum(axis=1)

        def f_df(v):
            gap = -v[:, None] - E
            h = last["h"] = R * np.maximum(gap, 0.0)
            return h.sum(axis=1) - 1.0, -(R * (gap > 0)).sum(axis=1)

    else:
        # h_j = a_j t_j^-e with a = Ht B^e and t = C + mu, for e = 2/3
        # (beta = 1/2) or 1/2 (beta = 0).  Solve for the shift s = mu + min C
        # over the entries the data pulls on (B > 0), so t = D + s with
        # D = C - min C >= 0 never cancels against C.  With S the row sum,
        # S^(-1/e) is a positive multiple of a power mean of t with exponent
        # -e: concave and increasing in s, so 1 - S^(-1/e) is convex and
        # decreasing.
        positive = B > 0
        C = C[alive]
        low = np.where(positive, C, np.inf).min(axis=1, keepdims=True)
        D = np.where(positive, C - low, 0.0)
        if b == 0.5:  # e = 2/3; sink(t) = t^-e, lift(x) = x^(1/e)
            a = Ht * np.cbrt(B) ** 2
            sink, lift = (lambda t: (1.0 / np.cbrt(t)) ** 2), (lambda x: x * np.sqrt(x))
        else:  # e = 1/2
            a = Ht * np.sqrt(B)
            sink, lift = (lambda t: 1.0 / np.sqrt(t)), (lambda x: x * x)
        # S >= 1 where one term alone reaches 1, s = a_j^(1/e) - D_j, and where
        # the power mean's upper bound, the a-weighted mean of t, gives S = 1,
        # s = (sum a)^(1/e) - sum(a D) / sum(a): the larger lies left of the root.
        total = a.sum(axis=1)
        start = np.maximum((lift(a) - D).max(axis=1), lift(total) - (a * D).sum(axis=1) / total)

        def f_df(s):
            t = D + s[:, None]
            h = last["h"] = a * sink(t)
            rows = h.sum(axis=1)
            inv = 1.0 / lift(rows)
            return 1.0 - inv, -(inv / rows) * (h / t).sum(axis=1)

    root = solve_multipliers(f_df, start, _ROW_SUM_TOL)
    if b in (0.0, 0.5):
        # An entry the data does not pull on (B = 0) adds (C_j + mu) h_j to
        # the majorizer, so mu stays >= -C_j: a row whose root lies below
        # that stops there and gives the rest of its mass to that entry.
        cap = np.where(positive, 0.0, low - C).max(axis=1)
        pinned = np.flatnonzero(root < cap)
        if pinned.size:
            f_df(np.maximum(root, cap))
            j = np.argmax(np.where(positive, -np.inf, -C), axis=1)[pinned]
            last["h"][pinned, j] = 1.0 - last["h"][pinned].sum(axis=1)
    H[alive] = last["h"]
    return H, dead


def _power_into(V, e, out):
    """``V ** e`` written into ``out`` (which may be V), bit for bit: by the
    ufunc that numpy's ``**`` takes for this scalar exponent, where
    ``np.power`` itself runs its slower general loop."""
    if e == 0.0:
        out.fill(1.0)
        return out
    if e == -1.0:
        return np.reciprocal(V, out=out)
    if e == 0.5:
        return np.sqrt(V, out=out)
    return np.power(V, e, out=out)


def _mu_ratio(V, Y, beta, work, times):
    """``times(Y * V ** (beta - 2)) / times(V ** (beta - 1))``, the ratio of a
    multiplicative step, with the powers of the product ``V`` written over V
    and ``work`` (None: allocated).  At beta = 1 the second power, all ones,
    does not read V, so both go into V and ``work`` is not used."""
    q = V if beta == 1.0 else np.empty_like(V) if work is None else work
    q = _power_into(V, beta - 2.0, q)
    q *= Y
    numer = times(q)
    return numer / times(_power_into(V, beta - 1.0, V))


def update_h_plain(W, Y, H_tilde, beta, eps: float = MACHINE_EPS, V=None, work=None):
    """One classical multiplicative update of H for D_beta(Y, W H), no constraint;
    unchecked preconditions as for ``update_h_simplex``.  ``V``, if given, is
    the product ``W @ H_tilde`` in a float array that the step's powers of V
    then overwrite, with ``work``, a float array of Y's shape, at beta != 1
    (else it is allocated).  The powers are numpy's ``**`` (at beta = 1 a
    reciprocal and a filled array), so the result is the same, bit for bit."""
    if V is None:
        V = W @ H_tilde
    H = H_tilde * _mu_ratio(V, Y, beta, work, lambda M: W.T @ M) ** mu_exponent(beta)
    return epsilon_floor(H, eps)


@dataclass(frozen=True)
class InnerWContext:
    """Inputs of an intermediate-layer W update.

    ``Y ~ W H`` is the fit below, ``W_bar`` the reconstruction from the layer
    above, and ``lambda_ratio`` the weight of the proximity term relative to
    the fit term.  Unchecked preconditions: ``Y`` is (m, n), ``H`` (r, n),
    ``W_tilde`` and ``W_bar`` (m, r), the factors positive, ``lambda_ratio > 0``.
    """

    Y: np.ndarray
    W_tilde: np.ndarray
    H: np.ndarray
    W_bar: np.ndarray
    lambda_ratio: float

    @classmethod
    def of_layer(cls, state, i: int, lams, V) -> "InnerWContext":
        """Layer i's context in a sweep of ``run_sweeps``: its target, its
        factors, the driver's product ``V[i + 1]`` of the layer above as
        ``W_bar``, and the ratio of the two layers' weights ``lams``."""
        return cls(state.prev_w(i), state.W[i], state.H[i], V[i + 1], lams[i + 1] / lams[i])


def update_w_inner(ctx: InnerWContext, beta, eps: float = MACHINE_EPS, scratch=None, work=None):
    """Entrywise minimizer of fit-majorizer + lam * D_beta(w, w_bar) over w >= 0;
    unchecked preconditions: ``ctx`` as documented, a supported beta.
    A float ``scratch`` array of Y's shape, if given, is overwritten with the
    product ``W_tilde @ H`` and its quotients, and a float ``work`` array of
    that shape with the second power of the product at beta 0 and 1/2 (else
    it is allocated); the result is the same."""
    Y, Wt, H, Wb = ctx.Y, ctx.W_tilde, ctx.H, ctx.W_bar
    lam = float(ctx.lambda_ratio)
    V = np.matmul(Wt, H, out=scratch)
    if beta == 1.0:
        B = Wt * (np.divide(Y, V, out=V) @ H.T)
        W = kl_inner_cells(B, H.sum(axis=1)[None, :] - lam * np.log(Wb), lam)
    elif beta == 1.5:
        sqv = np.sqrt(V, out=V)
        A = Wt ** -0.5 * (sqv @ H.T) + 2.0 * lam
        B = Wt ** 0.5 * (np.divide(Y, sqv, out=sqv) @ H.T)
        C = 2.0 * lam * np.sqrt(Wb)
        W = three_half_inner_cells(A, B, C)
    elif beta == 0.0:
        q = np.square(V, out=work)
        A = Wt ** 2 * (np.divide(Y, q, out=q) @ H.T)
        C = np.divide(1.0, V, out=V) @ H.T + lam / Wb
        W = is_inner_cells(A, C, lam)
    elif beta == 2.0:
        # The Lee-Seung majorizer's curvature is (V H^T) / W_tilde.
        W = (Y @ H.T + lam * Wb) / ((V @ H.T) / Wt + lam)
    else:  # beta == 0.5
        cbar = np.power(V, -0.5, out=work) @ H.T + 2.0 * lam * Wb ** -0.5
        q = np.power(V, 1.5, out=V)
        abar = Wt ** 1.5 * (np.divide(Y, q, out=q) @ H.T)
        W = half_inner_cells(abar, cbar, lam)
    return epsilon_floor(W, eps)


def kl_inner_cells(B, A, lam):
    """Solve a = b/w - lam*log(w) entrywise: w = b / (lam * W0(b e^{a/lam}/lam)).

    The Lambert kernel takes the log of its argument, t = log(b) + a/lam -
    log(lam), so huge exponents never overflow; b = 0 cells (t = -inf) take
    the analytic limit e^{-a/lam}.  ``t`` and the result are formed in
    place, by the operations of those expressions, and neither input is
    written to.  ``A`` is let go before the Lambert step, whose work arrays
    are the peak of a deep sweep's memory.
    """
    zero = ~(B > 0)
    limit = np.exp(-A[zero] / lam)
    with np.errstate(divide="ignore"):
        t = np.log(B)
    t += A / lam
    t -= np.log(lam)
    del A
    w = lambert_w0_exp(t)
    del t
    w *= lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(B, w, out=w)
    out[zero] = limit
    return out


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

    The coefficients are written through the positive q = -p and s = -a,
    with products rather than ``**``: numpy's power falls back to a scalar
    loop, about ten times slower, when the base is negative.
    """
    q = 2.0 * lam / cbar
    s = q * q / 3.0
    mb = (2.0 * (q * q * q) + 27.0 * (abar / cbar)) / 27.0  # -b
    disc = 0.25 * mb * mb - s * s * s / 27.0
    u = np.cbrt(0.5 * mb + np.sqrt(np.maximum(disc, 0.0)))
    x = u + s / (3.0 * u) + q / 3.0
    return x * x


def update_w_terminal(Y, W_tilde, H, beta, eps: float = MACHINE_EPS, scratch=None, work=None):
    """One classical multiplicative update of W for D_beta(Y, W H); unchecked
    preconditions as for ``update_h_simplex``, with ``W_tilde`` in place of W.
    A float ``scratch`` array of Y's shape, if given, is overwritten with the
    product ``W_tilde @ H`` and its powers, and a float ``work`` array of that
    shape with ``Y * V ** (beta - 2)`` at beta != 1 (else it is allocated);
    the result is the same."""
    V = np.matmul(W_tilde, H, out=scratch)
    W = W_tilde * _mu_ratio(V, Y, beta, work, lambda M: M @ H.T) ** mu_exponent(beta)
    return epsilon_floor(W, eps)
