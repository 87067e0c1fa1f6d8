"""Minimum-volume deep KL-NMF: log-det majorizer, inner ADMM, block updates.

The model adds ``alpha_l * logdet(W_l^T W_l + delta I)`` to each layer of the
KL chain and constrains columns of every ``W_l`` to the simplex.  H factors
are unconstrained and use the classical multiplicative update.  Intermediate
W blocks couple two divergence terms plus the volume penalty; their majorized
subproblem is solved with a scaled-dual ADMM (Boyd et al., 2011) whose W step
has an entrywise closed form up to one Lagrange multiplier per column, and
whose Z step is an entrywise Lambert W evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .divergence import beta_div_matrix
from .errors import ConfigError
from .model import (
    COLUMN_SIMPLEX_W,
    ConvergenceTrace,
    DeepState,
    MACHINE_EPS,
    SolverConfig,
    logdet_gram,
)
from .scalars import lambert_w0_exp
from .solvers import run_sweeps
# Not called here; perfbench/tracer.py wraps these names on this module.
from .model import auto_balance_weights, eval_objective  # noqa: F401
from .solvers import multilayer_factorize  # noqa: F401
from .updates import InnerWContext, epsilon_floor, solve_multipliers, update_h_plain

_COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class LogDetContext:
    """Curvature data of the volume penalty linearized at a reference W.

    ``A_plus`` and ``A_minus`` are the positive and negative parts of the
    inverse of the regularized Gram matrix of the reference; they drive the
    diagonal quadratic bound used by the closed-form updates.
    """

    A_plus: np.ndarray
    A_minus: np.ndarray


def build_logdet_context(W_ref: np.ndarray, delta: float) -> LogDetContext:
    """Curvature data at ``W_ref`` for a positive ``delta`` (not checked)."""
    gram = W_ref.T @ W_ref + delta * np.eye(W_ref.shape[1])
    A = np.linalg.inv(gram)
    A = 0.5 * (A + A.T)
    return LogDetContext(A_plus=np.maximum(A, 0.0), A_minus=np.maximum(-A, 0.0))


def simplex_w_cells(W_tilde, C, S, T, mu):
    """Entrywise W map of the simplex-constrained quadratic subproblem.

    Every entry is nonnegative by construction and strictly decreasing in its
    column's multiplier ``mu``.  Returns the entries and ``sqrt((C+mu)^2+S)``,
    whose ratio is minus their derivative in ``mu``.
    """
    u = C + np.asarray(mu)[None, :]
    root = np.sqrt(u * u + S)
    # g = root - u, in the conjugate form S / (root + u) where u > 0:
    # root - u loses digits when u >> S.
    g = root + np.abs(u)
    np.divide(S, g, out=g, where=u > 0)
    return W_tilde * g / T, root


def _simplex_w_minimize(W_tilde, C, S, T, tol=_COLUMN_SUM_TOL, start=None):
    """Solve the diagonal-quadratic simplex subproblem behind the W updates.

    Entries w = w_tilde * g / T, with g = sqrt(u^2 + S) - u and u = C + mu,
    are positive, convex and strictly decreasing in the column multiplier
    mu, so Newton on each column sum converges from any start (see
    ``solve_multipliers``); the ADMM passes the previous iterate's.  A cold
    solve starts where one entry alone reaches 1, at g = G = T / w_tilde,
    that is u = (S - G^2) / (2G): left of the root.  Returns W and mu.
    """
    if start is None:
        G = T / W_tilde
        start = (0.5 * (S / G - G) - C).max(axis=0)
    last = {}

    def f_df(mu):
        w, root = simplex_w_cells(W_tilde, C, S, T, mu)
        last["w"] = w
        return w.sum(axis=0) - 1.0, -(w / root).sum(axis=0)

    mu = solve_multipliers(f_df, start, tol)
    return last["w"], mu


def _w_step_terms(Y, Wt, H, ldctx: LogDetContext, rho: float, alpha_ratio: float, V=None):
    """Iteration-invariant pieces of the W step (``V``: ``Wt @ H``, if given)."""
    P = (Y / (Wt @ H if V is None else V)) @ H.T
    curv = Wt @ (ldctx.A_plus + ldctx.A_minus)
    T = 4.0 * alpha_ratio * curv + 2.0 * rho
    S = 2.0 * T * P
    C0 = H.sum(axis=1)[None, :] - 4.0 * alpha_ratio * (Wt @ ldctx.A_minus)
    return C0, S, T


def minvol_terminal_w_step(Y, W_tilde, H, ldctx: LogDetContext, alpha_ratio: float, V=None):
    """Last-layer W update: the ADMM W step without its coupling terms (rho = 0);
    unchecked preconditions: positive factors, chain shapes, ``alpha_ratio > 0``.
    ``V``, if given, is the product ``W_tilde @ H``."""
    C, S, T = _w_step_terms(Y, W_tilde, H, ldctx, 0.0, alpha_ratio, V)
    return _simplex_w_minimize(W_tilde, C, S, T)[0]


def z_min_step(W_bar: np.ndarray, V: np.ndarray, nu: float):
    """Entrywise minimizer of d_KL(z, w_bar) + (nu/2) (z - v)^2.

    The optimality condition log(z / w_bar) + nu (z - v) = 0 is solved per
    entry as z = W(e^t) / nu with t = log(nu * w_bar) + nu * v; the Lambert
    kernel takes t itself, so e^t is never formed.
    Unchecked preconditions: ``W_bar`` strictly positive and ``nu > 0``.
    """
    t = np.log(nu) + np.log(W_bar) + nu * V
    return lambert_w0_exp(t) / nu


@dataclass
class AdmmState:
    W: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    iterations: int
    primal_residual: float


@dataclass
class AdmmRun:
    state: AdmmState
    residuals: List[float]
    converged: bool


def admm_solve_w(
    ctx: InnerWContext,
    ldctx: LogDetContext,
    alpha_ratio: float,
    rho: float = 100.0,
    max_iter: int = 50,
    tol: float = 1e-6,
    eps: float = MACHINE_EPS,
    V: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, AdmmRun]:
    """Inner ADMM for an intermediate-layer W of the min-vol model.

    Alternates the simplex-constrained W step, the entrywise Lambert Z step
    and the scaled dual update until the primal residual ||W - Z||_F drops
    below ``tol`` or the iteration budget runs out (then the best iterate is
    returned with ``converged=False``; the outer solver tolerates inexact
    inner solves).  The returned W is floored and column-renormalized, which
    absorbs the residual split infeasibility.  Unchecked preconditions:
    ``ctx`` as documented, and positive ``alpha_ratio`` and ``rho``.  ``V``,
    if given, is the product ``ctx.W_tilde @ ctx.H``.
    """
    nu = rho / ctx.lambda_ratio
    C0, S, T = _w_step_terms(ctx.Y, ctx.W_tilde, ctx.H, ldctx, rho, alpha_ratio, V)
    W = ctx.W_tilde.copy()
    Z = W.copy()
    U = np.zeros_like(W)
    residuals: List[float] = []
    best_w = W
    best_res = np.inf
    converged = False
    mu = None  # each W step starts from the previous multipliers
    for it in range(1, max_iter + 1):
        W, mu = _simplex_w_minimize(ctx.W_tilde, C0 - rho * (Z - U), S, T, start=mu)
        Z = z_min_step(ctx.W_bar, W + U, nu)
        U = U + W - Z
        res = float(np.linalg.norm(W - Z))
        residuals.append(res)
        if res < best_res:
            best_res = res
            best_w = W
        if res <= tol:
            converged = True
            break
    final = epsilon_floor(best_w, eps)
    final = final / final.sum(axis=0, keepdims=True)
    state = AdmmState(W=W, Z=Z, U=U, iterations=len(residuals), primal_residual=residuals[-1])
    return final, AdmmRun(state=state, residuals=residuals, converged=converged)


def _w_block_value(W, WH, Y, W_bar, lam, lam_next, alpha, delta):
    """All objective terms that depend on one intermediate-layer W, given
    ``WH = W @ H``: their sum, and the layer's divergence and log-det."""
    fit = beta_div_matrix(Y, WH, 1.0)
    value = lam * fit
    value += lam_next * beta_div_matrix(W, W_bar, 1.0)
    logdet = logdet_gram(W, delta)
    value += alpha * logdet
    return value, (fit, logdet)


class MinvolBlocks:
    """Block updates of min-vol deep KL-NMF: columns of W on the simplex.

    H takes one multiplicative step; intermediate W blocks are solved by the
    inner ADMM and the last one by the terminal step.  Counts the ADMM solves
    that stopped at the iteration cap and the steps rejected as non-descent.

    ``update_layer`` reads the driver's products ``V[l] = W_l H_l``: layer
    l's H-step product and layer l-1's ``W_bar``.  After the H step ``V[l]``
    holds ``W~ H`` for the W step and its rejection test; the accepted side's
    product goes into ``V``, and its divergence and log-det into ``cached``,
    so the objective forms only the last layer's.
    """

    constraint = COLUMN_SIMPLEX_W
    model = "minvol"

    def __init__(self, config: SolverConfig):
        self.config = config
        self.alphas = config.alphas()
        self.stalled_admm = 0
        self.rejected_steps = 0
        self.cached = {}  # layer -> (divergence, logdet) of its accepted side

    def update_layer(self, state: DeepState, i: int, lams, V: List[np.ndarray]):
        config, alphas = self.config, self.alphas
        target = state.prev_w(i)
        state.H[i] = update_h_plain(state.W[i], target, state.H[i], config.beta, V=V[i])
        WH = np.matmul(state.W[i], state.H[i], out=V[i])
        ldctx = build_logdet_context(state.W[i], config.delta)
        alpha_ratio = alphas[i] / lams[i]
        if i == state.num_layers - 1:
            W_new = minvol_terminal_w_step(target, state.W[i], state.H[i], ldctx, alpha_ratio, V=WH)
            W_new = epsilon_floor(W_new, MACHINE_EPS)
            state.W[i] = W_new / W_new.sum(axis=0, keepdims=True)
            return
        ctx = InnerWContext(
            Y=target,
            W_tilde=state.W[i],
            H=state.H[i],
            W_bar=V[i + 1],
            lambda_ratio=lams[i + 1] / lams[i],
        )
        W_new, run = admm_solve_w(
            ctx,
            ldctx,
            alpha_ratio,
            rho=config.rho,
            max_iter=config.admm_max_iter,
            tol=config.admm_tol,
            V=WH,
        )
        if not run.converged:
            self.stalled_admm += 1
        # A truncated ADMM can return a worse point than the current iterate
        # (its iterates are not monotone in the subproblem objective); reject
        # such steps to keep the outer sweep a descent method.
        weights = (lams[i], lams[i + 1], alphas[i], config.delta)
        before, terms = _w_block_value(state.W[i], WH, target, ctx.W_bar, *weights)
        WH_new = W_new @ state.H[i]
        after, new_terms = _w_block_value(W_new, WH_new, target, ctx.W_bar, *weights)
        if after <= before + 1e-12 * max(1.0, abs(before)):
            state.W[i], V[i], terms = W_new, WH_new, new_terms
        else:
            self.rejected_steps += 1
        self.cached[i] = terms

    def slack(self, previous_total: float, lams) -> float:
        return 10.0 * self.config.admm_tol * (sum(self.alphas) + sum(lams))


def minvol_factorize(
    X: np.ndarray,
    config: SolverConfig,
    warm: Optional[DeepState] = None,
) -> Tuple[DeepState, ConvergenceTrace]:
    """Minimum-volume deep KL-NMF with per-layer volume penalties.

    Requires ``beta == 1`` and positive ``alpha`` on every layer.  Without a
    warm start, a multilayer run provides the initialization, converted to
    the column-simplex convention.  Inner ADMM results that would increase
    their block objective (possible when the solve is truncated at the
    iteration cap) are rejected, so the total objective may transiently rise
    by at most ``10 * admm_tol * (sum(alpha) + sum(lambda))`` per sweep, the
    slack budget for residual inner-solve inexactness.
    """
    if config.beta != 1.0:
        raise ConfigError("min-vol factorization is derived for beta = 1 only")
    if any(not spec.alpha > 0 for spec in config.layers):
        raise ConfigError("min-vol requires a positive alpha for every layer")
    blocks = MinvolBlocks(config)
    state, trace = run_sweeps(X, config, warm, blocks)
    if blocks.stalled_admm:
        warnings.warn(
            f"{blocks.stalled_admm} inner ADMM solves stopped at the iteration cap "
            f"above tolerance ({blocks.rejected_steps} of them rejected as non-descent)",
            RuntimeWarning,
            stacklevel=2,
        )
    return state, trace
