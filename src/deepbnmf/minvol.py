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
    SolverConfig,
    logdet_gram,
)
from .scalars import lambert_w0_exp
from .solvers import run_sweeps
# Not called here; perfbench/tracer.py wraps these names on this module.
from .model import auto_balance_weights, eval_objective  # noqa: F401
from .solvers import multilayer_factorize  # noqa: F401
from .updates import InnerWContext, floor_columns, solve_multipliers, update_h_plain

_COLUMN_SUM_TOL = 1e-12


def build_logdet_context(W_ref: np.ndarray, delta: float) -> np.ndarray:
    """Curvature of the volume penalty at ``W_ref``: the exactly symmetric
    inverse A of ``W_ref^T W_ref + delta I``, for a positive ``delta`` (not
    checked).  ``|A|`` and ``max(-A, 0)`` drive the W steps' quadratic bound."""
    gram = W_ref.T @ W_ref + delta * np.eye(W_ref.shape[1])
    A = np.linalg.inv(gram)
    return 0.5 * (A + A.T)


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


def _w_step_terms(Y, Wt, H, A, rho: float, alpha_ratio: float, V=None, work=None):
    """Iteration-invariant pieces of the W step, with A from ``build_logdet_context``
    at ``Wt``; ``|A|`` is the paper's ``A+ + A-``.  ``V``, if given, is
    ``Wt @ H`` and is only read; the quotient ``Y / V`` goes into ``work``, a
    float array of Y's shape, if given (else it is allocated)."""
    P = np.divide(Y, Wt @ H if V is None else V, out=work) @ H.T
    curv = Wt @ np.abs(A)
    T = 4.0 * alpha_ratio * curv + 2.0 * rho
    S = 2.0 * T * P
    C0 = H.sum(axis=1)[None, :] - 4.0 * alpha_ratio * (Wt @ np.maximum(-A, 0.0))
    return C0, S, T


def minvol_terminal_w_step(Y, W_tilde, H, A, alpha_ratio: float, V=None, work=None):
    """Last-layer W update: the ADMM W step without its coupling terms (rho = 0),
    floored and column-renormalized like the ADMM's result.  ``A`` is
    ``build_logdet_context`` at ``W_tilde``; ``V`` and ``work`` are as for
    ``_w_step_terms``.  Unchecked preconditions: positive factors, chain
    shapes, ``alpha_ratio > 0``."""
    C, S, T = _w_step_terms(Y, W_tilde, H, A, 0.0, alpha_ratio, V, work)
    return floor_columns(_simplex_w_minimize(W_tilde, C, S, T)[0])


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
    A: np.ndarray,
    alpha_ratio: float,
    rho: float,
    max_iter: int,
    tol: float,
    V: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, AdmmRun]:
    """Inner ADMM for an intermediate-layer W of the min-vol model.

    Alternates the simplex-constrained W step, the entrywise Lambert Z step
    and the scaled dual update until the primal residual ||W - Z||_F drops
    below ``tol`` or the iteration budget runs out (then the best iterate is
    returned with ``converged=False``; the outer solver tolerates inexact
    inner solves).  The returned W is floored at ``MACHINE_EPS`` and
    column-renormalized, which absorbs the residual split infeasibility.
    ``A`` is ``build_logdet_context`` at ``ctx.W_tilde``; the caller passes
    the config's ``rho``, ``admm_max_iter`` and ``admm_tol``.  Unchecked
    preconditions: ``ctx`` as documented, and positive ``alpha_ratio`` and
    ``rho``.  ``V`` and ``work`` are as for ``_w_step_terms``.
    """
    nu = rho / ctx.lambda_ratio
    C0, S, T = _w_step_terms(ctx.Y, ctx.W_tilde, ctx.H, A, rho, alpha_ratio, V, work)
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
    state = AdmmState(W=W, Z=Z, U=U, iterations=len(residuals), primal_residual=residuals[-1])
    return floor_columns(best_w), AdmmRun(state=state, residuals=residuals, converged=converged)


def _w_block_value(W, WH, Y, W_bar, lam, lam_next, alpha, delta, out=None, positive=None):
    """All objective terms that depend on one intermediate-layer W, given
    ``WH = W @ H``: their sum, and the layer's divergence and log-det.
    With ``out``, a float array of Y's shape, the fit takes the solvers' path
    of ``beta_div_matrix`` (its cells go into ``out``, ``positive`` is the
    mask ``Y > 0`` or None if Y has no zero); the values are the same."""
    fit = beta_div_matrix(Y, WH, 1.0, out=out, positive=positive)
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
    l's H-step product and layer l-1's ``W_bar``.  Every X-sized
    intermediate goes into an array that lasts the run: ``V[l]`` or the
    driver's pair of work arrays ``work[l]``.  The H step writes its powers
    of ``V[l]`` over it; then ``V[l]`` takes ``W~ H``, which the W step and
    its rejection test read.  The W step's
    quotient ``Y / V`` and both fits of the rejection test go into the first
    work array, on the solvers' path of ``beta_div_matrix`` with the run's
    mask ``X > 0`` at layer 1, and the candidate product into the second,
    which an accepted step swaps with ``V[l]``.  The accepted side's
    divergence and log-det go into ``cached``, so the objective forms only
    the last layer's.
    """

    constraint = COLUMN_SIMPLEX_W
    model = "minvol"
    takes_work = True

    def __init__(self, config: SolverConfig):
        self.config = config
        self.alphas = config.alphas()
        self.stalled_admm = 0
        self.rejected_steps = 0
        self.cached = {}  # layer -> (divergence, logdet) of its accepted side

    def update_layer(self, state: DeepState, i: int, lams, V: List[np.ndarray], work, positive):
        config, alphas = self.config, self.alphas
        target = state.prev_w(i)
        scratch, spare = work[i]
        state.H[i] = update_h_plain(state.W[i], target, state.H[i], config.beta, V=V[i])
        WH = np.matmul(state.W[i], state.H[i], out=V[i])
        A = build_logdet_context(state.W[i], config.delta)
        alpha_ratio = alphas[i] / lams[i]
        if i == state.num_layers - 1:
            state.W[i] = minvol_terminal_w_step(
                target, state.W[i], state.H[i], A, alpha_ratio, V=WH, work=scratch
            )
            return
        ctx = InnerWContext.of_layer(state, i, lams, V)
        W_new, run = admm_solve_w(
            ctx, A, alpha_ratio, rho=config.rho, max_iter=config.admm_max_iter,
            tol=config.admm_tol, V=WH, work=scratch,
        )
        if not run.converged:
            self.stalled_admm += 1
        # A truncated ADMM can return a worse point than the current iterate
        # (its iterates are not monotone in the subproblem objective); reject
        # such steps to keep the outer sweep a descent method.
        mask = positive if i == 0 else None
        weights = (lams[i], lams[i + 1], alphas[i], config.delta, scratch, mask)
        before, terms = _w_block_value(state.W[i], WH, target, ctx.W_bar, *weights)
        WH_new = np.matmul(W_new, state.H[i], out=spare)
        after, new_terms = _w_block_value(W_new, WH_new, target, ctx.W_bar, *weights)
        if after <= before + 1e-12 * max(1.0, abs(before)):
            state.W[i], terms = W_new, new_terms
            V[i], work[i] = WH_new, (scratch, WH)
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
