"""Multilayer (greedy, layer-by-layer) and deep (global sweeps) factorization.

Multilayer fits one layer at a time and never revisits earlier layers; the
deep solver re-optimizes all factors jointly with block-majorization sweeps,
which keeps the weighted total objective non-increasing.  The deep solver is
warm-started from a multilayer run by default.  ``run_sweeps`` is the sweep
driver shared with the min-vol solver; each model supplies its block updates.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from .divergence import beta_div_matrix
from .errors import ConfigError, MonotonicityError
from .model import (
    COLUMN_SIMPLEX_W,
    ConvergenceTrace,
    DeepState,
    ROW_SIMPLEX_H,
    SolverConfig,
    SweepRecord,
    auto_balance_weights,
    _column_normalize_chain,
    check_data,
    eval_objective,
    init_random,
    logdet_gram,
    simplex_residual,
)
from .updates import (
    InnerWContext,
    epsilon_floor,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
)

#: Relative slack allowed on the per-sweep objective decrease of the deep
#: solver; anything beyond this is a bug and raises.
MONOTONICITY_REL_SLACK = 1e-10

DEEP_BETAS = (0.0, 0.5, 1.0, 1.5)
MULTILAYER_BETAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _conditioning_diagnostics(state: DeepState, delta: float):
    """Per-layer log det(W^T W + delta I), recorded in the trace.

    The volume term is not part of the unregularized objective; it is logged
    because a collapsing value flags W layers drifting toward rank
    deficiency (a known failure mode when deep layers are over-weighted).
    """
    return tuple(logdet_gram(w, delta) for w in state.W)


def multilayer_factorize(
    X: np.ndarray, config: SolverConfig
) -> Tuple[DeepState, ConvergenceTrace]:
    """Sequential NMF down the chain: fit layer l to the frozen W of layer l-1.

    Each layer runs ``config.max_sweeps`` alternating multiplicative steps
    (simplex-constrained H, then W).  Layer weights are ignored: the greedy
    scheme optimizes each layer independently, so trace totals use weight 1
    for unresolved lambdas.
    """
    if config.beta not in MULTILAYER_BETAS:
        raise ConfigError(f"multilayer supports beta in {MULTILAYER_BETAS}")
    state = init_random(X, config.layers, config.seed, ROW_SIMPLEX_H)
    num_layers = state.num_layers
    lams = [spec.lam if spec.lam is not None else 1.0 for spec in config.layers]
    eps = config.eps_floor
    trace = ConvergenceTrace(num_layers, lambdas=list(lams))
    frozen = [np.nan] * num_layers
    sweep_index = 0
    for i in range(num_layers):
        target = state.prev_w(i)
        prev_err = np.inf
        for _ in range(config.max_sweeps):
            started = time.perf_counter()
            state.H[i] = update_h_simplex(
                state.W[i], target, state.H[i], config.beta, eps=eps
            )
            state.W[i] = update_w_terminal(
                target, state.W[i], state.H[i], config.beta, eps=eps
            )
            err = beta_div_matrix(target, state.W[i] @ state.H[i], config.beta)
            errors = list(frozen)
            errors[i] = err
            known = [e for e in errors if np.isfinite(e)]
            total = float(np.dot(lams[: len(known)], known))
            trace.append(
                SweepRecord(
                    sweep=sweep_index,
                    total_objective=total,
                    layer_errors=tuple(errors),
                    logdet_terms=_conditioning_diagnostics(state, config.delta),
                    max_residual=simplex_residual(state, ROW_SIMPLEX_H),
                    seconds=time.perf_counter() - started,
                )
            )
            sweep_index += 1
            if config.rel_obj_tol > 0 and abs(prev_err - err) <= config.rel_obj_tol * max(
                1.0, abs(prev_err)
            ):
                break
            prev_err = err
        frozen[i] = beta_div_matrix(target, state.W[i] @ state.H[i], config.beta)
    return state, trace


class DeepBlocks:
    """Block updates of plain deep beta-NMF: rows of H on the simplex.

    Intermediate W blocks have entrywise closed forms; the last W block takes
    one classical multiplicative step.
    """

    constraint = ROW_SIMPLEX_H
    model = "plain"

    def __init__(self, config: SolverConfig):
        self.config = config

    def update_layer(self, state: DeepState, i: int, lams):
        beta, eps = self.config.beta, self.config.eps_floor
        target = state.prev_w(i)
        state.H[i] = update_h_simplex(state.W[i], target, state.H[i], beta, eps=eps)
        if i < state.num_layers - 1:
            ctx = InnerWContext(
                Y=target,
                W_tilde=state.W[i],
                H=state.H[i],
                W_bar=state.W[i + 1] @ state.H[i + 1],
                lambda_ratio=lams[i + 1] / lams[i],
            )
            state.W[i] = update_w_inner(ctx, beta, eps=eps)
        else:
            state.W[i] = update_w_terminal(target, state.W[i], state.H[i], beta, eps=eps)

    def slack(self, previous_total: float, lams) -> float:
        return MONOTONICITY_REL_SLACK * max(1.0, abs(previous_total))

    def logdet_terms(self, state: DeepState, per_layer) -> tuple:
        return _conditioning_diagnostics(state, self.config.delta)


def run_sweeps(
    X: np.ndarray,
    config: SolverConfig,
    warm: Optional[DeepState],
    blocks,
) -> Tuple[DeepState, ConvergenceTrace]:
    """Block-majorization sweeps shared by the deep and min-vol solvers.

    The start is ``warm`` (its factors, fitted to ``X``), else
    ``config.warm_start_sweeps`` of multilayer NMF, else a random state.
    Factors are floored and put in the convention of ``blocks.constraint``;
    lambda weights left as ``None`` are auto-balanced at that state.  Each
    sweep calls ``blocks.update_layer(state, i, lams)`` for every layer, then
    evaluates the ``blocks.model`` objective, which may not rise by more than
    ``blocks.slack(previous_total, lams)`` (else ``MonotonicityError``).
    ``blocks.logdet_terms(state, per_layer)`` fills the trace's log-det
    columns.  A positive ``config.rel_obj_tol`` stops the run early.
    """
    eps = config.eps_floor
    column_w = blocks.constraint == COLUMN_SIMPLEX_W
    if warm is not None:
        state = DeepState(
            X=check_data(X),
            W=[w.copy() for w in warm.W],
            H=[h.copy() for h in warm.H],
        )
        state.check_dims()
    elif config.warm_start_sweeps > 0:
        state, _ = multilayer_factorize(X, replace(config, max_sweeps=config.warm_start_sweeps))
        if column_w:
            _column_normalize_chain(state)
    else:
        state = init_random(X, config.layers, config.seed, blocks.constraint)
    for i in range(state.num_layers):
        state.W[i] = epsilon_floor(state.W[i], eps)
        if column_w:
            state.W[i] /= state.W[i].sum(axis=0, keepdims=True)
        state.H[i] = epsilon_floor(state.H[i], eps)

    if any(spec.lam is None for spec in config.layers):
        balanced = auto_balance_weights(state, config.beta)
        config = config.with_lambdas(
            [b if spec.lam is None else spec.lam for spec, b in zip(config.layers, balanced)]
        )
    lams = config.lambdas()

    trace = ConvergenceTrace(state.num_layers, lambdas=list(lams))
    previous_total = np.inf
    for sweep in range(config.max_sweeps):
        started = time.perf_counter()
        for i in range(state.num_layers):
            blocks.update_layer(state, i, lams)
        total, per_layer = eval_objective(state, config, blocks.model)
        slack = blocks.slack(previous_total, lams)
        if total > previous_total + slack:
            raise MonotonicityError(
                f"{blocks.model} objective rose from {previous_total} to {total} "
                f"at sweep {sweep}, beyond the slack {slack}"
            )
        trace.append(
            SweepRecord(
                sweep=sweep,
                total_objective=total,
                layer_errors=tuple(t.divergence for t in per_layer),
                logdet_terms=blocks.logdet_terms(state, per_layer),
                max_residual=simplex_residual(state, blocks.constraint),
                seconds=time.perf_counter() - started,
            )
        )
        if config.rel_obj_tol > 0 and np.isfinite(previous_total):
            if abs(previous_total - total) <= config.rel_obj_tol * max(1.0, abs(previous_total)):
                break
        previous_total = total
    return state, trace


def deep_factorize(
    X: np.ndarray,
    config: SolverConfig,
    warm: Optional[DeepState] = None,
) -> Tuple[DeepState, ConvergenceTrace]:
    """Block-majorization sweeps over all layers of the layer-centric objective.

    Without an explicit warm start, runs ``config.warm_start_sweeps`` of
    multilayer NMF first.  Unresolved lambda weights are auto-balanced at the
    warm-started state so every weighted term starts at one.  The weighted
    total objective must not increase across sweeps (up to a tiny relative
    slack); a violation raises ``MonotonicityError``.

    Returns the final state and the trace of the deep sweeps only.
    """
    if config.beta not in DEEP_BETAS:
        raise ConfigError(
            f"deep factorization supports beta in {DEEP_BETAS}; "
            "beta = 2 is supported for the multilayer baseline only"
        )
    return run_sweeps(X, config, warm, DeepBlocks(config))
