"""Multilayer (greedy, layer-by-layer) and deep (global sweeps) factorization.

Multilayer fits one layer at a time and never revisits earlier layers; the
deep solver re-optimizes all factors jointly with block-majorization sweeps,
which keeps the weighted total objective non-increasing.  By default the
deep solver starts from a multilayer run that keeps no trace.  ``run_sweeps``
is the sweep driver of all three solvers (multilayer runs it once per
layer); each model supplies its block updates.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from .divergence import check_beta
from .errors import DimensionError, DomainError, MonotonicityError
from .model import (
    COLUMN_SIMPLEX_W,
    ConvergenceTrace,
    DeepState,
    LayerSpec,
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
# Not called here; perfbench/tracer.py wraps this name on this module.
from .divergence import beta_div_matrix  # noqa: F401

#: Relative slack allowed on the per-sweep objective decrease of the deep
#: and multilayer solvers; anything beyond this is a bug and raises.
MONOTONICITY_REL_SLACK = 1e-10


def _check_beta_zero_data(X, beta):
    """At beta = 0 a zero entry of X makes the Itakura-Saito divergence, and
    so every objective, +inf, where no rise could be seen: refuse such data."""
    if beta == 0.0:
        X = check_data(X)
        zeros = X.size - np.count_nonzero(X)
        if zeros:
            raise DomainError(
                f"beta = 0 needs strictly positive data: X has {zeros} zero entries, "
                "where the Itakura-Saito divergence is infinite"
            )


def multilayer_factorize(
    X: np.ndarray, config: SolverConfig
) -> Tuple[DeepState, ConvergenceTrace]:
    """Sequential NMF down the chain: fit layer l to the frozen W of layer l-1.

    Each layer is a one-layer ``run_sweeps`` problem with ``DeepBlocks``
    (simplex-constrained H, then one multiplicative W step), started from
    that layer's factors of one random draw, so its objective is checked to
    be non-increasing.  Layer weights are ignored: the greedy scheme
    optimizes each layer independently, so trace totals use weight 1 for
    unresolved lambdas.  The trace has one record per sweep of every layer;
    layers not fitted yet have NaN errors.
    """
    lams = [spec.lam if spec.lam is not None else 1.0 for spec in config.layers]
    trace = ConvergenceTrace(len(lams), lambdas=lams)
    return _fit_layers(X, config, trace), trace


def _fit_layers(X: np.ndarray, config: SolverConfig, trace: Optional[ConvergenceTrace]):
    """The layer loop of ``multilayer_factorize``: the fitted state, each layer's records
    stitched into ``trace``.  With ``trace`` None (the warm start of the deep and
    min-vol solvers) no sweep keeps a record; the factors are the same."""
    _check_beta_zero_data(X, config.beta)
    state = init_random(X, config.layers, config.seed, ROW_SIMPLEX_H)
    errors = [np.nan] * state.num_layers
    for i, spec in enumerate(config.layers):
        target = state.prev_w(i)
        layer_config = replace(config, layers=[LayerSpec(spec.rank, lam=1.0)])
        # Layer i's initial factors move out of state, so run_sweeps frees them once floored.
        try:
            fitted, layer_trace = run_sweeps(
                target,
                layer_config,
                DeepState(X=target, W=[state.W.pop(i)], H=[state.H.pop(i)]),
                DeepBlocks(layer_config),
                traced=trace is not None,
            )
        except DomainError as err:  # run_sweeps names the layer of its one-layer problem
            raise DomainError(f"{err} of the one-layer problem for layer {i + 1}") from err
        if trace is not None:
            # state holds the other layers, which did not change while layer i was fitted.
            residual = simplex_residual(state, ROW_SIMPLEX_H)
            logdets = tuple(logdet_gram(w, config.delta) for w in state.W)
            for rec in layer_trace.records:
                errors[i] = rec.layer_errors[0]
                known = [e for e in errors if np.isfinite(e)]
                trace.append(
                    SweepRecord(
                        sweep=len(trace),
                        total_objective=float(np.dot(trace.lambdas[: len(known)], known)),
                        layer_errors=tuple(errors),
                        logdet_terms=logdets[:i] + rec.logdet_terms + logdets[i:],
                        max_residual=float(np.maximum(residual, rec.max_residual)),  # keeps NaN
                        seconds=rec.seconds,
                    )
                )
        state.W.insert(i, fitted.W[0])
        state.H.insert(i, fitted.H[0])
    return state


class DeepBlocks:
    """Block updates of plain deep beta-NMF: rows of H on the simplex.

    Intermediate W blocks have entrywise closed forms; the last W block takes
    one classical multiplicative step.  One object serves one run and holds
    one buffer per layer, made at the first update: ``V[l] = W_l H_l``, which
    each objective evaluation refreshes in place.  In the next sweep it is
    the ``W_bar`` of layer l-1's W step and then layer l's H step's
    ``W H~``, bit for bit the product those steps used to form; that H step
    writes its quotient over it, and layer l's W step its own product.
    """

    constraint = ROW_SIMPLEX_H
    model = "plain"

    def __init__(self, config: SolverConfig):
        self.config = config
        self.V: List[np.ndarray] = []
        self.positive: Optional[np.ndarray] = None  # X > 0, if X has a zero

    def update_layer(self, state: DeepState, i: int, lams):
        beta, eps, V = self.config.beta, self.config.eps_floor, self.V
        if not V:
            V.extend(w @ h for w, h in zip(state.W, state.H))
            self.positive = None if state.X.all() else state.X > 0
        target = state.prev_w(i)
        state.H[i] = update_h_simplex(state.W[i], target, state.H[i], beta, eps=eps, V=V[i])
        if i < state.num_layers - 1:
            ctx = InnerWContext(
                Y=target,
                W_tilde=state.W[i],
                H=state.H[i],
                W_bar=V[i + 1],
                lambda_ratio=lams[i + 1] / lams[i],
            )
            state.W[i] = update_w_inner(ctx, beta, eps=eps, scratch=V[i])
        else:
            state.W[i] = update_w_terminal(
                target, state.W[i], state.H[i], beta, eps=eps, scratch=V[i]
            )

    def objective(self, state: DeepState, config: SolverConfig, traced: bool = True):
        # The plain model's log-dets are diagnostics: only a trace reads them.
        return eval_objective(state, config, self.model, self.V, self.positive, logdets=traced)

    def slack(self, previous_total: float, lams) -> float:
        return MONOTONICITY_REL_SLACK * max(1.0, abs(previous_total))


def run_sweeps(
    X: np.ndarray,
    config: SolverConfig,
    warm: Optional[DeepState],
    blocks,
    traced: bool = True,
) -> Tuple[DeepState, Optional[ConvergenceTrace]]:
    """Block-majorization sweeps shared by all three solvers.

    The start is ``warm`` (its factors, fitted to ``X``), else
    ``config.warm_start_sweeps`` of multilayer NMF, else a random state.
    Factors are floored and put in the convention of ``blocks.constraint``;
    lambda weights left as ``None`` are auto-balanced at that state.  Each
    sweep calls ``blocks.update_layer(state, i, lams)`` for every layer, then
    ``blocks.objective(state, config, traced)``, which may not rise by more
    than ``blocks.slack(previous_total, lams)`` (else ``MonotonicityError``).
    The trace's log-det columns are the objective's per-layer log-dets.  A
    positive ``config.rel_obj_tol`` stops the run early.  With ``traced``
    False the trace is None: no sweep builds a record or its residual, and
    the objective may skip what only the trace reads.

    The block kernels check nothing; here the data and a warm state are
    checked (its chain must fit ``X`` and its ranks equal ``config.ranks``),
    the floor makes the factors positive, and a factor that is not finite,
    in ``warm`` or after a sweep, raises ``DomainError``.  Beta is checked
    here too, once for all three solvers.
    """
    check_beta(config.beta)
    eps = config.eps_floor
    column_w = blocks.constraint == COLUMN_SIMPLEX_W
    if warm is not None:
        state = DeepState(X=check_data(X), W=list(warm.W), H=list(warm.H))
        state.check_dims()
        warm_ranks = [w.shape[1] for w in state.W]
        if warm_ranks != config.ranks:
            raise DimensionError(f"warm ranks {warm_ranks} differ from config ranks {config.ranks}")
        if not all(np.isfinite(M).all() for M in state.W + state.H):
            raise DomainError("warm factors must be finite")
        del warm  # the floors below free the factors no caller holds any more
    elif config.warm_start_sweeps > 0:
        state = _fit_layers(X, replace(config, max_sweeps=config.warm_start_sweeps), None)
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

    trace = ConvergenceTrace(state.num_layers, lambdas=list(lams)) if traced else None
    previous_total = np.inf
    for sweep in range(config.max_sweeps):
        started = time.perf_counter()
        for i in range(state.num_layers):
            blocks.update_layer(state, i, lams)
        for i in range(state.num_layers):
            if not (np.isfinite(state.W[i]).all() and np.isfinite(state.H[i]).all()):
                raise DomainError(f"non-finite factor after sweep {sweep}, in layer {i + 1}")
        total, per_layer = blocks.objective(state, config, traced)
        slack = blocks.slack(previous_total, lams)
        if total > previous_total + slack:
            raise MonotonicityError(
                f"{blocks.model} objective rose from {previous_total} to {total} "
                f"at sweep {sweep}, beyond the slack {slack}"
            )
        if traced:
            trace.append(
                SweepRecord(
                    sweep=sweep,
                    total_objective=total,
                    layer_errors=tuple(t.divergence for t in per_layer),
                    logdet_terms=tuple(t.logdet for t in per_layer),
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

    Takes every supported beta; at beta = 2 (least squares) the intermediate
    W step is the Lee-Seung majorizer's minimizer with the proximal term.
    Without an explicit warm start, runs ``config.warm_start_sweeps`` of
    multilayer NMF first.  Unresolved lambda weights are auto-balanced at the
    warm-started state so every weighted term starts at one.  The weighted
    total objective must not increase across sweeps (up to a tiny relative
    slack); a violation raises ``MonotonicityError``.

    Returns the final state and the trace of the deep sweeps only.
    """
    _check_beta_zero_data(X, config.beta)
    return run_sweeps(X, config, warm, DeepBlocks(config))
