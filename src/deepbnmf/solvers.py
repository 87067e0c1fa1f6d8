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
    MACHINE_EPS,
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
    floor_columns,
    update_h_simplex,
    update_w_inner,
    update_w_terminal,
)
# Not called here; perfbench/tracer.py wraps this name on this module.
from .divergence import beta_div_matrix  # noqa: F401

#: Relative slack allowed on the per-sweep objective decrease of the deep
#: and multilayer solvers; anything beyond this is a bug and raises.
MONOTONICITY_REL_SLACK = 1e-10


def multilayer_factorize(
    X: np.ndarray, config: SolverConfig, traced: bool = True
) -> Tuple[DeepState, Optional[ConvergenceTrace]]:
    """Sequential NMF down the chain: fit layer l to the frozen W of layer l-1.

    Each layer is a one-layer ``run_sweeps`` problem with ``DeepBlocks``
    (simplex-constrained H, then one multiplicative W step), started from
    that layer's factors of one random draw, so its objective is checked to
    be non-increasing.  Layer weights are ignored: the greedy scheme
    optimizes each layer independently, so trace totals use weight 1 for
    unresolved lambdas.  The trace has one record per sweep of every layer;
    layers not fitted yet have NaN errors.  With ``traced`` False (the warm
    start of the deep and min-vol solvers) the trace is None and no sweep
    keeps a record; the factors are the same.
    """
    lams = [spec.lam if spec.lam is not None else 1.0 for spec in config.layers]
    trace = ConvergenceTrace(len(lams), lambdas=lams) if traced else None
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
                traced=traced,
            )
        except DomainError as err:  # run_sweeps names the layer of its one-layer problem
            raise DomainError(f"{err} of the one-layer problem for layer {i + 1}") from err
        if traced:
            # state holds the other layers, which did not change while layer i was fitted.
            residual = simplex_residual(state, ROW_SIMPLEX_H)
            logdets = tuple(logdet_gram(w, config.delta) for w in state.W)
            for rec in layer_trace.records:
                errors[i] = rec.layer_errors[0]
                trace.append(
                    SweepRecord(
                        sweep=len(trace),
                        total_objective=float(np.dot(trace.lambdas[: i + 1], errors[: i + 1])),
                        layer_errors=tuple(errors),
                        logdet_terms=logdets[:i] + rec.logdet_terms + logdets[i:],
                        max_residual=float(np.maximum(residual, rec.max_residual)),  # keeps NaN
                        seconds=rec.seconds,
                    )
                )
        state.W.insert(i, fitted.W[0])
        state.H.insert(i, fitted.H[0])
    return state, trace


class DeepBlocks:
    """Block updates of plain deep beta-NMF: rows of H on the simplex.

    Intermediate W blocks have entrywise closed forms; the last W block takes
    one classical multiplicative step.  ``update_layer`` reads the driver's
    products ``V[l] = W_l H_l``, which each objective evaluation refreshes in
    place.  In the next sweep ``V[l]`` is the ``W_bar`` of layer l-1's W step
    and then layer l's H step's ``W H~``, bit for bit the product those steps
    used to form; that H step writes its quotients over it, and layer l's W
    step its own product and quotients.  At beta != 1 a step's second
    X-sized power of the product goes into the first of the driver's work
    arrays ``work[l]``; at beta = 1 there is none, and the driver makes no
    work arrays.  The plain model caches no objective term.
    """

    constraint = ROW_SIMPLEX_H
    model = "plain"
    cached = None

    def __init__(self, config: SolverConfig):
        self.beta = config.beta
        self.takes_work = config.beta != 1.0

    def update_layer(self, state: DeepState, i: int, lams, V: List[np.ndarray], work, positive):
        target = state.prev_w(i)
        w = None if work is None else work[i][0]
        state.H[i] = update_h_simplex(state.W[i], target, state.H[i], self.beta, V=V[i], work=w)
        if i < state.num_layers - 1:
            ctx = InnerWContext.of_layer(state, i, lams, V)
            state.W[i] = update_w_inner(ctx, self.beta, scratch=V[i], work=w)
        else:
            state.W[i] = update_w_terminal(
                target, state.W[i], state.H[i], self.beta, scratch=V[i], work=w
            )

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
    Factors are floored at ``MACHINE_EPS`` and put in the convention of
    ``blocks.constraint``, and the mask ``X > 0`` is built (None if X has no
    zero).  At beta = 0 a zero of X makes every objective +inf, where no rise
    could be seen, so the mask's scan raises ``DomainError`` before lambda
    weights left as ``None`` are auto-balanced at that state.  The driver
    then forms one product per layer, ``V[l] = W_l H_l``, and a pair of work
    arrays of the same shape per layer if ``blocks.takes_work`` (else ``work``
    is None), and keeps them and the mask for the run.  Each sweep calls
    ``blocks.update_layer(state, i, lams, V, work, positive)`` for every
    layer, then ``eval_objective`` of ``blocks.model``, which refreshes ``V``
    in place, writes its divergence cells into ``work`` and takes the
    strategy's ``blocks.cached`` terms; the total may not rise
    by more than ``blocks.slack(previous_total, lams)`` nor be NaN (else
    ``MonotonicityError``).  The trace's log-det columns are the objective's
    per-layer log-dets.  A positive ``config.rel_obj_tol`` stops the run
    early.  With ``traced`` False the trace is None: no sweep builds a record
    or its residual, and the plain model's diagnostic log-dets are skipped.

    The block kernels check nothing; here the data and a warm state are
    checked (its chain must fit ``X`` and its ranks equal ``config.ranks``),
    the floor makes the factors positive, and a factor that is not finite,
    in ``warm`` or after a sweep, raises ``DomainError``.  Beta is checked
    here too, once for all three solvers.
    """
    check_beta(config.beta)
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
        warm_config = replace(config, max_sweeps=config.warm_start_sweeps)
        state = multilayer_factorize(X, warm_config, traced=False)[0]
        if column_w:
            _column_normalize_chain(state)
    else:
        state = init_random(X, config.layers, config.seed, blocks.constraint)
    for i in range(state.num_layers):
        state.W[i] = (floor_columns(state.W[i]) if column_w
                      else epsilon_floor(state.W[i], MACHINE_EPS))
        state.H[i] = epsilon_floor(state.H[i], MACHINE_EPS)

    positive = None if state.X.all() else state.X > 0
    if positive is not None and config.beta == 0.0:
        zeros = positive.size - np.count_nonzero(positive)
        raise DomainError(f"beta = 0 needs strictly positive data: X has {zeros} zero entries, "
                          "where the Itakura-Saito divergence is infinite, in layer 1")
    if any(spec.lam is None for spec in config.layers):
        balanced = auto_balance_weights(state, config.beta)
        config = config.with_lambdas(
            [b if spec.lam is None else spec.lam for spec, b in zip(config.layers, balanced)]
        )
    lams = config.lambdas()

    V = [w @ h for w, h in zip(state.W, state.H)]
    work = [(np.empty_like(v), np.empty_like(v)) for v in V] if blocks.takes_work else None
    trace = ConvergenceTrace(state.num_layers, lambdas=list(lams)) if traced else None
    previous_total = np.inf
    for sweep in range(config.max_sweeps):
        started = time.perf_counter()
        for i in range(state.num_layers):
            blocks.update_layer(state, i, lams, V, work, positive)
        for i in range(state.num_layers):
            if not (np.isfinite(state.W[i]).all() and np.isfinite(state.H[i]).all()):
                raise DomainError(f"non-finite factor after sweep {sweep}, in layer {i + 1}")
        total, per_layer = eval_objective(
            state, config, blocks.model, V, positive, blocks.cached, logdets=traced, work=work
        )
        slack = blocks.slack(previous_total, lams)
        if not total <= previous_total + slack:  # a NaN total fails too
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
    return run_sweeps(X, config, warm, DeepBlocks(config))
