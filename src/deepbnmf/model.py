"""Factorization state, objectives and initialization for deep NMF chains.

A deep factorization of ``X`` is the chain ``X ~ W1 H1``, ``W1 ~ W2 H2``, ...
with strictly decreasing inner ranks.  Two constraint conventions are used:
rows of each ``H`` on the simplex (plain deep beta-NMF) or columns of each
``W`` on the simplex (minimum-volume deep KL-NMF).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Literal, Optional, Sequence

import numpy as np

from .divergence import beta_div_matrix, check_beta
from .errors import ConfigError, DegenerateInputError, DimensionError, DomainError

ROW_SIMPLEX_H = "row-simplex-h"
COLUMN_SIMPLEX_W = "column-simplex-w"
Constraint = Literal["row-simplex-h", "column-simplex-w"]

#: Elementwise floor applied to all factors (double machine epsilon).
MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class LayerSpec:
    """Per-layer rank and penalty weights.

    ``lam`` is the weight of the layer's divergence term; ``None`` requests
    automatic balancing at the initial state.  ``alpha`` weighs the log-det
    volume penalty and is only used by the min-vol solver.
    """

    rank: int
    lam: Optional[float] = None
    alpha: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ConfigError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.alpha < np.inf:
            raise ConfigError(f"alpha must be nonnegative and finite, got {self.alpha}")


def check_ranks(n_cols: int, layers: Sequence[LayerSpec]):
    """Ranks must decrease strictly along the chain, starting below n_cols."""
    if not layers:
        raise ConfigError("at least one layer is required")
    previous = n_cols
    for spec in layers:
        if spec.rank >= previous:
            raise ConfigError(
                f"ranks must decrease strictly along the chain; "
                f"got rank {spec.rank} after {previous}"
            )
        previous = spec.rank


@dataclass
class SolverConfig:
    """Everything a factorization run needs besides the data matrix."""

    beta: float
    layers: List[LayerSpec]
    delta: float = 0.1
    rho: float = 100.0
    admm_max_iter: int = 50
    admm_tol: float = 1e-6
    max_sweeps: int = 200
    warm_start_sweeps: int = 100
    seed: int = 0
    # Early stop on relative objective change; 0 disables it so runs use the
    # full sweep budget (1e-9 is a reasonable opt-in value).
    rel_obj_tol: float = 0.0

    def __post_init__(self):
        self.beta = check_beta(self.beta)
        for name in ("delta", "rho", "admm_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("admm_max_iter", "max_sweeps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.rel_obj_tol < np.inf:
            raise ConfigError("rel_obj_tol must be nonnegative and finite")
        if self.warm_start_sweeps < 0:
            raise ConfigError("warm_start_sweeps must be >= 0")

    @property
    def ranks(self):
        return [spec.rank for spec in self.layers]

    def lambdas(self) -> List[float]:
        lams = [spec.lam for spec in self.layers]
        if any(lam is None for lam in lams):
            raise ConfigError("lambda weights are unresolved; run auto balancing first")
        return [float(lam) for lam in lams]

    def alphas(self) -> List[float]:
        return [spec.alpha for spec in self.layers]

    def with_lambdas(self, lams: Sequence[float]) -> "SolverConfig":
        layers = [replace(spec, lam=float(lam)) for spec, lam in zip(self.layers, lams)]
        return replace(self, layers=layers)


@dataclass
class DeepState:
    """The chain ``X ~ W[0] H[0]``, ``W[0] ~ W[1] H[1]``, ...

    ``W[i]`` has shape (m, r_{i+1}) and ``H[i]`` has shape
    (r_{i+1}, r_i) with r_0 = n.  Factors are kept strictly positive by the
    solvers (epsilon flooring), which rules out multiplicative zero-locking.
    """

    X: np.ndarray
    W: List[np.ndarray]
    H: List[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.W)

    def prev_w(self, i: int) -> np.ndarray:
        """Approximation target of layer ``i``: X for the first layer."""
        return self.X if i == 0 else self.W[i - 1]

    def copy(self) -> "DeepState":
        return DeepState(
            X=self.X.copy(),
            W=[w.copy() for w in self.W],
            H=[h.copy() for h in self.H],
        )

    def check_dims(self):
        m, n = self.X.shape
        if len(self.W) != len(self.H):
            raise DimensionError("W and H lists have different lengths")
        prev_rank = n
        for i, (w, h) in enumerate(zip(self.W, self.H)):
            r = w.shape[1]
            if w.shape[0] != m or h.shape != (r, prev_rank):
                raise DimensionError(
                    f"layer {i + 1}: W {w.shape}, H {h.shape} inconsistent "
                    f"with m={m}, previous rank {prev_rank}"
                )
            prev_rank = r


@dataclass
class SweepRecord:
    sweep: int
    total_objective: float
    layer_errors: tuple
    logdet_terms: tuple
    max_residual: float
    seconds: float


class ConvergenceTrace:
    """Per-sweep objective and constraint-residual history of one run.

    ``lambdas`` records the layer weights the producing solver actually used
    (after auto balancing), for manifests and comparisons.
    """

    def __init__(self, num_layers: int, lambdas: Optional[List[float]] = None):
        self.num_layers = num_layers
        self.lambdas = lambdas
        self.records: List[SweepRecord] = []

    def append(self, record: SweepRecord):
        if self.records and record.sweep <= self.records[-1].sweep:
            raise ConfigError("sweep indices must increase strictly")
        if len(record.layer_errors) != self.num_layers:
            raise DimensionError("layer_errors length does not match num_layers")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def objectives(self) -> np.ndarray:
        return np.array([r.total_objective for r in self.records])

    def max_residuals(self) -> np.ndarray:
        return np.array([r.max_residual for r in self.records])


def check_data(X) -> np.ndarray:
    """The data matrix as a contiguous float array, after the input checks.

    ``X`` must be 2-D, finite, entrywise nonnegative and not all zero.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be a 2-D matrix")
    if np.any(X < 0) or not np.all(np.isfinite(X)):
        raise DomainError("X must be finite and entrywise nonnegative")
    if not np.any(X > 0):
        raise DegenerateInputError("X is all zero")
    return X


def init_random(
    X: np.ndarray,
    layers: Sequence[LayerSpec],
    seed: int,
    constraint: Constraint,
) -> DeepState:
    """Strictly positive random factors with the declared constraint enforced.

    Entries are drawn uniformly from [eps, 1) layer by layer (W then H), then
    rows of H or columns of W are normalized to sum to one.  The draw order
    makes the state a pure function of the seed.
    """
    X = check_data(X)
    if constraint not in (ROW_SIMPLEX_H, COLUMN_SIMPLEX_W):
        raise ConfigError(f"unknown constraint {constraint!r}")
    m, n = X.shape
    check_ranks(n, layers)
    rng = np.random.default_rng(seed)
    eps = MACHINE_EPS
    W, H = [], []
    prev_rank = n
    for spec in layers:
        r = spec.rank
        w = rng.uniform(eps, 1.0, size=(m, r))
        h = rng.uniform(eps, 1.0, size=(r, prev_rank))
        if constraint == ROW_SIMPLEX_H:
            h /= h.sum(axis=1, keepdims=True)
        else:
            w /= w.sum(axis=0, keepdims=True)
        W.append(w)
        H.append(h)
        prev_rank = r
    return DeepState(X=X, W=W, H=H)


def auto_balance_weights(state: DeepState, beta) -> List[float]:
    """Reciprocal layer divergences, so each weighted term starts at one.

    Layers that already fit exactly get weight 1 and a warning, since the
    reciprocal is undefined there.
    """
    weights = []
    for i in range(state.num_layers):
        div = beta_div_matrix(state.prev_w(i), state.W[i] @ state.H[i], beta)
        if div > 0 and np.isfinite(div):
            weights.append(1.0 / div)
        else:
            warnings.warn(
                f"layer {i + 1} divergence is {div} at initialization; "
                "using weight 1",
                RuntimeWarning,
                stacklevel=2,
            )
            weights.append(1.0)
    return weights


def logdet_gram(W: np.ndarray, delta: float) -> float:
    """log det(W^T W + delta I) from an LU factorization (``np.linalg.slogdet``).

    delta > 0 (not checked) makes the Gram matrix positive definite, so its
    determinant is positive; slogdet never overflows a raw determinant.  A
    sign other than +1 means rounding has lost the definiteness (W's columns
    are nearly dependent at a scale where delta no longer counts), and gives
    NaN rather than a finite log|det|.
    """
    gram = W.T @ W
    gram.reshape(-1)[:: gram.shape[0] + 1] += delta  # a view: matmul's result is contiguous
    sign, logabsdet = np.linalg.slogdet(gram)
    return float(logabsdet) if sign == 1.0 else np.nan


@dataclass(frozen=True)
class LayerObjective:
    divergence: float
    weighted_divergence: float
    logdet: float
    weighted_logdet: float


def eval_objective(
    state: DeepState,
    config: SolverConfig,
    model: Literal["plain", "minvol"] = "plain",
    products: Optional[List[np.ndarray]] = None,
    positive: Optional[np.ndarray] = None,
    cached: Optional[dict] = None,
    logdets: bool = True,
):
    """Total objective and per-layer terms for either deep NMF model.

    Plain: sum of lam_l * D_beta(W_{l-1}, W_l H_l).  Min-vol adds
    alpha_l * logdet(W_l^T W_l + delta I) per layer and is defined for the
    KL divergence only.  Every layer's log-det is reported for both models
    but weighted only for min-vol: in the plain model it is a diagnostic,
    since a collapsing value flags W layers drifting toward rank deficiency
    (a known failure mode when deep layers are over-weighted).  Unchecked
    preconditions: consistent shapes; ``model`` "plain", or "minvol" at beta 1.

    ``products``, if given, are float arrays of the layers' product shapes:
    each product is computed into its array, and the divergence takes the
    solvers' path of ``beta_div_matrix``, with ``positive`` as layer 1's
    mask ``X > 0`` (None if X has no zero; deeper targets are floored W).
    The values are the same.  ``cached`` maps a layer to the
    ``(divergence, logdet)`` the caller evaluated at the current factors,
    its product already in ``products``.  ``logdets=False`` leaves the plain
    model's diagnostic log-dets out (NaN), for when nothing reads them; the
    min-vol log-dets are terms of its objective and are always formed.
    """
    lams = config.lambdas()
    alphas = config.alphas()
    per_layer = []
    total = 0.0
    for i in range(state.num_layers):
        if cached and i in cached:
            div, ld = cached[i]
        else:
            if products is None:
                div = beta_div_matrix(state.prev_w(i), state.W[i] @ state.H[i], config.beta)
            else:
                V = np.matmul(state.W[i], state.H[i], out=products[i])
                # A fresh work array: held beside each product, a second one
                # raised the peak memory of the deep sweeps (README).
                div = beta_div_matrix(
                    state.prev_w(i), V, config.beta, out=np.empty_like(V),
                    positive=positive if i == 0 else None,
                )
            ld = logdet_gram(state.W[i], config.delta) if logdets or model == "minvol" else np.nan
        weighted_ld = alphas[i] * ld if model == "minvol" else 0.0
        per_layer.append(
            LayerObjective(
                divergence=div,
                weighted_divergence=lams[i] * div,
                logdet=ld,
                weighted_logdet=weighted_ld,
            )
        )
        total += lams[i] * div + weighted_ld
    return total, per_layer


def simplex_residual(state: DeepState, constraint: Constraint) -> float:
    """Worst deviation from one of the constrained sums (rows of H or columns of W);
    NaN if a sum is NaN (``np.max`` keeps it, where Python's ``max`` may not)."""
    if constraint == ROW_SIMPLEX_H:
        sums = [h.sum(axis=1) for h in state.H]
    elif constraint == COLUMN_SIMPLEX_W:
        sums = [w.sum(axis=0) for w in state.W]
    else:
        raise ConfigError(f"unknown constraint {constraint!r}")
    return float(np.max([0.0] + [np.abs(s - 1.0).max() for s in sums]))


def _column_normalize_chain(state: DeepState):
    """Switch a chain to the column-simplex convention in place, preserving products.

    Each W is divided columnwise by its column sums, the matching H rows are
    multiplied back, and the next layer's H absorbs the inverse scaling of
    its new target.
    """
    prev_scale = None
    for i in range(state.num_layers):
        if prev_scale is not None:
            state.H[i] = state.H[i] / prev_scale[None, :]
        scale = state.W[i].sum(axis=0)
        state.W[i] = state.W[i] / scale
        state.H[i] = state.H[i] * scale[:, None]
        prev_scale = scale
