"""Sparsity measures, run comparisons and scatteredness diagnostics.

References
----------
P.O. Hoyer, "Non-negative matrix factorization with sparseness constraints",
JMLR 5, 2004.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .divergence import beta_div_matrix, check_beta
from .errors import ComparisonError, DomainError
from .model import DeepState

#: Returned for vectors on which the sparsity measure is undefined.
UNDEFINED_METRIC = math.nan


def hoyer_sparsity(x) -> float:
    """Hoyer sparsity (sqrt(n) - l1/l2) / (sqrt(n) - 1), in [0, 1].

    One for a single nonzero entry, zero when all entries are equal.
    Undefined (NaN) for an all-zero vector.
    """
    v = np.asarray(x, dtype=float).ravel()
    if v.size < 2:
        raise DomainError("hoyer_sparsity needs at least 2 entries")
    if not np.all(np.isfinite(v)):
        raise DomainError("hoyer_sparsity requires finite entries")
    if np.any(v < 0):
        raise DomainError("hoyer_sparsity is defined for nonnegative vectors")
    peak = float(v.max())
    if peak == 0.0:
        return UNDEFINED_METRIC
    # Pre-scaling by the peak keeps squared entries away from underflow, so
    # the measure is scale invariant even for extreme magnitudes.
    v = v / peak
    l2 = float(np.linalg.norm(v))
    l1 = float(v.sum())
    root_n = math.sqrt(v.size)
    return (root_n - l1 / l2) / (root_n - 1.0)


def composite_features(state: DeepState, layer: int) -> np.ndarray:
    """Rows of H_layer ... H_1: the layer's features expressed in input space."""
    if not 1 <= layer <= state.num_layers:
        raise ComparisonError(f"layer must be in 1..{state.num_layers}")
    comp = state.H[0]
    for i in range(1, layer):
        comp = state.H[i] @ comp
    return comp


def _mean_row_sparsity(M: np.ndarray) -> float:
    vals = [hoyer_sparsity(row) for row in M]
    return float(np.nanmean(vals))


@dataclass(frozen=True)
class LayerComparison:
    layer: int
    error_ratio: float
    sparsity_a_composite: float
    sparsity_b_composite: float
    sparsity_a_rows: float
    sparsity_b_rows: float


@dataclass(frozen=True)
class ComparisonReport:
    layers: List[LayerComparison]

    def to_csv(self) -> str:
        lines = [
            "layer,error_ratio,sparsity_a_composite,sparsity_b_composite,"
            "sparsity_a_rows,sparsity_b_rows"
        ]
        for row in self.layers:
            lines.append(
                f"{row.layer},{row.error_ratio:.17g},"
                f"{row.sparsity_a_composite:.17g},{row.sparsity_b_composite:.17g},"
                f"{row.sparsity_a_rows:.17g},{row.sparsity_b_rows:.17g}"
            )
        return "\n".join(lines) + "\n"


def compare_runs(state_a: DeepState, state_b: DeepState, beta) -> ComparisonReport:
    """Per-layer error ratios (a over b) and feature sparsities of two runs.

    Both runs must factorize the same data with the same ranks.  Sparsity is
    reported both for composite features (rows of H_l ... H_1, the natural
    reading of layer-l features) and for the raw rows of each H_l.
    """
    b = check_beta(beta)
    if state_a.num_layers != state_b.num_layers:
        raise ComparisonError("runs have different numbers of layers")
    if state_a.X.shape != state_b.X.shape or not np.array_equal(state_a.X, state_b.X):
        raise ComparisonError("runs factorize different data")
    for wa, wb in zip(state_a.W, state_b.W):
        if wa.shape != wb.shape:
            raise ComparisonError(f"rank mismatch: {wa.shape} vs {wb.shape}")
    rows = []
    for i in range(state_a.num_layers):
        err_a = beta_div_matrix(state_a.prev_w(i), state_a.W[i] @ state_a.H[i], b)
        err_b = beta_div_matrix(state_b.prev_w(i), state_b.W[i] @ state_b.H[i], b)
        ratio = err_a / err_b if err_b != 0 else math.inf
        rows.append(
            LayerComparison(
                layer=i + 1,
                error_ratio=ratio,
                sparsity_a_composite=_mean_row_sparsity(composite_features(state_a, i + 1)),
                sparsity_b_composite=_mean_row_sparsity(composite_features(state_b, i + 1)),
                sparsity_a_rows=_mean_row_sparsity(state_a.H[i]),
                sparsity_b_rows=_mean_row_sparsity(state_b.H[i]),
            )
        )
    return ComparisonReport(layers=rows)


@dataclass(frozen=True)
class SscRowReport:
    row: int
    zero_count: int
    required: int
    passes: bool


@dataclass(frozen=True)
class SscReport:
    rows: List[SscRowReport]
    contained_pairs: List[Tuple[int, int]]

    @property
    def all_pass(self) -> bool:
        return all(r.passes for r in self.rows) and not self.contained_pairs


def ssc_row_zero_check(H: np.ndarray, tol: float = None) -> SscReport:
    """Necessary-condition diagnostic for sufficient scatteredness of H.

    Counts per-row entries below ``tol`` (default 1e-9 times the largest
    entry, since multiplicative updates never produce exact zeros) and flags
    rows with fewer than r - 1 of them, plus row supports contained in one
    another.  This is only a necessary condition; certifying the full
    property is NP-hard and out of scope.  H must be finite and nonnegative.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2:
        raise DomainError("H must be a matrix")
    if not np.all(np.isfinite(H)):
        raise DomainError("H must be finite")
    if np.any(H < 0):
        raise DomainError("H must be entrywise nonnegative")
    r = H.shape[0]
    if tol is None:
        tol = 1e-9 * float(H.max()) if H.size else 0.0
    zeros = H <= tol
    rows = [
        SscRowReport(
            row=i,
            zero_count=int(zeros[i].sum()),
            required=r - 1,
            passes=bool(zeros[i].sum() >= r - 1),
        )
        for i in range(r)
    ]
    supports = [set(np.flatnonzero(~zeros[i]).tolist()) for i in range(r)]
    contained = [
        (i, j)
        for i in range(r)
        for j in range(r)
        if i != j and supports[i] and supports[i] <= supports[j]
    ]
    return SscReport(rows=rows, contained_pairs=contained)
