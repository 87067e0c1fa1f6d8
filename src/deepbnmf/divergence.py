"""Beta-divergences and the convex-concave-constant split used by the updates.

Supported divergences are the classical family with beta in
{0, 1/2, 1, 3/2, 2}: Itakura-Saito (0), Kullback-Leibler (1) and half squared
error (2), plus the two midpoints that still admit closed-form multiplicative
updates.

References
----------
C. Fevotte and J. Idier, "Algorithms for nonnegative matrix factorization
with the beta-divergence", Neural Computation 23(9), 2011.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError

SUPPORTED_BETAS = (0.0, 0.5, 1.0, 1.5, 2.0)

#: Sentinel for divergences that are infinite at the evaluation point. Using
#: IEEE infinity keeps objective traces totally ordered without exceptions.
INFINITE_DIVERGENCE = math.inf


def check_beta(beta) -> float:
    """Validate ``beta`` against the supported set and return it as a float."""
    b = float(beta)
    if b not in SUPPORTED_BETAS:
        raise ConfigError(f"beta must be one of {SUPPORTED_BETAS}, got {beta}")
    return b


def mu_exponent(beta: float) -> float:
    """Exponent of the classical multiplicative update for a given beta.

    Equals ``1/(2-beta)`` below 1 and ``1`` on [1, 2], which is the exponent
    that makes one multiplicative step coincide with the majorizer minimizer.
    ``beta`` must be one of ``SUPPORTED_BETAS`` (not checked).
    """
    return 1.0 / (2.0 - beta) if beta < 1.0 else 1.0


def beta_div_matrix(A: np.ndarray, B: np.ndarray, beta, out=None, positive=None) -> float:
    """Sum of entrywise beta-divergences between equal-shaped matrices.

    A negative entry in ``A`` or ``B`` raises ``ConfigError``.  Cells where
    the divergence diverges (``B == 0 < A`` for beta <= 1, ``A == 0 < B`` for
    beta == 0) count as ``INFINITE_DIVERGENCE``; ``A == B`` cells count as 0.

    ``out``, a float array of A's shape, is the solvers' path: the caller
    guarantees finite ``A >= 0`` and ``B > 0``, the input checks are skipped,
    and the one-pass forms (beta 1 and 1/2) write their cells into ``out``.
    ``positive`` is then the mask ``A > 0`` for beta = 1, or None if A has
    no zero entry.
    """
    b = check_beta(beta)
    if out is None:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != B.shape:
            raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
        if not A.size:
            return 0.0
        a_min, b_min = A.min(), B.min()
        # Minima not both >= 0 mean a negative or a NaN entry; a NaN minimum hides
        # the sign of the other cells, so only then are all cells looked at.
        if not (a_min >= 0 and b_min >= 0) and (np.any(A < 0) or np.any(B < 0)):
            raise ConfigError("beta divergence arguments must be nonnegative")
        if not (a_min >= 0 and b_min > 0):
            return float(np.sum(_beta_div_cells(A, B, b)))
        positive = A > 0 if b == 1.0 else None
    if b in (1.0, 0.5):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _kl_one_pass(A, B, out, positive) if b == 1.0 else _half_one_pass(A, B, out)
        # Summed from a name, outside the block: summing the temporary inline
        # measured 2.5 MB more peak RSS on 1000x500 inputs (allocator layout).
        total = float(np.sum(t))
        if total == total:  # a NaN cell (inf/inf, inf - inf) needs the masked form
            return total
        # The masked form redoes this pass's divisions, whose overflow was reported.
        with np.errstate(over="ignore"):
            return float(np.sum(_beta_div_cells(A, B, b)))
    return float(np.sum(_beta_div_cells(A, B, b)))


def _kl_one_pass(A, B, out, positive):
    """The beta = 1 cells of _beta_div_cells, by the same IEEE operations in
    the same order, in one buffer: (A log(A/B) - A) + B, where A == 0 keeps
    0/B = 0 and A == B gives log(1) = 0, so both cells come out as before.
    The log is taken where ``positive`` (A > 0) holds, everywhere if None."""
    t = np.divide(A, B, out=out)
    if positive is None:
        np.log(t, out=t)
    else:
        np.log(t, out=t, where=positive)
    t *= A
    t -= A
    t += B
    return t


def _half_one_pass(A, B, out):
    """The beta = 1/2 cells of _beta_div_cells in two buffers, one of them
    ``out`` if given: (-4 sqrt(A) + 2 sqrt(B)) + 2 A/sqrt(B).  Scaling by 2,
    1/2 and -4 is exact, so every cell is the masked form's, A == B cells
    zeroed last."""
    s = np.sqrt(B)
    t = np.sqrt(A, out=out)
    t *= -4.0
    s *= 2.0
    t += s
    s *= 0.5
    np.divide(A, s, out=s)
    s *= 2.0
    t += s
    np.copyto(t, 0.0, where=A == B)
    return t


def _beta_div_cells(A, B, b: float) -> np.ndarray:
    """Entrywise d_beta(A, B), saturating: +inf where the divergence diverges
    (B == 0 < A for beta <= 1, A == 0 < B for beta == 0) or a cell comes out
    NaN, and exactly 0 where A == B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 1.0:
            # Divide only where A > 0: 1/B could overflow on cells the mask drops.
            pos = A > 0
            ones = np.ones_like(A, shape=np.broadcast(A, B).shape)  # keeps A's layout
            ratio = np.divide(A, B, out=ones, where=pos)
            log_term = np.where(pos, A * np.log(ratio), 0.0)
            total = log_term - A + B
        elif b == 0.0:
            r = A / B
            total = np.where(A == B, 0.0, r - np.log(r) - 1.0)
        elif b == 2.0:
            total = 0.5 * (A - B) ** 2
        elif b == 0.5:
            ratio = np.where(B > 0, A / np.sqrt(np.where(B > 0, B, 1.0)), np.where(A > 0, np.inf, 0.0))
            total = -4.0 * np.sqrt(A) + 2.0 * np.sqrt(B) + 2.0 * ratio
        else:  # beta == 1.5
            total = (4.0 / 3.0) * (A ** 1.5 + 0.5 * B ** 1.5 - 1.5 * A * np.sqrt(B))
    total = np.where(np.isnan(total), INFINITE_DIVERGENCE, total)
    # The divergence is exactly zero on the diagonal; rounding in the power
    # forms must not leak through.
    return np.where(A == B, 0.0, total)
