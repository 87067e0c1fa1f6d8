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
from dataclasses import dataclass
from typing import Callable

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
    """
    b = check_beta(beta)
    return 1.0 / (2.0 - b) if b < 1.0 else 1.0


def beta_div_scalar(x: float, y: float, beta) -> float:
    """Scalar beta-divergence d_beta(x, y) with saturating conventions.

    Points where the divergence diverges (``y == 0`` with ``x > 0`` for
    beta <= 1, or ``x == 0`` for beta == 0) return ``INFINITE_DIVERGENCE``
    rather than raising, and ``d(0, 0) = 0`` by continuity along the diagonal.
    """
    b = check_beta(beta)
    if x < 0 or y < 0:
        raise ConfigError("beta divergence arguments must be nonnegative")
    if x == y:
        return 0.0
    if b == 1.0:
        if y == 0.0:
            return INFINITE_DIVERGENCE
        if x == 0.0:
            return float(y)
        return float(x * math.log(x / y) - x + y)
    if b == 0.0:
        if x == 0.0 or y == 0.0:
            return INFINITE_DIVERGENCE
        r = x / y
        return float(r - math.log(r) - 1.0)
    if b == 2.0:
        return float(0.5 * (x - y) ** 2)
    if b == 0.5:
        if y == 0.0:
            return INFINITE_DIVERGENCE if x > 0 else 0.0
        return float(-4.0 * math.sqrt(x) + 2.0 * math.sqrt(y) + 2.0 * x / math.sqrt(y))
    # beta == 1.5
    return float((4.0 / 3.0) * (x ** 1.5 + 0.5 * y ** 1.5 - 1.5 * x * math.sqrt(y)))


def beta_div_matrix(A: np.ndarray, B: np.ndarray, beta) -> float:
    """Sum of entrywise beta-divergences between equal-shaped matrices."""
    b = check_beta(beta)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    if b == 1.0 and A.size and A.min() >= 0 and B.min() > 0:
        # The cells of _beta_div_cells, by the same IEEE operations in the
        # same order, in one buffer: (A log(A/B) - A) + B, where A == 0 keeps
        # 0/B = 0 and A == B gives log(1) = 0, so both cells come out as before.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = A / B
            np.log(t, out=t, where=A > 0)
            t *= A
            t -= A
            t += B
        total = float(np.sum(t))
        if total == total:  # a NaN cell (inf/inf, inf - inf) needs the masked form
            return total
    return float(np.sum(_beta_div_cells(A, B, b)))


def _beta_div_cells(A, B, b: float) -> np.ndarray:
    """Entrywise d_beta(A, B), with the saturating conventions of beta_div_scalar."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 1.0:
            log_term = np.where(A > 0, A * np.log(np.where(A > 0, A, 1.0) / B), 0.0)
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


@dataclass(frozen=True)
class DecompositionTerms:
    """Split d_beta(v, u) = check_d(v, u) + hat_d(v, u) + bar_d(v).

    ``check_d`` is convex in ``u``, ``hat_d`` concave in ``u`` and ``bar_d``
    does not depend on ``u``; ``hat_d_prime`` is the partial derivative of
    ``hat_d`` with respect to ``u``.  All callables are vectorized.
    """

    beta: float
    check_d: Callable
    hat_d: Callable
    bar_d: Callable
    hat_d_prime: Callable


def decomposition_terms(beta) -> DecompositionTerms:
    """Convex-concave-constant decomposition of d_beta as vectorized callables."""
    b = check_beta(beta)
    if b >= 1.0:
        # The divergence is already convex in u: no concave or constant part.
        return DecompositionTerms(
            beta=b,
            check_d=lambda v, u: _beta_div_cells(v, u, b),
            hat_d=lambda v, u: np.zeros(np.broadcast(v, u).shape),
            bar_d=lambda v: np.zeros(np.shape(v)),
            hat_d_prime=lambda v, u: np.zeros(np.broadcast(v, u).shape),
        )
    if b == 0.0:
        return DecompositionTerms(
            beta=b,
            check_d=lambda v, u: np.asarray(v, dtype=float) / u,
            hat_d=lambda v, u: np.log(u) + 0.0 * np.asarray(v, dtype=float),
            # The constant must make the identity hold:
            # v/u - log(v/u) - 1 - (v/u) - log(u) = -log(v) - 1.
            bar_d=lambda v: -np.log(v) - 1.0,
            hat_d_prime=lambda v, u: 1.0 / np.asarray(u, dtype=float) + 0.0 * np.asarray(v, dtype=float),
        )
    # beta == 0.5
    return DecompositionTerms(
        beta=b,
        check_d=lambda v, u: 2.0 * np.asarray(v, dtype=float) / np.sqrt(u),
        hat_d=lambda v, u: 2.0 * np.sqrt(u) + 0.0 * np.asarray(v, dtype=float),
        bar_d=lambda v: -4.0 * np.sqrt(v),
        hat_d_prime=lambda v, u: 1.0 / np.sqrt(u) + 0.0 * np.asarray(v, dtype=float),
    )
