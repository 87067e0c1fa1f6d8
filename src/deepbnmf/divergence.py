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
    """Return ``beta`` as a float; ``ConfigError`` if it is not a number or not supported."""
    try:
        b = float(beta)
    except (TypeError, ValueError):
        b = math.nan
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


def beta_div_matrix(
    A: np.ndarray, B: np.ndarray, beta, out=None, positive=None, work=None
) -> float:
    """Sum of entrywise beta-divergences between equal-shaped matrices.

    A negative entry in ``A`` or ``B`` raises ``ConfigError``.  Cells where
    the divergence diverges (``B == 0 < A`` for beta <= 1, ``A == 0 < B`` for
    beta == 0) or that come out NaN count as ``INFINITE_DIVERGENCE``;
    ``A == B`` cells count as 0.  Each beta has one cell formula, run on
    every call; only a sum that comes out non-finite has these conventions
    applied to its cells, and the KL and Itakura-Saito cells whose quotient
    ``A / B`` underflowed to 0 redone with the split log ``log A - log B``.

    ``out``, a float array of A's shape, is the solvers' path: the caller
    guarantees finite ``A >= 0`` and ``B > 0``, the input checks are skipped,
    and the cells go into ``out``.  ``positive`` is then the mask ``A > 0``
    for beta = 1, or None if A has no zero entry, and ``work``, if given, a
    second float array of A's shape that the beta = 0, 1/2 and 3/2 forms
    overwrite (else they allocate one; 3/2 also allocates ``A - B``).
    """
    b = check_beta(beta)
    if out is None:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != B.shape:
            raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
        if not A.size:
            return 0.0
        A, B = np.atleast_1d(A, B)  # the cells of 0-d input are written in place
        a_min, b_min = A.min(), B.min()
        # Minima not both >= 0 mean a negative or a NaN entry; a NaN minimum hides
        # the sign of the other cells, so only then are all cells looked at.
        if not (a_min >= 0 and b_min >= 0) and (np.any(A < 0) or np.any(B < 0)):
            raise ConfigError("beta divergence arguments must be nonnegative")
        if not b_min > 0:
            B = B + 0.0  # -0.0 to +0.0: A / -0.0 would make a beta = 1/2 cell -inf
        positive = A > 0 if b == 1.0 else None
        if b in (0.5, 1.5):  # the cells in the layout numpy gives A + B, as at every other beta
            out = np.nditer((A, B, None)).operands[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 1.0:
            # (A log(A/B) - A) + B in one buffer, the log taken where A > 0
            # (everywhere if positive is None): an A == 0 cell comes out B.
            t = np.divide(A, B, out=out)
            np.log(t, out=t, where=True if positive is None else positive)
            t *= A
            t -= A
            t += B
        elif b == 0.5:
            # (-4 sqrt(A) + 2 sqrt(B)) + 2 A/sqrt(B) in two buffers; scaling
            # by 2, 1/2 and -4 is exact.
            s = np.sqrt(B, out=work)
            t = np.sqrt(A, out=out)
            t *= -4.0
            s *= 2.0
            t += s
            s *= 0.5
            np.divide(A, s, out=s)
            s *= 2.0
            t += s
            np.copyto(t, 0.0, where=A == B)
        elif b == 0.0:
            t = np.divide(A, B, out=out)
            np.subtract(t, np.log(t, out=work), out=t)
            t -= 1.0
        elif b == 2.0:
            t = np.subtract(A, B, out=out)
            np.square(t, out=t)
            t *= 0.5
        else:  # beta == 1.5
            # (4/3) d^2 (sqrt(A) + sqrt(B)/2) with d = sqrt(A) - sqrt(B) taken as
            # (A - B) / (sqrt(A) + sqrt(B)): no cancellation near the diagonal,
            # exactly 0 on it, and finite wherever the cell is.  A = B = 0 is 0.
            # sqrt(B) is taken twice, so that s and sqrt(B) / 2 share an array.
            sa = np.sqrt(A, out=out)
            s = np.sqrt(B, out=work)
            s += sa
            d = np.subtract(A, B)  # A - B = 0 where s = 0
            np.divide(d, s, out=d, where=s > 0)
            sb = np.sqrt(B, out=s)
            sb *= 0.5
            sa += sb
            y = np.multiply(d, 4.0 / 3.0, out=sb)
            y *= d
            t = np.multiply(y, sa, out=sa)
        # Summed from a name: summing the temporary inline measured 2.5 MB
        # more peak RSS on 1000x500 inputs (allocator layout).
        total = float(np.sum(t))
    if math.isfinite(total):
        return total
    if b in (0.0, 1.0):
        with np.errstate(all="ignore"):  # the first pass reported any overflow
            under = (A > 0) & (B > 0) & (B < math.inf) & (A / B == 0)
        if under.any():
            a, d = A[under], B[under]
            log_r = np.log(a) - np.log(d)
            t[under] = a * log_r - a + d if b == 1.0 else -log_r - 1.0
    np.copyto(t, INFINITE_DIVERGENCE, where=np.isnan(t))
    np.copyto(t, 0.0, where=A == B)
    return float(np.sum(t))
