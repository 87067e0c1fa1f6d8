"""Scalar numerical kernels: the principal branch of the Lambert W function.

These routines back the closed-form KL updates of the package, so they aim
for near machine precision rather than speed-at-any-cost.

References
----------
R.M. Corless, G.H. Gonnet, D.E.G. Hare, D.J. Jeffrey, and D.E. Knuth,
"On the Lambert W Function", Advances in Computational Mathematics, 1996.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Arguments of exp() above this are treated as overflow-prone and routed
# through the log-domain Lambert solver.
EXP_OVERFLOW_LIMIT = 700.0

# Halley steps below a few ulps of w freeze an entry.  One ulp is too tight:
# an entry can settle into a one-ulp two-cycle and never stop.
_STEP_ULPS = 4.0 * np.finfo(float).eps


def _halley_direct(w, x):
    # Halley iteration on f(w) = w*exp(w) - x.  Converged entries are frozen
    # so results do not depend on how the array is chunked.
    active = np.ones(w.shape, dtype=bool)
    for _ in range(50):
        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = np.where(active, f / denom, 0.0)
        w = w - step
        active = active & (np.abs(step) > _STEP_ULPS * (1.0 + np.abs(w)))
        if not active.any():
            break
    return w


def lambert_w0(x):
    """Principal branch of the Lambert W function for x >= 0.

    Solves ``w * exp(w) = x``.  Accepts scalars or arrays; the result has
    the shape of the input.  Accuracy: ``|w exp(w) - x| <= 1e-12 * max(1, x)``.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
        raise DomainError("lambert_w0 requires finite nonnegative input")
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.where(arr > 0, arr, 1.0))
        guess = np.where(
            arr <= np.e,
            np.log1p(arr),
            lx - np.log(np.where(lx > 0, lx, 1.0)),
        )
    w = _halley_direct(guess, arr)
    w = np.where(arr == 0.0, 0.0, w)
    if np.ndim(x) == 0:
        return float(w)
    return w


def lambert_w0_from_log(log_x):
    """Lambert W of ``exp(log_x)``, evaluated without forming the argument.

    Solves ``w + log(w) = log_x``, which is the update equation in the log
    domain; intended for arguments too large to exponentiate.  For
    ``log_x < 1`` it defers to :func:`lambert_w0` (no overflow possible);
    ``log_x = +inf`` gives ``+inf``, the limit of W(e^t).
    """
    arr = np.asarray(log_x, dtype=float)
    if arr.size and np.any(np.isnan(arr)):
        raise DomainError("lambert_w0_from_log requires non-NaN input")
    small = arr < 1.0
    infinite = arr == np.inf
    out = np.empty(arr.shape, dtype=float)
    if small.any():
        out[small] = np.asarray(lambert_w0(np.exp(arr[small])))
    out[infinite] = np.inf
    big = ~(small | infinite)
    if big.any():
        lx = arr[big]
        # w ~= lx - log(lx) is the standard asymptotic starting point.
        w = lx - np.log(lx)
        w = np.maximum(w, 1.0)
        active = np.ones(w.shape, dtype=bool)
        for _ in range(50):
            g = w + np.log(w) - lx
            gp = 1.0 + 1.0 / w
            gpp = -1.0 / (w * w)
            step = np.where(active, 2.0 * g * gp / (2.0 * gp * gp - g * gpp), 0.0)
            w = w - step
            active = active & (np.abs(step) > _STEP_ULPS * (1.0 + np.abs(w)))
            if not active.any():
                break
        out[big] = w
    if np.ndim(log_x) == 0:
        return float(out)
    return out


def lambert_w0_exp(t):
    """Overflow-safe ``lambert_w0(exp(t))`` for real ``t``.

    ``t = -inf`` gives 0 and ``t = +inf`` gives ``+inf``.
    """
    arr = np.asarray(t, dtype=float)
    out = np.empty(arr.shape, dtype=float)
    direct = arr <= EXP_OVERFLOW_LIMIT
    if direct.any():
        out[direct] = np.asarray(lambert_w0(np.exp(arr[direct])))
    if (~direct).any():
        out[~direct] = np.asarray(lambert_w0_from_log(arr[~direct]))
    if np.ndim(t) == 0:
        return float(out)
    return out

