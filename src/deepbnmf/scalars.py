"""Scalar numerical kernels: the principal branch of the Lambert W function.

One kernel, ``lambert_w0_exp(t) = W(e^t)``, backs the closed-form KL updates
of the package.  It works in the log domain, so no argument overflows, and
does a fixed amount of work per entry: a standard starting guess, then two
Fritsch-Shafer-Crowley steps, whose fourth-order convergence takes the guess
to double precision.

References
----------
F.N. Fritsch, R.E. Shafer, and W.P. Crowley, "Algorithm 443: Solution of
the transcendental equation w e^w = x", Communications of the ACM 16(2), 1973.
R.M. Corless, G.H. Gonnet, D.E.G. Hare, D.J. Jeffrey, and D.E. Knuth,
"On the Lambert W Function", Advances in Computational Mathematics, 1996.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_FLOAT_MAX = np.finfo(float).max


def lambert_w0_exp(t):
    """Principal-branch Lambert W of ``e^t`` for real ``t``: the root ``w``
    of ``w + log(w) = t``, without forming ``e^t``.

    Accepts scalars or arrays; the result has the shape of the input.
    Every finite ``t`` gives a finite result within 1e-14 relative of the
    exact root; ``t = -inf`` gives 0, ``t = +inf`` gives ``+inf`` and NaN
    raises ``DomainError``.  Each entry gets the same two steps, so a result
    never depends on the rest of the array.
    """
    arr = np.asarray(t, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("lambert_w0_exp requires non-NaN input")
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.exp(np.minimum(arr, 1.0))
        d = np.maximum(arr - 1.0, 0.0)  # t - log(x)
        lt = np.log(np.minimum(np.maximum(arr, 1.0), _FLOAT_MAX))
        guess = np.where(arr <= 1.0, np.log1p(x), arr - lt + lt / arr)
        del lt  # one array fewer in the steps, the peak of a deep sweep's memory
        w = guess
        for _ in range(2):
            # z = t - w - log(w); through x / w it is exact to rounding for
            # t <= 1, where t and log(w) nearly cancel.
            z = d + np.log(x / w) - w
            # FSC step w *= 1 + 2c (p - c) / (p - 2c), c = z / (2 (1 + w)),
            # here with h = 2c; no (1 + w)^2 is formed, so nothing overflows.
            w1 = 1.0 + w
            h = z / w1
            p = w1 + z * (2.0 / 3.0)
            w = w + w * h * (p - 0.5 * h) / (p - h)
        # The steps are undefined only where the guess is already exact:
        # where e^t underflows to 0 (W(e^t) rounds to 0 too) and at t = +inf.
        w = np.where(np.isfinite(w), w, guess)
    if np.ndim(t) == 0:
        return float(w)
    return w
