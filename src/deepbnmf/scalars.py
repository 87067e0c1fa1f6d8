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

    Accepts scalars or arrays; the result has the shape of the input, which
    is never written to.  Every finite ``t`` gives a finite result within
    1e-14 relative of the exact root; ``t = -inf`` gives 0, ``t = +inf``
    gives ``+inf`` and NaN raises ``DomainError``.  Each entry gets the same
    two steps, so a result never depends on the rest of the array.

    The steps run in place, in seven arrays of the input's shape: each
    operation is that of the expression in the comment above it, in its
    order up to the exact commutativity of + and *, so the bits are those
    of the plain expressions.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)  # out= needs an array
    if np.isnan(arr).any():
        raise DomainError("lambert_w0_exp requires non-NaN input")
    with np.errstate(divide="ignore", invalid="ignore"):
        # x = exp(min(t, 1)) and d = max(t - 1, 0), which is t - log(x).
        x = np.minimum(arr, 1.0)
        np.exp(x, out=x)
        d = arr - 1.0
        np.maximum(d, 0.0, out=d)
        # guess = where(t <= 1, log1p(x), t - lt + lt / t),
        # lt = log(min(max(t, 1), largest float)).
        z = np.maximum(arr, 1.0)
        lt = np.log(np.minimum(z, _FLOAT_MAX, out=z), out=z)
        h = lt / arr
        guess = arr - lt
        guess += h
        np.copyto(guess, np.log1p(x, out=h), where=arr <= 1.0)
        w = guess.copy()
        p = np.empty_like(w)
        for _ in range(2):
            # z = d + log(x / w) - w; through x / w it is exact to rounding
            # for t <= 1, where t and log(w) nearly cancel.
            np.log(np.divide(x, w, out=z), out=z)
            z += d
            z -= w
            # FSC step w *= 1 + 2c (p - c) / (p - 2c), c = z / (2 (1 + w)),
            # as w + w * h * (p - 0.5 * h) / (p - h) with w1 = 1 + w,
            # h = z / w1 and p = w1 + z * (2/3); no (1 + w)^2 is formed, so
            # nothing overflows.
            w1 = np.add(w, 1.0, out=p)
            np.divide(z, w1, out=h)
            z *= 2.0 / 3.0
            p += z  # p = w1 + z * (2/3)
            np.subtract(p, np.multiply(h, 0.5, out=z), out=z)  # p - 0.5 * h
            p -= h  # p - h
            h *= w
            h *= z
            h /= p
            w += h
        # The steps are undefined only where the guess is already exact:
        # where e^t underflows to 0 (W(e^t) rounds to 0 too) and at t = +inf.
        np.copyto(w, guess, where=~np.isfinite(w))
    if scalar:
        return float(w[0])
    return w
