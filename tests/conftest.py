"""Shared synthetic-data builders and probes for the test suite."""

import contextlib
import itertools
from unittest import mock

import numpy as np


def exact_two_layer_chain(seed, m=6, n=10, r1=4, r2=2):
    """State satisfying X = W1 H1 and W1 = W2 H2 exactly, rows of H on the simplex."""
    rng = np.random.default_rng(seed)
    W2 = rng.uniform(0.2, 1.0, (m, r2))
    H2 = rng.uniform(0.2, 1.0, (r2, r1))
    H2 /= H2.sum(axis=1, keepdims=True)
    H1 = rng.uniform(0.2, 1.0, (r1, n))
    H1 /= H1.sum(axis=1, keepdims=True)
    W1 = W2 @ H2
    X = W1 @ H1
    return X, [W1, W2], [H1, H2]


def sparse_simplex_rows(rng, rows, cols, density):
    H = np.zeros((rows, cols))
    for i in range(rows):
        k = max(2, int(density * cols))
        idx = rng.choice(cols, size=k, replace=False)
        H[i, idx] = rng.uniform(0.2, 1.0, size=k)
        H[i] /= H[i].sum()
    return H


def sparse_chain_data(seed, m=200, n=100, ranks=(20, 10, 5)):
    """Data generated from a sparse three-layer chain (exactly factorizable)."""
    rng = np.random.default_rng(seed)
    W3 = rng.uniform(0.1, 1.0, (m, ranks[2]))
    H3 = sparse_simplex_rows(rng, ranks[2], ranks[1], 0.4)
    H2 = sparse_simplex_rows(rng, ranks[1], ranks[0], 0.35)
    H1 = sparse_simplex_rows(rng, ranks[0], n, 0.3)
    return (W3 @ H3 @ H2) @ H1


def hyperspectral_mixture(seed, scale=0.12, bands=20, pixels=2500, r=3):
    """Linear mixture of r smooth spectra with Dirichlet abundances.

    Returns (X, S): X is bands x pixels with column mass ``scale``; the
    ground-truth spectra S (bands x r) have unit column sums.  Bump centers
    are well separated so the endmembers are distinguishable.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, bands)
    centers = np.linspace(0.2, 0.8, r) + rng.uniform(-0.05, 0.05, r)
    S = np.empty((bands, r))
    for k in range(r):
        width = rng.uniform(0.08, 0.14)
        S[:, k] = 0.15 + np.exp(-0.5 * ((grid - centers[k]) / width) ** 2)
        S[:, k] += 0.1 * rng.uniform(size=bands)
    S /= S.sum(axis=0, keepdims=True)
    abundances = rng.dirichlet(0.25 * np.ones(r), size=pixels).T
    return scale * (S @ abundances), S


def best_permutation_cosine(W_est, S_true):
    """Mean column cosine similarity under the best column permutation."""
    r = S_true.shape[1]
    best = -1.0
    for perm in itertools.permutations(range(r)):
        cos = np.mean(
            [
                W_est[:, perm[k]]
                @ S_true[:, k]
                / (np.linalg.norm(W_est[:, perm[k]]) * np.linalg.norm(S_true[:, k]))
                for k in range(r)
            ]
        )
        best = max(best, cos)
    return float(best)


@contextlib.contextmanager
def recorded_solves(module):
    """Record every multiplier solve that ``module`` runs.

    Yields a list that gets one entry per ``solve_multipliers`` call: the
    (mu, f) pairs of its evaluations, in order, the first at the start.
    """
    real = module.solve_multipliers
    solves = []

    def recording(f_df, start, tol):
        points = []
        solves.append(points)

        def f_df_recorded(mu):
            f, df = f_df(mu)
            points.append((np.array(mu), np.array(f)))
            return f, df

        return real(f_df_recorded, start, tol)

    with mock.patch.object(module, "solve_multipliers", recording):
        yield solves


def assert_started_left_and_rose(solves, rel=1e-12):
    """Each solve started where f >= 0 and its iterates did not decrease,
    both up to rounding relative to the size of the iterates."""
    assert solves
    for points in solves:
        mus = np.array([mu for mu, _ in points])
        assert np.all(points[0][1] >= -rel)
        size = np.abs(mus).max(axis=0)
        assert np.all(np.diff(mus, axis=0) >= -rel * size)
