"""Euclidean projections used by the class bodies.

All routines operate on plain float64 arrays.  Batch variants accept a
``(k, dim)`` matrix and project every row; they are the hot path for packing
pools, so they avoid per-row Python loops where possible.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

ABS_TOL = 1e-10
MAX_ITER = 10_000
_NEWTON_MAX_ITER = 100


def project_l1_ball_rows(X: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise projection of a (k, dim) matrix onto the l1 ball of a radius.

    Sort-based soft-thresholding (Duchi et al. style): find the shift theta
    such that sum(max(|x|-theta, 0)) = radius and apply it with signs.
    """
    X = np.asarray(X, dtype=np.float64)
    inside = np.abs(X).sum(axis=1) <= radius
    out = X.copy()
    if not inside.all():
        out[~inside] = _l1_rows(X[~inside], radius)
    return out


def _l1_rows(X: np.ndarray, radius: float) -> np.ndarray:
    a = np.abs(X)
    s = np.sort(a, axis=1)[:, ::-1]
    csum = np.cumsum(s, axis=1) - radius
    idx = np.arange(1, X.shape[1] + 1)
    cond = s - csum / idx > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = csum[np.arange(len(X)), rho] / (rho + 1)
    return np.sign(X) * np.maximum(a - theta[:, None], 0.0)


def _secular_root(Z: np.ndarray, d: np.ndarray, b: float) -> np.ndarray:
    """Per row of Z, the lam >= 0 with sum d z^2 / (1 + lam d)^2 = b^2.

    Every row must lie outside, g(0) > b^2.  This is the trust-region
    secular equation: with g(lam) the left side, phi = g^(-1/2) - 1/b is
    convex and decreasing in lam, so Newton from lam = 0 rises
    monotonically to the root (More & Sorensen, SIAM J. Sci. Stat. Comput.
    1983).  A row leaves the active set once its step no longer moves lam.
    """
    w = Z * Z * d
    lam = np.zeros(len(Z))
    active = np.arange(len(Z))
    for _ in range(_NEWTON_MAX_ITER):
        la = lam[active]
        t = 1.0 / (1.0 + la[:, None] * d)
        wt2 = w[active] * t * t
        g = wt2.sum(axis=1)
        # Newton step on phi: (sqrt(g)/b - 1) g / (-g'/2)
        new = la + g * (np.sqrt(g) / b - 1.0) / (wt2 * t * d).sum(axis=1)
        moved = new > la
        lam[active[moved]] = new[moved]
        active = active[moved]
        if not len(active):
            return lam
    raise NoConvergence(f"secular Newton still moving after {_NEWTON_MAX_ITER} steps")


def project_ellipsoid_rows(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise projection onto {theta : sum theta_i^2 / a_i <= 1} (a_i > 0).

    KKT gives theta_i = x_i a_i / (a_i + lam), where the multiplier solves
    sum x_i^2 a_i / (a_i + lam)^2 = 1: the secular equation with d = 1/a.
    """
    X = np.asarray(X, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    outside = (X * X / a).sum(axis=1) > 1.0 + 1e-15
    out = X.copy()
    if outside.any():
        Y = X[outside]
        lam = _secular_root(Y, 1.0 / a, 1.0)
        out[outside] = Y * a / (a + lam[:, None])
    return out


def isotonic_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise non-decreasing isotonic regression of a (k, m) matrix.

    Pool-adjacent-violators over all rows at once.  A flag marks where each
    block of the flattened array starts; every round takes all block means
    and merges each block whose mean lies below its left neighbour's, unless
    it starts a row.  Pooling any adjacent violating pair is safe and the
    solution is unique, so the order of merges does not matter.  The loop
    ends when no row has a violating pair, so the output is exactly
    non-decreasing and non-decreasing input comes back unchanged.  A round
    costs O(k m); a row needs at most m - 1 rounds.
    """
    X = np.asarray(X, dtype=np.float64)
    k, m = X.shape
    flat = X.ravel()
    row_start = np.zeros(flat.size, dtype=bool)
    row_start[::m] = True
    start = np.ones(flat.size, dtype=bool)
    while True:
        idx = np.flatnonzero(start)
        size = np.diff(idx, append=flat.size)
        mean = np.add.reduceat(flat, idx) / size
        pool = (mean[1:] < mean[:-1]) & ~row_start[idx[1:]]
        if not pool.any():
            return np.repeat(mean, size).reshape(k, m)
        start[idx[1:][pool]] = False


def project_monotone_box_1d_rows(X: np.ndarray) -> np.ndarray:
    """Exact row-wise projection onto non-decreasing vectors in [0, 1]^dim.

    Clipping an isotonic regression to constant bounds preserves optimality,
    so PAVA followed by a clip is the exact projection for the 1-D chain.
    """
    return np.clip(isotonic_rows(X), 0.0, 1.0)


def project_quad_ball_rows(X: np.ndarray, evecs: np.ndarray, evals: np.ndarray, bound: float) -> np.ndarray:
    """Row-wise projection onto {f : ||A f||_2 <= bound} given the eigensystem
    of A^T A.

    f = (I + lam A^T A)^{-1} x with lam >= 0 solving ||A f|| = bound when x is
    infeasible; in the eigenbasis z = evecs^T x this is the secular equation
    sum d z^2 / (1 + lam d)^2 = bound^2 with d = evals.
    """
    X = np.asarray(X, dtype=np.float64)
    Z = X @ evecs
    outside = (Z * Z * evals).sum(axis=1) > bound * bound + 1e-15
    out = X.copy()
    if outside.any():
        Zo = Z[outside]
        lam = _secular_root(Zo, evals, bound)
        out[outside] = (Zo / (1.0 + lam[:, None] * evals)) @ evecs.T
    return out


def dykstra(x: np.ndarray, projectors, tol: float = ABS_TOL, max_iter: int = MAX_ITER) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of convex sets.

    ``x`` is a (k, dim) batch of rows and ``projectors`` is a sequence of
    callables mapping (k, dim) -> (k, dim).  Raises NoConvergence when the
    cycle-to-cycle residual stays above ``tol`` after ``max_iter`` cycles.
    """
    y = np.asarray(x, dtype=np.float64)
    increments = [np.zeros_like(y) for _ in projectors]
    for _ in range(max_iter):
        prev = y.copy()
        for j, proj in enumerate(projectors):
            z = y + increments[j]
            y = proj(z)
            increments[j] = z - y
        if np.max(np.abs(y - prev)) < tol:
            return y
    raise NoConvergence(f"Dykstra residual above {tol} after {max_iter} cycles")
