"""Greedy maximal packings and an exhaustive small-instance oracle.

A packing at separation ``sep`` is a set of members with all pairwise
distances strictly greater than ``sep``.  True maximal packings of a
continuous body are uncomputable, so the greedy routine is maximal relative
to a seeded candidate pool: after it stops, every pool candidate is within
``sep`` of some center.  The exhaustive routine finds a maximum-cardinality
packing of an explicit candidate list by branch and bound and serves as the
oracle for the greedy one.
"""

from __future__ import annotations

import numpy as np

from .bodies import ConvexBody, dist_rows, pull_into_ball
from .errors import CapExceeded, DimensionMismatch, EmptyPool, NonmemberCenter
from .points import as_coords
from .seeds import rng_for

EXHAUSTIVE_CAP = 24
# rows per Gram block: 128 rows of float64 against a 1,800-row pool (1.8 MB) stay in L2
SCREEN_BLOCK = 128


def greedy_select(body: ConvexBody, points: np.ndarray, separation: float, start: int = 0):
    """Pool-maximal strictly separated subset of explicit candidate rows.

    Two rows conflict when their distance is at most ``separation``.  Rows
    without a conflict are kept; the others are walked once, ``points[start]``
    first and then by decreasing distance from it (ties by index), each kept
    unless it conflicts with a row already kept.  Returns the kept indices in
    ascending order; every candidate is within ``separation`` of one of them.

    Each pair is screened once, on the rows centered on ``points[start]``:
    ``|x|^2 + |y|^2 - 2 x.y`` against ``(separation / metric_scale)^2``.  A
    block of ``SCREEN_BLOCK`` rows is screened against itself and every later
    row and writes straight into the conflict matrix.  Nothing is mirrored,
    so a row's conflicts are its row of the matrix or its column.  Gram,
    centering and ``dist_rows`` rounding stay below
    ``(2 dim + 8) eps (|x|^2 + |y|^2 + threshold)``.  A pair below the
    threshold by more than that band is a conflict and one above it by more
    is not; when a block has more pairs below ``+band`` than below ``-band``,
    the pairs in between are decided by ``dist_rows``.  So every decision
    agrees with ``dist_rows``, whatever the BLAS rounding.
    """
    n, dim = points.shape
    x = points - points[start]
    sq = np.einsum("ij,ij->i", x, x)
    thr = (separation / body.metric_scale) ** 2
    # one band for all pairs: the largest |x|^2 bounds every |x|^2 + |y|^2
    band = (2 * dim + 8) * np.finfo(np.float64).eps * (2.0 * sq.max() + thr)
    conflict = np.zeros((n, n), dtype=bool)
    for lo in range(0, n, SCREEN_BLOCK):
        hi = min(lo + SCREEN_BLOCK, n)
        d2 = (-2.0 * x[lo:hi]) @ x[lo:].T
        d2 += sq[lo:]
        d2 += (sq[lo:hi] - thr)[:, None]  # now squared distance - threshold
        hit = conflict[lo:hi, lo:]
        np.less(d2, -band, out=hit)  # sure conflicts
        maybe = d2 <= band
        if np.count_nonzero(maybe) != np.count_nonzero(hit):
            near_i, near_j = np.nonzero(maybe ^ hit)  # hit is a subset of maybe
            for c in range(0, len(near_i), SCREEN_BLOCK):
                i, j = near_i[c:c + SCREEN_BLOCK], near_j[c:c + SCREEN_BLOCK]
                hit[i, j] = dist_rows(body, points[lo + i], points[lo + j]) <= separation
        np.fill_diagonal(hit, False)  # a row does not conflict with itself
    order = np.argsort(-dist_rows(body, points, points[start]), kind="stable")
    order = np.concatenate(([start], order[order != start]))
    free = np.ones(n, dtype=bool)
    for i in order[(conflict.any(axis=1) | conflict.any(axis=0))[order]]:
        if free[i]:
            free &= ~(conflict[i] | conflict[:, i])
    return np.flatnonzero(free)


def build_pool(
    body: ConvexBody,
    center: np.ndarray,
    radius: float,
    pool_seed: int,
    pool_size: int,
    extra_candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Seeded candidate pool inside the ball B(center, radius) and the class.

    Pool = projected center + sampled members contracted into the ball
    + local Gaussian proposals projected onto the body and contracted
    + optional structured extras (already members), contracted.
    """
    center = body.project_rows(center[None, :])[0]
    rng = rng_for(pool_seed, "pool")
    rows = [center[None, :]]
    if pool_size >= 1:
        n_local = pool_size // 2
        n_global = pool_size - n_local
        if n_global:
            rows.append(body.sample_rows(n_global, rng))
        if n_local and radius > 0:
            # proposals at the ball's own scale keep fine stages resolvable
            coord_scale = radius / body.metric_scale
            g = rng.standard_normal((n_local, body.dim))
            spread = 0.3 + 1.2 * rng.random(n_local)
            raw = center[None, :] + g * (coord_scale * spread / np.sqrt(body.dim))[:, None]
            rows.append(body.feasible_rows(raw))
    if extra_candidates is not None and len(extra_candidates):
        rows.append(np.atleast_2d(np.asarray(extra_candidates, dtype=np.float64)))
    return pull_into_ball(body, np.vstack(rows), center, radius)


def greedy_max_packing(
    body: ConvexBody,
    center: np.ndarray,
    radius: float,
    separation: float,
    pool_seed: int,
    pool_size: int,
    extra_candidates: np.ndarray | None = None,
    validate: bool = False,
) -> np.ndarray:
    """Pool-maximal greedy packing of B(center, radius) and the class at
    strict separation; ``center`` is a member's coordinate row.

    Returns the centers as a ``(k, dim)`` array of pool rows in pool order,
    selected by ``greedy_select``.  Deterministic given (body, center,
    radius, separation, pool_seed, pool_size, extras).  The first center is
    the ball center projected into the class.
    """
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (body.dim,):
        raise DimensionMismatch(f"expected dim {body.dim}, got {center.shape}")
    if not np.isfinite(center).all():
        raise ValueError("ball center must be finite")
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be nonnegative and finite")
    if not 0 < separation < np.inf:
        raise ValueError("separation must be positive and finite")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not body.contains_coords(center):
        raise NonmemberCenter("ball center fails class membership")
    pool = build_pool(body, center, radius, pool_seed, pool_size, extra_candidates)
    if validate:
        # contraction of members toward a member stays in the convex body,
        # so this only guards against numerical surprises
        pool = pool[np.array([body.contains_coords(r) for r in pool], dtype=bool)]
    if len(pool) == 0:
        raise EmptyPool("no pool candidate lies in ball and class")
    # a non-finite row would screen as conflict-free and be kept as a center
    if not np.isfinite(pool).all():
        raise ValueError("pool candidates must be finite")
    centers = pool[greedy_select(body, pool, separation, start=0)]
    if validate:
        pair = dist_rows(body, centers[:, None, :], centers)
        if not (pair[np.triu_indices(len(centers), k=1)] > separation).all():
            raise RuntimeError("greedy packing centers are not strictly separated")
        mind = np.full(len(pool), np.inf)
        for row in centers:
            mind = np.minimum(mind, dist_rows(body, pool, row))
        if mind.max() > separation + 1e-12:
            raise RuntimeError("greedy packing is not maximal in its pool")
    return centers


def exhaustive_max_packing(
    body: ConvexBody,
    candidates,
    separation: float,
    cap: int = EXHAUSTIVE_CAP,
) -> np.ndarray:
    """Maximum-cardinality strictly separated subset of explicit candidates.

    Branch and bound over the conflict graph; among maximum subsets the one
    preferring lexicographically smaller coordinate vectors is returned, as
    a ``(k, dim)`` array of its rows in lexicographic order.  Intended for
    candidate lists of at most ``cap`` points.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    pts = np.stack([as_coords(c) for c in candidates])
    n = len(pts)
    if n > cap:
        raise CapExceeded(f"{n} candidates exceed cap {cap}")
    order = sorted(range(n), key=lambda i: tuple(pts[i]))
    pts = pts[order]
    compat = dist_rows(body, pts[:, None, :], pts) > separation  # strict
    np.fill_diagonal(compat, False)
    # bitmask of candidates compatible with vertex i
    masks = [sum(1 << j for j in range(n) if compat[i, j]) for i in range(n)]

    best: list[int] = []

    def search(chosen: list[int], avail: int):
        nonlocal best
        if len(chosen) + bin(avail).count("1") <= len(best):
            return
        if avail == 0:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        v = (avail & -avail).bit_length() - 1  # lowest available vertex
        rest = avail & ~(1 << v)
        # include-first in lexicographic vertex order
        chosen.append(v)
        search(chosen, rest & masks[v])
        chosen.pop()
        search(chosen, rest)

    search([], (1 << n) - 1)
    return pts[sorted(best)]
