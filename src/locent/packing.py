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
from .errors import CapExceeded, EmptyPool, NonmemberCenter
from .points import Ball, as_coords
from .seeds import rng_for

EXHAUSTIVE_CAP = 24
GRAM_LIMIT = 4500


def greedy_select(body: ConvexBody, points: np.ndarray, separation: float, start: int = 0):
    """Farthest-point greedy over explicit candidate rows.

    Starts from ``points[start]``; repeatedly adds the candidate whose minimum
    distance to the selected set is largest, while that distance strictly
    exceeds ``separation``.  Ties go to the lowest row index.  Returns the
    selected row indices; on exit every candidate is within ``separation`` of
    a selected row (pool-maximality).

    For moderate pools the pairwise distances come from one Gram matmul;
    acceptances within a tiny band of the separation are re-verified with
    directly computed distances so the strict-separation invariant never
    rests on matmul rounding.
    """
    n = len(points)
    use_gram = n <= GRAM_LIMIT
    if use_gram:
        sq = np.einsum("ij,ij->i", points, points)
        gram = points @ points.T
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        D = body.metric_scale * np.sqrt(d2)
        row = lambda i: D[i]
    else:
        row = lambda i: dist_rows(body, points, points[i])
    band = 1e-6 * max(separation, 1.0)
    chosen = [start]
    mind = row(start).copy()
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= separation:
            return chosen
        if use_gram and mind[far] - separation < band:
            exact = dist_rows(body, points[np.asarray(chosen)], points[far]).min()
            if exact <= separation:
                mind[far] = exact
                continue
        chosen.append(far)
        mind = np.minimum(mind, row(far))


def build_pool(
    body: ConvexBody,
    ball: Ball,
    pool_seed: int,
    pool_size: int,
    extra_candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Seeded candidate pool inside ball-and-class.

    Pool = projected ball center + sampled members contracted into the ball
    + local Gaussian proposals projected onto the body and contracted
    + optional structured extras (already members), contracted.
    """
    center = body.project_rows(ball.center.coords[None, :])[0]
    rng = rng_for(pool_seed, "pool")
    rows = [center[None, :]]
    if pool_size >= 1:
        n_local = pool_size // 2
        n_global = pool_size - n_local
        if n_global:
            rows.append(body.sample_rows(n_global, rng))
        if n_local and ball.radius > 0:
            # proposals at the ball's own scale keep fine stages resolvable
            coord_scale = ball.radius / body.metric_scale
            g = rng.standard_normal((n_local, body.dim))
            spread = 0.3 + 1.2 * rng.random(n_local)
            raw = center[None, :] + g * (coord_scale * spread / np.sqrt(body.dim))[:, None]
            rows.append(body.feasible_rows(raw))
    if extra_candidates is not None and len(extra_candidates):
        rows.append(np.atleast_2d(np.asarray(extra_candidates, dtype=np.float64)))
    return pull_into_ball(body, np.vstack(rows), center, ball.radius)


def greedy_max_packing(
    body: ConvexBody,
    ball: Ball,
    separation: float,
    pool_seed: int,
    pool_size: int,
    extra_candidates: np.ndarray | None = None,
    validate: bool = False,
) -> np.ndarray:
    """Pool-maximal greedy packing of ball-and-class at strict separation.

    Returns the centers as a ``(k, dim)`` array of pool rows in selection
    order.  Deterministic given (body, ball, separation, pool_seed,
    pool_size, extras).  The first center is the ball center projected into
    the class.
    """
    if not 0 < separation < np.inf:
        raise ValueError("separation must be positive and finite")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not body.contains(ball.center):
        raise NonmemberCenter("ball center fails class membership")
    pool = build_pool(body, ball, pool_seed, pool_size, extra_candidates)
    if len(pool) == 0:
        raise EmptyPool("no pool candidate lies in ball and class")
    if validate:
        # contraction of members toward a member stays in the convex body,
        # so this only guards against numerical surprises
        keep = np.array([body.contains_coords(r) for r in pool])
        if not keep.all():
            pool = pool[keep]
        if len(pool) == 0:
            raise EmptyPool("no pool candidate lies in ball and class")
    # a non-finite row would keep the farthest-point loop from ever stopping
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
