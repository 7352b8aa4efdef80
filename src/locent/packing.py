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

from .bodies import ConvexBody, _norm_rows, dist_rows, pull_into_ball
from .seeds import rng_for

EXHAUSTIVE_CAP = 24
# rows per screen block: one float32 matmul of 128 rows against a window of at
# most a 1,800-row pool writes 0.9 MB at most, which the comparison reads from L2
SCREEN_BLOCK = 128
U32 = 2.0 ** -24  # float32 unit roundoff


def greedy_select(body: ConvexBody, points: np.ndarray, separation: float, start: int = 0):
    """Pool-maximal strictly separated subset of explicit candidate rows.

    Two rows conflict when their distance is at most ``separation``.  Rows
    without a conflict are kept; the others are walked once, ``points[start]``
    first and then by decreasing distance from it (ties by index), each kept
    unless it conflicts with a row already kept.  Returns the kept indices in
    ascending order; every candidate is within ``separation`` of one of them.

    Each pair is screened at most once, in float32, on the rows centered on
    ``points[start]`` in float64 and scaled, threshold too, by the power of
    two that brings the largest ``|x|^2`` into [0.25, 1).  The scaling is
    exact and keeps float32 from overflowing or underflowing at any radius
    or offset.  No scaled ``|x - y|`` reaches 2, so a scaled separation
    above 3 is cut to 3 without changing a decision.  With the rows
    ``a = [-2x, 1, |x|^2 - threshold]`` and ``b = [y, |y|^2, 1]``, one
    ``K = dim + 2`` term product ``a.b`` is the squared distance less the
    threshold ``(separation / metric_scale)^2``.

    The rows are screened in order of ``rad``, their ``dist_rows`` to the
    start (ties by index).  Rows whose distances to the start differ by more
    than ``separation`` do not conflict (triangle inequality), so a block of
    ``SCREEN_BLOCK`` sorted rows is multiplied against its window alone:
    itself and the later rows with ``rad <= rad[last row of the block] +
    separation + margin``, every later row when all sit at one distance.

    With ``v = 2^-53`` and ``R = max rad``, each float64 distance is within
    ``(dim / 2 + 3) v`` of its exact value, relatively (``2 v`` from squaring
    the rounded differences and ``dim v`` from their sum, halved by the root;
    ``v`` from the root, ``v`` from ``metric_scale``).  A pair cut off has
    ``rad_j > fl(fl(rad_i + separation) + margin)``, and its exact distance is
    at least the difference of its exact distances to the start.  So it is a
    conflict by ``dist_rows`` only if ``margin`` is at most ``2 v (R +
    separation)`` from the two additions, plus ``(dim + 6) v R`` from
    ``rad_i`` and ``rad_j``, plus ``(dim / 2 + 3) v separation`` from
    ``dist_rows``: less than ``(dim + 8) v (R + separation)`` in all.
    ``margin = (dim + 16) v (R + separation)`` leaves the other half to the
    second-order terms.  Its ``2^-500`` covers squares that underflow, each
    off by ``2^-1075`` absolutely, which moves a distance by at most
    ``metric_scale sqrt(dim 2^-1074)`` (``metric_scale <= 1``, ``dim < 2^70``).
    The pairs ``i < j`` of a window within the band below are the block's
    candidate edges.

    With ``u = 2^-24``, ``S = |x|^2 + |y|^2`` and ``B = 2 max|x|^2 +
    threshold >= S + threshold``, the screened value differs from the exact
    scaled squared distance less the threshold by at most

    * ``4 u S`` from rounding the coordinates to float32;
    * ``dim u S`` from the two squared norms, each within ``gamma_dim`` of
      its sum of absolute terms in any summation order (Higham, Accuracy
      and Stability, 3.1);
    * ``(2 dim + 4) u B`` from the product, within ``gamma_K`` of its
      ``sum |a_t b_t| = 2 sum |x_t y_t| + |y|^2 + ||x|^2 - threshold|
      <= 2 S + threshold <= 2 B``;
    * ``u B`` from rounding ``|x|^2 - threshold`` and ``u B`` from rounding
      the threshold to float32;

    and the float64 steps (centering, threshold, ``dist_rows``) round by
    less than ``(2 dim + 8) 2^-52 B <= u B``.  The band
    ``(3 dim + 16) u B / (1 - 4 K u)`` covers that sum; the ``5 u B`` it has
    to spare takes float32 subnormals (below ``2^-149`` per term against
    ``B >= 0.5``; rows all equal to the start round to exact zeros) and the
    rounding of the band itself, and the division the second-order terms.
    A pair screened below ``-band`` is a conflict and one above ``+band`` is
    not; the candidates in between are decided by ``dist_rows``.  So every
    decision agrees with ``dist_rows``, whatever the BLAS rounding.

    Each block's conflicts are kept as an edge list of pool indices.  Only
    rows with an edge are walked, ordered by ``rad`` among themselves (the
    same values and stable order as a sort of every row).  Their
    conflicts are stored both ways round in a matrix over those rows alone,
    so the walk reads each kept row's conflicts as one row.  Memory is 16
    bytes per conflict and one byte per pair of walked rows, besides the
    blocks.
    """
    n, dim = points.shape
    x = points - points[start]
    rad = _norm_rows(body, x)  # the bits of dist_rows(body, points, points[start])
    perm = np.argsort(rad, kind="stable")
    rs = rad[perm]
    margin = (dim + 16) * 2.0 ** -53 * (rs[-1] + separation) + 2.0 ** -500
    reach = np.searchsorted(rs, rs + separation + margin, side="right")
    top = np.einsum("ij,ij->i", x, x).max()
    scale = np.ldexp(1.0, -np.frexp(top)[1] // 2) if top > 0 else 1.0
    x *= scale
    x = x.astype(np.float32)
    x = x[perm]  # after the float64 rows are freed: no more memory than the cast
    sq = np.einsum("ij,ij->i", x, x)
    thr = np.float32(min(separation / body.metric_scale * scale, 3.0) ** 2)
    # one band for all pairs: the largest |x|^2 bounds every |x|^2 + |y|^2
    band = np.float32((3 * dim + 16) * U32 / (1 - 4 * (dim + 2) * U32)
                      * (2.0 * float(sq.max()) + float(thr)))
    a = np.empty((n, dim + 2), dtype=np.float32)
    np.multiply(x, -2.0, out=a[:, :dim])
    a[:, dim] = 1.0
    a[:, dim + 1] = sq - thr
    bt = np.empty((dim + 2, n), dtype=np.float32)
    bt[:dim] = x.T
    bt[dim] = sq
    bt[dim + 1] = 1.0
    upper = np.triu(np.ones((SCREEN_BLOCK, SCREEN_BLOCK), dtype=bool), 1)
    walked = np.zeros(n, dtype=bool)
    edges = []
    for lo in range(0, n, SCREEN_BLOCK):
        end = reach[min(lo + SCREEN_BLOCK, n) - 1]
        d2 = a[lo:lo + SCREEN_BLOCK] @ bt[:, lo:end]  # squared distance - threshold
        near = d2 <= band
        near[:, :len(d2)] &= upper[:len(d2), :len(d2)]  # pairs i < j
        near = np.flatnonzero(near)
        hit = d2.ravel()[near] < -band  # sure conflicts
        i, j = np.divmod(near, end - lo)
        i, j = perm[lo + i], perm[lo + j]
        unsure = np.flatnonzero(~hit)
        for c in range(0, len(unsure), SCREEN_BLOCK):
            k = unsure[c:c + SCREEN_BLOCK]
            hit[k] = dist_rows(body, points[i[k]], points[j[k]]) <= separation
        i, j = i[hit], j[hit]
        walked[i] = walked[j] = True
        edges.append((i, j))
    rows = np.flatnonzero(walked)
    at = np.cumsum(walked) - 1  # position of a walked row in rows
    conflict = np.zeros((len(rows), len(rows)), dtype=bool)
    for i, j in edges:
        conflict[at[i], at[j]] = conflict[at[j], at[i]] = True
    order = np.argsort(-rad[rows], kind="stable")
    if walked[start]:
        order = np.concatenate(([at[start]], order[order != at[start]]))
    kept = np.ones(len(rows), dtype=bool)
    for k in order.tolist():
        if kept[k]:
            kept[conflict[k]] = False
    free = ~walked
    free[rows[kept]] = True
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
        raise ValueError(f"expected dim {body.dim}, got {center.shape}")
    if not np.isfinite(center).all():
        raise ValueError("ball center must be finite")
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be nonnegative and finite")
    if not 0 < separation < np.inf:
        raise ValueError("separation must be positive and finite")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not body.contains_coords(center):
        raise ValueError("ball center fails class membership")
    pool = build_pool(body, center, radius, pool_seed, pool_size, extra_candidates)
    # contraction of members toward a member stays in the convex body, so
    # this only guards against numerical surprises
    if validate and not all(body.contains_coords(r) for r in pool):
        raise RuntimeError("greedy packing pool holds a nonmember row")
    # a non-finite row would screen as conflict-free and be kept as a center
    if not np.isfinite(pool).all():
        raise ValueError("pool candidates must be finite")
    kept = greedy_select(body, pool, separation, start=0)
    if validate:
        # one center at a time against the pool: its distances to the later
        # centers check separation, and the running minimum maximality; the
        # selection's decisions are these dist_rows bits, so both are exact
        mind = np.full(len(pool), np.inf)
        for k, i in enumerate(kept):
            d = dist_rows(body, pool, pool[i])
            if not (d[kept[k + 1:]] > separation).all():
                raise RuntimeError("greedy packing centers are not strictly separated")
            mind = np.minimum(mind, d)
        if mind.max() > separation:
            raise RuntimeError("greedy packing is not maximal in its pool")
    return pool[kept]


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
    pts = np.asarray(candidates, dtype=np.float64)
    n = len(pts)
    if n > cap:
        raise ValueError(f"{n} candidates exceed cap {cap}")
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
