"""Reference implementations the tests check the library against.

None of these is on a path that a command or the sweep runs:

* ``exhaustive_max_packing``: maximum-cardinality packings of an explicit
  candidate list by branch and bound, the oracle for the greedy packings;
* ``exact_local_entropy``: local entropy profiles exact on a finite
  candidate restriction, built on the exhaustive packing;
* ``pairwise_test_psi``: the residual-comparison test on one data set,
  which the test-error Monte Carlo check draws through its gap alone;
* ``grid_test_error_probability``: that test's exact probability of
  psi = 1 on a grid class under gaussian noise, the oracle for the
  test-error Monte Carlo check;
* ``Singleton`` and ``scaled``: a one-point width set and a width set
  scaled by a positive factor.
"""

import copy
import itertools
import math

import numpy as np

from locent.bodies import ConvexBody, dist, dist_rows
from locent.entropy import EntropyProfile
from locent.estimator import RegressionData
from locent.harness import _psi_from_gap
from locent.widths import WidthSet

EXHAUSTIVE_CAP = 24


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


def exact_local_entropy(
    body: ConvexBody,
    candidates,
    eps_grid,
    c: float,
    center=None,
) -> EntropyProfile:
    """Exact local entropy of the finite restriction given by ``candidates``.

    For each eps the largest (eps/c)-packing of candidates within the eps
    ball is found by branch and bound; the profile is adaptive at ``center``,
    or global with the sup ranging over the candidates themselves.
    """
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    pts = np.asarray(candidates, dtype=np.float64)
    eps_grid = np.asarray(sorted(eps_grid), dtype=np.float64)
    ctr = None if center is None else body.point(center)
    centers = pts if ctr is None else np.atleast_2d(ctr)
    log_m = np.zeros(len(eps_grid))
    for i, eps in enumerate(eps_grid):
        best = 0
        for row in centers:
            inside = pts[dist_rows(body, pts, row) <= eps]
            if len(inside) == 0:
                continue
            pack = exhaustive_max_packing(body, inside, float(eps) / c)
            best = max(best, len(pack))
        log_m[i] = np.log(max(best, 1))
    return EntropyProfile(c=float(c), eps=eps_grid, log_m=log_m, center=ctr,
                          pool_size=len(pts), seed=0)


def pairwise_test_psi(body: ConvexBody, f, g, data: RegressionData) -> bool:
    """psi(Y) = 1 iff the residual sum of squares at f is >= that at g.

    Decided from the gap rss_f - rss_g = sum_i u(x_i) (2 y_i - s(x_i)) with
    u = g - f and s = f + g; a tie gives psi = 1 even when rounding puts the
    computed gap just below zero.
    """
    body.check_design(data.x)
    fc, gc = np.asarray(f, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if dist(body, fc, gc) == 0.0:
        raise ValueError("test needs two distinct hypotheses")
    x = data.x
    # node indices are nonnegative, so |x| evaluates magnitudes on every kind
    u, s = body.evaluate(x, gc - fc), body.evaluate(x, fc + gc)
    mu = body.evaluate(np.abs(x), np.abs(fc) + np.abs(gc))
    gap = float(u @ (2.0 * data.y - s))
    mag = float(mu @ (2.0 * np.abs(data.y) + mu))
    return bool(_psi_from_gap(gap, mag, data.n, body.dim))


def grid_test_error_probability(body: ConvexBody, f, g, truth, sigma: float, n: int) -> float:
    """P(psi = 1) on n observations of a grid class under gaussian noise.

    Given the node counts c ~ Multinomial(n, uniform), the gap rss_f - rss_g
    is N(sum_j c_j u_j (2 t_j - s_j), 4 sigma^2 sum_j c_j u_j^2) with
    u = g - f, s = f + g and t the truth.  So P(psi = 1) is Phi(mean / sd)
    averaged over every c, enumerated.  u must be nonzero at every node, so
    that sd > 0 and no gap is a tie.
    """
    fc, gc = np.asarray(f, dtype=np.float64), np.asarray(g, dtype=np.float64)
    u = gc - fc
    if not np.all(u != 0.0) or sigma <= 0:
        raise ValueError("need g - f nonzero at every node and sigma > 0")
    shift = u * (2.0 * np.asarray(truth, dtype=np.float64) - (fc + gc))
    k = body.dim
    total = 0.0
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        c = np.diff((-1, *bars, n + k - 1)) - 1  # stars and bars: one composition of n
        ways = math.factorial(n) // math.prod(math.factorial(int(j)) for j in c)
        z = (c * shift).sum() / (2.0 * sigma * np.sqrt((c * u * u).sum()))
        total += ways / k ** n * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return total


class Singleton(WidthSet):
    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)
        self.p = len(self.x)
        self.scale = 1.0
        self.name = f"singleton(p={self.p})"

    def support_rows(self, G):
        return G @ self.x


def scaled(width_set: WidthSet, alpha: float) -> WidthSet:
    if alpha <= 0:
        raise ValueError("scale must be positive")
    out = copy.copy(width_set)
    out.scale = width_set.scale * alpha
    out.name = f"{alpha}*{width_set.name}"
    return out
