"""Gaussian widths, statistical dimension, and the Sudakov packing bound.

The width of a set T is the expected supremum of <t, g> over T for a
standard Gaussian g.  Every set descriptor here has an exact per-draw
support-function oracle, so Monte Carlo estimates under common random
numbers are exactly monotone for nested sets and exactly homogeneous under
scaling.  The l1 tangent-cone descriptor solves its support function through
the polar: sup over cone-and-ball equals the distance from g to the scaled
subdifferential, minimized over the scale, which is piecewise quadratic and
solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InnerOptFailure


@dataclass
class WidthEstimate:
    value: float
    std_error: float
    draws: int
    set: str  # the width set's name


class WidthSet:
    """A set with an exact support-function oracle sup_{t in T} <t, g>."""

    name: str = ""
    p: int = 0
    scale: float = 1.0

    def support_rows(self, G: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, alpha: float) -> "WidthSet":
        import copy

        if alpha <= 0:
            raise ValueError("scale must be positive")
        out = copy.copy(self)
        out.scale = self.scale * alpha
        out.name = f"{alpha}*{self.name}"
        return out


class L2Ball(WidthSet):
    def __init__(self, p: int, radius: float = 1.0):
        self.p, self.scale, self.name = p, radius, f"l2_ball(p={p},r={radius})"

    def support_rows(self, G):
        return np.linalg.norm(G, axis=1)


class L1Ball(WidthSet):
    def __init__(self, p: int, radius: float = 1.0):
        self.p, self.scale, self.name = p, radius, f"l1_ball(p={p},r={radius})"

    def support_rows(self, G):
        return np.abs(G).max(axis=1)


class Box(WidthSet):
    """Axis-aligned box prod [lo_i, hi_i]."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        self.p = len(self.lo)
        self.scale = 1.0
        self.name = f"box(p={self.p})"

    def support_rows(self, G):
        return np.maximum(G * self.lo[None, :], G * self.hi[None, :]).sum(axis=1)


class Ellipsoid(WidthSet):
    """{theta : sum theta_i^2 / a_i <= 1}; support = sqrt(sum a_i g_i^2)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.p = len(self.a)
        self.scale = 1.0
        self.name = f"ellipsoid(p={self.p})"

    def support_rows(self, G):
        return np.sqrt((G * G * self.a[None, :]).sum(axis=1))


class Singleton(WidthSet):
    def __init__(self, x):
        self.x = np.asarray(x, dtype=np.float64)
        self.p = len(self.x)
        self.scale = 1.0
        self.name = f"singleton(p={self.p})"

    def support_rows(self, G):
        return G @ self.x


class SparseTangentConeBall(WidthSet):
    """Tangent cone of the l1 ball at a sparse boundary point, within the
    unit ball.

    sup_{t in T, |t| <= 1} <t, g> = min_{lam >= 0} dist(g, lam * subdiff),
    which is piecewise quadratic in lam with breakpoints at |g_i| off the
    support; solved exactly by a breakpoint scan.
    """

    def __init__(self, beta_star):
        beta = np.asarray(beta_star, dtype=np.float64)
        if np.abs(np.abs(beta).sum() - 1.0) > 1e-9:
            raise ValueError("center must lie on the unit l1 sphere")
        self.support = np.flatnonzero(beta != 0.0)
        self.signs = np.sign(beta[self.support])
        self.p = len(beta)
        self.scale = 1.0
        s = len(self.support)
        self.name = f"l1_tangent_cone_ball(p={self.p},s={s})"

    def support_rows(self, G):
        on = np.zeros(self.p, dtype=bool)
        on[self.support] = True
        s = len(self.support)
        gs = G[:, self.support]
        goff = np.abs(G[:, ~on])
        dot = gs @ self.signs
        N, K = goff.shape
        # half-derivative of dist^2(g, lam*subdiff):
        #   h(lam) = lam*s - dot + sum_{|g_i| > lam} (lam - |g_i|)
        # increasing piecewise linear with breakpoints at the off-support |g_i|
        u = np.sort(goff, axis=1)
        csum = np.cumsum(u, axis=1)
        total = csum[:, -1] if K else np.zeros(N)
        lam = np.zeros(N)
        if K:
            j_arange = np.arange(K)
            h = u * (s + K - j_arange - 1.0) - dot[:, None] - (total[:, None] - csum)
            at_zero = -dot - total >= 0.0
            pos = h >= 0.0
            has_pos = pos.any(axis=1)
            j = np.argmax(pos, axis=1)
            beyond = ~at_zero & ~has_pos
            lam[beyond] = dot[beyond] / s  # all break points passed
            mid = ~at_zero & has_pos
            jm = j[mid]
            tail = total[mid] - np.where(jm > 0, csum[mid, np.maximum(jm - 1, 0)], 0.0)
            cnt = K - jm
            cand = (dot[mid] + tail) / (s + cnt)
            lo = np.where(jm > 0, u[mid, np.maximum(jm - 1, 0)], 0.0)
            lam[mid] = np.clip(cand, lo, u[mid, jm])
        else:
            lam = np.maximum(dot / s, 0.0)
        if not np.all(np.isfinite(lam)):
            raise InnerOptFailure("non-finite multiplier in cone support solve")
        v2 = ((gs - lam[:, None] * self.signs[None, :]) ** 2).sum(axis=1)
        if K:
            v2 = v2 + (np.maximum(goff - lam[:, None], 0.0) ** 2).sum(axis=1)
        return np.sqrt(np.maximum(v2, 0.0))


def gaussian_width(width_set: WidthSet, draws: int = 4096, seed: int = 0) -> WidthEstimate:
    """Monte Carlo width with exact inner maximization.

    Draws are a pure function of (seed, p), so estimates for sets of the same
    ambient dimension and seed share common random numbers.
    """
    if draws < 2:
        raise ValueError("need draws >= 2 for a standard error")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((draws, width_set.p))
    sup = width_set.scale * width_set.support_rows(G)
    return WidthEstimate(
        value=float(sup.mean()),
        std_error=float(sup.std(ddof=1) / np.sqrt(draws)),
        draws=draws,
        set=width_set.name,
    )


def squared_width_mean(width_set: WidthSet, draws: int = 4096, seed: int = 0) -> float:
    """Monte Carlo statistical-dimension-style mean of the squared supremum."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((draws, width_set.p))
    sup = width_set.scale * width_set.support_rows(G)
    return float((sup * sup).mean())


def sudakov_entropy_bound(width: WidthEstimate | float, separation: float) -> float:
    """Packing-count bound log M(sep, T) <= 2 w(T)^2 / sep^2.

    With sep = eps/c this is the display 2 c^2 w^2 / eps^2.
    """
    if separation <= 0:
        raise ValueError("separation must be positive")
    w = width.value if isinstance(width, WidthEstimate) else float(width)
    return 2.0 * w * w / (separation * separation)


def sparse_cone_width_bound(s: int, p: int) -> float:
    """Squared-width bound 2 s log(p/s) + (5/4) s for the l1 tangent cone at
    an s-sparse point, intersected with the sphere."""
    return 2.0 * s * np.log(p / s) + 1.25 * s
