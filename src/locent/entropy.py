"""Local and adaptive local metric entropy estimation.

The local entropy at scale eps with constant c is the log cardinality of the
largest (eps/c)-packing of an eps-ball around a member intersected with the
class, supremized over the member for the global version and evaluated at a
fixed member for the adaptive version.  Greedy profiles approximate packings
by pool-maximal greedy packings and the supremum by a maximum over sampled
centers plus class-specific extreme points.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .bodies import ConvexBody
from .packing import greedy_max_packing
from .seeds import derive_seed


def pool_ceiling(pool_size: int) -> int:
    """Most centers a packing of an entropy pool can hold: ``build_pool`` keeps
    the projected center and all ``pool_size`` draws, with no extras (fewer
    rows when the radius is 0)."""
    return pool_size + 1


@dataclass(frozen=True)
class EntropyBudget:
    """Sampling effort for greedy entropy profiles."""

    pool_size: int = 256
    centers: int = 8  # sampled sup centers in global mode, extremes extra

    def __post_init__(self):
        if self.pool_size < 1:
            raise ValueError("profile pool size must be >= 1")
        if self.centers < 0:
            raise ValueError("profile centers must be >= 0")


@dataclass
class EntropyProfile:
    """Grid of (eps, log packing count) pairs with the entropy constant c;
    adaptive at ``center``, or global when it is None."""

    c: float
    eps: np.ndarray
    log_m: np.ndarray
    center: np.ndarray | None = None
    pool_size: int = 0
    seed: int = 0

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=np.float64)
        self.log_m = np.asarray(self.log_m, dtype=np.float64)
        self.center = None if self.center is None else np.asarray(self.center, dtype=np.float64)
        if self.c <= 1:
            raise ValueError("entropy constant c must exceed 1")
        if len(self.eps) != len(self.log_m) or len(self.eps) == 0:
            raise ValueError("eps and log_m must be equal-length and nonempty")
        if np.any(np.diff(self.eps) <= 0):
            raise ValueError("eps grid must be strictly increasing")
        if np.any(self.log_m < 0):
            raise ValueError("log packing counts are nonnegative")

    @property
    def kind(self) -> str:
        """The profile's kind: "adaptive" at a center, else "global"."""
        return "global" if self.center is None else "adaptive"

    @property
    def center_id(self) -> str:
        """A short hash of the center for the CSV; empty for a global profile."""
        if self.center is None:
            return ""
        return f"adaptive@{derive_seed(0, self.center) & 0xFFFF:04x}"

    @property
    def saturated(self) -> np.ndarray:
        """Grid points whose count is the pool ceiling, not the class's."""
        return self.log_m >= np.log(pool_ceiling(self.pool_size))

    # -- evaluation ---------------------------------------------------------

    def value(self, eps: float) -> float:
        """Interpolated log packing count at eps.

        Power-law (log-log-linear) interpolation between grid points, which is
        exact for profiles of the form A * eps^(-q); constant extension past
        either end of the grid.  A grid point gives its own log_m.  Segments
        touching log_m = 0 fall back to interpolation linear in (log eps, log_m).
        """
        e = self.eps
        y = self.log_m
        if eps <= e[0]:
            return float(y[0])
        if eps >= e[-1]:
            return float(y[-1])
        j = int(np.searchsorted(e, eps, side="right")) - 1
        if e[j] == eps:
            return float(y[j])
        t0, t1, t = np.log(e[j]), np.log(e[j + 1]), np.log(eps)
        w = (t - t0) / (t1 - t0)
        y0, y1 = y[j], y[j + 1]
        if y0 <= 0 or y1 <= 0:
            return float((1 - w) * y0 + w * y1)
        return float(np.exp((1 - w) * np.log(y0) + w * np.log(y1)))

    def monotonized(self, max_rel_slack: float = 0.15) -> "EntropyProfile":
        """Non-increasing version via running maximum from the right.

        Greedy undercounting can only be raised; if the correction exceeds
        ``max_rel_slack`` relatively, the profile is rejected.
        """
        fixed = np.maximum.accumulate(self.log_m[::-1])[::-1]
        base = np.maximum(self.log_m, 1e-12)
        slack = float(np.max((fixed - self.log_m) / base))
        if slack > max_rel_slack:
            raise ValueError(
                f"monotonization changed the profile by {slack:.3f} > {max_rel_slack}"
            )
        return replace(self, log_m=fixed)

    # -- serialization ------------------------------------------------------

    CSV_COLUMNS = ("eps", "log_m", "exact_flag", "kind", "center_id", "c", "pool_size", "seed")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.CSV_COLUMNS)
        for e, lm in zip(self.eps, self.log_m):
            # exact_flag is always 0: the column keeps entropy.csv's layout
            w.writerow([repr(float(e)), repr(float(lm)), 0, self.kind,
                        self.center_id, repr(float(self.c)), self.pool_size, self.seed])
        return buf.getvalue()


def _global_centers(body: ConvexBody, budget: EntropyBudget, seed: int) -> np.ndarray:
    rows = [body.extreme_points()]
    if budget.centers > 0:
        rng = np.random.default_rng(derive_seed(seed, "entropy-centers"))
        rows.append(body.sample_rows(budget.centers, rng))
    pts = np.vstack(rows)
    _, keep = np.unique(np.round(pts, 12), axis=0, return_index=True)
    return pts[np.sort(keep)]


def local_entropy(
    body: ConvexBody,
    eps_grid,
    c: float,
    center=None,
    budget: EntropyBudget = EntropyBudget(),
    seed: int = 0,
) -> EntropyProfile:
    """Greedy local entropy profile over an eps grid, taken in ascending order.

    With no ``center`` the profile is global: the max over sampled centers
    plus extreme points, stopping at a pool-filling packing.  With one it is
    adaptive, at that center only.  Pool seeds derive from (seed, eps,
    center row), so shared centers share pools.
    """
    eps_grid = np.sort(np.asarray(eps_grid, dtype=np.float64))
    if len(eps_grid) == 0 or not np.all(eps_grid > 0) or np.any(np.diff(eps_grid) == 0):
        raise ValueError(f"eps_grid must be nonempty, positive and free of repeats, "
                         f"got {eps_grid.tolist()}")
    if c <= 1:
        raise ValueError("entropy constant c must exceed 1")
    ctr = None if center is None else body.point(center)
    centers = _global_centers(body, budget, seed) if ctr is None else ctr[None, :]

    log_m = np.zeros(len(eps_grid))
    for i, eps in enumerate(eps_grid):
        best = 1
        for row in centers:
            pseed = derive_seed(seed, "entropy-pool", float(eps), row)
            pack = greedy_max_packing(
                body, row, float(eps), float(eps) / c, pseed, budget.pool_size
            )
            best = max(best, len(pack))
            if best >= pool_ceiling(budget.pool_size):
                break
        log_m[i] = np.log(best)
    return EntropyProfile(c=float(c), eps=eps_grid, log_m=log_m, center=ctr,
                          pool_size=budget.pool_size, seed=seed)
