"""Iterative multiscale packing estimator and its stage schedules.

The estimator starts at a deterministic anchor, and at stage k builds a
pool-maximal packing of the ball B(current, d/2^(k-1)) intersected with the
class at separation d/(2^k (C+1)), then moves to the least-squares minimizer
over the packing.  The packing randomness is a pure function of (run seed,
stage, current-center hash), which realizes a data-independent packing tree
lazily: only the traversed path is materialized.

Stage counts come from schedules: the maximal J with

    n eps_J^2 > 2 log M_loc(eps_J c / sqrt(L), c)  or  log 2

for eps_J = d sqrt(L) / (2^(J-2) c), with L the bounded-case exponent
constant, its unbounded-case variant, or the adaptive variant that reads an
adaptive entropy profile at argument 2 eps_J c / sqrt(L) with constant 2c.
The schedule walks up J to the first J that fails and reads the entropy
through a callable, only where neither the log-2 floor nor a ceiling on the
counts settles the condition, so a caller can build each point on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, dist, dist_rows, pull_into_ball
from .packing import greedy_max_packing
from .seeds import canonical_json, derive_seed

LOG2 = float(np.log(2.0))
CAUCHY_RTOL = 1e-9  # relative slack of the trace invariants for rounding


# ---------------------------------------------------------------------------
# Noise and constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Mean-zero noise, sub-Gaussian with variance proxy sigma."""

    kind: str = "gaussian"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "scaled_rademacher", "uniform_bounded"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return self.sigma * rng.standard_normal(size)
        if self.kind == "scaled_rademacher":
            return self.sigma * (rng.integers(0, 2, size=size) * 2.0 - 1.0)
        # uniform on [-sigma, sigma]: proxy sigma by Hoeffding
        return rng.uniform(-self.sigma, self.sigma, size=size)


def _noise_term(C: float, sigma: float) -> float:
    """(sqrt(C^2 - 1) - 2 sqrt 2)^2 / (8 sigma^2), +inf for noiseless data."""
    if C <= 3:
        raise ValueError("need C > 3")
    if sigma == 0:
        return np.inf
    return (np.sqrt(C * C - 1.0) - 2.0 * np.sqrt(2.0)) ** 2 / (8.0 * sigma * sigma)


def exponent_constant_bounded(C: float, sigma: float, sup_bound: float) -> float:
    """L(C, sigma, B_F): the triple minimum controlling the test error."""
    first = _noise_term(C, sigma)
    second = 3.0 / (64.0 * sup_bound * sup_bound)
    third = 3.0 / (16.0 * sup_bound * sup_bound * (3.0 * C * C + 1.0))
    return float(min(first, second, third))


def exponent_constant_unbounded(
    C: float, sigma: float, diameter: float, alpha: float, b: float = 0.125
) -> float:
    """L~(C, sigma): the double minimum for sup-norm-unbounded classes."""
    first = _noise_term(C, sigma)
    second = b / (C * C * (2.0 * alpha * alpha + 1.0) ** 2 * diameter * diameter)
    return float(min(first, second))


@dataclass(frozen=True)
class RateConstants:
    """Universal constant C > 3, entropy constant c = 2(C+1), exponent L.

    ``practical_scale`` rescales L for desk-scale experiments; schedule-logic
    tests use the paper-exact constants (practical_scale = 1).
    """

    C: float
    L_paper: float
    practical_scale: float = 1.0

    def __post_init__(self):
        if self.C <= 3:
            raise ValueError("need C > 3")
        if self.L_paper <= 0:
            raise ValueError("need L > 0")

    @property
    def c(self) -> float:
        return 2.0 * (self.C + 1.0)

    @property
    def L(self) -> float:
        return self.L_paper * self.practical_scale

    @classmethod
    def bounded(cls, C: float, sigma: float, sup_bound: float, practical_scale: float = 1.0):
        return cls(C, exponent_constant_bounded(C, sigma, sup_bound), practical_scale)

    @classmethod
    def unbounded(
        cls,
        C: float,
        sigma: float,
        diameter: float,
        alpha: float = 1.0,
        b: float = 0.125,
        practical_scale: float = 1.0,
    ):
        return cls(C, exponent_constant_unbounded(C, sigma, diameter, alpha, b), practical_scale)


# ---------------------------------------------------------------------------
# Regression data
# ---------------------------------------------------------------------------


@dataclass
class RegressionData:
    """Observed (X, Y), X as the body's ``sample_design`` returns it: (n, dim)
    design rows for the linear kinds, n node indices for the grid kinds."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.x = np.asarray(self.x)
        if self.x.ndim not in (1, 2):
            raise ValueError("x must be design rows or node indices")
        if self.x.ndim == 1:
            with np.errstate(invalid="ignore"):  # nan and inf fail the check below
                idx = self.x.astype(np.int64, copy=False)
            if not np.array_equal(idx, self.x):
                raise ValueError("node indices must be integers")
            self.x = idx
        else:
            self.x = self.x.astype(np.float64, copy=False)
        if self.x.shape[0] != len(self.y):
            raise ValueError("design points != responses")

    @property
    def n(self) -> int:
        return len(self.y)

    def _stats(self):
        # sufficient statistics make the residual scan O(k dim^2) instead of
        # O(k n dim); exact, not an approximation
        if not hasattr(self, "_cached_stats"):
            yty = float(self.y @ self.y)
            if self.x.ndim == 2:
                self._cached_stats = ("linear", yty, self.x.T @ self.y, self.x.T @ self.x)
            else:
                dim = int(self.x.max()) + 1
                counts = np.bincount(self.x, minlength=dim).astype(np.float64)
                ysum = np.bincount(self.x, weights=self.y, minlength=dim)
                self._cached_stats = ("nodes", yty, ysum, counts)
        return self._cached_stats

    def rss(self, coords_rows: np.ndarray) -> np.ndarray:
        coords_rows = np.atleast_2d(coords_rows)
        kind, yty, first, second = self._stats()
        if kind == "linear":
            cross = coords_rows @ first
            quad = np.einsum("ij,ij->i", coords_rows @ second, coords_rows)
        else:
            k = len(first)
            rows = coords_rows[:, :k]
            cross = rows @ first
            quad = (rows * rows) @ second
        return np.maximum(yty - 2.0 * cross + quad, 0.0)


# ---------------------------------------------------------------------------
# Pool budgets and structured candidates
# ---------------------------------------------------------------------------

MAX_AXIS_DIMS = 128  # axis steps add 4 dim rows, so they stop past this dim


@dataclass(frozen=True)
class PoolBudget:
    """Per-stage candidate budget for packing pools."""

    size: int = 256
    growth: float = 1.0  # pool size multiplier per stage
    cap: int = 4096

    def __post_init__(self):
        if self.size < 1 or self.cap < 1:
            raise ValueError("pool size and cap must be >= 1")
        if not self.growth > 0:
            raise ValueError("pool growth must be > 0")

    def stage_size(self, k: int) -> int:
        # a growth below 1 shrinks the pool, but never to no rows
        return int(min(self.cap, max(1, round(self.size * self.growth ** (k - 1)))))


def structured_candidates(body: ConvexBody, center: np.ndarray, radius: float) -> np.ndarray:
    """Pool extras: extreme points, their blends and away steps, and axis
    steps.

    Pure function of (body, center, radius); contraction into the ball
    happens inside the pool builder.
    """
    ext = body.extreme_points()
    rows = [ext]
    # vertex blends at several step scales, including small away steps;
    # projection restores feasibility for the away direction
    diff = ext - center[None, :]
    norms = np.maximum(dist_rows(body, ext, center), 1e-300)
    for t in (0.5, 0.25):
        frac = np.minimum(t * radius / norms, 1.0)
        rows.append(center[None, :] + frac[:, None] * diff)
    away = center[None, :] - (0.125 * radius / norms)[:, None] * diff
    rows.append(body.project_rows(away))
    if body.dim <= MAX_AXIS_DIMS:
        coord_step = radius / body.metric_scale
        eye = np.eye(body.dim)
        for s in (coord_step, 0.5 * coord_step):
            bumps = np.vstack([center[None, :] + s * eye, center[None, :] - s * eye])
            rows.append(body.feasible_rows(bumps))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


# one record per packing stage; the column names are the trace.json keys
STAGE_DTYPE = np.dtype([("radii", "f8"), ("packing_sizes", "i8"), ("chosen_indices", "i8")])


@dataclass
class EstimatorTrace:
    """The iterates and the per-stage table.

    ``per_stage`` has one :data:`STAGE_DTYPE` record per packing stage k =
    1 .. J-1 (ball radius d/2^(k-1), packing size, chosen index), and
    ``to_json`` writes each column under its dtype name, so the table holds
    deterministic values only.  ``upsilon`` and ``truth_distances`` are per
    iterate, the anchor first.
    """

    upsilon: np.ndarray  # (J, dim) iterates, the anchor first
    per_stage: np.ndarray  # (J-1,) STAGE_DTYPE records
    diameter: float
    truth_distances: np.ndarray | None = None

    @property
    def total_stages(self) -> int:
        return len(self.upsilon)

    @property
    def final(self) -> np.ndarray:
        return self.upsilon[-1]

    def validate_cauchy(self, body: ConvexBody):
        """Consecutive moves bounded by the stage radius and, for j < k,
        dist(Y_j, Y_k) <= d / 2^(j-2)."""
        ys = self.upsilon
        gap = dist_rows(body, ys[:, None, :], ys)
        steps, radii = np.diagonal(gap, 1), self.per_stage["radii"]
        over = np.flatnonzero(steps > radii * (1.0 + CAUCHY_RTOL))
        if len(over):
            j = over[0]
            raise AssertionError(f"stage {j + 1} moved {float(steps[j])} > radius {radii[j]}")
        # = d / 2^((j+1)-2) with 1-based j+1
        bound = self.diameter / 2.0 ** (np.arange(len(ys)) - 1.0)
        over = np.argwhere(np.triu(gap > bound[:, None] * (1.0 + CAUCHY_RTOL), 1))
        if len(over):
            j, k = over[0]
            raise AssertionError(
                f"Cauchy violation: |Y{j + 1}-Y{k + 1}| = {float(gap[j, k])} > {float(bound[j])}")

    def to_json(self) -> str:
        payload = {
            "total_stages": self.total_stages,
            "diameter": self.diameter,
            "final_coords": self.final.tolist(),
            **{name: self.per_stage[name].tolist() for name in STAGE_DTYPE.names},
        }
        if self.truth_distances is not None:
            payload["truth_distances"] = self.truth_distances.tolist()
        return canonical_json(payload)


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------


def run_algorithm1(
    body: ConvexBody,
    data: RegressionData,
    constants: RateConstants,
    stages: int,
    pool_budget: PoolBudget = PoolBudget(),
    seed: int = 0,
    truth_injection=None,
    eval_truth=None,
) -> EstimatorTrace:
    """Run the multiscale packing + least-squares selection estimator.

    ``stages`` is the trace length J: the anchor plus J-1 packing stages.
    ``truth_injection`` (oracle-validation only) adds the pull of the truth
    toward the current center into every pool; ``eval_truth`` only records
    per-stage distances and never influences the run.  Both are member
    rows (or lists).
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    if data.n < 1:
        raise ValueError("need at least one observation")
    body.check_design(data.x)
    d = body.diameter()
    C = constants.C

    cur = body.project(np.zeros(body.dim))
    ups = [cur]
    per_stage = np.empty(stages - 1, STAGE_DTYPE)

    for k in range(1, stages):
        radius = d / 2.0 ** (k - 1)
        separation = d / (2.0 ** k * (C + 1.0))
        pseed = derive_seed(seed, "stage", k, cur)
        extras = structured_candidates(body, cur, radius)
        if truth_injection is not None:
            inject = np.asarray(truth_injection, dtype=np.float64)[None, :]
            extras = np.vstack([extras, pull_into_ball(body, inject, cur, radius)])
        rows = greedy_max_packing(
            body, cur, radius, separation, pseed, pool_budget.stage_size(k),
            extra_candidates=extras,
        )
        rss = data.rss(rows)
        best = float(rss.min())
        ties = np.flatnonzero(rss == best)
        if len(ties) > 1:
            ties = sorted(ties, key=lambda i: tuple(rows[i]))
        pick = int(ties[0])
        cur = rows[pick]
        ups.append(cur)
        per_stage[k - 1] = (radius, len(rows), pick)

    upsilon = np.stack(ups)
    truth_d = None
    if eval_truth is not None:
        truth_d = dist_rows(body, upsilon, np.asarray(eval_truth, dtype=np.float64))
    trace = EstimatorTrace(upsilon, per_stage, d, truth_d)
    trace.validate_cauchy(body)
    return trace


# ---------------------------------------------------------------------------
# Stage schedules
# ---------------------------------------------------------------------------


def stage_eps(J: int, constants: RateConstants, diameter: float) -> float:
    """eps_J = d sqrt(L) / (2^(J-2) c), the radius of stage J's condition."""
    return float(diameter) * np.sqrt(constants.L) / (2.0 ** (J - 2) * constants.c)


def entropy_arg(J: int, diameter: float, kind: str) -> float:
    """Profile argument stage J reads: d / 2^(J-2) = eps_J c / sqrt(L), twice
    that for the adaptive condition; exactly a point of the ladder d 2^(2-j)."""
    base = float(diameter) * 2.0 ** (2 - J)
    return 2.0 * base if kind == "adaptive" else base


def stage_schedule(
    log_m,
    n: int,
    constants: RateConstants,
    kind: str,
    diameter: float,
    max_stages: int = 200,
    ceiling: float = np.inf,
) -> int:
    """J*, the maximal J with n eps_J^2 > 2 log M(arg_J) or log 2, found by a
    walk up from J = 1 that stops at the first J that fails.

    ``log_m`` maps an entropy argument to a log packing count, such as a
    profile's ``value``.  Kind "bounded"/"unbounded" reads a global profile
    at arg = d / 2^(J-2) (equal to eps_J c / sqrt(L)); kind "adaptive" reads
    an adaptive profile with constant 2c at arg = 2 d / 2^(J-2).  J* = 1 when
    even J = 1 fails.  ``ceiling`` bounds every count ``log_m`` can return
    (a greedy count on pools of k draws is at most log(k + 1)), so a J with
    n eps_J^2 > 2 ceiling holds unread.  ``log_m`` is thus read only where the
    log-2 floor holds and the ceiling leaves the condition open, up to the
    first J that fails: at most J* + 1.  A count above the pool ceiling, such
    as a certified one, needs only a higher ``ceiling``.
    """
    if kind not in ("bounded", "unbounded", "adaptive"):
        raise ValueError(f"unknown condition kind {kind!r}")
    if max_stages < 1:
        raise ValueError("max_stages must be at least 1")

    def holds(J: int) -> bool:
        eps = stage_eps(J, constants, diameter)
        ne2 = n * eps * eps
        return ne2 > LOG2 and (
            ne2 > 2.0 * ceiling or ne2 > 2.0 * log_m(entropy_arg(J, diameter, kind)))

    j_star = 1
    if holds(1):
        while j_star < max_stages and holds(j_star + 1):
            j_star += 1
    return j_star


# ---------------------------------------------------------------------------
# Pairwise test psi
# ---------------------------------------------------------------------------


def _psi_from_gap(gap, mag, n: int, dim: int):
    """psi = 1 where the gap rss_f - rss_g is >= 0, or a tie.

    ``mag`` is the gap's sum taken over input magnitudes.  The gap is a sum
    of n + 2 dim rounded products, so (n + 2 dim + 8) eps mag bounds its
    rounding error with margin, and a computed gap that close to zero is a
    tie.
    """
    tie = (n + 2 * dim + 8) * np.finfo(np.float64).eps
    return gap >= -tie * mag


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
