"""Concrete convex class bodies with samplers, projections, and distances,
and the isotropic design distributions of the linear kinds.  The Monte Carlo
checks on them live in :mod:`locent.harness`.

Four kinds are provided:

* ``LinearL1``       -- linear functionals x^T beta over an l1 ball
* ``LinearEllipsoid``-- linear functionals over an axis-aligned ellipsoid
* ``MonotoneGrid``   -- [0,1]-valued functions on a p-dim grid, coordinatewise
                        non-decreasing, uniform design on the grid nodes
* ``HolderGrid``     -- 1-D grid functions with an rms norm bound and rms
                        increment bounds gamma * h^alpha at every grid lag

Members are coordinate vectors; the L2(P_X) distance is a scaled Euclidean
norm (scale 1 for the linear kinds by isotropy of the design, 1/sqrt(#nodes)
for the grid kinds by uniformity of the design on the nodes).  Each body
draws its own design points (``sample_design``), checks given ones
(``check_design``) and evaluates members on them (``evaluate``): rows of R^p
for the linear kinds, node indices for the grid kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projections as proj

MEMBERSHIP_TOL = 1e-8


class ConvexBody:
    """Shared interface of the class bodies.

    A body gives at least ``diameter``, ``project_rows``, ``contains_coords``,
    ``sample_rows`` and ``extreme_points``, which must return at least one
    member: pools, global profiles, adaptive centers and the CLI checks start
    from them.
    """

    kind: str = ""
    dim: int = 0
    metric_scale: float = 1.0
    sup_bound: float | None = None

    # -- geometry ----------------------------------------------------------

    def diameter(self) -> float:
        raise NotImplementedError

    def project_rows(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def feasible_rows(self, X: np.ndarray) -> np.ndarray:
        """Cheap member-producing map, identity on members.

        The exact Euclidean projection by default; grid kinds override with
        faster maps.  Pool construction only needs members, so it uses this
        instead of the exact projection.
        """
        return self.project_rows(X)

    def contains_coords(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def sample_rows(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def extreme_points(self) -> np.ndarray:
        """Heuristic extreme members, rows of a (k >= 1, dim) array."""
        raise NotImplementedError

    # -- design ------------------------------------------------------------

    def sample_design(self, count: int, design: DesignDistribution,
                      rng: np.random.Generator) -> np.ndarray:
        """``count`` draws from P_X: uniform node indices; ``design`` is unused."""
        return rng.integers(0, self.dim, size=count)

    def evaluate(self, x: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Values of the member ``coords`` at the design points ``x``."""
        return coords[x]

    def check_design(self, x: np.ndarray):
        """ValueError unless ``x`` holds node indices in [0, dim)."""
        if x.ndim != 1:
            raise ValueError("design must be node indices")
        if x.max(initial=-1) >= self.dim or x.min(initial=0) < 0:
            raise ValueError("node index outside the grid")

    # -- wrappers ----------------------------------------------------------

    @property
    def tag(self) -> str:
        return f"{self.kind}:{self.dim}"

    def point(self, coords) -> np.ndarray:
        """A member row: a read-only private float64 copy of ``coords``."""
        row = np.array(coords, dtype=np.float64)  # a private copy to freeze
        if row.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {row.shape}")
        if not np.all(np.isfinite(row)):
            raise ValueError("coords must be finite")
        row.flags.writeable = False
        return row

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {x.shape}")
        return self.point(self.project_rows(x[None, :])[0])

    def sample_member(self, seed_or_rng) -> np.ndarray:
        # default_rng returns a Generator it is given unaltered
        return self.point(self.sample_rows(1, np.random.default_rng(seed_or_rng))[0])


def _blend_toward(rows: np.ndarray, rng: np.random.Generator, corners) -> np.ndarray:
    """Blend a random 30% of ``rows`` in place toward ``corners(k)``, k member
    rows (or (k, 1) constants), so sampled pairs reach the diameter; convex
    combinations of members stay in the body."""
    pick = rng.random(len(rows)) < 0.3
    if pick.any():
        k = int(pick.sum())
        corner = corners(k)
        w = rng.random(k)[:, None]
        rows[pick] = (1.0 - w) * rows[pick] + w * corner
    return rows


def dist(body: ConvexBody, f, g) -> float:
    """L2(P_X) distance between two members."""
    u, v = np.asarray(f, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if u.shape != (body.dim,) or v.shape != (body.dim,):
        raise ValueError("point dimension does not match the class")
    return float(dist_rows(body, u, v))


def dist_rows(body: ConvexBody, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distances from each row of ``rows`` to ``x``, reduced over the last
    axis, so ``dist_rows(body, pts[:, None, :], pts)`` is the pairwise matrix."""
    return _norm_rows(body, rows - x)


def _norm_rows(body: ConvexBody, d: np.ndarray) -> np.ndarray:
    """``dist_rows`` of the differences ``d`` already formed."""
    return body.metric_scale * np.sqrt((d * d).sum(axis=-1))


def pull_into_ball(body: ConvexBody, rows: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Contract member rows toward ``center`` so they land in the ball.

    Convexity keeps the contraction inside the body, and the scaled-Euclidean
    metric makes the contraction exact in distance.  A final corrective
    shrink guarantees dist <= radius despite rounding.
    """
    out = rows - center  # the difference dist_rows forms
    d = _norm_rows(body, out)
    t = np.where(d > radius, np.where(d > 0, radius / np.maximum(d, 1e-300), 1.0), 1.0)
    out *= t[:, None]
    out += center  # center + t (rows - center)
    d2 = dist_rows(body, out, center)
    bad = d2 > radius
    if bad.any():
        shrink = (radius / d2[bad]) * (1.0 - 1e-15)
        out[bad] = center[None, :] + shrink[:, None] * (out[bad] - center[None, :])
    return out


# ---------------------------------------------------------------------------
# Linear kinds
# ---------------------------------------------------------------------------


class LinearBody(ConvexBody):
    """Linear functionals x^T beta; P_X is an isotropic design on R^p."""

    def sample_design(self, count, design, rng):
        return design.sample(count, self.p, rng)

    def evaluate(self, x, coords):
        return x @ coords

    def check_design(self, x):
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ValueError("design must be (n, p) rows")


class LinearL1(LinearBody):
    """Linear functionals over the l1 ball of a given radius in R^p."""

    kind = "linear_l1"

    def __init__(self, p: int, radius: float = 1.0):
        if p < 1 or radius <= 0:
            raise ValueError("need p >= 1 and radius > 0")
        self.p = int(p)
        self.radius = float(radius)
        self.dim = self.p

    def diameter(self) -> float:
        return 2.0 * self.radius

    def project_rows(self, X):
        return proj.project_l1_ball_rows(X, self.radius)

    def contains_coords(self, x, tol=MEMBERSHIP_TOL):
        return bool(np.abs(x).sum() <= self.radius + tol)

    def sample_rows(self, count, rng):
        g = rng.standard_normal((count, self.p))
        scale = self.radius * (0.25 + 2.75 * rng.random(count)) / np.sqrt(self.p)

        def vertices(k):
            # blend toward random vertices +-radius e_i; the right side (the
            # sign) draws before the axis, and swapping them changes every
            # l1 sample
            vert = np.zeros((k, self.p))
            vert[np.arange(k), rng.integers(0, self.p, size=k)] = (
                self.radius * (rng.integers(0, 2, size=k) * 2.0 - 1.0)
            )
            return vert

        return _blend_toward(self.project_rows(g * scale[:, None]), rng, vertices)

    def extreme_points(self):
        eye = np.eye(self.p) * self.radius
        return np.vstack([eye, -eye])


class LinearEllipsoid(LinearBody):
    """Linear functionals over {theta : sum theta_i^2 / a_i <= 1}, a ascending."""

    kind = "linear_ellipsoid"

    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 1 or len(a) < 1 or np.any(a <= 0) or np.any(np.diff(a) < 0):
            raise ValueError("a must be positive and sorted ascending")
        self.a = a
        self.p = len(a)
        self.dim = self.p

    @classmethod
    def sobolev(cls, p: int) -> "LinearEllipsoid":
        """Default Sobolev-type axis decay a_i = (p - i + 1)^(-2)."""
        i = np.arange(1, p + 1)
        return cls((p - i + 1.0) ** -2.0)

    def diameter(self) -> float:
        return 2.0 * float(np.sqrt(self.a[-1]))

    def project_rows(self, X):
        return proj.project_ellipsoid_rows(X, self.a)

    def contains_coords(self, x, tol=MEMBERSHIP_TOL):
        return bool((x * x / self.a).sum() <= 1.0 + tol)

    def sample_rows(self, count, rng):
        g = rng.standard_normal((count, self.p)) * np.sqrt(self.a)[None, :]
        scale = 0.25 + 2.75 * rng.random(count)
        rows = self.project_rows(g * scale[:, None] / np.sqrt(self.p))
        # exact radial correction: the quadratic form is homogeneous
        q = (rows * rows / self.a).sum(axis=1)
        rows *= np.minimum(1.0, 1.0 / np.sqrt(np.maximum(q, 1e-300)))[:, None]
        return rows

    def extreme_points(self):
        eye = np.eye(self.p) * np.sqrt(self.a)[None, :]
        return np.vstack([eye, -eye])


# ---------------------------------------------------------------------------
# Grid kinds
# ---------------------------------------------------------------------------


class MonotoneGrid(ConvexBody):
    """[0,1]-valued functions on an m^p grid, non-decreasing along each axis.

    Coordinates are grid values flattened in C order; the design is uniform
    on the grid nodes, so the L2(P_X) norm is the rms over nodes.
    """

    kind = "monotone_grid"

    def __init__(self, p: int, m: int):
        if p < 1 or m < 1:
            raise ValueError("need p >= 1 and m >= 1")
        self.p = int(p)
        self.m = int(m)
        self.dim = self.m ** self.p
        self.metric_scale = self.dim ** -0.5
        self.sup_bound = 1.0

    def diameter(self) -> float:
        return 1.0

    def node_positions(self) -> np.ndarray:
        """Grid node coordinates in [0,1]^p, midpoints of m bins per axis; (dim, p)."""
        axis = (2.0 * np.arange(1, self.m + 1) - 1.0) / (2.0 * self.m)
        grids = np.meshgrid(*([axis] * self.p), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def _axis_isotonic(self, X: np.ndarray, axis: int) -> np.ndarray:
        shape = (len(X),) + (self.m,) * self.p
        arr = X.reshape(shape)
        moved = np.moveaxis(arr, 1 + axis, -1)
        flat = np.ascontiguousarray(moved).reshape(-1, self.m)
        fixed = proj.isotonic_rows(flat)
        return np.moveaxis(fixed.reshape(moved.shape), -1, 1 + axis).reshape(len(X), self.dim)

    def project_rows(self, X):
        X = np.asarray(X, dtype=np.float64)
        if self.m == 1:
            return np.clip(X, 0.0, 1.0)
        if self.p == 1:
            return proj.project_monotone_box_1d_rows(X)
        projs = [lambda Z, ax=ax: self._axis_isotonic(Z, ax) for ax in range(self.p)]
        projs.append(lambda Z: np.clip(Z, 0.0, 1.0))
        return proj.dykstra(X, projs)

    def contains_coords(self, x, tol=MEMBERSHIP_TOL):
        # NaN fails no comparison, so non-finite input is rejected up front
        return bool(np.isfinite(x).all()) and self._all_members(x[None, :], tol)

    def _all_members(self, Y: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether every row of a (k, dim) batch lies in the body."""
        if Y.min() < -tol or Y.max() > 1.0 + tol:
            return False
        arr = Y.reshape((len(Y),) + (self.m,) * self.p)
        return self.m == 1 or not any(
            np.diff(arr, axis=1 + ax).min() < -tol for ax in range(self.p)
        )

    def _sample_monotone_1d(self, count, rng, m):
        a = rng.random(count)
        b = a + (1.0 - a) * rng.random(count)
        w = rng.standard_exponential((count, m))
        c = np.cumsum(w, axis=1)
        c /= c[:, -1:]
        return a[:, None] + (b - a)[:, None] * c

    def feasible_rows(self, X: np.ndarray) -> np.ndarray:
        """Cheap member-producing map: one isotonic pass per axis, then the
        box clip.  Isotonic regression and the clip are order-preserving, so
        each pass keeps the earlier axes monotone; the exact projection is
        only a guard against rounding.  Identity on members, so full support
        survives."""
        X = np.asarray(X, dtype=np.float64)
        if self.m == 1 or self.p == 1:
            return self.project_rows(X)
        for ax in range(self.p):
            X = self._axis_isotonic(X, ax)
        X = np.clip(X, 0.0, 1.0)
        return X if self._all_members(X) else self.project_rows(X)

    def sample_rows(self, count, rng):
        if self.p == 1:
            base = self._sample_monotone_1d(count, rng, self.m)
        else:
            # mixture: additive combinations of 1-D monotone profiles (fast,
            # diverse) and raw fields swept to feasibility (full support)
            n_add = count // 2
            rows = []
            if n_add:
                profiles = [self._sample_monotone_1d(n_add, rng, self.m) for _ in range(self.p)]
                total = np.zeros((n_add,) + (self.m,) * self.p)
                for ax, prof in enumerate(profiles):
                    total += prof.reshape(
                        [n_add] + [self.m if i == ax else 1 for i in range(self.p)]
                    )
                rows.append((total / self.p).reshape(n_add, self.dim))
            n_raw = count - n_add
            if n_raw:
                rows.append(self.feasible_rows(rng.random((n_raw, self.dim))))
            base = np.vstack(rows)
        # blend toward the constant-0/1 corners
        return _blend_toward(
            base, rng, lambda k: rng.integers(0, 2, size=k).astype(np.float64)[:, None])

    def extreme_points(self):
        return np.vstack([np.zeros(self.dim), np.ones(self.dim)])


class HolderGrid(ConvexBody):
    """1-D grid functions with rms norm <= gamma and rms lag-k increments
    <= gamma * (k/m)^alpha for every grid lag k, extending f by f(1) past 1."""

    kind = "holder_grid"

    def __init__(self, alpha: float, gamma: float, m: int):
        if not (0 < alpha <= 1) or gamma <= 0 or m < 1:
            raise ValueError("need alpha in (0,1], gamma > 0, m >= 1")
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.m = int(m)
        self.dim = self.m
        self.metric_scale = self.m ** -0.5
        # rms <= gamma caps |f_j| at gamma * sqrt(m) on the grid
        self.sup_bound = self.gamma * np.sqrt(self.m)
        self._lag_bounds = np.array([self.lag_bound(k) for k in range(1, self.m)])
        self._eig_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def diameter(self) -> float:
        # opposed extreme members: the constant functions +gamma and -gamma
        ext = self.extreme_points()
        return dist(self, ext[0], ext[1])

    def _lag_matrix(self, k: int) -> np.ndarray:
        A = -np.eye(self.m)
        idx = np.minimum(np.arange(self.m) + k, self.m - 1)
        A[np.arange(self.m), idx] += 1.0
        return A

    def _lag_eig(self, k: int):
        if k not in self._eig_cache:
            A = self._lag_matrix(k)
            evals, evecs = np.linalg.eigh(A.T @ A)
            self._eig_cache[k] = (evecs, np.maximum(evals, 0.0))
        return self._eig_cache[k]

    def lag_bound(self, k: int) -> float:
        """Allowed Euclidean norm of the lag-k difference vector."""
        return self.gamma * (k / self.m) ** self.alpha * np.sqrt(self.m)

    def _lag_norms(self, X: np.ndarray) -> np.ndarray:
        """Euclidean norms of each row's lag-1 to lag-(m-1) difference
        vectors, a (rows, m-1) array.  Built one lag at a time: the stacked
        (rows, m-1, m) differences would take rows * m^2 floats."""
        idx = np.arange(self.m)
        out = np.empty((len(X), self.m - 1))
        for k in range(1, self.m):
            out[:, k - 1] = np.linalg.norm(X[:, np.minimum(idx + k, self.m - 1)] - X, axis=1)
        return out

    def project_rows(self, X):
        X = np.asarray(X, dtype=np.float64)
        norm_cap = self.gamma * np.sqrt(self.m)

        def ball_proj(Z):
            n = np.linalg.norm(Z, axis=1)
            f = np.where(n > norm_cap, norm_cap / np.maximum(n, 1e-300), 1.0)
            return Z * f[:, None]

        if self.m == 1:
            return ball_proj(X)
        projs = [ball_proj]
        for k in range(1, self.m):
            evecs, evals = self._lag_eig(k)
            bound = self.lag_bound(k)
            projs.append(
                lambda Z, V=evecs, D=evals, b=bound: proj.project_quad_ball_rows(Z, V, D, b)
            )
        return proj.dykstra(X, projs)

    def contains_coords(self, x, tol=MEMBERSHIP_TOL):
        if not np.isfinite(x).all() or np.linalg.norm(x) > self.gamma * np.sqrt(self.m) + tol:
            return False
        return bool((self._lag_norms(x[None, :])[0] <= self._lag_bounds + tol).all())

    def feasible_rows(self, X: np.ndarray) -> np.ndarray:
        """Radial map into the body: every constraint is a homogeneous norm
        bound, so scaling by the worst bound/value ratio is exactly feasible
        and the identity on members."""
        X = np.asarray(X, dtype=np.float64)
        t = self.gamma * np.sqrt(self.m) / np.maximum(np.linalg.norm(X, axis=1), 1e-300)
        lag_t = self._lag_bounds / np.maximum(self._lag_norms(X), 1e-300)
        t = np.minimum(t, lag_t.min(axis=1, initial=np.inf))
        return X * np.minimum(t, 1.0)[:, None]

    def sample_rows(self, count, rng):
        # constant level plus a fluctuation scaled into the increment
        # constraints; increments ignore the constant, so diversity survives
        g = rng.standard_normal((count, self.m))
        walk = np.cumsum(g, axis=1) / np.sqrt(self.m)
        mix = rng.random(count)[:, None]
        fluct = mix * g + (1.0 - mix) * walk
        fluct -= fluct.mean(axis=1, keepdims=True)
        t = (self._lag_bounds / np.maximum(self._lag_norms(fluct), 1e-300)).min(
            axis=1, initial=np.inf)
        # one node has no lags (t = inf) and no fluctuation; inf * 0 is NaN
        fluct *= (np.where(np.isinf(t), 0.0, t) * rng.random(count))[:, None]
        level = self.gamma * rng.uniform(-1.0, 1.0, size=count)
        # blend toward the +/- gamma constants
        rows = _blend_toward(
            level[:, None] + fluct, rng,
            lambda k: (self.gamma * (rng.integers(0, 2, size=k) * 2.0 - 1.0))[:, None])
        # the norm cap is homogeneous, so one radial scale finishes the job
        n = np.linalg.norm(rows, axis=1)
        cap = self.gamma * np.sqrt(self.m)
        rows *= np.minimum(1.0, cap / np.maximum(n, 1e-300))[:, None]
        return rows

    def extreme_points(self):
        ones = np.ones(self.dim)
        return np.vstack([self.gamma * ones, -self.gamma * ones])


# ---------------------------------------------------------------------------
# Design distributions for linear classes
# ---------------------------------------------------------------------------

_DESIGN_KINDS = ("gaussian", "rademacher", "uniform_cube")


@dataclass(frozen=True)
class DesignDistribution:
    """Isotropic design for linear classes: mean zero, identity second moment."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")

    def sample(self, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((n, p))
        if self.kind == "rademacher":
            return rng.integers(0, 2, size=(n, p)).astype(np.float64) * 2.0 - 1.0
        root3 = np.sqrt(3.0)
        return rng.uniform(-root3, root3, size=(n, p))


# ---------------------------------------------------------------------------
# Construction from a parsed class spec
# ---------------------------------------------------------------------------


# class kind (and its short name) -> the keys it takes
BODY_KEYS = {
    ("linear_l1", "l1"): ("p", "radius"),
    ("linear_ellipsoid", "ellipsoid"): ("p", "a"),
    ("monotone_grid", "monotone"): ("p", "m"),
    ("holder_grid", "holder"): ("alpha", "gamma", "m"),
}

# canonical class kind -> the keys it needs; "p or a" needs either one
NEEDED_KEYS = {
    "linear_l1": ("p",),
    "linear_ellipsoid": ("p or a",),
    "monotone_grid": ("p", "m"),
    "holder_grid": ("alpha", "m"),
}


def check_body_params(kind: str, params) -> str:
    """Canonical name of ``kind``; ValueError if unknown, given a key it does
    not take, or missing a key it needs (a key set to None counts as missing)."""
    for names, keys in BODY_KEYS.items():
        if kind.lower() in names:
            stray = sorted(set(params) - set(keys))
            if stray:
                raise ValueError(f"class kind {names[0]!r} does not take {stray}")
            given = {k for k, v in params.items() if v is not None}
            missing = [need for need in NEEDED_KEYS[names[0]]
                       if given.isdisjoint(need.split(" or "))]
            if missing:
                raise ValueError(f"class kind {names[0]!r} needs {' and '.join(missing)}")
            return names[0]
    raise ValueError(f"unknown class kind {kind.lower()!r}")


def make_body(kind: str, **params) -> ConvexBody:
    kind = check_body_params(kind, params)
    if kind == "linear_l1":
        return LinearL1(p=int(params["p"]), radius=float(params.get("radius", 1.0)))
    if kind == "linear_ellipsoid":
        if params.get("a") is not None:
            return LinearEllipsoid(params["a"])
        return LinearEllipsoid.sobolev(int(params["p"]))
    if kind == "monotone_grid":
        return MonotoneGrid(p=int(params["p"]), m=int(params["m"]))
    return HolderGrid(alpha=float(params["alpha"]), gamma=float(params.get("gamma", 1.0)),
                      m=int(params["m"]))
