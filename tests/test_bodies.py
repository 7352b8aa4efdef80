import numpy as np
import pytest
from scipy.optimize import isotonic_regression

from locent import projections as proj
from locent.bodies import (
    ConvexBody,
    DesignDistribution,
    HolderGrid,
    LinearEllipsoid,
    LinearL1,
    MonotoneGrid,
    dist,
    make_body,
    moment_ratio_check,
)
from locent.errors import Degenerate, DimensionMismatch, NoConvergence
from locent.harness import TruthSpec, make_truth

from conftest import SingletonBody, UnitBox

ALL_BODIES = [
    LinearL1(5, 1.0),
    LinearEllipsoid([0.25, 1.0]),
    LinearEllipsoid.sobolev(6),
    MonotoneGrid(1, 8),
    MonotoneGrid(2, 3),
    MonotoneGrid(3, 3),
    HolderGrid(0.6, 1.0, 8),
]
IDS = [b.kind + "-" + str(b.dim) for b in ALL_BODIES]


# -- distances ---------------------------------------------------------------


def test_point_freezes_a_private_copy():
    # the caller's array stays writable, and the point does not follow it
    x = np.zeros(3)
    pt = LinearL1(3).point(x)
    x[0] = 1.0
    assert pt[0] == 0.0
    with pytest.raises(ValueError):
        pt[0] = 2.0


def test_point_rejects_wrong_shape_and_nonfinite():
    body = LinearL1(3)
    for bad in ([0.0, 0.0], np.zeros((1, 3)), 0.0):
        with pytest.raises(DimensionMismatch):
            body.point(bad)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            body.point([0.0, value, 0.0])


@pytest.mark.parametrize("body", ALL_BODIES, ids=IDS)
def test_members_are_read_only_float64_rows(body):
    truths = [TruthSpec("fixed", coords=tuple(body.sample_rows(1, np.random.default_rng(3))[0])),
              TruthSpec("sampled", seed=5), TruthSpec("identity")]
    if isinstance(body, LinearL1):
        truths.append(TruthSpec("sparse", s=2, seed=6))
    members = [body.point(np.zeros(body.dim, dtype=np.int64)),
               body.project(np.ones(body.dim)), body.sample_member(4)]
    for row in members + [make_truth(body, spec) for spec in truths]:
        assert type(row) is np.ndarray
        assert row.dtype == np.float64 and row.shape == (body.dim,)
        assert not row.flags.writeable


def test_dist_examples():
    l1 = LinearL1(2, 1.0)
    assert np.isclose(dist(l1, [1.0, 0.0], [0.0, 1.0]), np.sqrt(2.0))
    assert dist(l1, [0.3, -0.2], [0.3, -0.2]) == 0.0
    mg = MonotoneGrid(1, 2)
    assert np.isclose(dist(mg, [0.0, 0.0], [1.0, 1.0]), 1.0)


def test_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist(LinearL1(3, 1.0), [1.0, 0.0], [0.0, 1.0, 0.0])


# -- projections -------------------------------------------------------------


def test_l1_projection_example_against_grid_oracle():
    body = LinearL1(2, 1.0)
    got = body.project([2.0, 0.0])
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)
    # dense grid search over the ball confirms the closest point
    xs = np.linspace(-1, 1, 401)
    grid = np.array([(a, b) for a in xs for b in xs if abs(a) + abs(b) <= 1.0])
    target = np.array([0.7, -0.4])
    byhand = grid[np.argmin(((grid - target) ** 2).sum(axis=1))]
    assert np.linalg.norm(body.project(target) - byhand) < 0.01


def test_monotone_projection_examples():
    body = MonotoneGrid(1, 2)
    assert np.allclose(body.project([2.0, 1.0]), [1.0, 1.0])
    assert np.allclose(body.project([0.8, 0.2]), [0.5, 0.5])
    # 2-variable quadratic-program oracle on a dense feasible grid
    vals = np.linspace(0, 1, 201)
    feas = np.array([(a, b) for a in vals for b in vals if a <= b])
    for target in ([0.9, 0.1], [1.4, -0.2], [0.3, 0.8]):
        got = body.project(target)
        byhand = feas[np.argmin(((feas - np.array(target)) ** 2).sum(axis=1))]
        assert np.linalg.norm(got - byhand) < 0.02


@pytest.mark.parametrize("body", ALL_BODIES, ids=IDS)
def test_projection_identity_on_members(body):
    rng = np.random.default_rng(1)
    for row in body.sample_rows(20, rng):
        assert np.allclose(body.project(row), row, atol=1e-8)


@pytest.mark.parametrize("body", ALL_BODIES + [HolderGrid(1.0, 1.0, 1)],
                         ids=IDS + ["holder_grid-1"])
def test_projection_idempotent_and_nonexpansive(body):
    # a Holder grid with m = 1 has no lag constraints, only its norm ball
    rng = np.random.default_rng(2)
    k = 16 if isinstance(body, HolderGrid) else 40
    raw = rng.standard_normal((k, body.dim)) * 1.25
    proj1 = body.project_rows(raw)
    assert all(body.contains_coords(row, 1e-8) for row in proj1)
    proj2 = body.project_rows(proj1)
    assert np.max(np.abs(proj2 - proj1)) < 1e-8
    # non-expansiveness on random pairs
    other = rng.standard_normal((k, body.dim)) * 1.25
    pother = body.project_rows(other)
    before = np.linalg.norm(raw - other, axis=1)
    after = np.linalg.norm(proj1 - pother, axis=1)
    assert np.all(after <= before + 1e-8)


@pytest.mark.parametrize("body", ALL_BODIES, ids=IDS)
def test_projection_variational_inequality(body):
    # <x - Px, y - Px> <= 0 for members y characterizes the projection
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((10, body.dim)) * 1.5
    proj = body.project_rows(raw)
    members = body.sample_rows(50, rng)
    for x, px in zip(raw, proj):
        inner = (members - px) @ (x - px)
        assert inner.max() <= 1e-6


# -- the pooled isotonic kernel ------------------------------------------------


def _isotonic_cases():
    """(k, m) matrices of uniform, trend-plus-noise, random-walk and tied
    rows, and the cascade row 0, 1, ..., m-2, -1e6 that pools one block per
    round."""
    rng = np.random.default_rng(20240601)
    for m in (1, 2, 4, 16, 64):
        trend = np.linspace(-1.0, 1.0, m)
        yield rng.random((32, m))
        yield trend + 0.5 * rng.standard_normal((32, m))
        yield np.cumsum(rng.standard_normal((32, m)), axis=1)
        yield rng.integers(0, 3, size=(32, m)).astype(np.float64)
        cascade = np.arange(m, dtype=np.float64)
        cascade[-1] = -1e6
        yield cascade[None, :]
    yield np.empty((0, 8))


def test_isotonic_rows_matches_scipy_oracle():
    for X in _isotonic_cases():
        out = proj.isotonic_rows(X)
        assert out.shape == X.shape
        m = X.shape[1]
        for x, got in zip(X, out):
            want = isotonic_regression(x, increasing=True).x
            tol = 64 * np.finfo(np.float64).eps * max(1.0, np.abs(x).max()) * m
            assert np.max(np.abs(got - want)) <= tol
        assert (np.diff(out, axis=1) >= 0).all()
        ordered = np.sort(X, axis=1)
        got = proj.isotonic_rows(ordered)
        assert np.array_equal(got, ordered) and not np.shares_memory(got, ordered)


# -- the secular equation behind the ellipsoid and quad-ball projections -------


def _bisect_multiplier(z, d, b):
    """Root of sum d z^2 / (1 + lam d)^2 = b^2, bisected until the bracket
    cannot shrink."""
    g = lambda lam: float((d * z * z / (1.0 + lam * d) ** 2).sum())  # noqa: E731
    lo, hi = 0.0, 1.0
    while g(hi) > b * b:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        lo, hi = (mid, hi) if g(mid) > b * b else (lo, mid)


def _secular_cases():
    """(X, d, b, evecs): Sobolev ellipsoids (d = 1/a, b = 1, evecs None) and
    Hölder lag matrices (d = eigenvalues of A^T A, b = lag bound).  Rows lie
    from half to a thousand times the boundary's scale along their ray."""
    rng = np.random.default_rng(20240601)

    def rows(d, b, evecs, dim):
        Z = rng.standard_normal((64, dim))
        Z *= (b * 10.0 ** rng.uniform(-0.3, 3.0, size=64)
              / np.sqrt((Z * Z * d).sum(axis=1)))[:, None]
        return Z if evecs is None else Z @ evecs.T

    for p in (2, 6, 32):
        d = 1.0 / LinearEllipsoid.sobolev(p).a
        yield rows(d, 1.0, None, p), d, 1.0, None
    for m in (4, 16, 64):
        body = HolderGrid(0.6, 1.0, m)
        for k in (1, m // 2, m - 1):
            evecs, evals = body._lag_eig(k)
            b = body.lag_bound(k)
            yield rows(evals, b, evecs, m), evals, b, evecs


def test_secular_solver_matches_bisection_and_kkt():
    for X, d, b, evecs in _secular_cases():
        Z = X if evecs is None else X @ evecs
        outside = (Z * Z * d).sum(axis=1) > b * b + 1e-15
        assert 0 < outside.sum() < len(Z)
        lam = proj._secular_root(Z[outside], d, b)
        ref = np.array([_bisect_multiplier(z, d, b) for z in Z[outside]])
        # KKT: a nonnegative multiplier that puts the row on the boundary
        assert np.all(lam >= 0.0)
        g = (d * Z[outside] ** 2 / (1.0 + lam[:, None] * d) ** 2).sum(axis=1)
        assert np.max(np.abs(g - b * b)) <= 1e-12 * b * b
        # the public projection against the bisection reference
        if evecs is None:
            got = proj.project_ellipsoid_rows(X, 1.0 / d)[outside]
            want = X[outside] / (1.0 + ref[:, None] * d)
        else:
            got = proj.project_quad_ball_rows(X, evecs, d, b)[outside]
            want = (Z[outside] / (1.0 + ref[:, None] * d)) @ evecs.T
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert np.max(err) <= 1e-12



def test_secular_solver_raises_when_newton_runs_out(monkeypatch):
    # a row far outside needs several Newton steps from lam = 0
    monkeypatch.setattr(proj, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="secular Newton"):
        proj._secular_root(np.array([[10.0, 10.0]]), np.array([1.0, 4.0]), 1.0)


def test_dykstra_raises_when_cycles_run_out(monkeypatch):
    # two half-planes whose corner one cycle cannot reach
    monkeypatch.setattr(proj, "MAX_ITER", 1)
    below = lambda Y: np.column_stack([Y[:, 0], np.minimum(Y[:, 1], 0.0)])  # noqa: E731
    diagonal = lambda Y: Y - np.maximum(Y.sum(axis=1) - 1.0, 0.0)[:, None] / 2.0  # noqa: E731
    with pytest.raises(NoConvergence, match="Dykstra"):
        proj.dykstra(np.array([[3.0, 3.0]]), [below, diagonal])

# -- samplers ----------------------------------------------------------------


@pytest.mark.parametrize("body", ALL_BODIES + [HolderGrid(1.0, 1.0, 1)],
                         ids=IDS + ["holder_grid-1"])
def test_samples_are_members(body):
    rng = np.random.default_rng(4)
    rows = body.sample_rows(1000, rng)
    assert np.isfinite(rows).all()
    assert all(body.contains_coords(r, 1e-9) for r in rows)


@pytest.mark.parametrize("body", ALL_BODIES + [UnitBox(2), SingletonBody([0.25, 0.5])],
                         ids=IDS + ["unit_box-2", "singleton-2"])
def test_extreme_points_are_members(body):
    # pools, global profiles, adaptive centers and the CLI checks start from
    # them, with no fallback for a body that has none
    ext = body.extreme_points()
    assert ext.ndim == 2 and len(ext) >= 1 and ext.shape[1] == body.dim
    assert all(body.contains_coords(row) for row in ext)


def test_extreme_points_are_required():
    with pytest.raises(NotImplementedError):
        ConvexBody().extreme_points()


@pytest.mark.parametrize("body", [
    LinearL1(3, 1.0),
    LinearEllipsoid([0.25, 1.0]),
    MonotoneGrid(1, 4),
    MonotoneGrid(2, 3),
    HolderGrid(1.0, 1.0, 4),
    HolderGrid(1.0, 1.0, 1),
], ids=lambda b: b.kind + "-" + str(b.dim))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_coords_are_not_members(body, value):
    assert not body.contains_coords(np.full(body.dim, value))
    member = body.extreme_points()[0].copy()
    assert body.contains_coords(member)
    member[-1] = value
    assert not body.contains_coords(member)


@pytest.mark.parametrize("p,m", [(2, 3), (2, 16), (3, 4), (4, 3)])
def test_one_feasibility_pass_gives_members(p, m, monkeypatch):
    # isotonic passes and the clip are order-preserving, so one pass per axis
    # keeps every earlier axis monotone and the exact projection never runs
    body = MonotoneGrid(p, m)
    monkeypatch.setattr(body, "project_rows", lambda X: pytest.fail("fallback ran"))
    rng = np.random.default_rng(p * 100 + m)
    member = body.sample_rows(1, rng)
    for X in (rng.random((64, body.dim)),
              0.5 + 2.0 * rng.standard_normal((64, body.dim)),
              member + 0.1 * rng.standard_normal((64, body.dim))):
        assert body._all_members(body.feasible_rows(X), tol=0.0)
    np.testing.assert_array_equal(body.feasible_rows(member), member)


def test_two_seeds_differ_overwhelmingly():
    # the l1 projection has atoms at the vertices, so exact collisions can
    # occur; they must stay rare
    body = LinearL1(6, 1.0)
    a = np.stack([body.sample_member(s) for s in range(1000)])
    b = np.stack([body.sample_member(s + 10_000) for s in range(1000)])
    collisions = int(np.sum(np.all(np.isclose(a, b, atol=1e-12), axis=1)))
    assert collisions <= 10


@pytest.mark.parametrize("body", ALL_BODIES, ids=IDS)
def test_sampled_diameter_factor(body):
    rng = np.random.default_rng(5)
    f = body.sample_rows(10_000, rng)
    g = body.sample_rows(10_000, rng)
    d = body.metric_scale * np.linalg.norm(f - g, axis=1)
    assert d.max() <= body.diameter() * (1 + 1e-9)
    assert d.max() >= 0.95 * body.diameter()


# -- diameters ---------------------------------------------------------------


def test_diameter_closed_forms():
    assert LinearL1(7, 1.0).diameter() == 2.0
    assert LinearL1(3, 2.5).diameter() == 5.0
    assert np.isclose(LinearEllipsoid([0.25, 1.0]).diameter(), 2.0)
    assert MonotoneGrid(1, 9).diameter() == 1.0
    assert MonotoneGrid(3, 2).diameter() == 1.0
    assert np.isclose(HolderGrid(0.5, 1.5, 8).diameter(), 3.0)


# -- designs -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform_cube"])
def test_design_isotropy(kind):
    design = DesignDistribution(kind)
    rng = np.random.default_rng(6)
    X = design.sample(200_000, 3, rng)
    se = 1.0 / np.sqrt(len(X))
    assert np.all(np.abs(X.mean(axis=0)) < 4 * se)
    second = X.T @ X / len(X)
    assert np.all(np.abs(second - np.eye(3)) < 4 * 2 * se)


def test_design_tau_defaults():
    assert DesignDistribution("gaussian").tau == 1.0
    assert DesignDistribution("rademacher").tau == 1.0
    assert np.isclose(DesignDistribution("uniform_cube").tau, np.sqrt(3.0))


ISOMETRY_CASES = [
    (body, design)
    for body in (LinearL1(6, 1.0), LinearEllipsoid.sobolev(6))
    for design in ("gaussian", "rademacher", "uniform_cube")
] + [(MonotoneGrid(2, 3), "gaussian"), (HolderGrid(0.6, 1.0, 8), "gaussian")]


@pytest.mark.parametrize("body, design", ISOMETRY_CASES,
                         ids=[f"{b.kind}-{d}" for b, d in ISOMETRY_CASES])
def test_isometry_parameter_vs_function_distance(body, design):
    # dist^2 is the population risk: the mean of (f - g)(X)^2 over draws from
    # P_X matches it within 4 standard errors
    rng = np.random.default_rng(7)
    X = body.sample_design(100_000, DesignDistribution(design), rng)
    for _ in range(4):
        f, g = body.sample_rows(1, rng)[0], body.sample_rows(1, rng)[0]
        z2 = body.evaluate(X, f - g) ** 2
        se = z2.std(ddof=1) / np.sqrt(len(z2))
        assert abs(z2.mean() - dist(body, f, g) ** 2) < 4 * se


# -- moment ratios -----------------------------------------------------------


def test_moment_ratio_gaussian_closed_forms():
    body = LinearL1(4, 1.0)
    rep = moment_ratio_check(body, DesignDistribution("gaussian"),
                             p_values=(2, 4), trials=200_000, seed=11, pairs=4)
    # p=2: ratio is ||.||_L2 / (sqrt(2) ||.||_L2) = 1/sqrt(2) exactly
    assert abs(rep.per_p[2] - 1.0 / np.sqrt(2.0)) < 0.01
    # p=4: L4/L2 = 3^(1/4) for Gaussians, so the alpha ratio is 3^(1/4)/2
    assert abs(rep.per_p[4] - 3.0 ** 0.25 / 2.0) < 0.01


def test_moment_ratio_rademacher_one_sparse():
    # for a 1-sparse direction and Rademacher design, E Z^4 = t^4 so the
    # p=4 alpha ratio is exactly 1/2
    body = LinearL1(4, 1.0)
    design = DesignDistribution("rademacher")
    rng = np.random.default_rng(0)
    X = design.sample(50_000, 4, rng)
    delta = np.array([0.8, 0.0, 0.0, 0.0])
    z = np.abs(X @ delta)
    ratio = np.mean(z ** 4) ** 0.25 / (2.0 * np.linalg.norm(delta))
    assert np.isclose(ratio, 0.5, atol=1e-12)
    assert ratio <= 1.0


def test_moment_check_rejects_grid_classes():
    with pytest.raises(ValueError):
        moment_ratio_check(MonotoneGrid(1, 4), DesignDistribution("gaussian"))


def test_moment_check_rejects_coinciding_pairs():
    # every member of an l1 ball of radius 1e-14 lies within 2e-14 of every other
    with pytest.raises(Degenerate, match="sampled pair coincides"):
        moment_ratio_check(LinearL1(3, 1e-14), DesignDistribution("gaussian"), trials=100)


# -- factory -----------------------------------------------------------------


def test_make_body_from_specs():
    assert make_body("linear_l1", p=3, radius=2.0).diameter() == 4.0
    ell = make_body("ellipsoid", p=4)
    assert np.allclose(ell.a, [(4 - i + 1) ** -2.0 for i in range(1, 5)])
    assert make_body("monotone", p=2, m=3).dim == 9
    assert make_body("holder", alpha=0.5, gamma=1.0, m=6).dim == 6
    with pytest.raises(ValueError):
        make_body("unknown")
