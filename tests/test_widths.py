import numpy as np
import pytest
from scipy.optimize import minimize

from locent.bodies import LinearL1, MonotoneGrid
from locent.entropy import exact_local_entropy
from locent.packing import exhaustive_max_packing
from locent.widths import (
    Box,
    Ellipsoid,
    L1Ball,
    L2Ball,
    Singleton,
    SparseTangentConeBall,
    gaussian_width,
    sparse_cone_width_bound,
    squared_width_mean,
    sudakov_entropy_bound,
)


def test_unit_disk_width_closed_form():
    est = gaussian_width(L2Ball(2), draws=4096, seed=11)
    target = np.sqrt(np.pi / 2.0)
    assert abs(est.value - target) / target < 0.02
    assert est.std_error > 0 and est.draws == 4096


def test_width_needs_two_draws():
    # one draw used to give a NaN standard error with a RuntimeWarning
    with pytest.raises(ValueError, match="draws >= 2"):
        gaussian_width(L2Ball(2), draws=1, seed=0)


def test_singleton_zero():
    assert gaussian_width(Singleton([0.0, 0.0, 0.0]), draws=64, seed=0).value == 0.0


def test_interval_width_closed_form():
    # w([0,1]) = E max(0, g) = 1/sqrt(2 pi)
    est = gaussian_width(Box([0.0], [1.0]), draws=100_000, seed=5)
    assert abs(est.value - 1.0 / np.sqrt(2.0 * np.pi)) < 3 * est.std_error + 1e-3


def test_ellipsoid_support_closed_form():
    # sup over the ellipsoid of <theta, g> = sqrt(sum a_i g_i^2)
    s = Ellipsoid([0.25, 1.0])
    g = np.array([[1.0, 2.0]])
    assert np.isclose(s.support_rows(g)[0], np.sqrt(0.25 + 4.0))


def test_l1_ball_support_closed_form():
    s = L1Ball(4, radius=2.0)
    g = np.array([[0.5, -3.0, 1.0, 0.0]])
    est_val = s.scale * s.support_rows(g)[0]
    assert np.isclose(est_val, 2.0 * 3.0)


def test_width_monotonicity_exact_under_crn():
    # nested sets with shared draws compare exactly per draw
    inner = L2Ball(3, radius=1.0)
    outer = Box([-1, -1, -1], [1, 1, 1])
    wi = gaussian_width(inner, draws=512, seed=7)
    wo = gaussian_width(outer, draws=512, seed=7)
    assert wi.value <= wo.value


def test_width_homogeneity_exact_under_crn():
    base = gaussian_width(Ellipsoid([0.3, 0.7, 1.0]), draws=256, seed=9)
    scaled = gaussian_width(Ellipsoid([0.3, 0.7, 1.0]).scaled(2.5), draws=256, seed=9)
    assert np.isclose(scaled.value, 2.5 * base.value, rtol=0, atol=1e-12)


def test_sparse_cone_support_matches_nonlinear_solver():
    rng = np.random.default_rng(3)
    p, s = 6, 2
    beta = np.zeros(p)
    beta[0], beta[1] = 0.6, -0.4
    cone = SparseTangentConeBall(beta)
    sgn = np.sign(beta[:s])
    G = rng.standard_normal((8, p))
    vals = cone.support_rows(G)

    # the off-support coordinates are split as u - w with u, w >= 0, so the
    # cone constraint sgn . t_S + sum(u + w) <= 0 is linear and SLSQP sees
    # only smooth constraints; u = max(x, 0), w = max(-x, 0) reach every
    # point of the original feasible set, so the maximum is the same
    def point(z):
        return np.concatenate([z[:s], z[s:p] - z[p:]])

    bounds = [(None, None)] * s + [(0.0, None)] * (2 * (p - s))

    def oracle(g):
        best = 0.0
        for _ in range(40):
            x0 = rng.standard_normal(p) * 0.5
            z0 = np.concatenate([x0[:s], np.maximum(x0[s:], 0.0), np.maximum(-x0[s:], 0.0)])
            cons = [
                {"type": "ineq", "fun": lambda z: 1 - point(z) @ point(z)},
                {"type": "ineq", "fun": lambda z: -(sgn @ z[:s] + z[s:].sum())},
            ]
            r = minimize(lambda z: -(g @ point(z)), z0, constraints=cons, method="SLSQP",
                         bounds=bounds, options={"maxiter": 200, "ftol": 1e-12})
            if r.success:
                best = max(best, -r.fun)
        return best

    for g, v in zip(G, vals):
        assert abs(oracle(g) - v) < 1e-6


@pytest.mark.parametrize("p,s", [(64, 4), (128, 8)])
def test_sparse_cone_squared_width_bound(p, s):
    beta = np.zeros(p)
    beta[:s] = 1.0 / s
    w2 = squared_width_mean(SparseTangentConeBall(beta), draws=4096, seed=7)
    assert w2 <= sparse_cone_width_bound(s, p)


def test_sudakov_zero_width():
    assert sudakov_entropy_bound(0.0, 0.5) == 0.0


def test_sudakov_interval_example():
    # w([0,1]) = 1/sqrt(2 pi); bound at eps = 0.5, c = 2 (separation 0.25)
    # dominates the exhaustive log packing count
    w = 1.0 / np.sqrt(2.0 * np.pi)
    interval = MonotoneGrid(1, 1)
    cands = np.linspace(0, 1, 21)[:, None]
    count = len(exhaustive_max_packing(interval, cands, 0.25))
    assert np.log(count) <= sudakov_entropy_bound(w, 0.25)
    # and at separation 0.5 the count is 2
    count2 = len(exhaustive_max_packing(interval, cands, 0.5))
    assert count2 == 2
    assert np.log(count2) <= sudakov_entropy_bound(w, 0.5)


def test_sudakov_dominates_exhaustive_counts_small_instances():
    rng = np.random.default_rng(4)
    # 1-D intervals via the monotone grid body
    # separations stay below half the diameter: the display's constant 2 is
    # too small for the trivial two-point packings near the diameter (for
    # [0,1] at separation 0.8, log 2 > 2 w^2 / sep^2), a regime where
    # Sudakov minoration is known to be weak
    interval = MonotoneGrid(1, 1)
    cands = np.linspace(0, 1, 21)[:, None]
    w_interval = gaussian_width(Box([0.0], [1.0]), draws=200_000, seed=1).value
    for sep in (0.15, 0.2, 0.35, 0.5):
        cnt = len(exhaustive_max_packing(interval, cands, sep))
        assert np.log(cnt) <= sudakov_entropy_bound(w_interval, sep)
    # l1 ball in the plane
    body = LinearL1(2, 1.0)
    base = np.linspace(-1, 1, 5)
    cands = np.array([[a, b] for a in base for b in base if abs(a) + abs(b) <= 1.0])
    w_l1 = gaussian_width(L1Ball(2), draws=200_000, seed=2).value
    for sep in (0.4, 0.7, 1.0):
        cnt = len(exhaustive_max_packing(body, cands, sep))
        assert np.log(cnt) <= sudakov_entropy_bound(w_l1, sep)


def test_adaptive_entropy_below_cone_width_sudakov_chain():
    # log M_adloc(beta*, eps, c) <= 2 c^2 w(cone and ball)^2: the display
    # chain, checked with the exact exhaustive count on a small instance
    p, c = 2, 2.0
    body = LinearL1(p, 1.0)
    beta = np.array([1.0, 0.0])
    base = np.linspace(-1, 1, 9)
    cands = np.array([[a, b] for a in base for b in base if abs(a) + abs(b) <= 1.0 + 1e-12])
    cone_w = gaussian_width(SparseTangentConeBall(beta), draws=100_000, seed=3).value
    for eps in (0.5, 1.0):
        prof = exact_local_entropy(body, cands, [eps], c=c, mode="adaptive", center=beta)
        assert prof.log_m[0] <= 2.0 * c * c * cone_w ** 2 + 1e-9
