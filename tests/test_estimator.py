import numpy as np
import pytest

from locent.bodies import (
    DesignDistribution,
    HolderGrid,
    LinearEllipsoid,
    LinearL1,
    MonotoneGrid,
    dist,
)
from locent.entropy import EntropyProfile
from locent.errors import (
    DataDimensionMismatch,
    IdenticalHypotheses,
    ProfileTooCoarse,
)
from locent.estimator import (
    EstimatorTrace,
    NoiseModel,
    PoolBudget,
    RateConstants,
    RegressionData,
    entropy_arg,
    exponent_constant_bounded,
    exponent_constant_unbounded,
    pairwise_test_psi,
    run_algorithm1,
    schedule_depth,
    stage_eps,
    stage_schedule,
    structured_candidates,
)
from locent.harness import TruthSpec, draw_data, make_truth

LOG2 = np.log(2.0)


# -- constants ----------------------------------------------------------------


def test_exponent_constant_bounded_formula():
    C, sigma, B = 4.0, 1.0, 1.0
    first = (np.sqrt(15.0) - 2.0 * np.sqrt(2.0)) ** 2 / 8.0
    second = 3.0 / 64.0
    third = 3.0 / (16.0 * 49.0)
    assert np.isclose(exponent_constant_bounded(C, sigma, B), min(first, second, third))
    # with C=4, sigma=1, B=1 the third term is the smallest
    assert np.isclose(exponent_constant_bounded(C, sigma, B), 3.0 / 784.0)


def test_exponent_constant_unbounded_formula():
    C, sigma, d, alpha, b = 4.0, 1.0, 2.0, 1.0, 0.125
    first = (np.sqrt(15.0) - 2.0 * np.sqrt(2.0)) ** 2 / 8.0
    second = b / (16.0 * 9.0 * 4.0)
    assert np.isclose(exponent_constant_unbounded(C, sigma, d, alpha, b), min(first, second))


def test_constants_require_C_above_3():
    with pytest.raises(ValueError):
        RateConstants.bounded(3.0, 1.0, 1.0)
    assert RateConstants.bounded(4.0, 1.0, 1.0).c == 10.0


def test_practical_scale_only_rescales_L():
    base = RateConstants.bounded(4.0, 1.0, 1.0)
    scaled = RateConstants.bounded(4.0, 1.0, 1.0, practical_scale=100.0)
    assert scaled.L_paper == base.L_paper
    assert np.isclose(scaled.L, 100.0 * base.L_paper)


# -- algorithm runs -----------------------------------------------------------


def test_zero_noise_truth_in_pool_selects_within_separation():
    # zero residual beats positive residual: with the truth injected and no
    # noise, the selected center is the packing center covering the truth,
    # so the final error is at most the last separation
    body = MonotoneGrid(1, 1)  # the interval
    truth = body.point([0.3])
    data = draw_data(body, DesignDistribution("gaussian"), NoiseModel("gaussian", 0.0),
                     truth, n=8, seed=2)
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    J = 4
    trace = run_algorithm1(body, data, consts, stages=J,
                           pool_budget=PoolBudget(size=32), seed=5,
                           truth_injection=truth, eval_truth=truth)
    last_sep = body.diameter() / (2.0 ** (J - 1) * (consts.C + 1.0))
    assert trace.truth_distances[-1] <= last_sep + 1e-12


def test_zero_noise_two_member_selection_picks_truth():
    # the least-squares selection over an explicit two-member packing with
    # zero noise returns the truth exactly
    body = MonotoneGrid(1, 2)
    f = body.point([0.2, 0.4])
    g = body.point([0.7, 0.9])
    idx = np.array([0, 1, 1, 0])
    data = RegressionData(y=f[idx], x=idx)
    rss = data.rss(np.vstack([f, g]))
    assert rss[0] == 0.0 and rss[1] > 0.0


def test_single_stage_returns_anchor_with_error_at_most_diameter():
    body = MonotoneGrid(1, 4)
    truth = make_truth(body, TruthSpec("identity"))
    data = draw_data(body, DesignDistribution("gaussian"), NoiseModel("gaussian", 1.0),
                     truth, n=16, seed=1)
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    trace = run_algorithm1(body, data, consts, stages=1, seed=3, eval_truth=truth)
    assert trace.total_stages == 1
    assert np.allclose(trace.final, body.project(np.zeros(body.dim)))
    assert trace.truth_distances[0] <= body.diameter()


def test_trace_cauchy_property_randomized():
    rng = np.random.default_rng(0)
    body = LinearL1(6, 1.0)
    consts = RateConstants.unbounded(4.0, 1.0, body.diameter(), 1.0)
    for trial in range(5):
        truth = body.point(body.sample_rows(1, rng)[0])
        data = draw_data(body, DesignDistribution("gaussian"),
                         NoiseModel("gaussian", 0.5), truth, n=64, seed=trial)
        trace = run_algorithm1(body, data, consts, stages=6,
                               pool_budget=PoolBudget(size=48), seed=trial)
        d = trace.diameter
        ups = trace.upsilon
        for j in range(len(ups)):
            for k in range(j + 1, len(ups)):
                assert dist(body, ups[j], ups[k]) <= d / 2.0 ** (j - 1) * (1 + 1e-9)
        trace.validate_cauchy(body)


def test_validate_cauchy_rejects_tampered_traces():
    body = LinearL1(2, 1.0)  # diameter 2, so |Y3 - Y4| <= 1 and |Y1 - Y2| <= 4
    d = body.diameter()

    def trace(xs, radii):
        ups = np.array([[x, 0.0] for x in xs])
        return EstimatorTrace(ups, radii, [1] * len(radii), [0] * len(radii), d)

    trace([0.0, 0.5, 0.5, 0.25], [1.0, 0.5, 0.25]).validate_cauchy(body)
    with pytest.raises(AssertionError, match=r"stage 2 moved 0\.5 > radius 0\.25"):
        trace([0.0, 0.0, 0.5, 0.5], [1.0, 0.25, 0.25]).validate_cauchy(body)
    # every step within its tampered radius, but Y3 and Y4 are 1.5 apart
    with pytest.raises(AssertionError, match=r"Cauchy violation: \|Y3-Y4\| = 1\.5 > 1\.0"):
        trace([0.0, 0.0, -0.75, 0.75], [2.0, 2.0, 2.0]).validate_cauchy(body)


def test_every_iterate_is_member():
    body = MonotoneGrid(1, 6)
    truth = make_truth(body, TruthSpec("identity"))
    data = draw_data(body, DesignDistribution("gaussian"), NoiseModel("gaussian", 1.0),
                     truth, n=64, seed=4)
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    trace = run_algorithm1(body, data, consts, stages=5, seed=6)
    for u in trace.upsilon:
        assert body.contains_coords(u)


def test_run_deterministic_bit_for_bit():
    body = LinearL1(5, 1.0)
    truth = make_truth(body, TruthSpec("sparse", s=2, seed=9))
    data = draw_data(body, DesignDistribution("gaussian"), NoiseModel("gaussian", 1.0),
                     truth, n=128, seed=11)
    consts = RateConstants.unbounded(4.0, 1.0, body.diameter(), 1.0)
    t1 = run_algorithm1(body, data, consts, stages=5, seed=13)
    t2 = run_algorithm1(body, data, consts, stages=5, seed=13)
    assert t1.chosen_indices == t2.chosen_indices
    assert np.array_equal(t1.upsilon, t2.upsilon)
    assert t1.to_json() == t2.to_json()


def test_zero_noise_injected_truth_final_distance_bound():
    # final distance <= stage separation + final radius
    body = MonotoneGrid(1, 4)
    truth = make_truth(body, TruthSpec("identity"))
    # deterministic full design: every node observed, empirical = population
    idx = np.tile(np.arange(body.dim), 8)
    data = RegressionData(y=truth[idx], x=idx)
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    J = 5
    trace = run_algorithm1(body, data, consts, stages=J,
                           pool_budget=PoolBudget(size=64), seed=21,
                           truth_injection=truth, eval_truth=truth)
    d = body.diameter()
    C = consts.C
    bound = d / (2.0 ** J * (C + 1.0)) + d / 2.0 ** (J - 1)
    assert trace.truth_distances[-1] <= bound + 1e-12


def test_data_dimension_mismatch():
    body = MonotoneGrid(1, 4)
    data = RegressionData(y=np.zeros(3), x=np.array([0, 1, 9]))
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    with pytest.raises(DataDimensionMismatch):
        run_algorithm1(body, data, consts, stages=2, seed=0)


@pytest.mark.parametrize("y, x", [
    (np.zeros(3), np.array([0, 1])),
    (np.zeros(3), np.zeros((4, 2))),
    (np.zeros(2), np.zeros((2, 2, 2))),
], ids=["indices", "rows", "ndim3"])
def test_regression_data_rejects_x_of_the_wrong_shape(y, x):
    with pytest.raises(DataDimensionMismatch):
        RegressionData(y=y, x=x)


def test_fractional_node_indices_are_rejected():
    # a cast to int64 would truncate them to [0 1 2 0] without a word
    with pytest.raises(DataDimensionMismatch):
        RegressionData(y=np.ones(4), x=[0.7, 1.2, 2.9, 0.1])
    with pytest.raises(DataDimensionMismatch):
        RegressionData(y=np.ones(2), x=[np.nan, 1.0])
    # integer-valued indices of any dtype still load
    for x in ([0.0, 1.0, 2.0, 0.0], np.array([0, 1, 2, 0], dtype=np.uint8)):
        data = RegressionData(y=np.ones(4), x=x)
        assert data.x.dtype == np.int64 and data.x.tolist() == [0, 1, 2, 0]


@pytest.mark.parametrize("body, x", [
    (LinearL1(4), [0, 1, 2, 3, 1, 2]),
    (MonotoneGrid(1, 3), np.full((6, 3), 0.5)),
], ids=["indices-for-linear", "rows-for-grid"])
def test_design_of_the_wrong_kind_is_rejected(body, x):
    # the shapes alone fit (indices below p, rows of width dim); the body
    # knows which kind of design it takes
    data = RegressionData(y=np.ones(6), x=x)
    with pytest.raises(DataDimensionMismatch):
        run_algorithm1(body, data, RateConstants(4.0, 0.01), 3)


# -- pool extras --------------------------------------------------------------


@pytest.mark.parametrize("body", [
    LinearL1(8), LinearEllipsoid.sobolev(6), MonotoneGrid(2, 4), HolderGrid(0.5, 1.0, 6),
], ids=lambda b: b.tag)
def test_structured_candidates_are_a_pure_function_of_the_ball(body):
    center = body.sample_rows(1, np.random.default_rng(4))[0]
    radius = 0.5 * body.diameter()
    rows = structured_candidates(body, center, radius)
    assert rows.tobytes() == structured_candidates(body, center, radius).tobytes()
    # extreme points, two blends and an away step each; four axis steps per dim
    assert rows.shape == (4 * len(body.extreme_points()) + 4 * body.dim, body.dim)
    assert all(body.contains_coords(r) for r in rows)


def test_structured_candidates_skip_axis_steps_past_the_dim_cap():
    body = MonotoneGrid(2, 12)
    center = body.sample_rows(1, np.random.default_rng(4))[0]
    rows = structured_candidates(body, center, 0.5)
    assert rows.shape == (8, 144)
    assert all(body.contains_coords(r) for r in rows)


# -- pairwise test ------------------------------------------------------------


def test_psi_zero_noise_cases():
    body = MonotoneGrid(1, 2)
    f = body.point([0.0, 0.0])
    g = body.point([1.0, 1.0])
    idx = np.array([0, 1, 0, 1])
    data_f = RegressionData(y=f[idx], x=idx)
    data_g = RegressionData(y=g[idx], x=idx)
    assert pairwise_test_psi(body, f, g, data_f) is False
    assert pairwise_test_psi(body, f, g, data_g) is True


def test_psi_antisymmetry_when_residuals_differ():
    body = LinearL1(4, 1.0)
    rng = np.random.default_rng(17)
    f = body.point(body.sample_rows(1, rng)[0])
    g = body.point(body.sample_rows(1, rng)[0])
    for seed in range(20):
        truth = body.point(body.sample_rows(1, np.random.default_rng(seed))[0])
        data = draw_data(body, DesignDistribution("gaussian"),
                         NoiseModel("gaussian", 0.7), truth, n=32, seed=seed)
        assert pairwise_test_psi(body, f, g, data) != pairwise_test_psi(body, g, f, data)


def test_psi_exact_ties_give_one():
    # g - f is the constant h = 0.6; with k plus signs among n = 40 unit
    # errors the gap rss_f - rss_g is h (2 (2k - n) - h n) with the truth at
    # f and h (2 (2k - n) + h n) with it at g, so k = 26 and k = 14 are exact
    # ties whose decimal inputs round the computed gap to either side of 0
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.1, 0.3]), body.point([0.7, 0.9])
    n = 40
    rng = np.random.default_rng(5)
    for truth, plus in [(f, 26), (g, 14)]:
        for k, want in [(plus - 1, False), (plus, True), (plus + 1, True)]:
            for _ in range(100):
                idx = rng.integers(0, 2, size=n)
                e = np.where(rng.permutation(n) < k, 1.0, -1.0)
                data = RegressionData(y=truth[idx] + e, x=idx)
                assert pairwise_test_psi(body, f, g, data) is want, (k, idx, e)


def test_psi_rejects_a_design_of_the_wrong_kind():
    body = LinearL1(3, 1.0)
    f, g = body.point([0.5, 0.0, 0.0]), body.point([-0.5, 0.0, 0.0])
    with pytest.raises(DataDimensionMismatch):
        pairwise_test_psi(body, f, g, RegressionData(y=np.ones(3), x=[0, 1, 2]))


def test_psi_identical_hypotheses():
    body = LinearL1(3, 1.0)
    f = body.point([0.5, 0.0, 0.0])
    data = RegressionData(y=np.zeros(4), x=np.zeros((4, 3)))
    with pytest.raises(IdenticalHypotheses):
        pairwise_test_psi(body, f, f, data)


# -- stage schedules ----------------------------------------------------------


def flat_profile(c, value, lo=1e-4, hi=16.0):
    return EntropyProfile(c=c, kind="global", eps=np.array([lo, hi]),
                          log_m=np.array([value, value]), exact=True)


def test_schedule_singleton_profile_reduces_to_log2_condition():
    # logM = 0: condition becomes n eps_J^2 > log 2
    consts = RateConstants(C=4.0, L_paper=1.0)
    d, c, n = 1.0, consts.c, 100
    J = stage_schedule(flat_profile(c, 0.0), n, consts, "bounded", d)
    eps = lambda J: d / (2.0 ** (J - 2) * c)
    explicit = max(J for J in range(1, 60) if n * eps(J) ** 2 > LOG2)
    assert J == explicit == 2
    assert np.allclose([stage_eps(j, consts, d) for j in (1, 2)], [eps(1), eps(2)])


def test_schedule_never_satisfied_gives_one():
    consts = RateConstants(C=4.0, L_paper=1.0)
    # constant profile k with n eps_1^2 <= log 2
    assert stage_schedule(flat_profile(consts.c, 5.0), 1, consts, "bounded", 0.5) == 1


def test_schedule_rejects_max_stages_below_one():
    consts = RateConstants(C=4.0, L_paper=1.0)
    # n = 1 fails even J = 1, which used to hide the bad cap
    for n in (1, 10_000):
        with pytest.raises(ValueError, match="max_stages"):
            stage_schedule(flat_profile(consts.c, 0.0), n, consts, "bounded", 1.0,
                           max_stages=0)


def test_schedule_power_profile_matches_direct_scan():
    # logM(eps) = eps^(-2(p-1)), p = 3; compare against an explicit scan of
    # the same condition evaluated with the true power law
    p, n = 3, 10_000
    consts = RateConstants(C=4.0, L_paper=1.0)
    c, d = consts.c, 1.0
    eps_grid = np.geomspace(1e-5, 8.0, 120)
    prof = EntropyProfile(c=c, kind="global", eps=eps_grid,
                          log_m=eps_grid ** (-2.0 * (p - 1)), exact=True)
    j_star = stage_schedule(prof, n, consts, "bounded", d, max_stages=60)

    def eps_at(J):
        return d / (2.0 ** (J - 2) * c)

    def holds(J):
        e = eps_at(J)
        arg = d / 2.0 ** (J - 2)
        return n * e * e > max(2.0 * arg ** (-2.0 * (p - 1)), LOG2)

    explicit = 1
    for J in range(1, 60):
        if holds(J):
            explicit = J
        else:
            break
    assert j_star == explicit
    # the schedule's eps_J* is within one halving of the continuum crossing
    # of n eps^2 = 2 logM(kappa eps) with kappa = c / sqrt(L) = c
    kappa = c / np.sqrt(consts.L)
    from scipy.optimize import brentq
    root = brentq(lambda e: n * e * e - 2.0 * (kappa * e) ** (-2.0 * (p - 1)), 1e-6, 10.0)
    assert 0.5 * root <= stage_eps(j_star, consts, d) <= 2.0 * root


def test_schedule_profile_too_coarse():
    consts = RateConstants(C=4.0, L_paper=1.0)
    prof = EntropyProfile(c=consts.c, kind="global", eps=np.array([2.0, 4.0]),
                          log_m=np.array([1.0, 1.0]), exact=True)
    with pytest.raises(ProfileTooCoarse):
        stage_schedule(prof, 10_000_000, consts, "bounded", 1.0, max_stages=60)


@pytest.mark.parametrize("max_stages", [6, 14])
@pytest.mark.parametrize("kind", ["bounded", "unbounded", "adaptive"])
def test_schedule_prefix_gives_the_ladder_j_star(kind, max_stages):
    # the profile on the arguments of J = 1 .. schedule_depth(n) alone gives
    # the j_star of the whole ladder d 2^(2-j), j = 0 .. max_stages + 2
    consts = RateConstants(C=4.0, L_paper=1.0)
    d = 1.0
    c = 2.0 * consts.c if kind == "adaptive" else consts.c
    ladder = np.array(sorted(d * 2.0 ** (2 - j) for j in range(max_stages + 3)))
    log_m = np.log(np.ceil(3.0 * (4.0 * d / ladder) ** 0.7))
    full = EntropyProfile(c=c, kind=kind, eps=ladder, log_m=log_m)
    seen = set()
    for n in np.unique(np.geomspace(1, 1e11, 400).astype(int)):
        depth = schedule_depth(n, consts, d, max_stages)
        keep = np.isin(ladder, [entropy_arg(J, d, kind) for J in range(1, depth + 1)])
        assert keep.sum() == depth
        prefix = EntropyProfile(c=c, kind=kind, eps=ladder[keep], log_m=log_m[keep])
        j_star = stage_schedule(full, n, consts, kind, d, max_stages=max_stages)
        assert stage_schedule(prefix, n, consts, kind, d, max_stages=max_stages) == j_star
        assert j_star <= depth
        seen.add((depth, j_star))
    assert (1, 1) in seen  # J = 1 fails the log-2 floor: a one-point profile
    assert (max_stages, max_stages) in seen  # the cap binds
    assert any(1 < j_star < depth for depth, j_star in seen)  # the entropy binds


def test_schedule_depth_is_the_log2_floor():
    consts = RateConstants(C=4.0, L_paper=1.0)
    # eps_J = 0.2 / 2^(J-1) for d = 1, so n eps_J^2 > log 2 iff n > 25 log 2 4^(J-1)
    for n, depth in [(1, 1), (69, 1), (70, 2), (277, 2), (278, 3), (1e12, 14)]:
        assert schedule_depth(n, consts, 1.0, max_stages=14) == depth


def test_schedule_adaptive_uses_doubled_argument():
    # with a profile that jumps at the argument boundary, the adaptive kind
    # must read the entropy at 2 d / 2^(J-2) rather than d / 2^(J-2)
    consts = RateConstants(C=4.0, L_paper=1.0)
    d, n = 1.0, 200
    c2 = 2.0 * consts.c
    # big entropy above eps = 3, zero below: J=1 has argument 2d=2 (bounded)
    # vs 4 (adaptive)
    prof = EntropyProfile(c=c2, kind="adaptive", eps=np.array([0.01, 3.0, 3.01, 8.0]),
                          log_m=np.array([0.0, 0.0, 50.0, 50.0]), exact=False,
                          center=np.zeros(1))
    # blocked by the huge entropy at arg 4
    assert stage_schedule(prof, n, consts, "adaptive", d) == 1
    prof_b = EntropyProfile(c=consts.c, kind="global", eps=prof.eps, log_m=prof.log_m)
    assert stage_schedule(prof_b, n, consts, "bounded", d) == 2  # argument 2 sees zero entropy
