import dataclasses
import hashlib
from math import comb

import numpy as np
import pytest

import locent.entropy as entropy
import locent.harness as harness
from locent.bodies import (
    DesignDistribution,
    HolderGrid,
    LinearEllipsoid,
    LinearL1,
    MonotoneGrid,
    dist,
)
from locent.errors import (
    DegenerateFit,
    InsufficientData,
    PreconditionViolated,
    UnboundedClassWithoutMomentConstant,
)
from locent.estimator import (
    NoiseModel,
    PoolBudget,
    RateConstants,
    stage_schedule,
)
from locent.harness import (
    ExperimentConfig,
    TruthSpec,
    body_for_n,
    check_norm_concentration,
    check_test_error,
    concentration_bound_bounded,
    draw_data,
    fit_rate_slope,
    make_truth,
    run_experiment,
)


# -- slope fitting -------------------------------------------------------------


def test_slope_exact_power_laws():
    ns = [10, 100, 1000, 10_000]
    assert np.isclose(fit_rate_slope([(n, 5.0 / n) for n in ns])["slope"], -1.0)
    assert np.isclose(fit_rate_slope([(n, 2.0 * n ** (-2 / 3)) for n in ns])["slope"], -2 / 3)


def test_slope_with_multiplicative_noise():
    rng = np.random.default_rng(8)
    ns = np.geomspace(50, 500, 8)
    risks = 3.0 / ns * (1.0 + 0.05 * rng.standard_normal(len(ns)))
    fit = fit_rate_slope(list(zip(ns, risks)))
    assert abs(fit["slope"] + 1.0) < 0.1
    assert fit["stderr"] > 0


def test_slope_degenerate_and_preconditions():
    with pytest.raises(DegenerateFit):
        fit_rate_slope([(10, 1.0), (10, 0.5), (10, 0.2)])
    with pytest.raises(ValueError):
        fit_rate_slope([(10, 1.0), (20, 0.5)])


# -- truths and data -------------------------------------------------------------


def test_sparse_truth_on_l1_sphere():
    body = LinearL1(16, 1.0)
    t = make_truth(body, TruthSpec("sparse", s=3, seed=4))
    assert np.isclose(np.abs(t).sum(), 1.0)
    assert np.count_nonzero(t) == 3


def test_identity_truth_monotone():
    body = MonotoneGrid(1, 4)
    t = make_truth(body, TruthSpec("identity"))
    assert np.allclose(t, [(2 * j - 1) / 8 for j in range(1, 5)])
    assert body.contains_coords(t)


def test_fixed_truth_membership_checked():
    body = LinearL1(2, 1.0)
    with pytest.raises(ValueError):
        make_truth(body, TruthSpec("fixed", coords=(2.0, 0.0)))


def test_draw_data_grid_and_linear():
    for body, design in [
        (MonotoneGrid(1, 4), "gaussian"),
        (HolderGrid(0.5, 1.0, 6), "gaussian"),
        (LinearL1(3, 1.0), "rademacher"),
        (LinearEllipsoid.sobolev(4), "uniform_cube"),
    ]:
        t = make_truth(body, TruthSpec("sampled", seed=2))
        d = draw_data(body, DesignDistribution(design), NoiseModel("gaussian", 0.0), t, 32,
                      seed=1)
        assert len(d.y) == len(d.x) == 32
        assert np.array_equal(d.y, body.evaluate(d.x, t)), body.kind
        body.check_design(d.x)


def test_draw_data_uniform_bounded_noise():
    body = MonotoneGrid(1, 4)
    t = make_truth(body, TruthSpec("identity"))
    d = draw_data(body, DesignDistribution("gaussian"), NoiseModel("uniform_bounded", 0.5),
                  t, 4000, seed=3)
    resid = d.y - body.evaluate(d.x, t)
    assert np.all(np.abs(resid) <= 0.5)
    assert resid.min() < -0.45 and resid.max() > 0.45


# -- experiments -----------------------------------------------------------------


def small_config(**kw):
    base = dict(
        body_kind="monotone_grid",
        body_params={"p": 1, "m": "auto"},
        noise=NoiseModel("gaussian", 1.0),
        truth=TruthSpec("identity"),
        n_grid=(32, 64, 128),
        replicates=3,
        practical_scale=20_000.0,
        pool=PoolBudget(size=48, growth=1.2, cap=256),
        master_seed=7,
        theory="monotone",
        theory_params={"p": 1},
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_experiment_reproducible_byte_identical():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows_csv() == b.rows_csv()
    assert a.summary_csv() == b.summary_csv()
    assert a.manifest_json() == b.manifest_json()


@pytest.mark.parametrize("kw, n, pin", [
    ({}, 1024, "b0eff25046f6eac435c319bfbd086eb3710cc66262c366f456ea80346d72f552"),
    ({"body_kind": "linear_l1", "body_params": {"p": 4}, "truth": TruthSpec("sparse", s=2, seed=3),
      "theory": None, "theory_params": {}},
     1024, "16ed7688923e6fbf2440719e3053477c1c05a23b7019667cdecfee6042aafd24"),
    ({"condition_kind": "adaptive"}, 256,
     "d69ae71336e73ba2f56b4f3f3497e07c68707e8237ad4e284a551d58891b9e49"),
], ids=["bounded", "unbounded", "adaptive"])
def test_replicate_trace_bytes_are_pinned(kw, n, pin):
    # what `locent estimate --n N` writes: a change to the schedule, the
    # estimator or the trace's JSON form that moves any byte changes the pin
    cfg = small_config(**kw)
    body = body_for_n(cfg, n)
    constants = harness.constants_for(cfg, body)
    kind = harness.resolve_condition_kind(cfg, body)
    stages = harness.schedule_stages(cfg, n, body, constants, kind, {})
    trace = harness.run_replicate(cfg, n, 0, stages, body, make_truth(body, cfg.truth))
    assert stages > 2
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == pin


def test_experiment_auto_grid_resolution():
    cfg = small_config()
    assert body_for_n(cfg, 64).dim == 8
    assert body_for_n(cfg, 100).dim == 10


def test_experiment_risks_and_theory_recorded():
    cfg = small_config()
    res = run_experiment(cfg)
    for n in cfg.n_grid:
        assert np.all(np.isfinite(res.risks[n]))
        assert np.all(res.risks[n] >= 0)
        assert res.theory_values[n] == pytest.approx(min(n ** (-2 / 3), 1.0))
    assert res.config_digest == cfg.digest()


def test_experiment_threads_byte_identical():
    cfg = small_config()
    assert run_experiment(cfg, threads=2).rows_csv() == run_experiment(cfg).rows_csv()


def _count_profiles(monkeypatch):
    calls = []
    real = harness.local_entropy

    def counting(body, eps_grid, *a, **k):
        calls.append((body.tag, *eps_grid))
        return real(body, eps_grid, *a, **k)

    monkeypatch.setattr(harness, "local_entropy", counting)
    return calls


def test_experiment_fixed_body_builds_one_profile(monkeypatch):
    # every n reads the one body's profile, whose points are built once each
    calls = _count_profiles(monkeypatch)
    run_experiment(small_config(body_params={"p": 1, "m": 6}, replicates=2))
    assert {tag for tag, *_ in calls} == {"monotone_grid:6"}
    assert len(set(calls)) == len(calls)


def test_experiment_auto_grid_builds_one_profile_per_n(monkeypatch):
    calls = _count_profiles(monkeypatch)
    cfg = small_config(replicates=2)
    run_experiment(cfg)
    tags = [tag for tag, *_ in calls]
    assert tags == [body_for_n(cfg, n).tag for n in cfg.n_grid]
    assert len(set(tags)) == len(cfg.n_grid)


@pytest.mark.parametrize("kw", [
    {},
    {"body_params": {"p": 1, "m": 6}, "max_stages": 3},
    {"condition_kind": "adaptive", "n_grid": (32, 64, 100)},
], ids=["auto-grid", "fixed-capped", "adaptive"])
def test_experiment_builds_the_schedule_prefix(monkeypatch, kw):
    # the sweep builds one profile point at a time, only the points some n's
    # stage walk reads, and none twice: the n that share a body share them
    cfg = small_config(replicates=2, **kw)
    grids, reads = [], set()
    real_entropy, real_schedule = harness.local_entropy, harness.stage_schedule

    def building(body, eps_grid, *a, **k):
        grids.append((body.tag, list(eps_grid)))
        return real_entropy(body, eps_grid, *a, **k)

    def walking(log_m, n, *a, **k):
        assert k["ceiling"] == np.log(cfg.profile_budget.pool_size + 1)

        def read(eps):
            reads.add((body_for_n(cfg, n).tag, eps))
            return log_m(eps)
        return real_schedule(read, n, *a, **k)

    monkeypatch.setattr(harness, "local_entropy", building)
    monkeypatch.setattr(harness, "stage_schedule", walking)
    run_experiment(cfg)
    assert all(len(grid) == 1 for _, grid in grids)
    built = [(tag, grid[0]) for tag, grid in grids]
    assert len(set(built)) == len(built)
    assert set(built) == reads


def _ladder_stages(cfg, n, body, constants, kind, counts):
    # the reference: J* off the whole-ladder profile, read with no ceiling
    prof = harness.schedule_profile(cfg, body, constants, kind)
    return stage_schedule(prof.value, n, constants, kind, body.diameter(),
                          max_stages=cfg.max_stages)


@pytest.mark.parametrize("kw", [
    {"body_params": {"p": 1, "m": 6}, "n_grid": (32, 64, 128, 256)},
    {"condition_kind": "adaptive", "body_params": {"p": 1, "m": 6}, "n_grid": (32, 64, 128)},
    {"condition_kind": "adaptive"},
], ids=["shared-body", "adaptive-shared-body", "adaptive"])
def test_trimmed_schedule_profile_writes_the_same_bytes(monkeypatch, kw):
    # the points the walk does not read change no stage count, so the sweep
    # writes what the whole-ladder profile gives, from fewer entropy pools
    pools = []
    real = entropy.greedy_max_packing

    def counting(*a, **k):
        pools.append(1)
        return real(*a, **k)

    monkeypatch.setattr(entropy, "greedy_max_packing", counting)
    cfg = small_config(replicates=2, **kw)

    def outputs():
        pools.clear()
        res = run_experiment(cfg)
        return res.rows_csv(), res.summary_csv(), res.manifest_json(), len(pools)

    *trimmed, trimmed_pools = outputs()
    monkeypatch.setattr(harness, "schedule_stages", _ladder_stages)
    *full, full_pools = outputs()
    assert trimmed == full
    assert 0 < trimmed_pools < full_pools


def test_adaptive_condition_sets_its_own_j_star():
    # small_config's walks are settled by the log-2 floor and the pool
    # ceiling, so there the adaptive condition gives the regime's J*; at this
    # scale the adaptive argument and constant 2c stop the walk elsewhere
    stages = {kind: run_experiment(small_config(condition_kind=kind, practical_scale=2e6,
                                                replicates=1)).stages
              for kind in ("auto", "adaptive")}
    assert stages["auto"] == {32: 5, 64: 6, 128: 6}
    assert stages["adaptive"] == {32: 6, 64: 6, 128: 7}


def test_condition_kind_must_name_the_class_regime():
    # the constants follow the class either way, so a contradicting kind used
    # to run with the other regime's constants under its own profile label
    with pytest.raises(ValueError, match="'unbounded' contradicts the bounded class"):
        run_experiment(small_config(condition_kind="unbounded"))
    cfg = small_config(body_kind="linear_l1", body_params={"p": 4}, condition_kind="bounded",
                       theory=None, theory_params={})
    with pytest.raises(ValueError, match="'bounded' contradicts the unbounded class"):
        harness.resolve_condition_kind(cfg, body_for_n(cfg, 32))
    for kind, want in (("auto", "unbounded"), ("unbounded", "unbounded"),
                       ("adaptive", "adaptive")):
        cfg = dataclasses.replace(cfg, condition_kind=kind)
        assert harness.resolve_condition_kind(cfg, body_for_n(cfg, 32)) == want


def test_experiment_failure_isolation(monkeypatch):
    calls = {"k": 0}
    real = harness._run_cell

    def flaky(cfg, n, rep, stages, body, truth):
        if rep == 1:
            raise RuntimeError("synthetic failure")
        return real(cfg, n, rep, stages, body, truth)

    monkeypatch.setattr(harness, "_run_cell", flaky)
    res = run_experiment(small_config())
    for n in res.n_grid:
        assert np.isnan(res.risks[n][1])
        assert np.isfinite(res.risks[n][0]) and np.isfinite(res.risks[n][2])
    # the surviving replicates match an unpatched run exactly
    monkeypatch.setattr(harness, "_run_cell", real)
    clean = run_experiment(small_config())
    for n in res.n_grid:
        assert clean.risks[n][0] == res.risks[n][0]
        assert clean.risks[n][2] == res.risks[n][2]


def test_experiment_all_failures_raise(monkeypatch):
    # the message names why the replicates failed, on the pool path too
    def broken(*a, **k):
        raise RuntimeError("nope")

    monkeypatch.setattr(harness, "_run_cell", broken)
    for threads in (1, 2):
        with pytest.raises(InsufficientData, match="failed at n=32: RuntimeError x3"):
            run_experiment(small_config(), threads=threads)


def test_experiment_single_replicate_has_no_standard_error(monkeypatch):
    # one finite replicate per n: the standard error is NaN, without numpy's
    # degrees-of-freedom warning, and the diameter ceiling reads the mean
    real = harness._run_cell

    def at_ceiling_first(cfg, n, rep, stages, body, truth):
        if n == cfg.n_grid[0]:
            return body.diameter() ** 2
        return real(cfg, n, rep, stages, body, truth)

    monkeypatch.setattr(harness, "_run_cell", at_ceiling_first)
    res = run_experiment(small_config(replicates=1, n_grid=(32, 64, 128, 256)))
    assert all(np.isnan(res.std_error[n]) for n in res.n_grid)
    assert res.fit_excluded == [32]
    assert res.slope is not None


# -- concentration checks ----------------------------------------------------------


def test_concentration_bound_formula_example():
    # B_F = 1, C = 4: 1 - exp(-3 d^2/32) - exp(-3 d^2/(8*49))
    d2 = 120.0
    want = 1.0 - np.exp(-3 * d2 / 32.0) - np.exp(-3 * d2 / (8.0 * 49.0))
    assert np.isclose(concentration_bound_bounded(np.sqrt(d2), 4.0, 1.0), want)


def test_concentration_f_equals_fbar_trivial_event():
    body = MonotoneGrid(1, 2)
    f = body.point([0.0, 0.0])
    g = body.point([1.0, 1.0])
    n, C = 6400, 4.0
    delta = np.sqrt(n * dist(body, f, g) ** 2 / (C * C)) * 0.999
    rep = check_norm_concentration(body, f, g, f, n, C, float(delta), trials=2000, seed=1)
    assert rep.case == "bounded"
    # f = fbar: the closeness event holds always; frequency is that of the
    # separation event alone, which must still beat the bound
    assert rep.frequency >= rep.bound


def test_concentration_point_mass_design_deterministic():
    body = MonotoneGrid(1, 1)  # single node: empirical norm = population norm
    f, g = body.point([0.0]), body.point([1.0])
    n, C = 6400, 4.0
    delta = np.sqrt(n / (C * C)) * 0.999
    rep = check_norm_concentration(body, f, g, f, n, C, float(delta), trials=500, seed=2)
    assert rep.frequency == 1.0


def test_concentration_preconditions():
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.0, 0.0]), body.point([1.0, 1.0])
    with pytest.raises(PreconditionViolated):
        check_norm_concentration(body, f, g, f, 100, 4.0, 100.0, trials=10, seed=0)
    with pytest.raises(PreconditionViolated):
        check_norm_concentration(body, f, g, g, 6400, 4.0,
                                 float(np.sqrt(6400 / 16.0) * 0.999), trials=10, seed=0)


def test_concentration_unbounded_needs_alpha():
    body = LinearL1(4, 1.0)
    f = body.point([0.5, 0.0, 0.0, 0.0])
    g = body.point([-0.5, 0.0, 0.0, 0.0])
    delta = np.sqrt(400 * 1.0 / 16.0) * 0.999
    with pytest.raises(UnboundedClassWithoutMomentConstant):
        check_norm_concentration(body, f, g, f, 400, 4.0, float(delta),
                                 trials=10, seed=0, alpha=None)
    rep = check_norm_concentration(body, f, g, f, 400, 4.0, float(delta),
                                   trials=2000, seed=3, alpha=1.0, b=0.125)
    assert rep.case == "unbounded"
    assert 0.0 <= rep.frequency <= 1.0


PN_CASES = {
    # (body, f - fbar, f - g, n): a full-rank pair, a rank-1 pair (parallel
    # or opposite differences) and a zero difference (f = fbar) per kind
    "grid-full-rank": (MonotoneGrid(1, 4), [0.2, 0.1, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], 50),
    "grid-rank-1": (MonotoneGrid(1, 4), [0.2, 0.1, 0.0, 0.0], [0.4, 0.2, 0.0, 0.0], 50),
    "grid-zero": (MonotoneGrid(1, 4), [0.0] * 4, [1.0, 1.0, 0.0, 0.0], 50),
    "l1-full-rank": (LinearL1(4, 1.0), [0.1, 0.0, 0.0, 0.05], [2.0, 0.0, 0.0, 0.0], 20),
    "l1-rank-1": (LinearL1(4, 1.0), [0.1, 0.0, 0.0, 0.05], [-0.4, 0.0, 0.0, -0.2], 20),
    "l1-zero": (LinearL1(4, 1.0), [0.0] * 4, [2.0, 0.0, 0.0, 0.0], 20),
}


def _pn_norms(body, diffs, n, trials, seed):
    """The two statistics n ||d||^2_{Pn} of the concentration check, per
    trial, as it reads them off :func:`harness._pair_draws`."""
    draws = harness._pair_draws(body, DesignDistribution("gaussian"), None, n, trials,
                                np.random.default_rng(seed), *diffs)
    return harness._pair_sums(((c * (A * A)).sum(axis=1), (c * (B * B)).sum(axis=1))
                              for c, A, B, *_ in draws)


@pytest.mark.parametrize("case", sorted(PN_CASES))
def test_pn_norms_exact_law_matches_simulation(monkeypatch, case):
    # the exact-law pair against simulating all n design points, on
    # separate seeds: both means, the joint-event frequency and the
    # cross-correlation, which a sampler drawing the two statistics
    # independently gets wrong
    body, close_d, far_d, n = PN_CASES[case]
    diffs = [np.array(close_d), np.array(far_d)]
    trials = 20_000
    assert harness._exact_law_applies(body, DesignDistribution("gaussian"), None, n)
    exact = _pn_norms(body, diffs, n, trials, 31)
    with monkeypatch.context() as m:
        m.setattr(harness, "_exact_law_applies", lambda *args: False)
        direct = _pn_norms(body, diffs, n, trials, 32)

    def within(p, q, se):
        assert abs(p - q) <= 4.0 * se, (p, q, se)

    for e, d in zip(exact, direct):
        within(e.mean(), d.mean(), np.sqrt((e.var() + d.var()) / trials))
    # the event of the check with population thresholds n ||d||^2
    close_t, far_t = (n * dist(body, d, np.zeros_like(d)) ** 2 for d in diffs)
    p, q = (np.mean((c <= close_t) & (f >= 0.75 * far_t)) for c, f in (exact, direct))
    assert 0.01 < min(p, q) and max(p, q) < 0.99
    within(p, q, np.sqrt((p * (1.0 - p) + q * (1.0 - q)) / trials))
    if not np.any(diffs[0]):
        assert not np.any(exact[0]) and not np.any(direct[0])
        return
    # correlation as the mean product of standardized statistics, with its
    # sample SE; parallel differences give a correlation of 1
    prods = [((c - c.mean()) / c.std()) * ((f - f.mean()) / f.std()) for c, f in (exact, direct)]
    assert min(pr.mean() for pr in prods) > 0.5
    within(prods[0].mean(), prods[1].mean(),
           np.sqrt(sum(pr.var() for pr in prods) / trials) + 1e-9)


# -- pairwise test error checks -------------------------------------------------------


def test_check_test_error_zero_noise():
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.0, 0.0]), body.point([1.0, 1.0])
    consts = RateConstants.bounded(4.0, 1e-12, 1.0)
    rep = check_test_error(body, f, g, f, NoiseModel("gaussian", 0.0), 400, consts,
                           trials=500, seed=4)
    assert rep.freq_h0 == 0.0 and rep.freq_h1 == 0.0


def test_check_test_error_bound_holds_gaussian():
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.0, 0.0]), body.point([1.0, 1.0])
    n = 6400
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    rep = check_test_error(body, f, g, f, NoiseModel("gaussian", 1.0), n, consts,
                           trials=4000, seed=5)
    assert rep.worst <= rep.bound
    assert rep.delta == pytest.approx(np.sqrt(n / 16.0))


def test_check_test_error_swap_symmetry():
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.1, 0.3]), body.point([0.7, 0.9])
    n = 1600
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    a = check_test_error(body, f, g, f, NoiseModel("gaussian", 1.0), n, consts,
                         trials=3000, seed=6)
    b = check_test_error(body, g, f, g, NoiseModel("gaussian", 1.0), n, consts,
                         trials=3000, seed=6)
    assert a.freq_h0 == b.freq_h1
    assert a.freq_h1 == b.freq_h0


def test_check_test_error_uniform_bounded_noise_simulates(monkeypatch):
    # no exact law is known for uniform noise: every observation is drawn
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.1, 0.3]), body.point([0.7, 0.9])
    noise, design, n = NoiseModel("uniform_bounded", 1.0), DesignDistribution("gaussian"), 1600
    assert not harness._exact_law_applies(body, design, noise, n)
    sizes = []
    sample = NoiseModel.sample

    def record(self, size, rng):
        sizes.append(size)
        return sample(self, size, rng)

    monkeypatch.setattr(NoiseModel, "sample", record)
    rep = check_test_error(body, f, g, f, noise, n, RateConstants.bounded(4.0, 1.0, 1.0),
                           trials=500, seed=8, design=design)
    assert sizes == [(500, n), (500, n)]
    # the gap's mean is -n ||f - g||^2 = -576, some 20 standard deviations out
    assert rep.freq_h0 == rep.freq_h1 == 0.0 <= rep.bound
    assert rep.noise_kind == "uniform_bounded"


SWAP_CASES = {
    # (body, f, g, f_bar, n), dyadic so that the mirrored truths are exact:
    # the truth on the f-g line (a rank-1 pair u, w), off it (full rank),
    # and a sample smaller than the dimension
    "rank-1": (LinearL1(4, 1.0), [0.25, 0.0, 0.0, 0.0], [-0.25, 0.0, 0.0, 0.0],
               [0.25, 0.0, 0.0, 0.0], 20),
    "full-rank": (LinearL1(4, 1.0), [0.25, 0.0, 0.0, 0.0], [-0.25, 0.0, 0.0, 0.0],
                  [0.25, 0.0625, 0.0, 0.0], 20),
    "n-below-p": (LinearL1(8, 1.0), [0.5] + [0.0] * 7, [-0.5] + [0.0] * 7,
                  [0.5, 0.0, 0.125] + [0.0] * 5, 5),
}


@pytest.mark.parametrize("noise_kind", ["gaussian", "scaled_rademacher"])
def test_check_test_error_swap_symmetry_linear(noise_kind):
    # the exact law draws the gap through a 2x2 Bartlett factor on the span
    # of g - f and the truth's offset; the gap must still negate bit for bit
    # when f and g trade places
    noise, design = NoiseModel(noise_kind, 1.0), DesignDistribution("gaussian")
    for case, (body, f, g, f_bar, n) in SWAP_CASES.items():
        f, g, f_bar = np.array(f), np.array(g), np.array(f_bar)
        consts = RateConstants.unbounded(4.0, 1.0, body.diameter(), 1.0, 0.125)
        assert harness._exact_law_applies(body, design, noise, n), case
        a = check_test_error(body, f, g, f_bar, noise, n, consts, trials=3000, seed=6,
                             design=design)
        b = check_test_error(body, g, f, g + (f_bar - f), noise, n, consts, trials=3000,
                             seed=6, design=design)
        assert 0.0 < a.freq_h0 < 1.0 and 0.0 < a.freq_h1 < 1.0, case
        assert a.freq_h0 == b.freq_h1, case
        assert a.freq_h1 == b.freq_h0, case


def _consts_for(body):
    if body.sup_bound is not None:
        return RateConstants.bounded(4.0, 1.0, body.sup_bound)
    return RateConstants.unbounded(4.0, 1.0, body.diameter(), 1.0, 0.125)


def _exact_and_direct(monkeypatch, body, f, g, noise, n, trials):
    """The same check by the exact-law draws and by simulating every
    observation, on separate seeds."""
    consts = _consts_for(body)
    exact = check_test_error(body, f, g, f, noise, n, consts, trials=trials, seed=21)
    with monkeypatch.context() as m:
        m.setattr(harness, "_exact_law_applies", lambda *args: False)
        direct = check_test_error(body, f, g, f, noise, n, consts, trials=trials, seed=22)
    return exact, direct


_HOLDER = HolderGrid(1.0, 0.25, 4)
ORACLE_CASES = {
    "monotone": (MonotoneGrid(1, 2), [0.1, 0.3], [0.7, 0.9], 40),
    "monotone-dyadic": (MonotoneGrid(1, 2), [0.25, 0.5], [0.75, 1.0], 40),
    "holder-extremes": (_HOLDER, _HOLDER.extreme_points()[0], _HOLDER.extreme_points()[1], 40),
    "l1-n6": (LinearL1(4, 1.0), [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], 6),
    "l1-n20": (LinearL1(4, 1.0), [0.25, 0.0, 0.0, 0.0], [-0.25, 0.0, 0.0, 0.0], 20),
    "l1-n5-below-p": (LinearL1(8, 1.0), [0.5] + [0.0] * 7, [-0.5] + [0.0] * 7, 5),
}


@pytest.mark.parametrize("noise_kind", ["gaussian", "scaled_rademacher"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_check_test_error_exact_law_matches_simulation(monkeypatch, case, noise_kind):
    body, f, g, n = ORACLE_CASES[case]
    f, g = body.point(f), body.point(g)
    noise = NoiseModel(noise_kind, 1.0)
    assert harness._exact_law_applies(body, DesignDistribution("gaussian"), noise, n)
    trials = 20_000
    exact, direct = _exact_and_direct(monkeypatch, body, f, g, noise, n, trials)
    for p, q in [(exact.freq_h0, direct.freq_h0), (exact.freq_h1, direct.freq_h1)]:
        # errors are frequent enough here for the comparison to have power
        assert min(p, q) > 0.01
        se = np.sqrt((p * (1.0 - p) + q * (1.0 - q)) / trials)
        assert abs(p - q) <= 4.0 * se, (p, q)


@pytest.mark.parametrize("f, g, tie_plus", [
    ([0.1, 0.3], [0.7, 0.9], 26),  # decimal values: ties land within rounding of 0
    ([0.2, 0.3], [0.6, 0.7], 24),  # as above; most computed gaps at a tie are < 0
    ([0.25, 0.5], [0.75, 1.0], 25),  # dyadic values: the tie is exact in floats
])
def test_check_test_error_rademacher_ties_give_psi_one(monkeypatch, f, g, tie_plus):
    # g - f is the constant h and the truth sits at f (H0) or g (H1), so
    # with k plus signs among n = 40 the gap rss_f - rss_g is
    # h (2 (2k - n) - h n) under H0 and h (2 (2k - n) + h n) under H1; the
    # ties at k = tie_plus and k = n - tie_plus count as psi = 1
    body = MonotoneGrid(1, 2)
    n, trials = 40, 20_000
    want_h0 = sum(comb(n, k) for k in range(tie_plus, n + 1)) / 2.0 ** n
    want_h1 = sum(comb(n, k) for k in range(n - tie_plus)) / 2.0 ** n
    for rep in _exact_and_direct(monkeypatch, body, body.point(f), body.point(g),
                                 NoiseModel("scaled_rademacher", 1.0), n, trials):
        for got, want in [(rep.freq_h0, want_h0), (rep.freq_h1, want_h1)]:
            assert abs(got - want) <= 4.0 * np.sqrt(want * (1.0 - want) / trials), (got, want)


def test_check_test_error_precondition():
    body = MonotoneGrid(1, 2)
    f, g = body.point([0.0, 0.0]), body.point([1.0, 1.0])
    consts = RateConstants.bounded(4.0, 1.0, 1.0)
    with pytest.raises(PreconditionViolated):
        check_test_error(body, f, g, g, NoiseModel("gaussian", 1.0), 400, consts,
                         trials=10, seed=0)
