"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The Monte Carlo experiments (criteria 5-7) dominate the runtime at
a few minutes total.
"""

import time
from pathlib import Path

import numpy as np

from locent.bodies import (
    DesignDistribution,
    HolderGrid,
    LinearEllipsoid,
    LinearL1,
    MonotoneGrid,
    dist,
)
from locent.cli import main as cli_main
from locent.entropy import EntropyBudget, local_entropy
from locent.estimator import NoiseModel, PoolBudget, RateConstants, run_algorithm1
from locent.harness import (
    ExperimentConfig,
    TruthSpec,
    check_norm_concentration,
    check_test_error,
    draw_data,
    fit_rate_slope,
    moment_ratio_check,
    run_experiment,
)
from locent.packing import greedy_max_packing, greedy_select
from locent.rates import kolmogorov_index, solve_eps_star
from locent.widths import (
    Box,
    Ellipsoid,
    L1Ball,
    L2Ball,
    SparseTangentConeBall,
    gaussian_width,
    sparse_cone_width_bound,
    squared_width_mean,
    sudakov_entropy_bound,
)

from conftest import UnitBox
from oracles import exact_local_entropy, exhaustive_max_packing, scaled
from test_rates import constant_profile, oracle_scan, power_profile


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_acceptance_01_packing_validity():
    t0 = time.time()
    plans = [
        (LinearL1(6, 1.0), 350),
        (LinearEllipsoid.sobolev(6), 250),
        (MonotoneGrid(1, 8), 250),
        (MonotoneGrid(2, 3), 50),
        (HolderGrid(0.5, 1.0, 6), 100),
    ]
    calls = 0
    for body, count in plans:
        rng = np.random.default_rng(len(body.kind))
        d = body.diameter()
        for trial in range(count):
            center = body.sample_rows(1, rng)[0]
            radius = float(rng.uniform(0.15, 1.1)) * d
            sep = float(rng.uniform(0.05, 0.5)) * radius
            # validate=True asserts strict separation and pool-maximality
            greedy_max_packing(body, center, radius, sep,
                               pool_seed=trial, pool_size=16, validate=True)
            calls += 1
    assert calls == 1000
    # exhaustive oracle dominates greedy on 200 small instances
    rng = np.random.default_rng(77)
    wins = 0
    for trial in range(200):
        p = int(rng.integers(1, 4))
        box = UnitBox(p)
        pts = rng.random((int(rng.integers(2, 15)), p))
        sep = float(rng.uniform(0.05, 1.0))
        ex = len(exhaustive_max_packing(box, pts, sep, cap=15))
        gr = len(greedy_select(box, pts, sep, start=0))
        assert ex >= gr
        wins += 1
    elapsed = time.time() - t0
    report(1, calls == 1000 and wins == 200 and elapsed < 30.0,
           f"1000 validated greedy packings + 200 exhaustive>=greedy in {elapsed:.1f}s")


def test_acceptance_02_entropy_monotonicity():
    t0 = time.time()
    # exact profiles on exhaustive instances
    interval = MonotoneGrid(1, 1)
    exact_ok = True
    prof = exact_local_entropy(interval, np.linspace(0, 1, 21)[:, None],
                               [0.3, 0.5, 0.8, 1.2, 2.0], c=2.0)
    exact_ok &= bool(np.all(np.diff(prof.log_m) <= 1e-12))
    mg = MonotoneGrid(1, 2)
    vals = np.linspace(0, 1, 5)
    cands = np.array([[a, b] for a in vals for b in vals if a <= b])
    prof = exact_local_entropy(mg, cands, [0.5, 0.75, 1.1, 1.6], c=2.0)
    exact_ok &= bool(np.all(np.diff(prof.log_m) <= 1e-12))
    l1 = LinearL1(2, 1.0)
    base = [0.0, 0.5, 1.0, -0.5, -1.0]
    cands = np.array([[a, b] for a in base for b in base if abs(a) + abs(b) <= 1.0])
    prof = exact_local_entropy(l1, cands, [1.0, 1.5, 2.2, 3.0], c=2.0)
    exact_ok &= bool(np.all(np.diff(prof.log_m) <= 1e-12))
    # greedy profiles monotone after running-max with <= 15% correction
    greedy_ok = True
    for body in (LinearL1(6, 1.0), LinearEllipsoid.sobolev(6),
                 MonotoneGrid(1, 8), HolderGrid(0.5, 1.0, 6)):
        d = body.diameter()
        grid = [d * 2.0 ** (1 - j) for j in range(8)]
        prof = local_entropy(body, grid, c=10.0,
                             budget=EntropyBudget(pool_size=96, centers=4), seed=3)
        fixed = prof.monotonized(max_rel_slack=0.15)  # raises beyond 15%
        greedy_ok &= bool(np.all(np.diff(fixed.log_m) <= 1e-12))
    elapsed = time.time() - t0
    report(2, exact_ok and greedy_ok and elapsed < 60.0,
           f"exact profiles non-increasing, greedy monotone after running-max ({elapsed:.1f}s)")


def test_acceptance_03_eps_star_closed_forms():
    t0 = time.time()
    worst_const = 0.0
    for k, n in [(1.0, 4), (2.5, 50), (7.0, 12_345), (40.0, 10**7)]:
        cert = solve_eps_star(constant_profile(k), n)
        worst_const = max(worst_const, abs(cert.eps_star - np.sqrt(k / n)))
    slopes_ok = True
    ns = np.geomspace(1e3, 1e9, 13)
    for q, expo in [(2.0, -1.0 / (2.0 + 2.0)), (4.0, -1.0 / (2.0 + 4.0)),
                    (1.0 / 0.7, -0.7 / (2 * 0.7 + 1))]:
        stars = [solve_eps_star(power_profile(q), int(n)).eps_star for n in ns]
        slope = fit_rate_slope(list(zip(ns, stars)))["slope"]
        slopes_ok &= abs(slope - expo) < 1e-6
    elapsed = time.time() - t0
    report(3, worst_const <= 1e-9 and slopes_ok and elapsed < 5.0,
           f"constant-profile error {worst_const:.2e} <= 1e-9, "
           f"power exponents within 1e-6 ({elapsed:.2f}s)")


def test_acceptance_04_cauchy_trace_invariant():
    # run_algorithm1 validates the Cauchy property on every run and raises on
    # violation, so the whole suite enforces it; this batch re-checks the
    # pairwise bound explicitly across kinds and seeds
    violations = 0
    runs = 0
    for body, sigma in [(MonotoneGrid(1, 8), 1.0), (LinearL1(8, 1.0), 0.5),
                        (LinearEllipsoid.sobolev(6), 1.0), (HolderGrid(0.5, 1.0, 6), 0.5)]:
        consts = (RateConstants.bounded(4.0, sigma, body.sup_bound)
                  if body.sup_bound is not None
                  else RateConstants.unbounded(4.0, sigma, body.diameter(), 1.0))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            truth = body.point(body.sample_rows(1, rng)[0])
            data = draw_data(body, DesignDistribution("gaussian"),
                             NoiseModel("gaussian", sigma), truth, 128, seed)
            trace = run_algorithm1(body, data, consts, stages=6,
                                   pool_budget=PoolBudget(size=32), seed=seed)
            runs += 1
            ups = trace.upsilon
            d = trace.diameter
            for j in range(len(ups)):
                for k in range(j + 1, len(ups)):
                    if dist(body, ups[j], ups[k]) > d / 2.0 ** (j - 1) * (1 + 1e-9):
                        violations += 1
    report(4, violations == 0, f"{runs} traces, {violations} Cauchy violations")


def test_acceptance_05_monotone_rate():
    t0 = time.time()
    cfg = ExperimentConfig(
        body_kind="monotone_grid", body_params={"p": 1, "m": "auto"},
        noise=NoiseModel("gaussian", 1.0), truth=TruthSpec("identity"),
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096), replicates=50,
        condition_kind="bounded", practical_scale=20_000.0,
        pool=PoolBudget(size=192, growth=1.3, cap=1024),
        master_seed=20_240_601, theory="monotone", theory_params={"p": 1},
    )
    res = run_experiment(cfg, threads=2)
    elapsed = time.time() - t0
    ok = res.slope is not None and -0.82 <= res.slope <= -0.52 and elapsed < 600.0
    report(5, ok, f"monotone 1-D slope {res.slope:.3f} in [-0.82, -0.52] ({elapsed:.0f}s)")


def test_acceptance_06_sparse_l1_rate():
    t0 = time.time()
    cfg = ExperimentConfig(
        body_kind="linear_l1", body_params={"p": 64, "radius": 1.0},
        noise=NoiseModel("gaussian", 2.0), truth=TruthSpec("sparse", s=4, seed=5),
        n_grid=(500, 1000, 2000, 4000), replicates=30,
        condition_kind="adaptive", practical_scale=2e7, max_stages=16,
        pool=PoolBudget(size=256, growth=1.3, cap=1024),
        master_seed=20_240_601, theory="sparse_l1", theory_params={"s": 4, "p": 64},
    )
    res = run_experiment(cfg, threads=2)
    elapsed = time.time() - t0
    c_at_500 = res.mean_risk[500] / res.theory_values[500]
    envelope = all(
        res.mean_risk[n] <= c_at_500 * res.theory_values[n] + 1e-12 for n in cfg.n_grid
    )
    slope_ok = res.slope is not None and -1.2 <= res.slope <= -0.8
    report(6, envelope and slope_ok and elapsed < 600.0,
           f"risk <= C*s*log(p/s)/n with C fitted at n=500 (C={c_at_500:.2f}), "
           f"slope {res.slope:.3f} in [-1.2, -0.8] ({elapsed:.0f}s)")


def test_acceptance_07_ellipsoid_rate():
    t0 = time.time()
    # index oracle agreement on 100 random inputs
    rng = np.random.default_rng(12)
    oracle_ok = True
    for _ in range(100):
        p = int(rng.integers(1, 40))
        a = np.sort(rng.uniform(1e-4, 2.0, size=p))
        n = int(rng.integers(1, 10_000))
        want = oracle_scan(a, n)
        got = kolmogorov_index(a, n)
        oracle_ok &= (got.small_ellipsoid if want is None else got.k == want)
    i = np.arange(1, 33)
    a = (32 - i + 1.0) ** -2.0
    cfg = ExperimentConfig(
        body_kind="linear_ellipsoid", body_params={"p": 32},
        noise=NoiseModel("gaussian", 1.0), truth=TruthSpec("sampled", seed=3),
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096), replicates=20,
        condition_kind="unbounded", practical_scale=2e6, max_stages=16,
        pool=PoolBudget(size=256, growth=1.3, cap=1024),
        master_seed=20_240_601, theory="ellipsoid", theory_params={"a": a},
    )
    res = run_experiment(cfg, threads=2)
    ratios = [res.mean_risk[n] / res.theory_values[n] for n in cfg.n_grid]
    band = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    report(7, oracle_ok and band <= 4.0 and elapsed < 600.0,
           f"index oracle 100/100, risk/(k/n) band {band:.2f} <= 4 ({elapsed:.0f}s)")


def test_acceptance_08_concentration():
    t0 = time.time()
    mg = MonotoneGrid(1, 2)
    f, g, fb = mg.point([0.0, 0.0]), mg.point([1.0, 1.0]), mg.point([0.05, 0.05])
    cells = []
    for C, d2 in [(4.0, 120.0), (4.0, 300.0), (5.0, 200.0), (3.5, 150.0)]:
        n = int(np.ceil(C * C * d2 / dist(mg, f, g) ** 2 * 1.001))
        cells.append((mg, f, g, fb, n, C, np.sqrt(d2), None))
    l1 = LinearL1(4, 1.0)
    fu, gu = l1.point([1.0, 0, 0, 0]), l1.point([-1.0, 0, 0, 0])
    fbu = l1.point([0.95, 0.0, 0.0, 0.05])
    d2u, Cu = 6000.0, 4.0
    nu = int(np.ceil(Cu * Cu * d2u / 4.0 * 1.001))
    cells.append((l1, fu, gu, fbu, nu, Cu, np.sqrt(d2u), 1.0))
    passes, details = 0, []
    for body, a, b_, fb_, n, C, delta, alpha in cells:
        rep = check_norm_concentration(body, a, b_, fb_, n, C, float(delta),
                                       trials=10_000, seed=42, alpha=alpha, b=0.125)
        passes += rep.passed
        details.append(f"{rep.case}:{rep.frequency:.3f}>={rep.bound:.3f}")
    elapsed = time.time() - t0
    report(8, passes == 5 and elapsed < 120.0,
           f"5/5 configs x 1e4 trials: {'; '.join(details)} ({elapsed:.0f}s)")


def test_acceptance_09_test_psi_error():
    t0 = time.time()
    mg = MonotoneGrid(1, 2)
    f, g = mg.point([0.0, 0.0]), mg.point([1.0, 1.0])
    hol = HolderGrid(1.0, 0.25, 4)  # sup bound gamma*sqrt(m) = 0.5
    hf, hg = hol.point(hol.extreme_points()[0]), hol.point(hol.extreme_points()[1])
    l1 = LinearL1(4, 1.0)
    lf, lg = l1.point([1.0, 0, 0, 0]), l1.point([-1.0, 0, 0, 0])
    cells = []
    for body, a, b_, C, sigma, d2 in [
        (mg, f, g, 4.0, 1.0, 300.0),
        (mg, f, g, 4.0, 1.0, 750.0),
        (hol, hf, hg, 5.0, 1.0, 400.0),
        (mg, f, g, 4.0, 0.5, 1200.0),
        (l1, lf, lg, 4.0, 1.0, 8000.0),
    ]:
        n = int(np.ceil(C * C * d2 / dist(body, a, b_) ** 2 * 1.001))
        if body.sup_bound is not None:
            consts = RateConstants.bounded(C, sigma, body.sup_bound)
        else:
            consts = RateConstants.unbounded(C, sigma, body.diameter(), 1.0, 0.125)
        cells.append((body, a, b_, n, consts, sigma))
    passes, worst = 0, []
    for noise_kind in ("gaussian", "scaled_rademacher"):
        for body, a, b_, n, consts, sigma in cells:
            rep = check_test_error(body, a, b_, a, NoiseModel(noise_kind, sigma),
                                   n, consts, trials=10_000, seed=9)
            passes += rep.passed
            worst.append(f"{rep.worst:.4f}<={rep.bound:.3f}")
    elapsed = time.time() - t0
    report(9, passes == 10 and elapsed < 120.0,
           f"10/10 cells x 1e4 trials within 3exp(-L d^2): {'; '.join(worst[:5])}... ({elapsed:.0f}s)")


def test_acceptance_10_gaussian_width():
    t0 = time.time()
    disk = gaussian_width(L2Ball(2), draws=4096, seed=11)
    target = np.sqrt(np.pi / 2.0)
    disk_ok = abs(disk.value - target) / target < 0.02
    inner = gaussian_width(L2Ball(3), draws=2048, seed=5)
    outer = gaussian_width(Box([-1, -1, -1], [1, 1, 1]), draws=2048, seed=5)
    mono_ok = inner.value <= outer.value
    w1 = gaussian_width(L1Ball(8), draws=1024, seed=9)
    w3 = gaussian_width(scaled(L1Ball(8), 3.0), draws=1024, seed=9)
    homog_ok = np.isclose(w3.value, 3.0 * w1.value, rtol=0, atol=1e-12)
    cone_ok = True
    for p, s in [(64, 4), (128, 8)]:
        beta = np.zeros(p)
        beta[:s] = 1.0 / s
        w2 = squared_width_mean(SparseTangentConeBall(beta), draws=4096, seed=7)
        cone_ok &= w2 <= sparse_cone_width_bound(s, p)
    elapsed = time.time() - t0
    report(10, disk_ok and mono_ok and homog_ok and cone_ok and elapsed < 60.0,
           f"disk width {disk.value:.4f} within 2% of {target:.4f}; monotone+homogeneous "
           f"exact; cone squared widths under 2s log(p/s)+5s/4 ({elapsed:.0f}s)")


def test_acceptance_11_sudakov_consistency():
    violations = 0
    checks = 0
    # interval instances
    interval = MonotoneGrid(1, 1)
    cands = np.linspace(0, 1, 21)[:, None]
    w_interval = gaussian_width(Box([0.0], [1.0]), draws=200_000, seed=1).value
    for sep in (0.1, 0.15, 0.2, 0.35, 0.5):
        cnt = len(exhaustive_max_packing(interval, cands, sep))
        checks += 1
        violations += np.log(cnt) > sudakov_entropy_bound(w_interval, sep)
    # planar l1 ball
    l1 = LinearL1(2, 1.0)
    base = np.linspace(-1, 1, 5)
    cands = np.array([[a, b] for a in base for b in base if abs(a) + abs(b) <= 1.0])
    w_l1 = gaussian_width(L1Ball(2), draws=200_000, seed=2).value
    for sep in (0.4, 0.7, 1.0):
        cnt = len(exhaustive_max_packing(l1, cands, sep))
        checks += 1
        violations += np.log(cnt) > sudakov_entropy_bound(w_l1, sep)
    # planar ellipse
    ell = LinearEllipsoid([0.25, 1.0])
    th = np.linspace(0, 2 * np.pi, 17)[:-1]
    cands = np.vstack([np.zeros(2), np.stack([0.5 * np.cos(th), np.sin(th)], axis=1)])
    w_ell = gaussian_width(Ellipsoid([0.25, 1.0]), draws=200_000, seed=3).value
    for sep in (0.3, 0.5, 0.8):
        cnt = len(exhaustive_max_packing(ell, cands, sep))
        checks += 1
        violations += np.log(cnt) > sudakov_entropy_bound(w_ell, sep)
    # unit square
    box = UnitBox(2)
    xs = np.linspace(0, 1, 4)
    cands = np.array([[a, b] for a in xs for b in xs])
    w_box = gaussian_width(Box([0, 0], [1, 1]), draws=200_000, seed=4).value
    for sep in (0.4, 0.6):
        cnt = len(exhaustive_max_packing(box, cands, sep))
        checks += 1
        violations += np.log(cnt) > sudakov_entropy_bound(w_box, sep)
    report(11, violations == 0, f"{checks} exhaustive instances, 0 Sudakov violations")


def test_acceptance_12_moment_condition():
    # population L4/L2 for Gaussian designs is 3^(1/4); Monte Carlo at 2e5
    # draws resolves it well inside 1%
    body = LinearL1(4, 1.0)
    design = DesignDistribution("gaussian")
    rng = np.random.default_rng(31)
    X = design.sample(200_000, 4, rng)
    delta = np.array([0.4, -0.3, 0.2, -0.1])
    z = np.abs(X @ delta)
    ratio = np.mean(z ** 4) ** 0.25 / np.sqrt(np.mean(z ** 2))
    ratio_ok = abs(ratio - 3.0 ** 0.25) / 3.0 ** 0.25 < 0.01
    alphas = [
        moment_ratio_check(body, design, p_values=(2, 4, 6), trials=40_000,
                           seed=seed, pairs=4).alpha_hat
        for seed in range(10)
    ]
    mean_alpha = float(np.mean(alphas))
    stable = np.isfinite(alphas).all() and (max(alphas) - min(alphas)) / mean_alpha < 0.10
    report(12, ratio_ok and stable,
           f"L4/L2 = {ratio:.4f} vs 3^(1/4) = {3**0.25:.4f}; alpha-hat {mean_alpha:.3f} "
           f"spread {(max(alphas)-min(alphas))/mean_alpha:.3%} within +-5%")


ACCEPT_INI = """
[class]
kind = monotone_grid
p = 1
m = auto

[noise]
kind = gaussian
sigma = 1.0

[truth]
kind = identity

[experiment]
n_grid = 32 64 128
replicates = 3
master_seed = 424242
condition_kind = bounded

[constants]
practical_scale = 20000

[budget]
pool_size = 48
pool_cap = 192
profile_pool = 64
profile_centers = 3
"""


def test_acceptance_13_reproducibility(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(ACCEPT_INI)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cli_main(["--config", str(cfg), "--out", out1, "experiment"])
    cli_main(["--config", str(cfg), "--out", out2, "experiment"])
    same = True
    for name in ("results.csv", "summary.csv", "manifest.json"):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        same &= b1 == b2
    report(13, same, "two experiment runs byte-identical (results, summary, manifest)")
