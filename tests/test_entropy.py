import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locent.entropy
from locent.bodies import LinearEllipsoid, LinearL1, MonotoneGrid, dist
from locent.entropy import (
    EntropyBudget,
    EntropyProfile,
    _global_centers,
    local_entropy,
)
from locent.packing import greedy_max_packing
from locent.seeds import derive_seed
from locent.widths import sparse_cone_width_bound

from conftest import SingletonBody
from oracles import exact_local_entropy, exhaustive_max_packing

INTERVAL = MonotoneGrid(1, 1)


def interval_candidates(k=21):
    return np.linspace(0.0, 1.0, k)[:, None]


def test_singleton_class_entropy_zero():
    body = SingletonBody([0.25, 0.5])
    prof = local_entropy(body, [0.1, 0.5, 1.0, 2.0], c=2.0,
                         budget=EntropyBudget(pool_size=16, centers=3), seed=1)
    assert np.all(prof.log_m == 0.0)


def test_interval_entropy_log2_when_ball_swallows_class():
    prof = local_entropy(INTERVAL, [1.0], c=2.0,
                         budget=EntropyBudget(pool_size=64, centers=4), seed=3)
    assert np.isclose(prof.log_m[0], np.log(2.0))


def test_exact_profile_non_increasing_interval():
    # class-boundary-dominated eps range keeps the grid restriction faithful
    prof = exact_local_entropy(INTERVAL, interval_candidates(), [0.3, 0.5, 0.8, 1.2, 2.0], c=2.0)
    assert np.all(np.diff(prof.log_m) <= 1e-12)
    # continuum check: at eps=0.5 centered anywhere, 4 strictly (eps/2)-separated
    # points fit in a window of width 2*eps intersected with [0,1]
    assert np.isclose(prof.log_m[1], np.log(4.0))


def test_exact_profile_non_increasing_monotone_m2():
    body = MonotoneGrid(1, 2)
    vals = np.linspace(0, 1, 5)
    cands = np.array([[a, b] for a in vals for b in vals if a <= b])
    prof = exact_local_entropy(body, cands, [0.5, 0.75, 1.1, 1.6], c=2.0)
    assert np.all(np.diff(prof.log_m) <= 1e-12)


def test_exact_profile_non_increasing_l1_ball():
    body = LinearL1(2, 1.0)
    base = [0.0, 0.5, 1.0, -0.5, -1.0]
    cands = np.array([[a, b] for a in base for b in base if abs(a) + abs(b) <= 1.0])
    prof = exact_local_entropy(body, cands, [1.0, 1.5, 2.2, 3.0], c=2.0)
    assert np.all(np.diff(prof.log_m) <= 1e-12)


def test_adaptive_at_most_global_shared_pools():
    body = LinearL1(4, 1.0)
    grid = [0.4, 0.8, 1.6]
    budget = EntropyBudget(pool_size=48, centers=5)
    glob = local_entropy(body, grid, c=4.0, budget=budget, seed=9)
    for row in body.extreme_points()[:3]:
        adap = local_entropy(body, grid, c=4.0, center=row,
                             budget=budget, seed=9)
        assert np.all(adap.log_m <= glob.log_m + 1e-12)


def test_adaptive_entropy_nearby_centers_lemma():
    # dist(f, g) < delta < eps implies
    # M_adloc(f, eps, c) <= M_adloc(g, 2 eps, 2c); exact on any restriction
    body = MonotoneGrid(1, 2)
    vals = np.linspace(0, 1, 5)
    cands = np.array([[a, b] for a in vals for b in vals if a <= b])
    rng = np.random.default_rng(5)
    for _ in range(25):
        f, g = cands[rng.integers(0, len(cands), size=2)]
        delta = dist(body, f, g) + 1e-9
        for eps in (delta * 1.5, delta * 3.0):
            lhs = exact_local_entropy(body, cands, [eps], c=2.0, center=f)
            rhs = exact_local_entropy(body, cands, [2 * eps], c=4.0, center=g)
            assert lhs.log_m[0] <= rhs.log_m[0] + 1e-12


def test_sparse_center_adaptive_entropy_bounded_by_cone_width():
    # kappa * s * log(p/s) + kappa with the display chain's constants:
    # log M_adloc <= 2 c^2 (squared cone width bound + 1)
    p, s, c = 16, 2, 2.0
    body = LinearL1(p, 1.0)
    beta = np.zeros(p)
    beta[:s] = 0.5
    cap = 2.0 * c * c * (sparse_cone_width_bound(s, p) + 1.0)
    prof = local_entropy(body, [0.05, 0.2, 0.8], c=c, center=beta,
                         budget=EntropyBudget(pool_size=128), seed=2)
    assert np.all(prof.log_m <= cap)


def test_monotonization_running_max_and_slack():
    prof = EntropyProfile(c=2.0, eps=np.array([0.1, 0.2, 0.4]),
                          log_m=np.array([3.0, 2.9, 3.1]))
    with pytest.raises(ValueError, match=r"monotonization changed the profile by 0\.069 > 0\.01"):
        prof.monotonized(max_rel_slack=0.01)
    fixed = prof.monotonized(max_rel_slack=0.15)
    assert np.all(np.diff(fixed.log_m) <= 0)
    assert np.allclose(fixed.log_m, [3.1, 3.1, 3.1])


def test_value_interpolation_exact_on_power_laws():
    eps = np.geomspace(1e-3, 1e2, 41)
    for q in (0.5, 1.0, 4.0):
        prof = EntropyProfile(c=2.0, eps=eps, log_m=eps ** -q)
        for e in np.geomspace(2e-3, 50.0, 17):
            assert np.isclose(prof.value(e), e ** -q, rtol=1e-12)


def test_value_at_a_grid_point_is_its_log_count():
    # interior points used to come back as exp(log(y)), 1 ulp off log 16
    prof = EntropyProfile(c=2.0, eps=[0.125, 0.25, 0.5, 1.0, 2.0],
                          log_m=np.log([64.0, 16.0, 16.0, 3.0, 1.0]))
    assert [prof.value(e) for e in prof.eps] == list(prof.log_m)


@pytest.mark.parametrize("case", ["interval", "monotone_1x2"])
def test_exact_local_entropy_sits_in_the_global_sandwich(case):
    # log M(eps/c) >= log M_loc(eps, c) >= log M(eps/c) - log M(eps), every
    # count exact on the candidate set: the local side by exact_local_entropy,
    # the global side by exhaustive_max_packing over all candidates
    if case == "interval":
        body, cands, eps_grid = INTERVAL, interval_candidates(), [0.3, 0.5, 0.8, 1.2]
    else:
        body, vals = MonotoneGrid(1, 2), np.linspace(0, 1, 5)
        cands = np.array([[a, b] for a in vals for b in vals if a <= b])
        eps_grid = [0.6, 1.0, 1.5]
    c = 2.0
    prof = exact_local_entropy(body, cands, eps_grid, c=c)
    assert prof.log_m.max() > 0.0

    def log_m(sep):
        return np.log(len(exhaustive_max_packing(body, cands, sep)))

    for eps, local in zip(prof.eps, prof.log_m):
        upper = log_m(eps / c)
        assert upper >= local - 1e-12
        assert local >= upper - log_m(eps) - 1e-12


def test_adaptive_profile_csv_same_across_hash_seeds():
    script = (
        "from locent.bodies import LinearL1\n"
        "from locent.entropy import EntropyBudget, local_entropy\n"
        "prof = local_entropy(LinearL1(3, 1.0), [0.5, 1.0], 2.0, center=[1.0, 0.0, 0.0],\n"
        "                     budget=EntropyBudget(16, 0), seed=3)\n"
        "print(prof.to_csv(), end='')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True).stdout)
    assert outs[0] == outs[1]
    assert b"adaptive@" in outs[0]


# full scans of the max over centers, with no early exit: (body, grid, c,
# budget, center); the ellipsoid fills its 13-row pools at the two finest
# eps, the monotone grid never does
SOBOLEV = LinearEllipsoid.sobolev(6)
SCANS = {
    "saturated": (SOBOLEV, [0.25, 0.5, 1.0, 2.0], 4.0, EntropyBudget(12, 4), None),
    "unsaturated": (MonotoneGrid(2, 2), [0.05, 0.1, 0.2], 2.0, EntropyBudget(48, 4), None),
    "adaptive": (SOBOLEV, [0.25, 0.5, 1.0, 2.0], 4.0, EntropyBudget(12, 4),
                 SOBOLEV.extreme_points()[0]),
}


def full_scan(body, grid, c, budget, center, seed):
    """Per-eps best packing size over every center, no early exit."""
    centers = _global_centers(body, budget, seed) if center is None else center[None, :]
    best = []
    for eps in grid:
        sizes = [1]
        for row in centers:
            pseed = derive_seed(seed, "entropy-pool", float(eps), row)
            sizes.append(len(greedy_max_packing(body, row, float(eps), eps / c, pseed,
                                                budget.pool_size)))
        best.append(max(sizes))
    return np.array(best), len(centers)


def _profile(body, grid, c, budget, center, seed):
    return local_entropy(body, grid, c, center, budget=budget, seed=seed)


@pytest.mark.parametrize("case", list(SCANS))
def test_early_exit_matches_full_scan(case):
    best, _ = full_scan(*SCANS[case], seed=5)
    prof = _profile(*SCANS[case], seed=5)
    assert prof.log_m.tobytes() == np.log(best).tobytes()
    saturated = best == SCANS[case][3].pool_size + 1
    assert saturated.any() == (case != "unsaturated")
    assert np.array_equal(prof.saturated, saturated)


def test_early_exit_skips_centers_once_the_pool_is_full(monkeypatch):
    body, grid, c, budget, _ = SCANS["saturated"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return greedy_max_packing(*args, **kwargs)

    monkeypatch.setattr(locent.entropy, "greedy_max_packing", counting)
    local_entropy(body, grid, c, budget=budget, seed=5)
    _, n_centers = full_scan(*SCANS["saturated"], seed=5)
    assert len(calls) < n_centers * len(grid)


def test_saturated_is_derived_and_survives_csv_and_monotonization():
    prof = _profile(*SCANS["saturated"], seed=5)
    assert prof.saturated.any() and not prof.saturated.all()
    # the CSV's log_m and pool_size columns give the same flags
    rows = list(csv.DictReader(io.StringIO(prof.to_csv())))
    back = EntropyProfile(c=prof.c, eps=[float(r["eps"]) for r in rows],
                          log_m=[float(r["log_m"]) for r in rows],
                          pool_size=int(rows[0]["pool_size"]))
    assert np.array_equal(back.saturated, prof.saturated)
    assert np.array_equal(prof.monotonized().saturated, prof.saturated)
    with pytest.raises(AttributeError):
        prof.saturated = np.zeros(len(prof.eps), dtype=bool)


def test_adaptive_profiles_keep_a_private_center():
    # a write to the caller's array after the call used to move p.center
    # away from the value its center_id was computed from
    body = LinearL1(3)
    cands = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for build in (
        lambda x: local_entropy(body, [0.5, 1.0], 2.0, center=x,
                                budget=EntropyBudget(pool_size=16)),
        lambda x: exact_local_entropy(body, cands, [0.5, 1.0], 2.0, center=x),
    ):
        x = np.array([1.0, 0.0, 0.0])
        prof = build(x)
        x[0] = 0.5
        assert np.array_equal(prof.center, [1.0, 0.0, 0.0])
        assert not prof.center.flags.writeable
        assert prof.to_csv() == build(np.array([1.0, 0.0, 0.0])).to_csv()


@pytest.mark.parametrize("grid", [[], [0.0, 0.5], [-0.5, 0.5], [0.5, 0.25, 0.5]],
                         ids=["empty", "zero", "negative", "repeat"])
def test_bad_eps_grid_fails_before_any_pool(grid, monkeypatch):
    # zero and negative eps failed inside the packing with other messages; a
    # repeat failed only after every packing was built
    def no_packing(*args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(locent.entropy, "greedy_max_packing", no_packing)
    with pytest.raises(ValueError, match="eps_grid must be nonempty, positive and free of"):
        local_entropy(LinearL1(3), grid, 2.0, budget=EntropyBudget(pool_size=16))


def test_profile_kind_and_center_id_follow_the_center():
    # both used to be constructor fields, free to contradict the center
    body = LinearL1(3)
    budget = EntropyBudget(pool_size=16, centers=0)
    glob = local_entropy(body, [0.5, 1.0], 2.0, budget=budget)
    adap = local_entropy(body, [0.5, 1.0], 2.0, [1.0, 0.0, 0.0], budget=budget)
    assert (glob.kind, glob.center_id) == ("global", "")
    assert adap.kind == "adaptive" and adap.center_id.startswith("adaptive@")
    given = EntropyProfile(c=2.0, eps=adap.eps, log_m=adap.log_m, center=[1.0, 0.0, 0.0])
    assert (given.kind, given.center_id) == (adap.kind, adap.center_id)
    assert given.monotonized().center_id == adap.center_id
