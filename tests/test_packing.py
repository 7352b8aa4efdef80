import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import locent
from locent import packing
from locent.bodies import (
    HolderGrid, LinearEllipsoid, LinearL1, MonotoneGrid, dist, dist_rows, pull_into_ball,
)
from locent.entropy import exact_local_entropy
from locent.packing import (
    exhaustive_max_packing,
    greedy_max_packing,
    greedy_select,
)
from locent.seeds import rng_for

from conftest import UnitBox, brute_force_max_packing, sweep_max_separated_1d

INTERVAL = MonotoneGrid(1, 1)  # the interval [0, 1] as a 1-D class body
SRC = str(Path(locent.__file__).resolve().parents[1])


def test_greedy_interval_sep_half_two_centers():
    # exhaustive search over a 1001-point grid: max strict-0.5-separated
    # subset of [0,1] has size 2
    grid = np.linspace(0.0, 1.0, 1001)
    assert sweep_max_separated_1d(grid, 0.5) == 2
    pack = greedy_max_packing(
        INTERVAL, np.zeros(1), 1.0, 0.5, pool_seed=3, pool_size=128, validate=True
    )
    assert len(pack) == 2
    assert sorted(c[0] for c in pack) == [0.0, 1.0]


def test_greedy_separation_at_least_diameter_single_center():
    pack = greedy_max_packing(INTERVAL, np.zeros(1), 1.0, 1.0, pool_seed=3, pool_size=64)
    assert len(pack) == 1
    assert pack[0][0] == 0.0


def test_greedy_unit_square_from_corner():
    sq = UnitBox(2)
    pack = greedy_max_packing(
        sq,
        np.zeros(2),
        np.sqrt(2.0),
        1.0,
        pool_seed=5,
        pool_size=128,
        extra_candidates=sq.extreme_points(),
        validate=True,
    )
    assert len(pack) == 2
    got = sorted(tuple(c) for c in pack)
    assert got == [(0.0, 0.0), (1.0, 1.0)]


def test_greedy_rejects_nonmember_center():
    with pytest.raises(ValueError, match="ball center fails class membership"):
        greedy_max_packing(INTERVAL, np.array([2.0]), 1.0, 0.5, 0, 8)


def test_greedy_rejects_center_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"expected dim 1, got \(2,\)"):
        greedy_max_packing(INTERVAL, np.array([0.5, 0.5]), 1.0, 0.5, 0, 8)


@pytest.mark.parametrize("center, radius, separation, extra", [
    (0.0, 1.0, np.nan, None),  # never returned: NaN passed the old positivity check
    (0.0, np.inf, 0.25, None),  # never returned
    (0.0, np.nan, 0.25, None),  # returned 8 centers from a ball of no radius
    (0.0, -1.0, 0.25, None),
    (np.nan, 1.0, 0.25, None),  # a NaN center passes the comparisons of membership
    (0.0, 1.0, 0.25, [[np.nan, 0.0, 0.0, 0.0]]),  # a NaN candidate kept argmax looping
], ids=["nan-separation", "inf-radius", "nan-radius", "negative-radius", "nan-center",
        "nan-extra"])
def test_greedy_rejects_nonfinite_input(center, radius, separation, extra):
    body = LinearL1(4)
    with pytest.raises(ValueError):
        greedy_max_packing(body, np.full(4, center), radius, separation, 0, 16,
                           extra_candidates=None if extra is None else np.array(extra))


def test_greedy_deterministic_bit_identical():
    body = LinearL1(6, 1.0)
    a = greedy_max_packing(body, np.zeros(6), 1.5, 0.3, pool_seed=11, pool_size=64)
    b = greedy_max_packing(body, np.zeros(6), 1.5, 0.3, pool_seed=11, pool_size=64)
    assert len(a) == len(b)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_exhaustive_examples():
    seg = LinearL1(1, 2.0)  # the segment [-2, 2], Euclidean metric
    pts = [seg.point([x]) for x in (0.0, 0.6, 1.2)]
    assert len(exhaustive_max_packing(seg, pts, 0.5)) == 3
    pts = [seg.point([x]) for x in (0.0, 0.4, 0.8)]
    assert len(exhaustive_max_packing(seg, pts, 0.5)) == 2
    assert len(exhaustive_max_packing(seg, pts[:1], 0.5)) == 1


def test_exhaustive_rejects_empty_candidates():
    with pytest.raises(ValueError, match="candidates must be nonempty"):
        exhaustive_max_packing(LinearL1(1, 2.0), [], 0.5)
    with pytest.raises(ValueError, match="candidates must be nonempty"):
        exact_local_entropy(LinearL1(1, 2.0), [], [0.5], c=2.0)


def test_validate_raises_on_non_maximal_selection(monkeypatch):
    # keeping only the first center leaves the far end of [0, 1] uncovered
    monkeypatch.setattr(packing, "greedy_select", lambda body, pts, sep, start: [start])
    with pytest.raises(RuntimeError, match="not maximal"):
        greedy_max_packing(INTERVAL, np.zeros(1), 1.0, 0.5, pool_seed=3, pool_size=128,
                           validate=True)
    # without validation the broken selection goes through unchecked
    assert len(greedy_max_packing(INTERVAL, np.zeros(1), 1.0, 0.5, pool_seed=3,
                                  pool_size=128)) == 1


def test_validate_raises_on_a_selection_maximal_only_up_to_a_slack(monkeypatch):
    # a real selection, checked at 1e-4 below the distance that covers its
    # pool: separated, but a row lies within 1e-12 above sep of every center,
    # a slack of 0.12% of sep that an absolute tolerance let through
    body, pool = _offset_l1_pool(1e-9)
    pair = dist_rows(body, pool[:, None, :], pool)
    first = float(np.quantile(pair[np.triu_indices(len(pool), 1)], 0.1, method="lower"))
    kept = greedy_select(body, pool, first, start=0)
    mind = pair[:, kept].min(axis=1)
    sep = mind.max() * (1 - 1e-4)
    assert ((mind > sep) & (mind <= sep + 1e-12)).any()
    monkeypatch.setattr(packing, "greedy_select", lambda body, pts, sep, start: kept)
    with pytest.raises(RuntimeError, match="not maximal"):
        greedy_max_packing(body, np.full(8, 1e4 / np.sqrt(8)), 1e-9, sep, pool_seed=2,
                           pool_size=255, validate=True)


def test_validate_raises_on_a_nonmember_pool_row(monkeypatch):
    # validation used to drop such a row and select from the rest, so the
    # validated path could select differently from the unvalidated one
    build = packing.build_pool
    monkeypatch.setattr(packing, "build_pool", lambda *a: np.vstack([build(*a), [[2.0]]]))
    with pytest.raises(RuntimeError, match="nonmember"):
        greedy_max_packing(INTERVAL, np.zeros(1), 1.0, 0.5, pool_seed=3, pool_size=128,
                           validate=True)


def test_validate_raises_on_a_close_pair_of_later_centers(monkeypatch):
    # the check walks the centers one at a time, so a close pair that does
    # not involve the first center must still be caught
    select = packing.greedy_select

    def with_close_row(body, pts, sep, start):
        kept = select(body, pts, sep, start)
        d = dist_rows(body, pts, pts[kept[-1]])
        return np.append(kept, np.flatnonzero((d > 0) & (d <= sep))[0])

    monkeypatch.setattr(packing, "greedy_select", with_close_row)
    with pytest.raises(RuntimeError, match="not strictly separated"):
        greedy_max_packing(INTERVAL, np.zeros(1), 1.0, 0.5, pool_seed=3, pool_size=128,
                           validate=True)


def test_validate_holds_one_row_of_distances_at_a_time():
    # 400 centers in dim 16: the k x k x dim pair tensor the check once built
    # is 20 MB; one center against the pool is 51 kB
    tracemalloc.start()
    try:
        centers = greedy_max_packing(LinearL1(16), np.zeros(16), 1.0, 0.1, pool_seed=0,
                                     pool_size=400, validate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(centers) == 400
    assert peak < 4e6


def test_exhaustive_cap():
    seg = LinearL1(1, 2.0)
    pts = [seg.point([x]) for x in np.linspace(-1, 1, 25)]
    with pytest.raises(ValueError, match="25 candidates exceed cap"):
        exhaustive_max_packing(seg, pts, 0.1)


def test_exhaustive_matches_subset_enumeration_oracle():
    rng = np.random.default_rng(7)
    body = UnitBox(2)
    for _ in range(40):
        k = int(rng.integers(2, 13))
        pts = rng.random((k, 2))
        sep = float(rng.uniform(0.05, 1.2))
        got = len(exhaustive_max_packing(body, pts, sep))
        assert got == brute_force_max_packing(pts, sep)


def test_exhaustive_at_least_greedy_on_shared_candidates():
    rng = np.random.default_rng(21)
    body = UnitBox(3)
    for _ in range(60):
        k = int(rng.integers(2, 16))
        pts = rng.random((k, 3))
        sep = float(rng.uniform(0.1, 1.0))
        ex = len(exhaustive_max_packing(body, pts, sep, cap=16))
        gr = len(greedy_select(body, pts, sep, start=0))
        assert ex >= gr


def test_exhaustive_matches_1d_sweep_oracle_and_bounds_greedy():
    # the left-to-right sweep is optimal for 1-D strict separation, so it is
    # an independent oracle for the branch-and-bound count; greedy is
    # maximal-not-maximum and can only undershoot
    rng = np.random.default_rng(3)
    seg = LinearL1(1, 2.0)
    for _ in range(30):
        pts = np.sort(rng.uniform(-2, 2, size=int(rng.integers(2, 17))))[:, None]
        sep = float(rng.uniform(0.05, 1.5))
        oracle = sweep_max_separated_1d(pts[:, 0], sep)
        ex = len(exhaustive_max_packing(seg, pts, sep))
        assert ex == oracle
        start = int(np.argmin(pts[:, 0]))
        gr = len(greedy_select(seg, pts, sep, start=start))
        assert gr <= oracle


@pytest.mark.parametrize(
    "body",
    [
        LinearL1(5, 1.0),
        LinearEllipsoid.sobolev(5),
        MonotoneGrid(1, 6),
        MonotoneGrid(2, 3),
        HolderGrid(0.7, 1.0, 6),
    ],
    ids=lambda b: b.kind + str(b.dim),
)
def test_packing_invariants_randomized(body):
    rng = rng_for(0, "packing-invariants", body.tag)
    d = body.diameter()
    for trial in range(12):
        center = body.sample_rows(1, rng)[0]
        radius = float(rng.uniform(0.2, 1.2)) * d
        sep = float(rng.uniform(0.05, 0.5)) * radius
        pack = greedy_max_packing(
            body, center, radius, sep, pool_seed=trial, pool_size=24, validate=True
        )
        pts = pack
        # strict separation, membership, and ball containment
        for i in range(len(pts)):
            assert body.contains_coords(pts[i], 1e-7)
            assert dist(body, pts[i], center) <= radius * (1 + 1e-9)
            for j in range(i + 1, len(pts)):
                assert dist(body, pts[i], pts[j]) > sep


def run_python(code: str, timeout: float, **env) -> str:
    """Run ``code`` in a fresh interpreter on this locent; return stdout."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", **env}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_greedy_far_offset_ball_returns():
    # rows 1e4 from the origin in a 2e-3 ball: a Gram of the uncentered rows
    # rounds by more than the squared separation, so it must not decide pairs
    code = (
        "import numpy as np\n"
        "from locent.bodies import LinearL1\n"
        "from locent.packing import greedy_max_packing\n"
        "body = LinearL1(8, 1e5)\n"
        "print(len(greedy_max_packing(body, np.full(8, 1e4), 2e-3, 5e-4, pool_seed=1,"
        " pool_size=256, validate=True)))\n"
    )
    assert int(run_python(code, timeout=60)) >= 1


def _oracle_walk(pair: np.ndarray, separation: float, start: int) -> np.ndarray:
    """The documented walk on brute-force ``dist_rows`` conflicts."""
    conflict = pair <= separation
    np.fill_diagonal(conflict, False)
    order = sorted(range(len(pair)), key=lambda i: (i != start, -pair[start, i], i))
    kept = []
    for i in order:
        if not any(conflict[i, k] for k in kept):
            kept.append(i)
    return np.array(sorted(kept))


def _check_near_threshold_lattice(body, offset, side):
    # a 0.1-spaced lattice puts many pairs at one spacing up to rounding;
    # the separation is set to each rounded spacing and one ulp either side
    h = 0.1
    axes = np.meshgrid(*[np.arange(side)] * body.dim, indexing="ij")
    pts = offset + h * np.stack(axes, axis=-1).reshape(-1, body.dim)
    pts = np.vstack([pts, pts[::7] + h / 2])
    pair = dist_rows(body, pts[:, None, :], pts)
    spacing = h * body.metric_scale
    ties = np.unique(pair[np.isclose(pair, spacing, rtol=1e-9, atol=0.0)])
    assert len(ties) >= 1
    for tie in ties:
        for sep in (np.nextafter(tie, 0.0), tie, np.nextafter(tie, np.inf)):
            for start in (0, len(pts) - 1):
                kept = greedy_select(body, pts, sep, start=start)
                np.testing.assert_array_equal(kept, _oracle_walk(pair, sep, start))
                sub = pair[np.ix_(kept, kept)]
                assert (sub[np.triu_indices(len(kept), 1)] > sep).all()
                assert (pair[:, kept].min(axis=1) <= sep).all()


NEAR_BODIES = [LinearL1(3, 1.0), MonotoneGrid(1, 3)]


@pytest.mark.parametrize("body", NEAR_BODIES, ids=lambda b: b.kind)
@pytest.mark.parametrize("offset", [0.3, 1e4])
def test_greedy_select_near_threshold_matches_dist_rows_oracle(body, offset):
    _check_near_threshold_lattice(body, offset, side=4)


@pytest.mark.parametrize("block", [7, 128])
@pytest.mark.parametrize("body", NEAR_BODIES, ids=lambda b: b.kind)
@pytest.mark.parametrize("offset", [0.3, 1e4])
def test_greedy_select_block_boundaries_match_dist_rows_oracle(body, offset, block, monkeypatch):
    # 247 rows: several blocks, a partial last block, and conflicts stored
    # only at (earlier row, later row) across blocks, walked from both ends
    monkeypatch.setattr(packing, "SCREEN_BLOCK", block)
    _check_near_threshold_lattice(body, offset, side=6)


def _check_against_oracle(body, pts, sep):
    pair = dist_rows(body, pts[:, None, :], pts)
    for start in (0, len(pts) - 1):
        np.testing.assert_array_equal(greedy_select(body, pts, sep, start=start),
                                      _oracle_walk(pair, sep, start))


def test_greedy_select_float32_rounding_band_matches_dist_rows_oracle():
    # isolated pairs at separation * (1 + k 1e-7): within float32 rounding of
    # the screen, far outside a float64 band, and each pair's decision
    # changes the selection (one row kept for a conflict, two otherwise)
    body = LinearL1(16, 100.0)
    rng = np.random.default_rng(11)
    sep = 0.37
    steps = np.repeat([-30, -10, -5, -3, -2, -1, 1, 2, 3, 5, 10, 30], 8) * 1e-7
    anchors = 3 * sep * rng.random((len(steps), body.dim))
    unit = rng.standard_normal(anchors.shape)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    pts = np.vstack([anchors, anchors + (sep * (1 + steps))[:, None] * unit])
    pair = dist_rows(body, pts[:, None, :], pts)
    partner = np.concatenate([np.arange(len(steps)) + len(steps), np.arange(len(steps))])
    np.testing.assert_array_equal(pair[np.arange(len(pts)), partner] <= sep,
                                  np.tile(steps < 0, 2))
    others = pair.copy()
    others[np.arange(len(pts)), partner] = np.inf
    np.fill_diagonal(others, np.inf)
    assert others.min() > 1.5 * sep
    _check_against_oracle(body, pts, sep)


def _isolated_pairs(steps, sep=0.37, spread=100.0, dim=16):
    """Pairs at ``sep * (1 + step)``, anchored at random in a cube of side
    ``spread * sep``: after centering and scaling |x|^2 is of order 1 and
    the threshold of order 1e-5, so the folded |x|^2 column carries the
    float32 rounding of each pair's value, and each decision moves the
    selection."""
    rng = np.random.default_rng(5)
    anchors = spread * sep * rng.random((len(steps), dim))
    unit = rng.standard_normal(anchors.shape)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    pts = np.vstack([anchors, anchors + (sep * (1 + np.asarray(steps)))[:, None] * unit])
    body = LinearL1(dim, 1e4)
    pair = dist_rows(body, pts[:, None, :], pts)
    partner = np.concatenate([np.arange(len(steps)) + len(steps), np.arange(len(steps))])
    others = pair.copy()
    others[np.arange(len(pts)), partner] = np.inf
    np.fill_diagonal(others, np.inf)
    assert others.min() > 10 * sep
    return body, pts, sep


def test_greedy_select_folded_norms_rounding_band_matches_dist_rows_oracle():
    # pool spread 100x the separation: the screened value is a difference of
    # terms near 1 with a threshold near 1e-5, so float32 decides a pair at
    # sep * (1 +- 1e-3) by its rounding, and only the band sends it to dist_rows
    steps = np.repeat([-0.5, -1e-2, -1e-3, -1e-4, -1e-5, -1e-6,
                       1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.5], 6)
    body, pts, sep = _isolated_pairs(steps)
    pair = dist_rows(body, pts[:, None, :], pts)
    half = len(steps)
    np.testing.assert_array_equal(pair[np.arange(half), np.arange(half) + half] <= sep, steps < 0)
    _check_against_oracle(body, pts, sep)


def _clusters_and_free_ends(rng):
    # tight clusters far apart, between two isolated rows that start the walk
    centers = 10 * rng.random((30, 1, 2))
    clusters = (centers + 0.01 * rng.standard_normal((30, 5, 2))).reshape(-1, 2)
    return np.vstack([[-50.0, -50.0], clusters, [60.0, 60.0]]), 0.1


# each case: (rows and separation, the conflict degrees it must have)
SCREEN_CASES = {
    # pairs just above the separation, where float32 alone sees conflicts
    "no-conflicts": (lambda rng: _isolated_pairs(np.repeat([1e-6, 1e-5, 1e-4, 1e-3], 10))[1:],
                     lambda deg: (deg == 0).all()),
    "free-start": (_clusters_and_free_ends,
                   lambda deg: deg[0] == deg[-1] == 0 and (deg[1:-1] >= 1).all()),
    # 200 rows within 0.4 of each other: every pair conflicts, across blocks
    "complete": (lambda rng: (0.2 * rng.random((200, 3)), 0.4),
                 lambda deg: (deg == 199).all()),
    # about 40 conflicts per row, as in the ellipsoid sweep's packings
    "dense-40": (lambda rng: (rng.random((400, 2)), 0.178),
                 lambda deg: 30 <= deg.mean() <= 50),
}


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_greedy_select_conflict_graphs_match_dist_rows_oracle(case):
    build, degrees_ok = SCREEN_CASES[case]
    pts, sep = build(np.random.default_rng(3))
    body = LinearL1(pts.shape[1], 1e4)
    pair = dist_rows(body, pts[:, None, :], pts)
    assert degrees_ok((pair <= sep).sum(axis=1) - 1)
    _check_against_oracle(body, pts, sep)


def _offset_l1_pool(radius):
    body = LinearL1(8, 1e5)
    center = np.full(8, 1e4 / np.sqrt(8))  # 1e4 from the origin
    return body, packing.build_pool(body, center, radius, pool_seed=2, pool_size=255)


def _gaussian_pool(scale):
    return LinearL1(8), scale * rng_for(0, "scaled-pool").standard_normal((200, 8))


POOLS = {
    "offset-radius-1e-9": lambda: _offset_l1_pool(1e-9),
    "offset-radius-1e6": lambda: _offset_l1_pool(1e6),
    # squared coordinates past the float32 range either way
    "scale-1e-30": lambda: _gaussian_pool(1e-30),
    "scale-1e30": lambda: _gaussian_pool(1e30),
    # dim 256, the widest band the sweeps use
    "monotone-dim256": lambda: (MonotoneGrid(2, 16),
                                MonotoneGrid(2, 16).sample_rows(300, rng_for(0, "dim256-pool"))),
}


@pytest.mark.parametrize("pool", POOLS)
def test_greedy_select_prescaled_pools_match_dist_rows_oracle(pool):
    # the power-of-two prescale keeps the float32 screen clear of underflow
    # and overflow at any radius or offset; the separation is one pair's
    # distance, so that pair ties, and a tenth of all pairs conflict
    body, pts = POOLS[pool]()
    pair = dist_rows(body, pts[:, None, :], pts)
    sep = float(np.quantile(pair[np.triu_indices(len(pts), 1)], 0.1, method="lower"))
    _check_against_oracle(body, pts, sep)


@pytest.mark.filterwarnings("error")
def test_greedy_select_separation_far_above_the_pool_spread():
    # the scaled threshold would pass the float32 range: it is cut, and
    # every pair still conflicts
    pts = 1e-25 * rng_for(0, "tiny-pool").standard_normal((50, 3))
    np.testing.assert_array_equal(greedy_select(LinearL1(3), pts, 1.0, start=7), [7])


def _ray_pairs(body, rng, sep=0.37):
    """Pairs on rays from the start, ``10-100 sep`` out, spaced at
    ``sep * (1 + k 1e-15)`` for k = -4..4: each pair's distances to the
    start differ by the separation up to their rounding, so the window edge
    falls on them, and each decision moves the selection."""
    steps = np.tile(np.arange(-4, 5), 24) * 1e-15
    ray = rng.standard_normal((len(steps), body.dim))
    ray /= body.metric_scale * np.linalg.norm(ray, axis=1)[:, None]
    t = sep * (10 + 90 * rng.random(len(steps)))
    start = np.full(body.dim, 0.3)
    pts = np.vstack([start, start + t[:, None] * ray, start + (t + sep * (1 + steps))[:, None] * ray])
    pair = dist_rows(body, pts[:, None, :], pts)
    half = len(steps)
    partner = np.arange(1, half + 1), np.arange(half + 1, 2 * half + 1)
    assert 0 < (pair[partner] <= sep).sum() < half
    others = pair.copy()
    others[partner] = others[partner[::-1]] = np.inf
    np.fill_diagonal(others, np.inf)
    assert others.min() > sep
    return pts, sep


def _sphere_lump(body, rng):
    """A lump of rows pulled onto one sphere about the start, as
    ``pull_into_ball`` leaves them, so every window is the whole forward
    range; the separation is one pair's distance, and a tenth of all pairs
    conflict."""
    start = np.full(body.dim, 0.3)
    lump = start + (3 + rng.standard_normal((300, body.dim))) / body.metric_scale
    pts = np.vstack([start, pull_into_ball(body, lump, start, 1.5)])
    pair = dist_rows(body, pts[:, None, :], pts)
    rad = pair[0, 1:]
    assert rad.max() - rad.min() < 1e-12
    return pts, float(np.quantile(pair[np.triu_indices(len(pts), 1)], 0.1, method="lower"))


@pytest.mark.parametrize("block", [1, 7, 128])
@pytest.mark.parametrize("body", [LinearL1(8, 1e4), MonotoneGrid(1, 8)], ids=lambda b: b.kind)
@pytest.mark.parametrize("rows", [_ray_pairs, _sphere_lump], ids=["rays", "sphere"])
def test_greedy_select_window_edges_match_dist_rows_oracle(rows, body, block, monkeypatch):
    # a pair cut off a block's window must be no conflict by dist_rows; a
    # block of one row windows each row at its own edge
    monkeypatch.setattr(packing, "SCREEN_BLOCK", block)
    pts, sep = rows(body, np.random.default_rng(0))
    np.testing.assert_array_equal(greedy_select(body, pts, sep, start=0),
                                  _oracle_walk(dist_rows(body, pts[:, None, :], pts), sep, 0))


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="numpy's OpenBLAS cannot switch core types")
def test_greedy_packing_bytes_do_not_depend_on_blas_core():
    # an off-origin ball: a Gram of uncentered rows rounds differently per core
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from locent.bodies import LinearL1\n"
        "from locent.packing import greedy_max_packing\n"
        "body = LinearL1(64)\n"
        "r = 0.5\n"
        "ctr = 0.5 * body.sample_rows(1, np.random.default_rng(0))[0]\n"
        "h = hashlib.sha256()\n"
        "for sep in (r / 22, r / 3):\n"
        "    h.update(greedy_max_packing(body, ctr, r, sep, pool_seed=0,"
        " pool_size=1024).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    native = run_python(code, timeout=120)
    prescott = run_python(code, timeout=120, OPENBLAS_CORETYPE="Prescott")
    assert native == prescott


def test_greedy_packing_bytes_are_pinned():
    # the BLAS-core test's setup, in process: a change to the screen that
    # moves any selection changes these bytes
    body = LinearL1(64)
    r = 0.5
    ctr = 0.5 * body.sample_rows(1, np.random.default_rng(0))[0]
    h = hashlib.sha256()
    for sep in (r / 22, r / 3):
        h.update(greedy_max_packing(body, ctr, r, sep, pool_seed=0,
                                    pool_size=1024).tobytes())
    assert h.hexdigest() == "b7f686145b697f53564da0b3305d1ddf673bd7cbe9704009b0e76abe72e5aebd"
