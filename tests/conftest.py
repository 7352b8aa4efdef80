import itertools
import os

# one BLAS thread per process, as the bench pins it: the sweeps run on
# process pools that already fill the cores, and forked workers inherit
# the parent's BLAS thread count (2 workers x 2 OpenBLAS threads on 2
# cores ran acceptance 5-7 in 36-50 s against 15-17 s serial); set before
# numpy loads, and an explicit setting is kept
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from locent.bodies import ConvexBody


class UnitBox(ConvexBody):
    """[0,1]^p test body for the class-agnostic metric layer."""

    kind = "unit_box"

    def __init__(self, p: int):
        self.p = p
        self.dim = p
        self.metric_scale = 1.0
        self.sup_bound = 1.0

    def diameter(self):
        return float(np.sqrt(self.p))

    def project_rows(self, X):
        return np.clip(np.asarray(X, dtype=np.float64), 0.0, 1.0)

    def contains_coords(self, x, tol=1e-8):
        return bool(x.min() >= -tol and x.max() <= 1.0 + tol)

    def sample_rows(self, count, rng):
        return rng.random((count, self.p))

    def extreme_points(self):
        return np.array(list(itertools.product([0.0, 1.0], repeat=self.p)))


class SingletonBody(ConvexBody):
    """A single-point class; every packing of it has one center."""

    kind = "singleton"

    def __init__(self, coords):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.dim = len(self.coords)
        self.metric_scale = 1.0
        self.sup_bound = float(np.abs(self.coords).max() + 1.0)

    def diameter(self):
        return 0.0

    def project_rows(self, X):
        return np.tile(self.coords, (len(np.atleast_2d(X)), 1))

    def contains_coords(self, x, tol=1e-8):
        return bool(np.max(np.abs(x - self.coords)) <= tol)

    def sample_rows(self, count, rng):
        return np.tile(self.coords, (count, 1))

    def extreme_points(self):
        return self.coords[None, :]


@pytest.fixture
def unit_box():
    return UnitBox(2)


@pytest.fixture
def singleton():
    return SingletonBody([0.25, 0.5])


def brute_force_max_packing(points: np.ndarray, separation: float, scale: float = 1.0) -> int:
    """Independent oracle: enumerate all subsets (<= 15 points)."""
    n = len(points)
    assert n <= 15
    best = 0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        ok = True
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if scale * np.linalg.norm(points[idx[a]] - points[idx[b]]) <= separation:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(idx))
    return best


def sweep_max_separated_1d(values: np.ndarray, separation: float) -> int:
    """Left-to-right sweep, optimal for 1-D strict-separation packing."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    count, last = 1, xs[0]
    for x in xs[1:]:
        if x - last > separation:
            count += 1
            last = x
    return count
