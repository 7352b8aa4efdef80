"""The benchmark's workloads, built from the acceptance configs.

A workload is a sequence of units.  A unit is a fixed amount of work that a
user waits for: one ``run_experiment`` sweep over the workload's n grid, or
one pass over the Monte Carlo cells.  Unit ``i`` takes its master seed from
the workload seed and ``i`` alone, so no two units of a run share an entropy
profile or a random stream, and a cache that lives across sweeps in one
process cannot make later units cheaper than a user's single sweep.

Every unit checks its own outputs and returns a digest of them; the caller
compares digests across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from locent import harness
from locent.bodies import HolderGrid, LinearL1, MonotoneGrid, dist
from locent.estimator import NoiseModel, PoolBudget, RateConstants
from locent.harness import ExperimentConfig, TruthSpec
from locent.seeds import derive_seed

DEFAULT_SEED = 20_240_601  # the acceptance master seed


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index``; unit 0 runs on the workload seed itself."""
    return seed if index == 0 else derive_seed(seed, "bench-unit", index)


@dataclass
class UnitResult:
    digest: str
    attempted: int
    failed: int
    problems: list = field(default_factory=list)  # invalid outputs, not failures
    risks: dict = field(default_factory=dict)  # n -> per-replicate risks
    theory: dict = field(default_factory=dict)  # n -> closed-form rate


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """Acceptance sweep config with its n grid and replicates cut to size."""

    name: str
    config: ExperimentConfig
    min_units: int = 1

    def inputs(self):
        # bodies and truths a sweep is built on; run_experiment rebuilds them
        cfg = self.config
        built = []
        for n in cfg.n_grid:
            body = harness.body_for_n(cfg, n)
            built.append((body, harness.make_truth(body, cfg.truth)))
        return built

    def run_unit(self, index: int, seed: int, inputs) -> UnitResult:
        # run_experiment builds its own bodies and truths, so inputs is unused
        cfg = replace(self.config, master_seed=unit_seed(seed, index))
        attempted = len(cfg.n_grid) * cfg.replicates
        try:
            res = harness.run_experiment(cfg)
        except Exception as exc:  # all replicates at some n failed
            return UnitResult(f"raised:{type(exc).__name__}", attempted, attempted)
        failed, problems = 0, []
        for n in cfg.n_grid:
            risks = np.asarray(res.risks[n], dtype=np.float64)
            ok = np.isfinite(risks)
            failed += int((~ok).sum())
            d2 = harness.body_for_n(cfg, n).diameter() ** 2
            if np.any(risks[ok] < 0.0) or np.any(risks[ok] > d2 * (1.0 + 1e-9)):
                problems.append(f"risk outside [0, diameter^2] at n={n}")
            if res.stages[n] < 1:
                problems.append(f"stage count {res.stages[n]} at n={n}")
        return UnitResult(_sha(res.rows_csv()), attempted, failed, problems,
                          risks={n: res.risks[n] for n in cfg.n_grid},
                          theory=dict(res.theory_values))


def _ellipsoid_axes(p: int) -> np.ndarray:
    i = np.arange(1, p + 1)
    return (p - i + 1.0) ** -2.0


def sweep_sparse_l1() -> Sweep:
    # acceptance 6: adaptive schedule, one profile center, no isotonic kernel
    return Sweep("sweep_sparse_l1", ExperimentConfig(
        body_kind="linear_l1", body_params={"p": 64, "radius": 1.0},
        noise=NoiseModel("gaussian", 2.0), truth=TruthSpec("sparse", s=4, seed=5),
        n_grid=(500, 1000, 2000, 4000), replicates=1,
        condition_kind="adaptive", practical_scale=2e7, max_stages=16,
        pool=PoolBudget(size=256, growth=1.3, cap=1024),
        theory="sparse_l1", theory_params={"s": 4, "p": 64},
    ))


def sweep_ellipsoid() -> Sweep:
    # acceptance 7 at two of its n: the fixed body gives one distinct profile
    # that the sweep builds once per n
    return Sweep("sweep_ellipsoid", ExperimentConfig(
        body_kind="linear_ellipsoid", body_params={"p": 32},
        noise=NoiseModel("gaussian", 1.0), truth=TruthSpec("sampled", seed=3),
        n_grid=(64, 4096), replicates=2,
        condition_kind="unbounded", practical_scale=2e6, max_stages=16,
        pool=PoolBudget(size=256, growth=1.3, cap=1024),
        theory="ellipsoid", theory_params={"a": _ellipsoid_axes(32)},
    ))


def sweep_monotone2d() -> Sweep:
    # the multivariate monotone example: m = auto gives dims 16, 64 and 256,
    # so the body, and with it the profile, changes with n.  Its per-row
    # isotonic loop is the noisiest unit on a shared machine, so a run always
    # takes the median of at least two sweeps.
    return Sweep("sweep_monotone2d", min_units=2, config=ExperimentConfig(
        body_kind="monotone_grid", body_params={"p": 2, "m": "auto"},
        noise=NoiseModel("gaussian", 1.0), truth=TruthSpec("identity"),
        n_grid=(256, 4096, 65536), replicates=1,
        condition_kind="bounded", practical_scale=20_000.0,
        pool=PoolBudget(size=192, growth=1.3, cap=1024),
        theory="monotone", theory_params={"p": 2},
    ))


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------


MC_TRIALS = 200


def _sample_size(C: float, d2: float, body, f, g) -> int:
    return int(np.ceil(C * C * d2 / dist(body, f, g) ** 2 * 1.001))


class MonteCarlo:
    """Acceptance 8 concentration cells and acceptance 9 test-error cells."""

    name = "mc_checks"
    min_units = 1

    def inputs(self):
        mg = MonotoneGrid(1, 2)
        f, g, fb = mg.point([0.0, 0.0]), mg.point([1.0, 1.0]), mg.point([0.05, 0.05])
        l1 = LinearL1(4, 1.0)
        lf, lg = l1.point([1.0, 0, 0, 0]), l1.point([-1.0, 0, 0, 0])
        conc = [
            (mg, f, g, fb, _sample_size(C, d2, mg, f, g), C, float(np.sqrt(d2)), None)
            for C, d2 in [(4.0, 120.0), (4.0, 300.0), (5.0, 200.0), (3.5, 150.0)]
        ]
        conc.append((l1, lf, lg, l1.point([0.95, 0.0, 0.0, 0.05]),
                     _sample_size(4.0, 6000.0, l1, lf, lg), 4.0, float(np.sqrt(6000.0)), 1.0))
        hol = HolderGrid(1.0, 0.25, 4)  # sup bound gamma * sqrt(m) = 0.5
        hf, hg = hol.point(hol.extreme_points()[0]), hol.point(hol.extreme_points()[1])
        tests = []
        for body, a, b, C, sigma, d2 in [
            (mg, f, g, 4.0, 1.0, 300.0),
            (mg, f, g, 4.0, 1.0, 750.0),
            (hol, hf, hg, 5.0, 1.0, 400.0),
            (mg, f, g, 4.0, 0.5, 1200.0),
            (l1, lf, lg, 4.0, 1.0, 8000.0),
        ]:
            consts = (RateConstants.bounded(C, sigma, body.sup_bound)
                      if body.sup_bound is not None
                      else RateConstants.unbounded(C, sigma, body.diameter(), 1.0, 0.125))
            for kind in ("gaussian", "scaled_rademacher"):
                tests.append((body, a, b, NoiseModel(kind, sigma),
                              _sample_size(C, d2, body, a, b), consts))
        return conc, tests

    def run_unit(self, index: int, seed: int, inputs) -> UnitResult:
        conc, tests = inputs
        base = unit_seed(seed, index)
        failed, problems, reports = 0, [], []
        for k, (body, f, g, fb, n, C, delta, alpha) in enumerate(conc):
            try:
                rep = harness.check_norm_concentration(
                    body, f, g, fb, n, C, delta, trials=MC_TRIALS,
                    seed=derive_seed(base, "concentration", k), alpha=alpha, b=0.125)
            except Exception as exc:
                failed += 1
                reports.append(["concentration", k, f"raised:{type(exc).__name__}"])
                continue
            failed += not rep.passed
            if not 0.0 <= rep.frequency <= 1.0:
                problems.append(f"concentration cell {k}: frequency {rep.frequency}")
            reports.append(["concentration", k, repr(rep.frequency), repr(rep.bound)])
        for k, (body, f, g, noise, n, consts) in enumerate(tests):
            try:
                rep = harness.check_test_error(
                    body, f, g, f, noise, n, consts, trials=MC_TRIALS,
                    seed=derive_seed(base, "test-error", k))
            except Exception as exc:
                failed += 1
                reports.append(["test-error", k, f"raised:{type(exc).__name__}"])
                continue
            failed += not rep.passed
            if not (0.0 <= rep.freq_h0 <= 1.0 and 0.0 <= rep.freq_h1 <= 1.0):
                problems.append(f"test-error cell {k}: frequencies out of [0, 1]")
            reports.append(["test-error", k, repr(rep.freq_h0), repr(rep.freq_h1),
                            repr(rep.bound)])
        return UnitResult(_sha(json.dumps(reports)), len(conc) + len(tests), failed, problems)


WORKLOADS = {
    w.name: w
    for w in (sweep_sparse_l1(), sweep_ellipsoid(), sweep_monotone2d(), MonteCarlo())
}
