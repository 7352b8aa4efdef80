"""Monte Carlo experiment runner and the three Monte Carlo checks.

Experiments sweep a sample-size grid, run the multiscale estimator per
replicate with schedule-driven stage counts, and fit a log-log slope of mean
squared risk against n.  Seeds derive from the master seed by a splittable
counter scheme (sha256 over labels), so replicates are independent streams
and a failed replicate never perturbs the others.

The checks test the facts the paper's guarantees rest on: the joint
empirical-norm event (:func:`check_norm_concentration`), the 3 exp(-L delta^2)
bound on the pairwise test's error (:func:`check_test_error`) and the
sub-Gaussian moment condition of the linear kinds
(:func:`moment_ratio_check`).  Each returns a frozen dataclass whose fields,
its verdict included, are the whole report.
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bodies import (
    ConvexBody,
    DesignDistribution,
    LinearBody,
    LinearL1,
    MonotoneGrid,
    check_body_params,
    dist,
    make_body,
)
from .entropy import EntropyBudget, EntropyProfile, local_entropy, pool_ceiling
from .estimator import (
    EstimatorTrace,
    NoiseModel,
    PoolBudget,
    RateConstants,
    RegressionData,
    run_algorithm1,
    stage_schedule,
)
from .rates import RateFormula, theoretical_rate
from .seeds import canonical_json, derive_seed, rng_for


# ---------------------------------------------------------------------------
# Truths and data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthSpec:
    """How the regression truth is produced: an explicit member, a seeded
    draw, a seeded s-sparse vector on the l1 sphere, or a named function."""

    kind: str = "sampled"  # fixed | sampled | sparse | identity
    coords: tuple | None = None
    s: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("fixed", "sampled", "sparse", "identity"):
            raise ValueError(f"unknown truth kind {self.kind!r}")


def make_truth(body: ConvexBody, spec: TruthSpec) -> np.ndarray:
    if spec.kind == "fixed":
        pt = body.point(spec.coords)
        if not body.contains_coords(pt):
            raise ValueError("fixed truth is not a class member")
        return pt
    if spec.kind == "sampled":
        return body.sample_member(rng_for(spec.seed, "truth"))
    if spec.kind == "sparse":
        if not isinstance(body, LinearL1):
            raise ValueError("sparse truth needs the l1 class")
        if not (1 <= spec.s <= body.p):
            raise ValueError("need 1 <= s <= p")
        rng = rng_for(spec.seed, "truth-sparse")
        support = rng.choice(body.p, size=spec.s, replace=False)
        signs = rng.integers(0, 2, size=spec.s) * 2.0 - 1.0
        mags = rng.dirichlet(np.ones(spec.s))
        beta = np.zeros(body.p)
        beta[support] = signs * mags * body.radius  # on the l1 sphere
        return body.point(beta)
    # identity
    if isinstance(body, MonotoneGrid):
        nodes = body.node_positions()
        return body.point(nodes.mean(axis=1))
    # other kinds: the projection of the per-node identity profile
    vals = np.linspace(0.0, 1.0, body.dim)
    return body.project(vals)


def draw_data(
    body: ConvexBody,
    design: DesignDistribution,
    noise: NoiseModel,
    truth,
    n: int,
    seed: int,
) -> RegressionData:
    """One observed sample: the body's design points plus noisy responses."""
    rng = rng_for(seed, "data")
    x = body.sample_design(n, design, rng)
    y = body.evaluate(x, np.asarray(truth, dtype=np.float64)) + noise.sample(n, rng)
    return RegressionData(y=y, x=x)


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------


def fit_rate_slope(points) -> dict:
    """OLS of log risk on log n: slope, intercept, and slope standard error."""
    pts = [(float(n), float(r)) for n, r in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([p[0] for p in pts])
    rs = np.array([p[1] for p in pts])
    if np.all(ns == ns[0]):
        raise ValueError("all sample sizes equal")
    if np.any(rs <= 0):
        raise ValueError("risks must be positive for a log fit")
    x = np.log(ns)
    y = np.log(rs)
    xbar = x.mean()
    sxx = ((x - xbar) ** 2).sum()
    slope = ((x - xbar) * (y - y.mean())).sum() / sxx
    intercept = y.mean() - slope * xbar
    resid = y - (intercept + slope * x)
    dof = max(len(pts) - 2, 1)
    stderr = float(np.sqrt((resid ** 2).sum() / dof / sxx))
    return {"slope": float(slope), "intercept": float(intercept), "stderr": stderr}


# ---------------------------------------------------------------------------
# Experiment configuration and result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    body_kind: str = "monotone_grid"
    body_params: dict = field(default_factory=lambda: {"p": 1, "m": "auto"})  # m may be "auto"
    design: DesignDistribution = DesignDistribution("gaussian")
    noise: NoiseModel = NoiseModel("gaussian", 1.0)
    truth: TruthSpec = TruthSpec("sampled")
    n_grid: tuple = (64, 128, 256, 512, 1024, 2048, 4096)
    replicates: int = 50
    C: float = 4.0
    practical_scale: float = 1.0
    b: float = 0.125
    alpha_moment: float = 1.0
    condition_kind: str = "auto"  # bounded | unbounded | adaptive | auto
    max_stages: int = 14
    pool: PoolBudget = PoolBudget()
    profile_budget: EntropyBudget = EntropyBudget(pool_size=192, centers=4)
    master_seed: int = 20240601
    theory: str | None = None
    theory_params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_body_params(self.body_kind, self.body_params)
        if self.condition_kind not in ("auto", "bounded", "unbounded", "adaptive"):
            raise ValueError(f"unknown condition kind {self.condition_kind!r}")
        if self.theory not in (None, "sparse_l1", "monotone", "holder", "ellipsoid"):
            raise ValueError(f"unknown theory {self.theory!r}")
        if self.replicates < 1:
            raise ValueError("replicates >= 1")
        if self.max_stages < 1:
            raise ValueError("max_stages >= 1")
        if any(nxt <= prev for prev, nxt in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if not self.n_grid or self.n_grid[0] < 1:
            raise ValueError("n_grid needs at least one n, each >= 1")
        if self.truth.kind == "sparse" and "p" in self.body_params:
            if self.truth.s > int(self.body_params["p"]):
                raise ValueError("sparse truth needs s <= p")

    def digest(self) -> str:
        """Hash of every field, nested records included, as canonical JSON."""
        blob = canonical_json(asdict(self), default=_plain)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _plain(v):
    """JSON form of the numpy values a config may hold: floats and float lists."""
    return [float(x) for x in v] if isinstance(v, np.ndarray) else float(v)


def body_for_n(cfg: ExperimentConfig, n: int) -> ConvexBody:
    """Class instance for sample size n; grid resolution m may grow with n."""
    params = dict(cfg.body_params)
    if str(params.get("m", "")).lower() == "auto":
        p = int(params.get("p", 1))
        params["m"] = int(np.ceil(n ** (1.0 / (2.0 * p))))
    return make_body(cfg.body_kind, **params)


def constants_for(cfg: ExperimentConfig, body: ConvexBody) -> RateConstants:
    """Rate constants of the body's boundedness case; the adaptive condition
    uses the same ones."""
    if body.sup_bound is not None:
        return RateConstants.bounded(
            cfg.C, cfg.noise.sigma, body.sup_bound, cfg.practical_scale
        )
    return RateConstants.unbounded(
        cfg.C, cfg.noise.sigma, body.diameter(), cfg.alpha_moment, cfg.b, cfg.practical_scale
    )


def resolve_condition_kind(cfg: ExperimentConfig, body: ConvexBody) -> str:
    """``auto`` reads as the class's regime, which ``bounded`` and ``unbounded``
    must name: :func:`constants_for` takes the constants from the class."""
    regime = "bounded" if body.sup_bound is not None else "unbounded"
    if cfg.condition_kind not in ("auto", "adaptive", regime):
        raise ValueError(f"condition kind {cfg.condition_kind!r} contradicts the {regime} "
                         f"class {cfg.body_kind}")
    return regime if cfg.condition_kind == "auto" else cfg.condition_kind


def schedule_profile(cfg: ExperimentConfig, body: ConvexBody, constants: RateConstants,
                     kind: str, grid=None) -> EntropyProfile:
    """Greedy entropy profile at the eps of ``grid``, or on the whole ladder
    d 2^(2-j), j = 0 .. max_stages + 2, when grid is None.  The ladder holds
    every stage argument (:func:`~locent.estimator.entropy_arg`) and the
    points past the schedule that the eps* crossing, the monotonization and
    the lower bound read.  Pool seeds come from (seed, eps, center) alone, so
    a point holds the ladder's value at its eps in any grid."""
    if grid is None:
        d = body.diameter()
        grid = [e for e in (d * 2.0 ** (2 - j) for j in range(cfg.max_stages + 3)) if e > 0]
    seed = derive_seed(cfg.master_seed, "profile", kind, body.tag)
    if kind == "adaptive":
        # the schedule's infimum over centers is approximated by the
        # least-entropy heuristic extreme point (vertices minimize it)
        return local_entropy(body, grid, 2.0 * constants.c, body.extreme_points()[0],
                             budget=cfg.profile_budget, seed=seed)
    return local_entropy(body, grid, constants.c, budget=cfg.profile_budget, seed=seed)


def schedule_stages(cfg: ExperimentConfig, n: int, body: ConvexBody, constants: RateConstants,
                    kind: str, counts: dict) -> int:
    """J* at n: :func:`~locent.estimator.stage_schedule` on the schedule
    profile, whose points are built one at a time as the walk reads them.

    No greedy count exceeds log :func:`~locent.entropy.pool_ceiling`, so the
    walk skips every J that this ceiling settles, and reads at most up to
    J* + 1.  ``counts`` holds the points built so far, keyed by (body tag,
    eps), so the n that share a body share their points.
    """
    def log_m(eps: float) -> float:
        if (body.tag, eps) not in counts:
            counts[body.tag, eps] = schedule_profile(cfg, body, constants, kind, [eps]).log_m[0]
        return counts[body.tag, eps]

    ceiling = float(np.log(pool_ceiling(cfg.profile_budget.pool_size)))
    return stage_schedule(log_m, n, constants, kind, body.diameter(),
                          max_stages=cfg.max_stages, ceiling=ceiling)


@dataclass
class ExperimentResult:
    config_digest: str
    n_grid: list
    risks: dict  # n -> list of per-replicate squared risks (nan = failed)
    stages: dict  # n -> stage count used
    mean_risk: dict
    std_error: dict
    slope: float | None
    intercept: float | None
    slope_stderr: float | None
    theory_values: dict
    fit_excluded: list
    master_seed: int
    version: str = __version__

    def rows_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "replicate", "risk", "stages", "seed"])
        for n in self.n_grid:
            for r, risk in enumerate(self.risks[n]):
                w.writerow([n, r, repr(float(risk)), self.stages[n],
                            cell_seed(self.master_seed, n, r)])
        return buf.getvalue()

    def summary_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "mean_risk", "std_error", "count", "theory"])
        for n in self.n_grid:
            theory = self.theory_values.get(n, "")
            w.writerow([n, repr(float(self.mean_risk[n])), repr(float(self.std_error[n])),
                        int(np.sum(np.isfinite(self.risks[n]))),
                        repr(float(theory)) if theory != "" else ""])
        return buf.getvalue()

    def manifest_json(self) -> str:
        payload = {
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "version": self.version,
            "n_grid": list(self.n_grid),
            "stages": {str(k): v for k, v in self.stages.items()},
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_stderr": self.slope_stderr,
            "fit_excluded": self.fit_excluded,
            "mean_risk": {str(k): self.mean_risk[k] for k in self.n_grid},
            "std_error": {str(k): self.std_error[k] for k in self.n_grid},
            "theory": {str(k): v for k, v in self.theory_values.items()},
        }
        return canonical_json(payload)


def cell_seed(master_seed: int, n: int, rep: int) -> int:
    """Seed of replicate ``rep`` of the sweep cell at n, as ``results.csv``
    records it."""
    return derive_seed(master_seed, "cell", n, rep)


def run_replicate(cfg: ExperimentConfig, n: int, rep: int, stages: int,
                  body: ConvexBody, truth) -> EstimatorTrace:
    """Replicate ``rep`` of the sweep cell at n: its own data draw and
    estimator run, with per-stage distances to the truth; a pure function of
    (config, n, rep, stages)."""
    seed = cell_seed(cfg.master_seed, n, rep)
    data = draw_data(body, cfg.design, cfg.noise, truth, n, seed)
    return run_algorithm1(body, data, constants_for(cfg, body), stages, cfg.pool,
                          seed=derive_seed(seed, "run"), eval_truth=truth)


def _run_cell(cfg: ExperimentConfig, n: int, rep: int, stages: int,
              body: ConvexBody, truth) -> float:
    """One replicate's squared L2(P_X) risk: its final distance to the truth."""
    return run_replicate(cfg, n, rep, stages, body, truth).truth_distances[-1] ** 2


def _cell_or_nan(job: tuple) -> tuple[float, str]:
    """:func:`_run_cell` on one job tuple, with the class name of the
    exception that failed it; a failed replicate gives NaN."""
    try:
        return _run_cell(*job), ""
    except Exception as exc:
        return np.nan, type(exc).__name__


def _one_blas_thread():
    """Pool-worker initializer: pin numpy's bundled OpenBLAS to one thread,
    since K forked workers each keeping the parent's BLAS threads
    oversubscribe the cores.  Does nothing when no such library is found."""
    # imported here: only pool workers need them
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn(1)
                return


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Full sweep over the n grid.

    Per n: resolve the class (grid resolution may grow with n) and walk its
    stage schedule (:func:`schedule_stages`), which builds each entropy
    point it reads and no other.  A point is a function of the body and eps
    within a sweep (its constants, kind and seed follow the body), so the n
    sharing a body share their points.
    Then all replicates of all n run, serially or on one pool of
    ``threads`` processes, each pinned to one BLAS thread; a failed
    replicate is recorded as NaN without aborting the sweep, and the
    outputs do not depend on ``threads``.
    """
    theory_vals: dict = {}
    formula: RateFormula | None = None
    if cfg.theory:
        formula = theoretical_rate(cfg.theory, **cfg.theory_params)

    counts: dict = {}  # (body.tag, eps) -> schedule-profile point
    stages_used: dict = {}
    d2: dict = {}
    jobs = []
    for n in cfg.n_grid:
        body = body_for_n(cfg, n)
        truth = make_truth(body, cfg.truth)
        constants = constants_for(cfg, body)
        kind = resolve_condition_kind(cfg, body)
        stages = schedule_stages(cfg, n, body, constants, kind, counts)
        stages_used[n] = stages
        d2[n] = body.diameter() ** 2
        jobs += [(cfg, n, rep, stages, body, truth) for rep in range(cfg.replicates)]
        if formula is not None:
            theory_vals[n] = float(formula.risk(n))

    if threads > 1:
        # imported here: at module level it adds about 20 ms to `import locent`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads, initializer=_one_blas_thread) as pool:
            flat = list(pool.map(_cell_or_nan, jobs))
    else:
        flat = [_cell_or_nan(job) for job in jobs]
    shape = (len(cfg.n_grid), cfg.replicates)
    risks = dict(zip(cfg.n_grid, np.array([r for r, _ in flat]).reshape(shape)))
    errors = dict(zip(cfg.n_grid, np.array([e for _, e in flat]).reshape(shape)))
    for n, out in risks.items():
        if not np.any(np.isfinite(out)):
            why = Counter(e or "non-finite risk" for e in errors[n])
            raise RuntimeError(f"all replicates failed at n={n}: "
                               + ", ".join(f"{e} x{k}" for e, k in why.items()))

    mean_risk = {n: float(np.nanmean(risks[n])) for n in cfg.n_grid}
    finite = {n: int(np.sum(np.isfinite(risks[n]))) for n in cfg.n_grid}
    # a single finite replicate has no standard error: NaN
    std_error = {
        n: float(np.nanstd(risks[n], ddof=1) / np.sqrt(finite[n])) if finite[n] > 1 else np.nan
        for n in cfg.n_grid
    }

    # slope fit, excluding cells in the diameter^2 ceiling regime; a cell
    # with no standard error is judged by its mean alone
    excluded = [
        int(n)
        for n in cfg.n_grid
        if mean_risk[n] + 2.0 * np.nan_to_num(std_error[n]) >= d2[n] or mean_risk[n] <= 0
    ]
    pts = [(n, mean_risk[n]) for n in cfg.n_grid if int(n) not in excluded]
    slope = intercept = stderr = None
    if len(pts) >= 3:
        fit = fit_rate_slope(pts)
        slope, intercept, stderr = fit["slope"], fit["intercept"], fit["stderr"]

    return ExperimentResult(
        config_digest=cfg.digest(),
        n_grid=list(cfg.n_grid),
        risks=risks,
        stages=stages_used,
        mean_risk=mean_risk,
        std_error=std_error,
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        theory_values=theory_vals,
        fit_excluded=excluded,
        master_seed=cfg.master_seed,
    )


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    frequency: float
    bound: float
    delta: float
    n: int
    C: float
    trials: int
    case: str  # bounded | unbounded
    passed: bool  # frequency >= bound


def concentration_bound_bounded(delta: float, C: float, sup_bound: float) -> float:
    """Joint-event probability floor for sup-norm-bounded classes."""
    B2 = sup_bound * sup_bound
    return (
        1.0
        - np.exp(-3.0 * delta * delta / (32.0 * B2))
        - np.exp(-3.0 * delta * delta / (8.0 * B2 * (3.0 * C * C + 1.0)))
    )


def concentration_bound_unbounded(
    delta: float, C: float, diameter: float, alpha: float, b: float
) -> float:
    return 1.0 - 2.0 * np.exp(
        -b * delta * delta / (C * C * (2.0 * alpha * alpha + 1.0) ** 2 * diameter * diameter)
    )


def check_norm_concentration(
    body: ConvexBody,
    f,
    g,
    f_bar,
    n: int,
    C: float,
    delta: float,
    trials: int = 10_000,
    seed: int = 0,
    design: DesignDistribution = DesignDistribution("gaussian"),
    b: float = 0.125,
    alpha: float | None = None,
) -> ConcentrationReport:
    """Monte Carlo frequency of the joint empirical-norm event versus the
    closed-form probability floor.

    Event: n||f-fbar||^2_Pn <= 2 delta^2 and n||f-g||^2_Pn >= (C^2-1) delta^2.
    Preconditions: n||f-g||^2 >= C^2 delta^2 and n||f-fbar||^2 < delta^2.

    Both statistics are sums over the n design points, which each trial
    draws jointly through :func:`_pair_draws`, from their exact law where
    one is known.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    fc, gc, bc = (np.asarray(v, dtype=np.float64) for v in (f, g, f_bar))
    if n * dist(body, fc, gc) ** 2 < C * C * delta * delta:
        raise ValueError("need n ||f-g||^2 >= C^2 delta^2")
    if n * dist(body, fc, bc) ** 2 >= delta * delta:
        raise ValueError("need n ||f-fbar||^2 < delta^2")
    if body.sup_bound is not None:
        bound = concentration_bound_bounded(delta, C, body.sup_bound)
        case = "bounded"
    else:
        if alpha is None:
            raise ValueError(
                "unbounded class needs the moment constant alpha"
            )
        bound = concentration_bound_unbounded(delta, C, body.diameter(), alpha, b)
        case = "unbounded"
    rng = rng_for(seed, "concentration")
    close, far = _pair_sums(
        ((c * (A * A)).sum(axis=1), (c * (B * B)).sum(axis=1))
        for c, A, B, *_ in _pair_draws(body, design, None, n, trials, rng, fc - bc, fc - gc)
    )
    event = (close <= 2.0 * delta * delta) & (far >= (C * C - 1.0) * delta * delta)
    frequency, bound = float(event.mean()), float(bound)
    return ConcentrationReport(
        frequency=frequency,
        bound=bound,
        delta=delta,
        n=n,
        C=C,
        trials=trials,
        case=case,
        passed=frequency >= bound,
    )


@dataclass(frozen=True)
class TestErrorReport:
    freq_h0: float  # P(psi = 1) under the H0-side truth
    freq_h1: float  # P(psi = 0) under the H1-side truth
    bound: float
    delta: float
    trials: int
    noise_kind: str
    passed: bool  # worst <= bound

    @property
    def worst(self) -> float:
        return max(self.freq_h0, self.freq_h1)


def _psi_from_gap(gap, mag, n: int, dim: int):
    """psi = 1 where the gap rss_f - rss_g is >= 0, or a tie.

    ``mag`` is the gap's sum taken over input magnitudes.  The gap is a sum
    of n + 2 dim rounded products, so (n + 2 dim + 8) eps mag bounds its
    rounding error with margin, and a computed gap that close to zero is a
    tie.
    """
    tie = (n + 2 * dim + 8) * np.finfo(np.float64).eps
    return gap >= -tie * mag


def check_test_error(
    body: ConvexBody,
    f,
    g,
    f_bar,
    noise: NoiseModel,
    n: int,
    constants: RateConstants,
    trials: int = 10_000,
    seed: int = 0,
    design: DesignDistribution = DesignDistribution("gaussian"),
) -> TestErrorReport:
    """Error frequencies of the residual-comparison test against the
    3 exp(-L delta^2) bound.

    delta is fixed by the separation: delta^2 = n ||f-g||^2 / C^2.  The
    H0-side truth is ``f_bar`` (must satisfy n||f-fbar||^2 < delta^2); the
    H1-side truth mirrors it across the pair: g + (f_bar - f), projected.

    psi depends on a sample only through the gap D = rss_f - rss_g =
    sum_i (g-f)(x_i) (2 y_i - (f+g)(x_i)), which each trial draws through
    :func:`_pair_draws`, from its exact law where one is known.  A tie
    rss_f == rss_g gives psi = 1 (:func:`_psi_from_gap`); a gap within the
    rounding bound of its sum counts as a tie, so every path decides ties
    the same way.  D is built from g - f and f + g only, so swapping f and
    g negates it bit for bit, and with the stream keyed by the truth the
    two reports mirror exactly whenever no trial ties.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    fc, gc, bc = (np.asarray(v, dtype=np.float64) for v in (f, g, f_bar))
    C = constants.C
    sep2 = n * dist(body, fc, gc) ** 2
    delta2 = sep2 / (C * C)
    if n * dist(body, fc, bc) ** 2 >= delta2:
        raise ValueError("need n ||f-fbar||^2 < delta^2 = n||f-g||^2/C^2")
    h1_bar = body.project_rows((gc + (bc - fc))[None, :])[0]
    if n * dist(body, gc, h1_bar) ** 2 >= delta2:
        raise ValueError("mirrored H1 truth violates the proximity condition")
    bound = float(3.0 * np.exp(-constants.L_paper * delta2))
    u, s = gc - fc, fc + gc
    mag_u = np.abs(fc) + np.abs(gc)

    def psi_one_count(truth: np.ndarray) -> int:
        # stream keyed by the truth so swapping f and g mirrors exactly
        rng = rng_for(seed, "test-error", truth)
        draws = _pair_draws(body, design, noise, n, trials, rng, u, 2.0 * truth - s,
                            mag_u, 2.0 * np.abs(truth) + mag_u)
        gap, mag = _pair_sums(
            ((A * (c * B + r)).sum(axis=1), (MA * (c * MB + np.abs(r))).sum(axis=1))
            for c, A, B, r, MA, MB in draws
        )
        return int(np.count_nonzero(_psi_from_gap(gap, mag, n, body.dim)))

    freq_h0 = psi_one_count(bc) / trials
    freq_h1 = (trials - psi_one_count(h1_bar)) / trials
    return TestErrorReport(
        freq_h0=freq_h0,
        freq_h1=freq_h1,
        bound=bound,
        delta=float(np.sqrt(delta2)),
        trials=trials,
        noise_kind=noise.kind,
        passed=max(freq_h0, freq_h1) <= bound,
    )


@dataclass(frozen=True)
class MomentReport:
    alpha_hat: float
    per_p: dict
    pairs: int
    trials: int


def moment_ratio_check(
    body: ConvexBody,
    design: DesignDistribution,
    p_values=(2, 4, 6),
    trials: int = 100_000,
    seed: int = 0,
    pairs: int = 8,
) -> MomentReport:
    """Monte Carlo worst ratio ||f-g||_{Lp} / (sqrt(p) ||f-g||_{L2}) over
    sampled member pairs of a sup-norm-unbounded (linear) class: an estimate
    of its sub-Gaussian moment constant alpha."""
    if body.sup_bound is not None:
        raise ValueError("moment check targets the sup-norm-unbounded (linear) kinds")
    if trials < 1 or pairs < 1:
        raise ValueError(f"need trials >= 1 and pairs >= 1, got {trials} and {pairs}")
    per_p = {int(q): 0.0 for q in p_values}
    if not per_p or min(per_p) < 1:
        raise ValueError(f"p_values must be nonempty with every p >= 1, got {list(p_values)}")
    rng = np.random.default_rng(seed)
    X = body.sample_design(trials, design, rng)
    for _ in range(pairs):
        b1 = body.sample_rows(1, rng)[0]
        b2 = body.sample_rows(1, rng)[0]
        l2 = dist(body, b1, b2)
        if l2 < 1e-12:
            raise RuntimeError("sampled pair coincides")
        z = np.abs(body.evaluate(X, b1 - b2))
        for q in per_p:
            lp = float(np.mean(z ** q) ** (1.0 / q))
            per_p[q] = max(per_p[q], lp / (np.sqrt(q) * l2))
    return MomentReport(alpha_hat=max(per_p.values()), per_p=per_p, pairs=pairs,
                        trials=trials)


def _trial_chunks(trials: int, per_trial: int):
    step = max(1, int(2e6 // max(per_trial, 1)))
    for start in range(0, trials, step):
        yield min(step, trials - start)


def _exact_law_applies(body: ConvexBody, design: DesignDistribution,
                       noise: NoiseModel | None, n: int) -> bool:
    """Whether :func:`_pair_draws` draws from an exact law; no noise is
    treated as gaussian noise."""
    kind = "gaussian" if noise is None else noise.kind
    if kind not in ("gaussian", "scaled_rademacher"):
        return False
    if isinstance(body, LinearBody):
        # the 2x2 Bartlett factor takes n dof, or n - 1 beside rademacher's z
        return design.kind == "gaussian" and n >= (2 if kind == "gaussian" else 3)
    return True


def _pair_draws(body, design, noise, n, trials, rng, a, b, mag_a=None, mag_b=None):
    """Chunks (c, A, B, r, MA, MB), one row per trial, that stand in for n
    observations of the functions with coordinates a and b, and of the noise.

    Jointly in law, the sums of c A^2, c A B and c B^2 equal the sums of
    a(x_i)^2, a(x_i) b(x_i) and b(x_i)^2 over n design points, and the sum
    of A r equals 2 sum_i a(x_i) e_i; r = 0 when ``noise`` is None.  MA and
    MB are the same draws over magnitudes of the inputs (mag_a >= |a| and
    mag_b >= |b|, or |R| below), which bound the rounding error of the sums.

    - Grid bodies with gaussian or scaled_rademacher noise: c the multinomial
      node counts, A = a, B = b and r twice the per-node noise sums,
      N(0, c_j sigma^2) or sigma (2 Bin(c_j, 1/2) - c_j).
    - Linear bodies with the gaussian design and those noises, n >= 2
      (n >= 3 for rademacher noise): X enters only through the rows of
      (Xa, Xb), which are N(0, G) with G the Gram matrix of (a, b).  With R
      the symmetric root of G, which needs no full rank, and F a 2x2
      Bartlett factor of Wishart_2(n, I): c = 1, A = F^T R e_1,
      B = F^T R e_2 and r = 2 sigma xi, xi ~ N(0, I_2).  Rademacher signs
      fold into the symmetric rows, so (X^T X, X^T e) ~ (z z^T + W_{n-1},
      sigma sqrt(n) z) and F = [z | Bartlett(n - 1)] with
      r = (2 sigma sqrt(n), 0, 0).  MA and MB are |R e_i|^T |F|.
    - Every other case (uniform_bounded noise, the rademacher and
      uniform_cube designs, smaller n) simulates all n observations:
      c = 1 and r = 2 e.

    Sums over coordinates multiply and reduce elementwise, and the linear
    law signs a so that its first nonzero coordinate is positive and signs
    A back, so negating a negates A bit for bit.
    """
    exact_law = _exact_law_applies(body, design, noise, n)
    rademacher = noise is not None and noise.kind == "scaled_rademacher"
    if exact_law and not isinstance(body, LinearBody):
        pvals = np.full(body.dim, 1.0 / body.dim)
        for t in _trial_chunks(trials, body.dim):
            c = rng.multinomial(n, pvals, size=t)
            if noise is None:
                r = 0.0
            elif rademacher:
                r = 2.0 * (noise.sigma * (2.0 * rng.binomial(c, 0.5) - c))
            else:
                r = 2.0 * (noise.sigma * np.sqrt(c) * rng.standard_normal(c.shape))
            yield c, a, b, r, mag_a, mag_b
    elif exact_law:
        nonzero = a[a != 0.0]
        sign = -1.0 if len(nonzero) and nonzero[0] < 0.0 else 1.0
        pair = (sign * a, b)
        R = _sqrt_psd_2x2(np.array([[float((v * w).sum()) for w in pair] for v in pair]))
        for t in _trial_chunks(trials, 4):
            if rademacher:
                z = rng.standard_normal((t, 2, 1))
                F = np.concatenate([z, _bartlett(t, n - 1, rng)], axis=2)
                r = np.zeros((t, 3))
                r[:, 0] = 2.0 * noise.sigma * np.sqrt(n)
            else:
                F = _bartlett(t, n, rng)
                r = 0.0 if noise is None else 2.0 * noise.sigma * rng.standard_normal((t, 2))
            # F^T R e_i, reduced elementwise over the two rows of F
            A, B = ((R[:, i, None] * F).sum(axis=1) for i in (0, 1))
            MA, MB = ((np.abs(R[:, i, None]) * np.abs(F)).sum(axis=1) for i in (0, 1))
            yield 1.0, sign * A, B, r, MA, MB
    else:
        linear = isinstance(body, LinearBody)

        def at(v, x):
            return None if v is None else body.evaluate(x, v).reshape(-1, n)

        for t in _trial_chunks(trials, n * body.dim if linear else n):
            x = body.sample_design(t * n, design, rng)
            r = 0.0 if noise is None else 2.0 * noise.sample((t, n), rng)
            yield 1.0, at(a, x), at(b, x), r, at(mag_a, np.abs(x)), at(mag_b, np.abs(x))


def _pair_sums(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Two per-trial statistics, each concatenated over the chunks."""
    first, second = zip(*chunks)
    return np.concatenate(first), np.concatenate(second)


def _sqrt_psd_2x2(G: np.ndarray) -> np.ndarray:
    """Symmetric square root of a 2x2 positive semidefinite G, rank 1 or 0
    included: (G + s I) / sqrt(tr G + 2 s) with s = sqrt(det G)."""
    s = np.sqrt(max(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0], 0.0))
    scale = np.sqrt(G[0, 0] + G[1, 1] + 2.0 * s)
    return (G + s * np.eye(2)) / scale if scale > 0.0 else np.zeros((2, 2))


def _bartlett(t: int, dof: int, rng) -> np.ndarray:
    """t lower-triangular 2x2 A with A A^T ~ Wishart_2(dof, I), dof >= 2."""
    A = np.tril(rng.standard_normal((t, 2, 2)), -1)
    i = np.arange(2)
    A[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=(t, 2)))
    return A
