"""Monte Carlo experiment runner and empirical concentration checks.

Experiments sweep a sample-size grid, run the multiscale estimator per
replicate with schedule-driven stage counts, and fit a log-log slope of mean
squared risk against n.  Seeds derive from the master seed by a splittable
counter scheme (sha256 over labels), so replicates are independent streams
and a failed replicate never perturbs the others.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from concurrent.futures import ProcessPoolExecutor
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
from .entropy import EntropyBudget, EntropyProfile, local_entropy
from .errors import (
    DegenerateFit,
    InsufficientData,
    PreconditionViolated,
    UnboundedClassWithoutMomentConstant,
)
from .estimator import (
    NoiseModel,
    PoolBudget,
    RateConstants,
    RegressionData,
    _psi_from_gap,
    entropy_arg,
    run_algorithm1,
    schedule_depth,
    stage_schedule,
)
from .points import MetricPoint, as_coords
from .rates import RateFormula, theoretical_rate
from .seeds import derive_seed, rng_for


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


def make_truth(body: ConvexBody, spec: TruthSpec) -> MetricPoint:
    if spec.kind == "fixed":
        pt = body.point(np.asarray(spec.coords, dtype=np.float64))
        if not body.contains(pt):
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
    truth: MetricPoint,
    n: int,
    seed: int,
) -> RegressionData:
    """One observed sample: the body's design points plus noisy responses."""
    rng = rng_for(seed, "data")
    x = body.sample_design(n, design, rng)
    return RegressionData(y=body.evaluate(x, truth.coords) + noise.sample(n, rng), x=x)


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
        raise DegenerateFit("all sample sizes equal")
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
    stages: int | None = None  # fixed stage count overrides the schedule
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
        if self.stages is not None and self.stages < 1:
            raise ValueError("stages >= 1")
        if any(nxt <= prev for prev, nxt in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.truth.kind == "sparse" and "p" in self.body_params:
            if self.truth.s > int(self.body_params["p"]):
                raise ValueError("sparse truth needs s <= p")

    def digest(self) -> str:
        """Hash of every field, nested records included, as canonical JSON."""
        blob = json.dumps(_plain(asdict(self)), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _plain(v):
    """JSON-ready copy of a value: arrays and tuples become lists."""
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


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
    if cfg.condition_kind != "auto":
        return cfg.condition_kind
    return "bounded" if body.sup_bound is not None else "unbounded"


def schedule_grid(cfg: ExperimentConfig, body: ConvexBody, constants: RateConstants,
                  kind: str, n: int | None = None) -> list[float]:
    """Ascending eps grid on the ladder d * 2^(2-j), whose points include the
    schedule's arguments d/2^(J-2) (twice that for the adaptive condition).

    With n: only the arguments of J = 1 .. :func:`schedule_depth` at n, which
    are all the points the schedule at n, or at any smaller n, can read.
    Without n: the whole ladder j = 0 .. max_stages + 2, which the eps*
    crossing, the monotonization and the lower bound read past the schedule.
    """
    d = body.diameter()
    if n is None:
        ladder = (d * 2.0 ** (2 - j) for j in range(cfg.max_stages + 3))
    else:
        depth = schedule_depth(n, constants, d, cfg.max_stages)
        ladder = (entropy_arg(J, d, kind) for J in range(1, depth + 1))
    return sorted(e for e in ladder if e > 0)


def schedule_profile(cfg: ExperimentConfig, body: ConvexBody, constants: RateConstants,
                     kind: str, n: int | None = None) -> EntropyProfile:
    """Greedy entropy profile on :func:`schedule_grid`: the schedule's prefix
    for sample sizes up to n, or the whole ladder when n is None.  Each grid
    point is computed on its own, so the prefix holds the ladder's values."""
    grid = schedule_grid(cfg, body, constants, kind, n)
    seed = derive_seed(cfg.master_seed, "profile", kind, body.tag)
    if kind == "adaptive":
        # the schedule's infimum over centers is approximated by the
        # least-entropy heuristic extreme point (vertices minimize it)
        ext = body.extreme_points()
        center = ext[0] if len(ext) else body.project(np.zeros(body.dim)).coords
        return local_entropy(
            body, grid, 2.0 * constants.c, mode="adaptive", center=center,
            budget=cfg.profile_budget, seed=seed,
        )
    return local_entropy(body, grid, constants.c, mode="global",
                         budget=cfg.profile_budget, seed=seed)


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
                            derive_seed(self.master_seed, "cell", n, r)])
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
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run_cell(cfg: ExperimentConfig, n: int, rep: int, stages: int,
              body: ConvexBody, truth: MetricPoint) -> float:
    """One replicate's squared L2(P_X) risk; pure function of (config, n, rep)."""
    seed = derive_seed(cfg.master_seed, "cell", n, rep)
    data = draw_data(body, cfg.design, cfg.noise, truth, n, seed)
    constants = constants_for(cfg, body)
    trace = run_algorithm1(
        body, data, constants, stages, cfg.pool, seed=derive_seed(seed, "run")
    )
    return dist(body, trace.final, truth) ** 2


def _cell_or_nan(job: tuple) -> float:
    """:func:`_run_cell` on one job tuple; a failed replicate gives NaN."""
    try:
        return _run_cell(*job)
    except Exception:
        return np.nan


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Full sweep over the n grid.

    Per n: resolve the class (grid resolution may grow with n) and read the
    stage schedule off the entropy profile.  The profile is built once per
    distinct body: its constants, kind and seed are functions of the body
    within a sweep, so a fixed-size body shares one profile across every n.
    It holds only the points the schedule can read at the largest n sharing
    the body, which serve every smaller n too.
    Then all replicates of all n run, serially or on one pool of
    ``threads`` processes; a failed replicate is recorded as NaN without
    aborting the sweep, and the outputs do not depend on ``threads``.
    """
    theory_vals: dict = {}
    formula: RateFormula | None = None
    if cfg.theory:
        formula = theoretical_rate(cfg.theory, **cfg.theory_params)

    bodies = {n: body_for_n(cfg, n) for n in cfg.n_grid}
    last_n = {body.tag: n for n, body in bodies.items()}  # n_grid ascends
    profiles: dict = {}  # body.tag -> schedule profile
    stages_used: dict = {}
    d2: dict = {}
    jobs = []
    for n, body in bodies.items():
        truth = make_truth(body, cfg.truth)
        constants = constants_for(cfg, body)
        kind = resolve_condition_kind(cfg, body)
        if cfg.stages is not None:
            stages = cfg.stages
        else:
            if body.tag not in profiles:
                profiles[body.tag] = schedule_profile(cfg, body, constants, kind,
                                                      last_n[body.tag])
            sched = stage_schedule(profiles[body.tag], n, constants, kind, body.diameter(),
                                   max_stages=cfg.max_stages)
            stages = sched.j_star
        stages_used[n] = stages
        d2[n] = body.diameter() ** 2
        jobs += [(cfg, n, rep, stages, body, truth) for rep in range(cfg.replicates)]
        if formula is not None:
            theory_vals[n] = float(formula.risk(n))

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            flat = list(pool.map(_cell_or_nan, jobs))
    else:
        flat = [_cell_or_nan(job) for job in jobs]
    risks = dict(zip(cfg.n_grid, np.array(flat).reshape(len(cfg.n_grid), cfg.replicates)))
    for n, out in risks.items():
        if not np.any(np.isfinite(out)):
            raise InsufficientData(f"all replicates failed at n={n}")

    mean_risk = {n: float(np.nanmean(risks[n])) for n in cfg.n_grid}
    std_error = {
        n: float(np.nanstd(risks[n], ddof=1) / np.sqrt(np.sum(np.isfinite(risks[n]))))
        for n in cfg.n_grid
    }

    # slope fit, excluding cells in the diameter^2 ceiling regime
    excluded = [
        int(n)
        for n in cfg.n_grid
        if mean_risk[n] + 2.0 * std_error[n] >= d2[n] or mean_risk[n] <= 0
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
# Empirical concentration checks
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationReport:
    frequency: float
    bound: float
    delta: float
    n: int
    C: float
    trials: int
    case: str  # bounded | unbounded

    @property
    def passed(self) -> bool:
        return self.frequency >= self.bound


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


def _pn_norms(body, design, diffs: list[np.ndarray], n: int, trials: int, rng) -> list[np.ndarray]:
    """Per-trial n*||diff||^2_{Pn} for each coordinate difference in diffs,
    drawn jointly from their exact law; see :func:`check_norm_concentration`
    for the cases."""
    if not isinstance(body, LinearBody):
        # uniform design on nodes: each statistic is sum_j c_j d_j^2 with the
        # same multinomial node counts c for every difference d
        sq = np.stack([d * d for d in diffs])
        pvals = np.full(body.dim, 1.0 / body.dim)
        outs = [(rng.multinomial(n, pvals, size=t)[:, None, :] * sq).sum(axis=2)
                for t in _trial_chunks(trials, body.dim)]
        return list(np.concatenate(outs).T)
    if design.kind == "gaussian" and len(diffs) == 2 and n >= 2:
        # with D the two differences as columns, D^T X^T X D ~
        # Wishart_2(n, D^T D) = R A A^T R in law, A the Bartlett factor and R
        # the symmetric root of the Gram matrix D^T D; a root, unlike a
        # Cholesky factor, needs no full rank
        R = _sqrt_psd_2x2(np.array([[float((a * b).sum()) for b in diffs] for a in diffs]))
        outs = []
        for t in _trial_chunks(trials, 4):
            RA = (R[None, :, :, None] * _bartlett(t, 2, n, rng)[:, None, :, :]).sum(axis=2)
            outs.append((RA * RA).sum(axis=2))
        return list(np.concatenate(outs).T)
    return _pn_norms_direct(body, design, diffs, n, trials, rng)


def _pn_norms_direct(body, design, diffs, n, trials, rng) -> list[np.ndarray]:
    """Simulate all n design points of each trial."""
    per_trial = n * body.dim if isinstance(body, LinearBody) else n
    outs = []
    for t in _trial_chunks(trials, per_trial):
        x = body.sample_design(t * n, design, rng)
        z = np.stack([body.evaluate(x, d).reshape(t, n) for d in diffs], axis=1)
        outs.append((z * z).sum(axis=2))
    return list(np.concatenate(outs).T)


def _sqrt_psd_2x2(G: np.ndarray) -> np.ndarray:
    """Symmetric square root of a 2x2 positive semidefinite G, rank 1 or 0
    included: (G + s I) / sqrt(tr G + 2 s) with s = sqrt(det G)."""
    s = np.sqrt(max(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0], 0.0))
    scale = np.sqrt(G[0, 0] + G[1, 1] + 2.0 * s)
    return (G + s * np.eye(2)) / scale if scale > 0.0 else np.zeros((2, 2))


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
    design: DesignDistribution | None = None,
    b: float = 0.125,
    alpha: float | None = None,
) -> ConcentrationReport:
    """Monte Carlo frequency of the joint empirical-norm event versus the
    closed-form probability floor.

    Event: n||f-fbar||^2_Pn <= 2 delta^2 and n||f-g||^2_Pn >= (C^2-1) delta^2.
    Preconditions: n||f-g||^2 >= C^2 delta^2 and n||f-fbar||^2 < delta^2.

    Both statistics are sums over the n design points, so each trial draws
    the pair jointly from its exact law, at a cost free of n:

    - grid bodies: multinomial node counts c, shared by both statistics
      sum_j c_j d_j^2;
    - linear bodies with the gaussian design, n >= 2: the diagonal of
      R A A^T R, with A a 2x2 Bartlett factor of the Wishart_2(n, I) law and
      R the symmetric square root of the Gram matrix of f - fbar and f - g
      (rank 1 or 0 when f = fbar or the differences are parallel).

    Every other case (the rademacher and uniform_cube designs, n = 1)
    simulates all n design points.
    """
    fc, gc, bc = as_coords(f), as_coords(g), as_coords(f_bar)
    if n * dist(body, fc, gc) ** 2 < C * C * delta * delta:
        raise PreconditionViolated("need n ||f-g||^2 >= C^2 delta^2")
    if n * dist(body, fc, bc) ** 2 >= delta * delta:
        raise PreconditionViolated("need n ||f-fbar||^2 < delta^2")
    if body.sup_bound is not None:
        bound = concentration_bound_bounded(delta, C, body.sup_bound)
        case = "bounded"
    else:
        if alpha is None:
            raise UnboundedClassWithoutMomentConstant(
                "unbounded class needs the moment constant alpha"
            )
        bound = concentration_bound_unbounded(delta, C, body.diameter(), alpha, b)
        case = "unbounded"
    if design is None:
        design = DesignDistribution("gaussian")
    rng = rng_for(seed, "concentration")
    close, far = _pn_norms(body, design, [(fc - bc), (fc - gc)], n, trials, rng)
    event = (close <= 2.0 * delta * delta) & (far >= (C * C - 1.0) * delta * delta)
    return ConcentrationReport(
        frequency=float(event.mean()),
        bound=float(bound),
        delta=delta,
        n=n,
        C=C,
        trials=trials,
        case=case,
    )


@dataclass
class TestErrorReport:
    freq_h0: float  # P(psi = 1) under the H0-side truth
    freq_h1: float  # P(psi = 0) under the H1-side truth
    bound: float
    delta: float
    trials: int
    noise_kind: str

    @property
    def worst(self) -> float:
        return max(self.freq_h0, self.freq_h1)

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound


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
    design: DesignDistribution | None = None,
) -> TestErrorReport:
    """Error frequencies of the residual-comparison test against the
    3 exp(-L delta^2) bound.

    delta is fixed by the separation: delta^2 = n ||f-g||^2 / C^2.  The
    H0-side truth is ``f_bar`` (must satisfy n||f-fbar||^2 < delta^2); the
    H1-side truth mirrors it across the pair: g + (f_bar - f), projected.

    psi depends on a sample only through the gap D = rss_f - rss_g =
    sum_i (g-f)(x_i) (2 y_i - (f+g)(x_i)), so each trial draws D from its
    exact law where one is known, at a cost free of n:

    - grid bodies with gaussian or scaled_rademacher noise: multinomial node
      counts and per-node noise sums;
    - linear bodies with the gaussian design and those noises, when n >= p
      (n - 1 >= p for rademacher noise): (X^T X, X^T e) through Bartlett
      factors of the Wishart law.

    Every other case (uniform_bounded noise, the rademacher and uniform_cube
    designs, smaller n) simulates all n observations.  As in
    :func:`pairwise_test_psi`, a tie rss_f == rss_g gives psi = 1; a gap
    within the rounding bound of its sum counts as a tie, so both paths
    decide ties the same way.  D is built from g - f and f + g only, so
    swapping f and g negates it bit for bit, and with the stream keyed by
    the truth the two reports mirror exactly whenever no trial ties.
    """
    fc, gc, bc = as_coords(f), as_coords(g), as_coords(f_bar)
    C = constants.C
    sep2 = n * dist(body, fc, gc) ** 2
    delta2 = sep2 / (C * C)
    if n * dist(body, fc, bc) ** 2 >= delta2:
        raise PreconditionViolated("need n ||f-fbar||^2 < delta^2 = n||f-g||^2/C^2")
    h1_bar = body.project_rows((gc + (bc - fc))[None, :])[0]
    if n * dist(body, gc, h1_bar) ** 2 >= delta2:
        raise PreconditionViolated("mirrored H1 truth violates the proximity condition")
    bound = 3.0 * np.exp(-constants.L_paper * delta2)
    if design is None:
        design = DesignDistribution("gaussian")
    gaps = _gaps_exact if _exact_law_applies(body, design, noise, n) else _gaps_direct
    u, s = gc - fc, fc + gc
    mag_u = np.abs(fc) + np.abs(gc)

    def psi_one_count(truth: np.ndarray) -> int:
        # stream keyed by the truth so swapping f and g mirrors exactly
        rng = rng_for(seed, "test-error", truth)
        gap, mag = gaps(body, design, noise, n, trials, rng,
                        u, 2.0 * truth - s, mag_u, 2.0 * np.abs(truth) + mag_u)
        return int(np.count_nonzero(_psi_from_gap(gap, mag, n, body.dim)))

    return TestErrorReport(
        freq_h0=psi_one_count(bc) / trials,
        freq_h1=(trials - psi_one_count(h1_bar)) / trials,
        bound=float(bound),
        delta=float(np.sqrt(delta2)),
        trials=trials,
        noise_kind=noise.kind,
    )


# Each sampler below returns, per trial, the gap D = sum_i u(x_i) (w(x_i) +
# 2 e_i) with u = g - f and w = 2 truth - (f + g), and the same sum over the
# magnitudes mag_u >= |u| and mag_w >= |w| of their inputs, which bounds
# the rounding error of D.  Sums over coordinates multiply and reduce
# elementwise, so negating u negates D exactly.


def _trial_chunks(trials: int, per_trial: int):
    step = max(1, int(2e6 // max(per_trial, 1)))
    for start in range(0, trials, step):
        yield min(step, trials - start)


def _exact_law_applies(body: ConvexBody, design: DesignDistribution,
                       noise: NoiseModel, n: int) -> bool:
    if noise.kind not in ("gaussian", "scaled_rademacher"):
        return False
    if isinstance(body, LinearBody):
        dof = n if noise.kind == "gaussian" else n - 1
        return design.kind == "gaussian" and dof >= body.p
    return True


def _gaps_direct(body, design, noise, n, trials, rng, u, w, mag_u, mag_w):
    """Simulate all n observations of each trial."""
    linear = isinstance(body, LinearBody)
    gaps, mags = [], []
    for t in _trial_chunks(trials, n * body.dim if linear else n):
        x = body.sample_design(t * n, design, rng)
        if linear:
            # elementwise sums, not body.evaluate's x @ u: they keep the
            # swap negation of D exact
            absx = np.abs(x)
            du, dw = (x * u).sum(axis=1), (x * w).sum(axis=1)
            mu, mw = (absx * mag_u).sum(axis=1), (absx * mag_w).sum(axis=1)
        else:
            du, dw, mu, mw = u[x], w[x], mag_u[x], mag_w[x]
        du, dw, mu, mw = (v.reshape(t, n) for v in (du, dw, mu, mw))
        e = noise.sample((t, n), rng)
        gaps.append((du * (dw + 2.0 * e)).sum(axis=1))
        mags.append((mu * (mw + 2.0 * np.abs(e))).sum(axis=1))
    return np.concatenate(gaps), np.concatenate(mags)


def _gaps_exact(body, design, noise, n, trials, rng, u, w, mag_u, mag_w):
    """Draw D from its exact law; see :func:`check_test_error` for the cases."""
    sigma = noise.sigma
    gaussian = noise.kind == "gaussian"
    gaps, mags = [], []
    if not isinstance(body, LinearBody):
        # uniform design on nodes: counts c are multinomial and the noise sum
        # S_j over node j is N(0, c_j sigma^2) or sigma (2 Bin(c_j, 1/2) - c_j)
        pvals = np.full(body.dim, 1.0 / body.dim)
        for t in _trial_chunks(trials, body.dim):
            c = rng.multinomial(n, pvals, size=t)
            if gaussian:
                S = sigma * np.sqrt(c) * rng.standard_normal(c.shape)
            else:
                S = sigma * (2.0 * rng.binomial(c, 0.5) - c)
            gaps.append((u * (c * w + 2.0 * S)).sum(axis=1))
            mags.append((mag_u * (c * mag_w + 2.0 * np.abs(S))).sum(axis=1))
        return np.concatenate(gaps), np.concatenate(mags)
    # D = u^T (X^T X) w + u^T (2 X^T e) = u^T F (F^T w + r) with F F^T = X^T X
    # and F r = 2 X^T e jointly in law.  Gaussian noise: F is the Bartlett
    # factor A and r = 2 sigma xi.  Rademacher noise: the signs fold into
    # the symmetric rows, so (X^T X, X^T e) ~ (z z^T + W_{n-1}, sigma sqrt(n) z)
    # and F = [z | B] with r = (2 sigma sqrt(n), 0, ..., 0).
    p = body.p
    for t in _trial_chunks(trials, p * (p + 1)):
        if gaussian:
            F = _bartlett(t, p, n, rng)
            r = 2.0 * sigma * rng.standard_normal((t, p))
        else:
            z = rng.standard_normal((t, p, 1))
            F = np.concatenate([z, _bartlett(t, p, n - 1, rng)], axis=2)
            r = np.zeros((t, p + 1))
            r[:, 0] = 2.0 * sigma * np.sqrt(n)
        absF = np.abs(F)
        Fu, Fw = (F * u[:, None]).sum(axis=1), (F * w[:, None]).sum(axis=1)
        Mu, Mw = (absF * mag_u[:, None]).sum(axis=1), (absF * mag_w[:, None]).sum(axis=1)
        gaps.append((Fu * (Fw + r)).sum(axis=1))
        mags.append((Mu * (Mw + np.abs(r))).sum(axis=1))
    return np.concatenate(gaps), np.concatenate(mags)


def _bartlett(t: int, p: int, dof: int, rng) -> np.ndarray:
    """t lower-triangular A with A A^T ~ Wishart_p(dof, I), dof >= p."""
    A = np.tril(rng.standard_normal((t, p, p)), -1)
    i = np.arange(p)
    A[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=(t, p)))
    return A
