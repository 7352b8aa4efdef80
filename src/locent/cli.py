"""Command-line workbench.

Subcommands: entropy, eps-star, certify-lower, estimate, experiment, widths,
check-concentration, check-test, moment-check.  Global flags: --config,
--seed (overrides the config master seed), --out, --threads.  Outputs are
plain CSV/JSON files with deterministic content for fixed config and seed.
estimate reads the schedule profile that a sweep builds at the given n: the
points its schedule can read.  entropy, eps-star and certify-lower read the
same profile on the whole ladder; on adaptive configs certify-lower reads a
global one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .bodies import dist, moment_ratio_check
from .estimator import run_algorithm1, stage_schedule
from .harness import (
    ExperimentConfig,
    body_for_n,
    check_norm_concentration,
    check_test_error,
    constants_for,
    draw_data,
    make_truth,
    resolve_condition_kind,
    run_experiment,
    schedule_profile,
)
from .rates import certify_lower_bound, solve_eps_star
from .seeds import derive_seed
from .widths import Box, Ellipsoid, L1Ball, L2Ball, gaussian_width


def _write(out_dir: str, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(path)


def _load(args) -> ExperimentConfig:
    if args.config:
        cfg = cfgmod.load_config(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _body_and_constants(cfg: ExperimentConfig, n: int):
    body = body_for_n(cfg, n)
    return body, constants_for(cfg, body)


def cmd_entropy(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    prof = schedule_profile(cfg, body, constants, resolve_condition_kind(cfg, body))
    _write(args.out, "entropy.csv", prof.to_csv())
    print(f"{prof.saturated.sum()} of {len(prof.eps)} grid points at the pool ceiling", file=sys.stderr)


def cmd_eps_star(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    prof = schedule_profile(cfg, body, constants, resolve_condition_kind(cfg, body))
    cert = solve_eps_star(prof, n, sigma=cfg.noise.sigma, diameter=body.diameter())
    _write(args.out, "eps_star.json", cert.to_json())


def cmd_certify_lower(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    kind = resolve_condition_kind(cfg, body)
    # the Fano bound needs the sup over centers: adaptive configs read a global profile
    prof = schedule_profile(cfg, body, constants, "global" if kind == "adaptive" else kind)
    report = certify_lower_bound(prof, n, sigma=cfg.noise.sigma)
    _write(args.out, "lower_bound.json", json.dumps(report, sort_keys=True, separators=(",", ":")))


def cmd_estimate(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    truth = make_truth(body, cfg.truth)
    seed = derive_seed(cfg.master_seed, "cli-estimate", n)
    data = draw_data(body, cfg.design, cfg.noise, truth, n, seed)
    if cfg.stages is not None:
        stages = cfg.stages
    else:
        kind = resolve_condition_kind(cfg, body)
        prof = schedule_profile(cfg, body, constants, kind, n)
        stages = stage_schedule(prof, n, constants, kind, body.diameter(),
                                max_stages=cfg.max_stages).j_star
    trace = run_algorithm1(body, data, constants, stages, cfg.pool,
                           seed=derive_seed(seed, "run"), eval_truth=truth)
    _write(args.out, "trace.json", trace.to_json())


def cmd_experiment(args):
    cfg = _load(args)
    res = run_experiment(cfg, threads=args.threads)
    _write(args.out, "results.csv", res.rows_csv())
    _write(args.out, "summary.csv", res.summary_csv())
    _write(args.out, "manifest.json", res.manifest_json())


def cmd_widths(args):
    cfg = _load(args)
    seed = derive_seed(cfg.master_seed, "cli-widths")
    sets = [
        L2Ball(2),
        L1Ball(8),
        Box([0.0], [1.0]),
        Ellipsoid([0.25, 1.0]),
    ]
    payload = [json.loads(gaussian_width(s, draws=args.draws, seed=seed).to_json()) for s in sets]
    _write(args.out, "widths.json", json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_check_concentration(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    rng_seed = derive_seed(cfg.master_seed, "cli-conc")
    f = make_truth(body, cfg.truth)
    g = body.point(body.extreme_points()[0]) if len(body.extreme_points()) else body.sample_member(1)
    sep = dist(body, f, g)
    delta = np.sqrt(n) * sep / cfg.C / 1.001
    rep = check_norm_concentration(
        body, f, g, f, n, cfg.C, float(delta), trials=args.trials, seed=rng_seed,
        design=cfg.design, b=cfg.b, alpha=cfg.alpha_moment,
    )
    _write(args.out, "concentration.json", json.dumps(dataclasses.asdict(rep) | {"passed": rep.passed},
                                                      sort_keys=True, separators=(",", ":")))


def cmd_check_test(args):
    cfg = _load(args)
    n = args.n or max(cfg.n_grid)
    body, constants = _body_and_constants(cfg, n)
    f = make_truth(body, cfg.truth)
    g = body.point(body.extreme_points()[0]) if len(body.extreme_points()) else body.sample_member(1)
    rep = check_test_error(
        body, f, g, f, cfg.noise, n, constants, trials=args.trials,
        seed=derive_seed(cfg.master_seed, "cli-test"), design=cfg.design,
    )
    _write(args.out, "test_error.json", json.dumps(dataclasses.asdict(rep) | {"passed": rep.passed},
                                                   sort_keys=True, separators=(",", ":")))


def cmd_moment_check(args):
    cfg = _load(args)
    body = body_for_n(cfg, max(cfg.n_grid))
    rep = moment_ratio_check(
        body, cfg.design, p_values=(2, 4, 6), trials=args.trials,
        seed=derive_seed(cfg.master_seed, "cli-moment"),
    )
    payload = {"alpha_hat": rep.alpha_hat, "per_p": rep.per_p, "pairs": rep.pairs,
               "trials": rep.trials}
    _write(args.out, "moment.json", json.dumps(payload, sort_keys=True, separators=(",", ":")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="locent", description=__doc__)
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="emit a greedy local-entropy profile CSV")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("eps-star", help="fixed-point rate certificate JSON")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_eps_star)

    sp = sub.add_parser("certify-lower", help="Fano-style lower-bound report")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_certify_lower)

    sp = sub.add_parser("estimate", help="single estimator run, trace JSON")
    sp.add_argument("--n", type=int, default=None)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("experiment", help="full Monte Carlo sweep")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("widths", help="Gaussian width estimates JSON")
    sp.add_argument("--draws", type=int, default=4096)
    sp.set_defaults(func=cmd_widths)

    sp = sub.add_parser("check-concentration", help="empirical norm concentration")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.set_defaults(func=cmd_check_concentration)

    sp = sub.add_parser("check-test", help="pairwise test error frequencies")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.set_defaults(func=cmd_check_test)

    sp = sub.add_parser("moment-check", help="sub-Gaussian moment ratio report")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.set_defaults(func=cmd_moment_check)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
