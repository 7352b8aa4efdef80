"""Command-line workbench.

Subcommands: entropy, eps-star, certify-lower, estimate, experiment, widths,
check-concentration, check-test, moment-check.  Global flags: --config,
--seed (overrides the config master seed), --out, --threads.  Each command
returns its files as {name: text}; they are written under --out, with
deterministic content for fixed config and seed, and their paths printed.
Counts (--n, --trials, --draws, --threads) must be at least 1.
estimate --n N runs replicate 0 of the sweep cell at N: its stage count J*
comes from the sweep's schedule walk, which builds the profile points it
reads and no other.  entropy, eps-star and certify-lower build the same
profile on the whole ladder; on adaptive configs certify-lower builds a
global one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .bodies import dist, moment_ratio_check
from .harness import (
    ExperimentConfig,
    body_for_n,
    check_norm_concentration,
    check_test_error,
    constants_for,
    make_truth,
    resolve_condition_kind,
    run_experiment,
    run_replicate,
    schedule_profile,
    schedule_stages,
)
from .rates import certify_lower_bound, solve_eps_star
from .seeds import canonical_json, derive_seed
from .widths import Box, Ellipsoid, L1Ball, L2Ball, gaussian_width


def _load(args) -> ExperimentConfig:
    cfg = cfgmod.load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _setup(args):
    """Config, n (``--n``, else the largest of the grid), body, constants and
    condition kind of a command that works at one sample size."""
    cfg = _load(args)
    n = getattr(args, "n", None) or max(cfg.n_grid)
    body = body_for_n(cfg, n)
    return cfg, n, body, constants_for(cfg, body), resolve_condition_kind(cfg, body)


def _pair(cfg: ExperimentConfig, body):
    """Both checks compare the truth with the body's first extreme point."""
    return make_truth(body, cfg.truth), body.point(body.extreme_points()[0])


def _check_json(report) -> str:
    return canonical_json(dataclasses.asdict(report) | {"passed": report.passed})


def cmd_entropy(args):
    cfg, n, body, constants, kind = _setup(args)
    prof = schedule_profile(cfg, body, constants, kind)
    print(f"{prof.saturated.sum()} of {len(prof.eps)} grid points at the pool ceiling", file=sys.stderr)
    return {"entropy.csv": prof.to_csv()}


def cmd_eps_star(args):
    cfg, n, body, constants, kind = _setup(args)
    prof = schedule_profile(cfg, body, constants, kind)
    cert = solve_eps_star(prof, n, sigma=cfg.noise.sigma, diameter=body.diameter())
    return {"eps_star.json": cert.to_json()}


def cmd_certify_lower(args):
    cfg, n, body, constants, kind = _setup(args)
    # the Fano bound needs the sup over centers: adaptive configs read a global profile
    prof = schedule_profile(cfg, body, constants, "global" if kind == "adaptive" else kind)
    return {"lower_bound.json": canonical_json(certify_lower_bound(prof, n, sigma=cfg.noise.sigma))}


def cmd_estimate(args):
    cfg, n, body, constants, kind = _setup(args)
    stages = schedule_stages(cfg, n, body, constants, kind, {})
    trace = run_replicate(cfg, n, 0, stages, body, make_truth(body, cfg.truth))
    return {"trace.json": trace.to_json()}


def cmd_experiment(args):
    res = run_experiment(_load(args), threads=args.threads)
    return {"results.csv": res.rows_csv(), "summary.csv": res.summary_csv(),
            "manifest.json": res.manifest_json()}


def cmd_widths(args):
    seed = derive_seed(_load(args).master_seed, "cli-widths")
    widths = [dataclasses.asdict(gaussian_width(s, draws=args.draws, seed=seed))
              for s in (L2Ball(2), L1Ball(8), Box([0.0], [1.0]), Ellipsoid([0.25, 1.0]))]
    return {"widths.json": canonical_json(widths)}


def cmd_check_concentration(args):
    cfg, n, body, _, _ = _setup(args)
    f, g = _pair(cfg, body)
    delta = np.sqrt(n) * dist(body, f, g) / cfg.C / 1.001
    rep = check_norm_concentration(
        body, f, g, f, n, cfg.C, float(delta), trials=args.trials,
        seed=derive_seed(cfg.master_seed, "cli-conc"),
        design=cfg.design, b=cfg.b, alpha=cfg.alpha_moment,
    )
    return {"concentration.json": _check_json(rep)}


def cmd_check_test(args):
    cfg, n, body, constants, _ = _setup(args)
    f, g = _pair(cfg, body)
    rep = check_test_error(body, f, g, f, cfg.noise, n, constants, trials=args.trials,
                           seed=derive_seed(cfg.master_seed, "cli-test"), design=cfg.design)
    return {"test_error.json": _check_json(rep)}


def cmd_moment_check(args):
    cfg, _, body, _, _ = _setup(args)
    rep = moment_ratio_check(body, cfg.design, trials=args.trials,
                             seed=derive_seed(cfg.master_seed, "cli-moment"))
    return {"moment.json": rep.to_json()}


# name -> (command, help, {count flag: default})
COMMANDS = {
    "entropy": (cmd_entropy, "emit a greedy local-entropy profile CSV", {"n": None}),
    "eps-star": (cmd_eps_star, "fixed-point rate certificate JSON", {"n": None}),
    "certify-lower": (cmd_certify_lower, "Fano-style lower-bound report", {"n": None}),
    "estimate": (cmd_estimate, "replicate 0 of the sweep cell at --n, trace JSON", {"n": None}),
    "experiment": (cmd_experiment, "full Monte Carlo sweep", {}),
    "widths": (cmd_widths, "Gaussian width estimates JSON", {"draws": 4096}),
    "check-concentration": (cmd_check_concentration, "empirical norm concentration",
                            {"n": None, "trials": 10_000}),
    "check-test": (cmd_check_test, "pairwise test error frequencies",
                   {"n": None, "trials": 10_000}),
    "moment-check": (cmd_moment_check, "sub-Gaussian moment ratio report",
                     {"trials": 100_000}),
}


def count(text: str) -> int:
    """An integer of at least 1: the type of every count flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="locent", description=__doc__)
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=count, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, default in flags.items():
            sp.add_argument(f"--{flag}", type=count, default=default)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    files = args.func(args)
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(args.out, name)
        Path(path).write_text(text, encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
