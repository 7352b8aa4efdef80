"""Hierarchical text configuration (INI sections) for the workbench.

Sections mirror the experiment fields::

    [class]
    kind = monotone_grid
    p = 1
    m = auto

    [design]
    kind = gaussian

    [noise]
    kind = gaussian
    sigma = 1.0

    [truth]
    kind = identity

    [experiment]
    n_grid = 64 128 256 512 1024 2048 4096
    replicates = 50
    master_seed = 20240601
    condition_kind = auto
    risk_eval = analytic
    theory = monotone

    [constants]
    C = 4.0
    practical_scale = 1.0
    b = 0.125
    alpha = 1.0

    [budget]
    pool_size = 256
    pool_growth = 1.3
    pool_cap = 1024
    profile_pool = 192
    profile_centers = 4
    max_stages = 14

Lists are whitespace- or comma-separated.  Unknown keys raise, so typos fail
fast.  ``digest`` hashes the canonical key=value text for provenance.
"""

from __future__ import annotations

import configparser
import hashlib
import io

import numpy as np

from .bodies import DesignDistribution
from .entropy import EntropyBudget
from .estimator import NoiseModel, PoolBudget
from .harness import ExperimentConfig, TruthSpec

_CLASS_KEYS = {"kind", "p", "m", "radius", "a", "alpha", "gamma"}
_DESIGN_KEYS = {"kind", "tau"}
_NOISE_KEYS = {"kind", "sigma"}
_TRUTH_KEYS = {"kind", "coords", "s", "seed"}
_EXPERIMENT_KEYS = {
    "n_grid", "replicates", "master_seed", "condition_kind", "risk_eval",
    "fresh_m", "stages", "theory", "theory_s", "theory_p", "theory_alpha",
    "theory_gamma",
}
_CONSTANT_KEYS = {"c", "practical_scale", "b", "alpha"}
_BUDGET_KEYS = {
    "pool_size", "pool_growth", "pool_cap", "profile_pool", "profile_centers",
    "max_stages", "axis_steps", "extreme_pulls", "support_moves",
}


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _check_keys(section, allowed, name):
    extra = set(section) - allowed
    if extra:
        raise ValueError(f"unknown keys in [{name}]: {sorted(extra)}")


def parse_class_section(section) -> dict:
    _check_keys(section, _CLASS_KEYS, "class")
    params: dict = {"kind": section.get("kind", "monotone_grid")}
    if "p" in section:
        params["p"] = int(section["p"])
    if "m" in section:
        raw = section["m"]
        params["m"] = raw if raw.strip().lower() == "auto" else int(raw)
    if "radius" in section:
        params["radius"] = float(section["radius"])
    if "a" in section:
        params["a"] = _floats(section["a"])
    if "alpha" in section:
        params["alpha"] = float(section["alpha"])
    if "gamma" in section:
        params["gamma"] = float(section["gamma"])
    return params


def load_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)

    cls = parse_class_section(cp["class"]) if cp.has_section("class") else {"kind": "monotone_grid", "p": 1, "m": "auto"}
    body_kind = cls.pop("kind")

    design = DesignDistribution("gaussian")
    if cp.has_section("design"):
        sec = cp["design"]
        _check_keys(sec, _DESIGN_KEYS, "design")
        design = DesignDistribution(
            sec.get("kind", "gaussian"),
            float(sec["tau"]) if "tau" in sec else None,
        )

    noise = NoiseModel("gaussian", 1.0)
    if cp.has_section("noise"):
        sec = cp["noise"]
        _check_keys(sec, _NOISE_KEYS, "noise")
        noise = NoiseModel(sec.get("kind", "gaussian"), float(sec.get("sigma", 1.0)))

    truth = TruthSpec("sampled")
    if cp.has_section("truth"):
        sec = cp["truth"]
        _check_keys(sec, _TRUTH_KEYS, "truth")
        truth = TruthSpec(
            kind=sec.get("kind", "sampled"),
            coords=tuple(_floats(sec["coords"])) if "coords" in sec else None,
            s=int(sec.get("s", 0)),
            seed=int(sec.get("seed", 0)),
        )

    kwargs: dict = {}
    theory = None
    theory_params: dict = {}
    if cp.has_section("experiment"):
        sec = cp["experiment"]
        _check_keys(sec, _EXPERIMENT_KEYS, "experiment")
        if "n_grid" in sec:
            kwargs["n_grid"] = tuple(_ints(sec["n_grid"]))
        if "replicates" in sec:
            kwargs["replicates"] = int(sec["replicates"])
        if "master_seed" in sec:
            kwargs["master_seed"] = int(sec["master_seed"])
        if "condition_kind" in sec:
            kwargs["condition_kind"] = sec["condition_kind"]
        if "risk_eval" in sec:
            kwargs["risk_eval"] = sec["risk_eval"]
        if "fresh_m" in sec:
            kwargs["fresh_m"] = int(sec["fresh_m"])
        if "stages" in sec and sec["stages"].strip().lower() != "auto":
            kwargs["stages"] = int(sec["stages"])
        theory = sec.get("theory", None)
        if theory:
            if theory == "sparse_l1":
                theory_params = {"s": int(sec["theory_s"]), "p": int(sec["theory_p"])}
            elif theory == "monotone":
                theory_params = {"p": int(sec.get("theory_p", cls.get("p", 1)))}
            elif theory == "holder":
                theory_params = {
                    "alpha": float(sec.get("theory_alpha", cls.get("alpha", 1.0))),
                    "gamma": float(sec.get("theory_gamma", cls.get("gamma", 1.0))),
                }
            elif theory == "ellipsoid":
                a = cls.get("a")
                if a is None:
                    p = int(cls.get("p", 1))
                    i = np.arange(1, p + 1)
                    a = ((p - i + 1.0) ** -2.0).tolist()
                theory_params = {"a": a}

    if cp.has_section("constants"):
        sec = cp["constants"]
        _check_keys(sec, _CONSTANT_KEYS, "constants")
        if "c" in sec:
            kwargs["C"] = float(sec["c"])
        if "practical_scale" in sec:
            kwargs["practical_scale"] = float(sec["practical_scale"])
        if "b" in sec:
            kwargs["b"] = float(sec["b"])
        if "alpha" in sec:
            kwargs["alpha_moment"] = float(sec["alpha"])

    pool = PoolBudget()
    profile = EntropyBudget(pool_size=192, centers=4)
    if cp.has_section("budget"):
        sec = cp["budget"]
        _check_keys(sec, _BUDGET_KEYS, "budget")
        pool = PoolBudget(
            size=int(sec.get("pool_size", 256)),
            growth=float(sec.get("pool_growth", 1.0)),
            cap=int(sec.get("pool_cap", 4096)),
            axis_steps=sec.getboolean("axis_steps", True),
            extreme_pulls=sec.getboolean("extreme_pulls", True),
            support_moves=int(sec.get("support_moves", 64)),
        )
        profile = EntropyBudget(
            pool_size=int(sec.get("profile_pool", 192)),
            centers=int(sec.get("profile_centers", 4)),
        )
        if "max_stages" in sec:
            kwargs["max_stages"] = int(sec["max_stages"])

    return ExperimentConfig(
        body_kind=body_kind,
        body_params=cls,
        design=design,
        noise=noise,
        truth=truth,
        pool=pool,
        profile_budget=profile,
        theory=theory,
        theory_params=theory_params,
        **kwargs,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read())


def config_digest_text(text: str) -> str:
    """Digest of the canonical (sorted section.key=value) config lines."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    lines = []
    for section in sorted(cp.sections()):
        for key in sorted(cp[section]):
            lines.append(f"{section}.{key}={cp[section][key]}")
    blob = "\n".join(lines)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
