"""INI configuration for the workbench.

Every accepted ``(section, key)`` pair is an entry of :data:`KEYS`, which
names the :class:`~locent.harness.ExperimentConfig` field the key sets and
the parser of its value; the dataclasses hold every default.  An unknown
section or key, a class key its kind does not take (``bodies.BODY_KEYS``),
or a missing one it needs (``bodies.NEEDED_KEYS``) raises ``ValueError``.  A ``[class]`` section gives the whole body: its keys
other than ``kind`` replace the default ``body_params``.
Lists are whitespace- or comma-separated.  Unless the ``theory_*`` keys
give them, the rate formula's parameters are read off the class.
"""

from __future__ import annotations

import configparser
from dataclasses import is_dataclass, replace

from .bodies import LinearEllipsoid
from .harness import ExperimentConfig


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def _auto_or(parse, auto):
    return lambda text: auto if text.strip().lower() == "auto" else parse(text)


# (section, key) -> (field path, parser); configparser lowercases keys
KEYS = {
    ("class", "kind"): ("body_kind", str),
    ("class", "p"): ("body_params.p", int),
    ("class", "m"): ("body_params.m", _auto_or(int, "auto")),
    ("class", "radius"): ("body_params.radius", float),
    ("class", "a"): ("body_params.a", _floats),
    ("class", "alpha"): ("body_params.alpha", float),
    ("class", "gamma"): ("body_params.gamma", float),
    ("design", "kind"): ("design.kind", str),
    ("noise", "kind"): ("noise.kind", str),
    ("noise", "sigma"): ("noise.sigma", float),
    ("truth", "kind"): ("truth.kind", str),
    ("truth", "coords"): ("truth.coords", lambda text: tuple(_floats(text))),
    ("truth", "s"): ("truth.s", int),
    ("truth", "seed"): ("truth.seed", int),
    ("experiment", "n_grid"): ("n_grid", _ints),
    ("experiment", "replicates"): ("replicates", int),
    ("experiment", "master_seed"): ("master_seed", int),
    ("experiment", "condition_kind"): ("condition_kind", str),
    ("experiment", "stages"): ("stages", _auto_or(int, None)),
    ("experiment", "theory"): ("theory", str),
    ("experiment", "theory_s"): ("theory_params.s", int),
    ("experiment", "theory_p"): ("theory_params.p", int),
    ("experiment", "theory_alpha"): ("theory_params.alpha", float),
    ("experiment", "theory_gamma"): ("theory_params.gamma", float),
    ("constants", "c"): ("C", float),
    ("constants", "practical_scale"): ("practical_scale", float),
    ("constants", "b"): ("b", float),
    ("constants", "alpha"): ("alpha_moment", float),
    ("budget", "pool_size"): ("pool.size", int),
    ("budget", "pool_growth"): ("pool.growth", float),
    ("budget", "pool_cap"): ("pool.cap", int),
    ("budget", "profile_pool"): ("profile_budget.pool_size", int),
    ("budget", "profile_centers"): ("profile_budget.centers", int),
    ("budget", "max_stages"): ("max_stages", int),
}


def _theory_params(theory: str | None, given: dict, body: dict) -> dict:
    """Parameters of the named rate formula: the ``theory_*`` keys, else the
    class's own."""
    if theory == "sparse_l1":
        if not {"s", "p"} <= given.keys():
            raise ValueError("theory = sparse_l1 needs theory_s and theory_p")
        return {"s": given["s"], "p": given["p"]}
    if theory == "monotone":
        return {"p": given.get("p", body.get("p", 1))}
    if theory == "holder":
        return {k: given.get(k, body.get(k, 1.0)) for k in ("alpha", "gamma")}
    if theory == "ellipsoid":
        a = body.get("a")
        if a is None:
            a = LinearEllipsoid.sobolev(int(body.get("p", 1))).a.tolist()
        return {"a": a}
    return {}


def load_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    unknown = set(cp.sections()) - {section for section, _ in KEYS}
    if unknown:
        raise ValueError(f"unknown sections: {sorted(unknown)}")
    cfg = ExperimentConfig()
    changes: dict = {"body_params": {}} if cp.has_section("class") else {}
    for section in cp.sections():
        for key, raw in cp[section].items():
            if (section, key) not in KEYS:
                raise ValueError(f"unknown key in [{section}]: {key!r}")
            path, parse = KEYS[section, key]
            name, _, sub = path.partition(".")
            if sub:
                changes.setdefault(name, {})[sub] = parse(raw)
            else:
                changes[name] = parse(raw)
    for name, value in changes.items():
        if is_dataclass(getattr(cfg, name)):
            changes[name] = replace(getattr(cfg, name), **value)
    if "theory" in changes or "theory_params" in changes:
        changes["theory_params"] = _theory_params(
            changes.get("theory"), changes.get("theory_params", {}),
            changes.get("body_params", cfg.body_params),
        )
    return replace(cfg, **changes)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read())
