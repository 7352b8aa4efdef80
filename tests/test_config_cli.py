import configparser
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locent.harness as harness
from locent.bodies import LinearEllipsoid, dist, make_body
from locent import cli
from locent.cli import main
from locent.config import KEYS, load_config_text
from locent.entropy import EntropyProfile

MONOTONE_INI = """
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
n_grid = 32 64 128
replicates = 2
master_seed = 99
condition_kind = bounded
theory = monotone

[constants]
C = 4.0
practical_scale = 20000

[budget]
pool_size = 32
pool_growth = 1.2
pool_cap = 128
profile_pool = 48
profile_centers = 3
max_stages = 10
"""

SPARSE_INI = """
[class]
kind = linear_l1
p = 8
radius = 1.0

[noise]
kind = gaussian
sigma = 2.0

[truth]
kind = sparse
s = 2
seed = 5

[experiment]
n_grid = 64 128
replicates = 2
master_seed = 3
condition_kind = adaptive
theory = sparse_l1
theory_s = 2
theory_p = 8

[constants]
practical_scale = 2e6

[budget]
pool_size = 32
pool_cap = 128
"""


def test_parse_monotone_config():
    cfg = load_config_text(MONOTONE_INI)
    assert cfg.body_kind == "monotone_grid"
    assert cfg.body_params == {"p": 1, "m": "auto"}
    assert cfg.n_grid == (32, 64, 128)
    assert cfg.replicates == 2
    assert cfg.master_seed == 99
    assert cfg.practical_scale == 20000
    assert cfg.pool.size == 32 and cfg.pool.cap == 128
    assert cfg.profile_budget.pool_size == 48
    assert cfg.theory == "monotone" and cfg.theory_params == {"p": 1}


def test_parse_sparse_config():
    cfg = load_config_text(SPARSE_INI)
    assert cfg.body_kind == "linear_l1"
    assert cfg.truth.kind == "sparse" and cfg.truth.s == 2
    assert cfg.condition_kind == "adaptive"
    assert cfg.theory_params == {"s": 2, "p": 8}
    assert cfg.noise.sigma == 2.0


def test_unknown_keys_fail_fast():
    with pytest.raises(ValueError):
        load_config_text("[class]\nkind = monotone_grid\nwat = 1\n")
    with pytest.raises(ValueError):
        load_config_text("[design]\nkind = gaussian\ntau = 7\n")


def test_class_keys_the_kind_does_not_take_fail_fast():
    base = "[class]\nkind = linear_l1\np = 8\n"
    assert load_config_text(base).body_params == {"p": 8}
    with pytest.raises(ValueError, match="alpha"):
        load_config_text(base + "m = 5\nalpha = 0.3\n")
    with pytest.raises(ValueError, match="'m'"):
        make_body("linear_l1", p=8, m=5)


@pytest.mark.parametrize("text, missing", [
    ("kind = holder_grid\nm = 8\n", "alpha"),
    ("kind = linear_l1\n", "p"),
    ("kind = linear_ellipsoid\n", "p or a"),
    ("kind = monotone_grid\np = 2\n", "m"),
], ids=["holder", "l1", "ellipsoid", "monotone"])
def test_missing_class_keys_fail_at_load(text, missing):
    with pytest.raises(ValueError, match=f"needs {missing}$"):
        load_config_text("[class]\n" + text)


@pytest.mark.parametrize("text, value", [
    ("[experiment]\ncondition_kind = bonded\n", "bonded"),
    ("[truth]\nkind = identiy\n", "identiy"),
    ("[experiment]\ntheory = monotonee\n", "monotonee"),
], ids=["condition_kind", "truth-kind", "theory"])
def test_unknown_kind_values_fail_at_load(text, value):
    # a misspelled kind used to load and run as a different setting
    with pytest.raises(ValueError, match=f"unknown .* '{value}'"):
        load_config_text(text)


@pytest.mark.parametrize("text, message", [
    ("[budget]\nmax_stages = 0\n", "max_stages >= 1"),
    ("[budget]\npool_size = 0\n", "pool size and cap must be >= 1"),
    ("[budget]\npool_growth = -1\n", "pool growth must be > 0"),
    ("[budget]\npool_cap = 0\n", "pool size and cap must be >= 1"),
    ("[budget]\nprofile_pool = 0\n", "profile pool size must be >= 1"),
    ("[budget]\nprofile_centers = -3\n", "profile centers must be >= 0"),
    ("[experiment]\nn_grid = 0 64\n", "n_grid needs at least one n, each >= 1"),
    ("[experiment]\nn_grid = -8 64\n", "n_grid needs at least one n, each >= 1"),
    ("[experiment]\nn_grid =\n", "n_grid needs at least one n, each >= 1"),
], ids=["max_stages", "pool_size", "pool_growth", "pool_cap", "profile_pool",
        "profile_centers", "n_grid_zero", "n_grid_negative", "n_grid_empty"])
def test_settings_below_their_minimum_fail_at_load(text, message):
    # each used to load and then fail mid-sweep, end as all-NaN replicates,
    # run as if it were 0 (a negative center count), fail inside a class
    # constructor or numpy (n <= 0), or write empty outputs (no n)
    with pytest.raises(ValueError, match=message):
        load_config_text(text)


def test_ellipsoid_theory_reads_the_class():
    given = load_config_text("[class]\nkind = linear_ellipsoid\na = 0.25 1.0\n"
                             "[experiment]\ntheory = ellipsoid\n")
    assert given.theory_params == {"a": [0.25, 1.0]}
    assert np.array_equal(harness.body_for_n(given, 64).a, [0.25, 1.0])
    sobolev = load_config_text("[class]\nkind = linear_ellipsoid\np = 6\n"
                               "[experiment]\ntheory = ellipsoid\n")
    assert sobolev.theory_params == {"a": LinearEllipsoid.sobolev(6).a.tolist()}


def test_sparse_theory_needs_its_keys():
    with pytest.raises(ValueError, match="theory_s"):
        load_config_text("[experiment]\ntheory = sparse_l1\ntheory_p = 8\n")


@pytest.mark.parametrize("text", ["[budgett]\npool_size = 8\n", "[budgett]\n"],
                         ids=["key", "empty"])
def test_unknown_sections_fail_fast(text):
    with pytest.raises(ValueError, match="budgett"):
        load_config_text(MONOTONE_INI + text)


# per key: a value that differs from the base config's, and the other keys of
# its section that the key needs in order to act (None removes a base key the
# class kind does not take); both configs give every class key their kind needs
PROBES = {
    ("class", "kind"): ("linear_ellipsoid", {"kind": "linear_l1", "m": None}),
    ("class", "p"): ("2", {}),
    ("class", "m"): ("8", {}),
    ("class", "radius"): ("2.0", {"kind": "linear_l1", "m": None}),
    ("class", "a"): ("0.25 1.0", {"kind": "linear_ellipsoid", "m": None}),
    ("class", "alpha"): ("0.5", {"kind": "holder_grid", "p": None, "alpha": "0.3"}),
    ("class", "gamma"): ("2.0", {"kind": "holder_grid", "p": None, "alpha": "0.5"}),
    ("design", "kind"): ("rademacher", {}),
    ("noise", "kind"): ("scaled_rademacher", {}),
    ("noise", "sigma"): ("2.0", {}),
    ("truth", "kind"): ("sampled", {}),
    ("truth", "coords"): ("0.1 0.2", {}),
    ("truth", "s"): ("3", {}),
    ("truth", "seed"): ("7", {}),
    ("experiment", "n_grid"): ("32 64", {}),
    ("experiment", "replicates"): ("3", {}),
    ("experiment", "master_seed"): ("1", {}),
    ("experiment", "condition_kind"): ("adaptive", {}),
    ("experiment", "theory"): ("holder", {}),
    ("experiment", "theory_s"): ("3", {"theory": "sparse_l1", "theory_s": "2", "theory_p": "8"}),
    ("experiment", "theory_p"): ("2", {}),
    ("experiment", "theory_alpha"): ("0.5", {"theory": "holder"}),
    ("experiment", "theory_gamma"): ("2.0", {"theory": "holder"}),
    ("constants", "c"): ("5.0", {}),
    ("constants", "practical_scale"): ("2.0", {}),
    ("constants", "b"): ("0.25", {}),
    ("constants", "alpha"): ("2.0", {}),
    ("budget", "pool_size"): ("8", {}),
    ("budget", "pool_growth"): ("1.3", {}),
    ("budget", "pool_cap"): ("256", {}),
    ("budget", "profile_pool"): ("64", {}),
    ("budget", "profile_centers"): ("2", {}),
    ("budget", "max_stages"): ("12", {}),
}


def _field(cfg, path):
    value = cfg
    for part in path.split("."):
        value = value.get(part) if isinstance(value, dict) else getattr(value, part)
    return value


@pytest.mark.parametrize("section, key", list(KEYS), ids=[f"{s}.{k}" for s, k in KEYS])
def test_each_key_sets_its_field_and_digest(section, key):
    value, context = PROBES[section, key]
    cp = configparser.ConfigParser()
    cp.read_string(MONOTONE_INI)
    for name, text in context.items():
        if text is None:
            cp.remove_option(section, name)
        else:
            cp.set(section, name, text)
    base = load_config_text(_text(cp))
    cp[section][key] = value
    cfg = load_config_text(_text(cp))
    path, parse = KEYS[section, key]
    assert _field(cfg, path) == parse(value) != _field(base, path)
    assert cfg.digest() != base.digest()


def _text(cp) -> str:
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def test_pool_growth_below_one_runs():
    # a shrinking pool bottoms out at one row: an empty pool fails every
    # replicate
    cp = configparser.ConfigParser()
    cp.read_string(MONOTONE_INI)
    cp["budget"]["pool_growth"] = "0.01"
    cfg = load_config_text(_text(cp))
    assert cfg.pool.stage_size(3) == 1
    res = harness.run_experiment(cfg)
    for n in cfg.n_grid:
        assert np.all(np.isfinite(res.risks[n])), n


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(MONOTONE_INI)
    return str(p)


def test_cli_experiment_reproducible(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    main(["--config", cfg_path, "--out", out1, "experiment"])
    main(["--config", cfg_path, "--out", out2, "experiment"])
    for name in ("results.csv", "summary.csv", "manifest.json"):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2, name
    manifest = json.loads(Path(out1, "manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert set(manifest["mean_risk"]) == {"32", "64", "128"}


def test_cli_seed_override_changes_output(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["--config", cfg_path, "--out", out1, "--seed", "1", "experiment"])
    main(["--config", cfg_path, "--out", out2, "--seed", "2", "experiment"])
    r1 = Path(out1, "results.csv").read_text()
    r2 = Path(out2, "results.csv").read_text()
    assert r1 != r2


def test_cli_entropy_eps_star_estimate(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    main(["--config", cfg_path, "--out", out, "entropy", "--n", "64"])
    text = Path(out, "entropy.csv").read_text()
    assert text.splitlines()[0] == "eps,log_m,exact_flag,kind,center_id,c,pool_size,seed"
    main(["--config", cfg_path, "--out", out, "eps-star", "--n", "64"])
    cert = json.loads(Path(out, "eps_star.json").read_text())
    assert cert["n"] == 64 and cert["eps_star"] >= 0
    main(["--config", cfg_path, "--out", out, "certify-lower", "--n", "64"])
    low = json.loads(Path(out, "lower_bound.json").read_text())
    assert "lower_eps" in low
    main(["--config", cfg_path, "--out", out, "estimate", "--n", "64"])
    trace = json.loads(Path(out, "trace.json").read_text())
    assert trace["total_stages"] >= 1
    assert len(trace["radii"]) == trace["total_stages"] - 1


def test_cli_reads_the_sweep_schedule_profile(cfg_path, tmp_path, monkeypatch):
    # estimate builds the points a one-n sweep builds, one at a time; entropy
    # and eps-star build the whole ladder, with the same values at those eps
    cfg = dataclasses.replace(load_config_text(MONOTONE_INI), n_grid=(64,), replicates=2)
    built = []
    build = harness.schedule_profile

    def record(*args):
        prof = build(*args)
        built.append((args[4:], prof.to_csv()))
        return prof

    monkeypatch.setattr(harness, "schedule_profile", record)
    monkeypatch.setattr(cli, "schedule_profile", record)
    harness.run_experiment(cfg)
    sweep = built[:]
    built.clear()
    out = str(tmp_path / "p")
    main(["--config", cfg_path, "--out", out, "estimate", "--n", "64"])
    estimate = built[:]
    built.clear()
    for command in ("entropy", "eps-star"):
        main(["--config", cfg_path, "--out", out, command, "--n", "64"])
    assert [grid for grid, _ in built] == [(), ()] and built[0][1] == built[1][1]
    ladder = EntropyProfile.from_csv(built[0][1])
    assert Path(out, "entropy.csv").read_text() == built[0][1]
    assert estimate == sweep and 0 < len(estimate) < len(ladder.eps)
    for (grid,), text in estimate:
        point = EntropyProfile.from_csv(text)
        assert list(point.eps) == grid and len(grid) == 1
        assert point.log_m[0] == ladder.log_m[ladder.eps == grid[0]][0]


@pytest.mark.parametrize("ini", [MONOTONE_INI, SPARSE_INI], ids=["monotone", "sparse"])
def test_cli_estimate_is_replicate_zero(ini, tmp_path):
    # estimate --n n runs replicate 0 of the sweep cell at n: its stage count
    # and its final iterate's risk are that row of results.csv
    p = tmp_path / "exp.ini"
    p.write_text(ini)
    cfg = load_config_text(ini)
    main(["--config", str(p), "--out", str(tmp_path), "experiment"])
    rows = Path(tmp_path, "results.csv").read_text().splitlines()[1:]
    for n in cfg.n_grid:
        row = next(r.split(",") for r in rows if r.startswith(f"{n},0,"))
        main(["--config", str(p), "--out", str(tmp_path), "estimate", "--n", str(n)])
        trace = json.loads(Path(tmp_path, "trace.json").read_text())
        assert trace["total_stages"] == int(row[3]), n
        body = harness.body_for_n(cfg, n)
        risk = dist(body, trace["final_coords"], harness.make_truth(body, cfg.truth)) ** 2
        assert repr(float(risk)) == row[2], n


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package and its CLI must not need it
    script = "import sys, locent, locent.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_runs_without_config(tmp_path):
    # the dataclass defaults: 1-D monotone, m = auto
    out = str(tmp_path / "d")
    main(["--out", out, "entropy", "--n", "64"])
    assert os.path.exists(os.path.join(out, "entropy.csv"))
    main(["--out", out, "estimate", "--n", "64"])
    trace = json.loads(Path(out, "trace.json").read_text())
    assert len(trace["final_coords"]) == 8


def test_cli_widths_and_checks(cfg_path, tmp_path):
    out = str(tmp_path / "w")
    main(["--config", cfg_path, "--out", out, "widths", "--draws", "512"])
    payload = json.loads(Path(out, "widths.json").read_text())
    assert len(payload) == 4 and all(p["draws"] == 512 for p in payload)
    main(["--config", cfg_path, "--out", out, "check-concentration", "--n", "6400",
          "--trials", "400"])
    conc = json.loads(Path(out, "concentration.json").read_text())
    assert 0.0 <= conc["frequency"] <= 1.0
    main(["--config", cfg_path, "--out", out, "check-test", "--n", "6400",
          "--trials", "400"])
    te = json.loads(Path(out, "test_error.json").read_text())
    assert 0.0 <= te["freq_h0"] <= 1.0


def test_cli_moment_check(tmp_path):
    p = tmp_path / "sparse.ini"
    p.write_text(SPARSE_INI)
    out = str(tmp_path / "m")
    main(["--config", str(p), "--out", out, "moment-check", "--trials", "20000"])
    rep = json.loads(Path(out, "moment.json").read_text())
    assert rep["alpha_hat"] > 0 and rep["pairs"] == 8


# every subcommand's own flags with their defaults, besides the global ones
SUBCOMMAND_DEFAULTS = {
    "entropy": {"n": None},
    "eps-star": {"n": None},
    "certify-lower": {"n": None},
    "estimate": {"n": None},
    "experiment": {},
    "widths": {"draws": 4096},
    "check-concentration": {"n": None, "trials": 10_000},
    "check-test": {"n": None, "trials": 10_000},
    "moment-check": {"trials": 100_000},
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_DEFAULTS))
def test_cli_flags_and_defaults(command):
    args = vars(cli.build_parser().parse_args([command]))
    assert args.pop("func") is getattr(cli, "cmd_" + command.replace("-", "_"))
    assert args == {"config": None, "seed": None, "out": "out", "threads": 1,
                    "command": command, **SUBCOMMAND_DEFAULTS[command]}


@pytest.mark.parametrize("argv", [
    ["check-test", "--trials", "0"],  # died unpacking an empty chunk list
    ["check-concentration", "--trials", "-1"],
    ["moment-check", "--trials", "0"],
    ["estimate", "--n", "0"],  # ran at max(n_grid)
    ["estimate", "--n", "-4"],  # raised a numpy TypeError
    ["widths", "--draws", "0"],
    ["--threads", "0", "experiment"],  # ran serially
], ids=["trials-0", "trials-negative", "moment-trials-0", "n-0", "n-negative", "draws-0",
        "threads-0"])
def test_cli_counts_below_one_fail_at_parse(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "o"), *argv])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_widths_needs_two_draws(tmp_path):
    # one draw used to write a bare NaN standard error
    with pytest.raises(ValueError, match="draws >= 2"):
        main(["--out", str(tmp_path / "o"), "widths", "--draws", "1"])
    assert not (tmp_path / "o").exists()
