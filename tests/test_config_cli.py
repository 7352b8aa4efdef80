import json
import os

import numpy as np
import pytest

from locent.cli import main
from locent.config import config_digest_text, load_config_text

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


def test_config_digest_canonical():
    a = config_digest_text(MONOTONE_INI)
    b = config_digest_text(MONOTONE_INI + "\n")
    assert a == b
    c = config_digest_text(MONOTONE_INI.replace("sigma = 1.0", "sigma = 2.0"))
    assert a != c


def test_config_digest_covers_support_moves():
    a = load_config_text(MONOTONE_INI + "support_moves = 64\n")
    b = load_config_text(MONOTONE_INI + "support_moves = 8\n")
    assert a.pool.support_moves != b.pool.support_moves
    assert a.digest() != b.digest()


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
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name
    manifest = json.loads(open(os.path.join(out1, "manifest.json")).read())
    assert manifest["master_seed"] == 99
    assert set(manifest["mean_risk"]) == {"32", "64", "128"}


def test_cli_seed_override_changes_output(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["--config", cfg_path, "--out", out1, "--seed", "1", "experiment"])
    main(["--config", cfg_path, "--out", out2, "--seed", "2", "experiment"])
    r1 = open(os.path.join(out1, "results.csv")).read()
    r2 = open(os.path.join(out2, "results.csv")).read()
    assert r1 != r2


def test_cli_entropy_eps_star_estimate(cfg_path, tmp_path):
    out = str(tmp_path / "o")
    main(["--config", cfg_path, "--out", out, "entropy", "--n", "64"])
    text = open(os.path.join(out, "entropy.csv")).read()
    assert text.splitlines()[0] == "eps,log_m,exact_flag,kind,center_id,c,pool_size,seed"
    main(["--config", cfg_path, "--out", out, "eps-star", "--n", "64"])
    cert = json.loads(open(os.path.join(out, "eps_star.json")).read())
    assert cert["n"] == 64 and cert["eps_star"] >= 0
    main(["--config", cfg_path, "--out", out, "certify-lower", "--n", "64"])
    low = json.loads(open(os.path.join(out, "lower_bound.json")).read())
    assert "lower_eps" in low
    main(["--config", cfg_path, "--out", out, "estimate", "--n", "64"])
    trace = json.loads(open(os.path.join(out, "trace.json")).read())
    assert trace["total_stages"] >= 1
    assert len(trace["radii"]) == trace["total_stages"] - 1


def test_cli_widths_and_checks(cfg_path, tmp_path):
    out = str(tmp_path / "w")
    main(["--config", cfg_path, "--out", out, "widths", "--draws", "512"])
    payload = json.loads(open(os.path.join(out, "widths.json")).read())
    assert len(payload) == 4 and all(p["draws"] == 512 for p in payload)
    main(["--config", cfg_path, "--out", out, "check-concentration", "--n", "6400",
          "--trials", "400"])
    conc = json.loads(open(os.path.join(out, "concentration.json")).read())
    assert 0.0 <= conc["frequency"] <= 1.0
    main(["--config", cfg_path, "--out", out, "check-test", "--n", "6400",
          "--trials", "400"])
    te = json.loads(open(os.path.join(out, "test_error.json")).read())
    assert 0.0 <= te["freq_h0"] <= 1.0


def test_cli_moment_check(tmp_path):
    p = tmp_path / "sparse.ini"
    p.write_text(SPARSE_INI)
    out = str(tmp_path / "m")
    main(["--config", str(p), "--out", out, "moment-check", "--trials", "20000"])
    rep = json.loads(open(os.path.join(out, "moment.json")).read())
    assert rep["alpha_hat"] > 0 and rep["pairs"] == 8
