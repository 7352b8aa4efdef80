import re

import numpy as np
import pytest

from locent.entropy import EntropyProfile
from locent.harness import fit_rate_slope
from locent.rates import (
    RateFormula,
    certify_lower_bound,
    kolmogorov_index,
    solve_eps_star,
    theoretical_rate,
)

LOG2 = np.log(2.0)


def constant_profile(k, c=10.0, lo=1e-6, hi=1e3):
    return EntropyProfile(c=c, kind="global", eps=np.array([lo, hi]),
                          log_m=np.array([float(k), float(k)]), exact=True)


def power_profile(q, c=10.0, lo=1e-6, hi=1e3, points=120):
    eps = np.geomspace(lo, hi, points)
    return EntropyProfile(c=c, kind="global", eps=eps, log_m=eps ** -q, exact=True)


# -- eps* solver ---------------------------------------------------------------


@pytest.mark.parametrize("k,n", [(1.0, 4), (3.5, 100), (12.0, 10**6), (0.2, 17)])
def test_eps_star_constant_profile_closed_form(k, n):
    cert = solve_eps_star(constant_profile(k), n)
    assert abs(cert.eps_star - np.sqrt(k / n)) <= 1e-9


@pytest.mark.parametrize("q,expo", [(1.0, -1.0 / 3.0), (2.0, -1.0 / 4.0), (4.0, -1.0 / 6.0)])
def test_eps_star_power_profile_exponent(q, expo):
    # n eps^2 = eps^(-q)  =>  eps* = n^(-1/(2+q))
    ns = np.geomspace(1e3, 1e9, 13)
    stars = [solve_eps_star(power_profile(q), int(n)).eps_star for n in ns]
    fit = fit_rate_slope(list(zip(ns, stars)))
    assert abs(fit["slope"] - expo) < 1e-6


def test_eps_star_bracketing_invariant():
    prof = power_profile(1.0)
    n = 12345
    cert = solve_eps_star(prof, n, diameter=2.0)
    lo, hi = cert.bracket
    assert hi - lo <= 1e-9 * 2.0
    assert n * lo ** 2 <= prof.value(lo) + 1e-9
    assert n * hi ** 2 > prof.value(hi)


def test_eps_star_below_the_grid():
    # n eps^2 > log M already at the smallest eps: the constant extension
    # below the grid gives eps* = sqrt(log M(eps_1) / n)
    prof = EntropyProfile(c=10.0, kind="global", eps=np.array([0.5, 1.0]),
                          log_m=np.array([2.0, 1.0]), exact=True)
    cert = solve_eps_star(prof, 100)
    assert cert.eps_star == np.sqrt(0.02)
    lo, hi = cert.bracket
    assert lo <= cert.eps_star <= hi < 0.5


def test_eps_star_empty_crossing():
    prof = constant_profile(0.0)
    cert = solve_eps_star(prof, 100)
    assert cert.empty_crossing and cert.eps_star == 0.0


def test_eps_star_lower_bound_fill_in():
    prof = constant_profile(40.0)
    n = 1000
    cert = solve_eps_star(prof, n, sigma=1.0)
    # lower_eps solves logM = 4 n eps^2 / (2 sigma^2) here: eps = sqrt(k/(2n))
    assert cert.lower_eps is not None
    assert np.isclose(cert.lower_eps, np.sqrt(40.0 / (2.0 * n)), rtol=1e-6)
    assert np.isclose(cert.lower_bound_risk, cert.lower_eps ** 2 / (8 * prof.c ** 2))
    # lower <= upper sanity at sigma = 1
    assert cert.lower_bound_risk <= cert.upper_rate
    assert cert.lower_eps <= cert.eps_star * (1 + 1e-9)


def test_eps_star_lower_none_when_entropy_small():
    # logM below 4 log 2 can never satisfy the lower-bound condition
    cert = solve_eps_star(constant_profile(1.0), 50)
    assert cert.lower_eps is None


def test_certify_lower_bound_report():
    rep = certify_lower_bound(constant_profile(40.0), 1000, sigma=1.0)
    assert rep["lower_eps"] is not None
    assert np.isclose(rep["lower_bound_risk"], rep["lower_eps"] ** 2 / 800.0)


def test_lower_bound_without_noise_is_none():
    # sigma = 0 makes n eps^2 / (2 sigma^2) +inf, so no eps meets the condition
    assert solve_eps_star(constant_profile(40.0), 1000, sigma=0.0).lower_eps is None
    rep = certify_lower_bound(constant_profile(40.0), 1000, sigma=0.0)
    assert rep["lower_eps"] is None and rep["lower_bound_risk"] is None


def test_eps_star_upper_rate_capped_by_diameter():
    cert = solve_eps_star(constant_profile(1e9), 10, diameter=0.5)
    assert cert.upper_rate == 0.25


def test_monotonization_slack_guard():
    prof = EntropyProfile(c=4.0, kind="global", eps=np.array([0.1, 0.2, 0.4]),
                          log_m=np.array([1.0, 0.5, 1.0]), exact=False)
    with pytest.raises(ValueError, match="monotonization changed the profile by"):
        solve_eps_star(prof, 100)


def test_regime_flag():
    big = solve_eps_star(constant_profile(50.0), 1000)
    assert big.regime == "fixed_point"  # n eps*^2 = 50 > 8 log 2
    small = solve_eps_star(constant_profile(2.0), 1000)
    assert small.regime == "diameter_limited"


# -- kolmogorov index -----------------------------------------------------------


def test_kolmogorov_example_from_direct_scan():
    ki = kolmogorov_index([0.25, 0.5, 0.75, 1.0], 8)
    assert ki.k == 3
    # re-check the defining inequalities: a_1 = 0.25 <= 4/8, a_2 = 0.5 > 3/8
    assert 0.25 <= 4.0 / 8.0 and 0.5 > 3.0 / 8.0
    assert np.isclose(ki.d_k, np.sqrt(0.25))


def test_kolmogorov_small_ellipsoid_branch():
    ki = kolmogorov_index([0.001, 0.002], 100)
    assert ki.small_ellipsoid and ki.k is None and ki.rate == 0.002


def test_kolmogorov_p1():
    ki = kolmogorov_index([1.0], 2)
    assert ki.k == 1  # a_0 = 0 <= 2/2 and a_1 = 1 > 1/2
    assert ki.d_k == 0.0


def oracle_scan(a, n):
    a = np.asarray(a, dtype=float)
    p = len(a)
    if a[-1] <= 1.0 / n:
        return None
    full = np.concatenate([[0.0], a])  # a_0 = 0
    for k in range(1, p + 1):
        if full[p - k] <= (k + 1) / n and full[p - k + 1] > k / n:
            return k
    raise AssertionError("no valid k")


def test_kolmogorov_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = int(rng.integers(1, 40))
        a = np.sort(rng.uniform(1e-4, 2.0, size=p))
        n = int(rng.integers(1, 10_000))
        want = oracle_scan(a, n)
        got = kolmogorov_index(a, n)
        if want is None:
            assert got.small_ellipsoid
        else:
            assert got.k == want
            # both defining inequalities re-checked directly
            full = np.concatenate([[0.0], a])
            assert full[p - got.k] <= (got.k + 1) / n
            assert full[p - got.k + 1] > got.k / n


def test_kolmogorov_bad_params():
    with pytest.raises(ValueError, match="a must be positive and sorted ascending"):
        kolmogorov_index([1.0, 0.5], 10)


# -- closed-form rates -----------------------------------------------------------


def test_theoretical_rate_examples():
    assert np.isclose(theoretical_rate("monotone", p=1).risk(10**6), 1e-4)
    assert np.isclose(theoretical_rate("holder", alpha=1.0, gamma=1.0).risk(1000), 1e-2)
    r = theoretical_rate("sparse_l1", s=4, p=64)
    assert np.isclose(r.risk(1000), 4 * np.log(16.0) / 1000)


def test_theoretical_rate_sparse_degenerate_boundary():
    r = theoretical_rate("sparse_l1", s=8, p=8)
    assert r.degenerate_log
    assert np.isclose(r.risk(100), 8 / 100.0)


def test_theoretical_rate_monotone_p2_bracket():
    r = theoretical_rate("monotone", p=2)
    lo, hi = r.bracket(10_000)
    assert np.isclose(lo, 1e-2)
    assert np.isclose(hi, 1e-2 * np.log(10_000))


def test_theoretical_rate_monotone_p3():
    assert np.isclose(theoretical_rate("monotone", p=3).risk(1000), 1000 ** (-1.0 / 3.0))


def test_theoretical_rate_ellipsoid_uses_index():
    i = np.arange(1, 33)
    a = (32 - i + 1.0) ** -2.0
    r = theoretical_rate("ellipsoid", a=a)
    ki = kolmogorov_index(a, 512)
    assert np.isclose(r.risk(512), min(ki.k / 512.0, 1.0))


def test_theoretical_rate_bad_params():
    with pytest.raises(ValueError, match="need 1 <= s <= p"):
        theoretical_rate("sparse_l1", s=10, p=4)
    with pytest.raises(ValueError, match=re.escape("need alpha in (0,1] and gamma > 0")):
        theoretical_rate("holder", alpha=1.5)
    with pytest.raises(ValueError, match="unknown rate kind 'nope'"):
        theoretical_rate("nope")
    with pytest.raises(ValueError, match="a must be positive ascending"):
        theoretical_rate("ellipsoid", a=[1.0, 0.5])
    with pytest.raises(ValueError, match="a must be positive ascending"):
        theoretical_rate("ellipsoid", a=[0.0, 1.0])
    with pytest.raises(ValueError, match="need p >= 1"):
        theoretical_rate("monotone", p=0)
    with pytest.raises(ValueError, match="unknown rate kind 'nope'"):
        RateFormula("nope", {}).bracket(10)
