"""Fixed-point rate solver, lower-bound certificate, and closed-form rates.

eps* is the supremum of eps with n eps^2 <= log M_loc(eps, c); the minimax
rate is eps*^2 and diameter^2, whichever is smaller.  The lower-bound
certificate finds the largest eps whose local entropy exceeds
4 (n eps^2 / (2 sigma^2) or log 2), which certifies risk at least
eps^2 / (8 c^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropyProfile
from .estimator import LOG2

BISECT_STEPS = 200  # halvings of a log-eps bracket, past machine precision


@dataclass(frozen=True)
class RateCertificate:
    """eps* fixed point plus the Fano-style lower-bound numbers."""

    eps_star: float
    n: int
    c: float
    sigma: float
    lower_eps: float | None = None
    lower_bound_risk: float | None = None
    upper_rate: float | None = None
    diameter: float | None = None
    bracket: tuple[float | None, float | None] = (None, None)
    empty_crossing: bool = False
    regime: str = ""
    profile_digest: str = ""


def _bisect_decreasing(fn, t_lo: float, t_hi: float):
    """Root bracket for fn positive at t_lo, nonpositive at t_hi."""
    lo, hi = t_lo, t_hi
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_eps_star(
    profile: EntropyProfile,
    n: int,
    sigma: float = 1.0,
    diameter: float | None = None,
) -> RateCertificate:
    """sup{eps : n eps^2 <= log M(eps)} with the Lemma-style lower fill-in.

    Exploits that n eps^2 is increasing while the (monotonized) profile is
    non-increasing, so the crossing is unique: constant extensions beyond the
    grid give closed forms, interior crossings are bisected in log eps to
    machine precision (at most 200 steps).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    prof = profile.monotonized()
    digest = f"{prof.kind}:{len(prof.eps)}pts:c={prof.c}"

    if np.all(prof.log_m <= 0.0):
        return RateCertificate(
            eps_star=0.0, n=n, c=prof.c, sigma=sigma, empty_crossing=True,
            upper_rate=0.0, diameter=diameter, regime="empty", profile_digest=digest,
        )

    def phi(t: float) -> float:
        eps = np.exp(t)
        return n * eps * eps - prof.value(eps)

    e = prof.eps

    if phi(np.log(e[0])) > 0.0:
        eps_star = float(np.sqrt(prof.log_m[0] / n))  # constant extension below grid
        t_star = np.log(eps_star)
        lo, hi = _bisect_decreasing(lambda t: -phi(t), t_star - 1.0, min(t_star + 1.0, np.log(e[0])))
    elif phi(np.log(e[-1])) <= 0.0:
        eps_star = float(np.sqrt(prof.log_m[-1] / n))  # constant extension above grid
        t_star = np.log(eps_star)
        lo, hi = _bisect_decreasing(lambda t: -phi(t), max(t_star - 1.0, np.log(e[-1])), t_star + 1.0)
    else:
        vals = np.array([phi(np.log(x)) for x in e])
        j = int(np.flatnonzero(vals <= 0.0)[-1])
        lo, hi = _bisect_decreasing(lambda t: -phi(t), np.log(e[j]), np.log(e[j + 1]))
        eps_star = float(np.exp(0.5 * (lo + hi)))

    bracket_lo, bracket_hi = float(np.exp(lo)), float(np.exp(hi))
    # the upper bracket end must fail the fixed-point inequality strictly
    for _ in range(64):
        if n * bracket_hi * bracket_hi > prof.value(bracket_hi):
            break
        bracket_hi = np.nextafter(bracket_hi, np.inf)

    lower_eps = _lemma_lower_eps(prof, n, sigma)
    lower_risk = None if lower_eps is None else lower_eps ** 2 / (8.0 * prof.c ** 2)
    upper = eps_star ** 2 if diameter is None else min(eps_star ** 2, diameter ** 2)
    regime = "fixed_point" if n * eps_star ** 2 > 8.0 * LOG2 else "diameter_limited"
    return RateCertificate(
        eps_star=eps_star, n=n, c=prof.c, sigma=sigma,
        lower_eps=lower_eps, lower_bound_risk=lower_risk,
        upper_rate=upper, diameter=diameter,
        bracket=(bracket_lo, bracket_hi),
        regime=regime, profile_digest=digest,
    )


def _lemma_lower_eps(prof: EntropyProfile, n: int, sigma: float) -> float | None:
    """Largest eps with log M(eps) > 4 (n eps^2 / (2 sigma^2) or log 2)."""
    if prof.log_m[0] <= 4.0 * LOG2:
        return None  # even tiny eps fails the log-2 floor
    if sigma == 0:
        return None  # noiseless data: the n eps^2 / (2 sigma^2) term is +inf

    def psi(t: float) -> float:
        eps = np.exp(t)
        rhs = 4.0 * max(n * eps * eps / (2.0 * sigma * sigma), LOG2)
        return prof.value(eps) - rhs

    t_hi = np.log(prof.eps[-1])
    while psi(t_hi) > 0.0:
        t_hi += 1.0
    t_lo = np.log(prof.eps[0]) - 40.0
    if psi(t_lo) <= 0.0:
        return None
    lo, hi = _bisect_decreasing(psi, t_lo, t_hi)
    return float(np.exp(lo))


def certify_lower_bound(profile: EntropyProfile, n: int, sigma: float = 1.0) -> dict:
    """Standalone Fano-style certificate report."""
    prof = profile.monotonized()
    eps = _lemma_lower_eps(prof, n, sigma)
    return {
        "n": n,
        "sigma": sigma,
        "c": prof.c,
        "lower_eps": eps,
        "lower_bound_risk": None if eps is None else eps ** 2 / (8.0 * prof.c ** 2),
        "condition": "log M(eps) > 4 (n eps^2 / (2 sigma^2) v log 2)",
    }


# ---------------------------------------------------------------------------
# Kolmogorov width index for ellipsoids
# ---------------------------------------------------------------------------


@dataclass
class KolmogorovIndex:
    k: int | None  # None on the small-ellipsoid branch
    d_k: float | None
    rate: float  # k/n and a_p, whichever smaller; a_p on the small branch

    @property
    def small_ellipsoid(self) -> bool:
        return self.k is None


def kolmogorov_index(a, n: int) -> KolmogorovIndex:
    """The k in [p] with a_{p-k} <= (k+1)/n and a_{p-k+1} > k/n (a_0 = 0).

    Returns the small-ellipsoid branch (rate a_p) when a_p <= 1/n.  Otherwise
    the least k with the first inequality exists, since k = p has a_0 = 0,
    and it has the second: for k = 1 that is a_p > 1/n, and for k > 1 it is
    the first inequality failing at k - 1.
    """
    a = np.asarray(a, dtype=np.float64)
    p = len(a)
    if p < 1 or np.any(a <= 0) or np.any(np.diff(a) < 0):
        raise ValueError("a must be positive and sorted ascending")
    a_p = float(a[-1])
    if a_p <= 1.0 / n:
        return KolmogorovIndex(k=None, d_k=None, rate=a_p)

    def a_idx(i: int) -> float:  # a_i with a_0 = 0, 1-based
        return 0.0 if i == 0 else float(a[i - 1])

    k = next(k for k in range(1, p + 1) if a_idx(p - k) <= (k + 1.0) / n)
    return KolmogorovIndex(k=k, d_k=float(np.sqrt(a_idx(p - k))), rate=min(k / n, a_p))


# ---------------------------------------------------------------------------
# Closed-form theoretical rates for the worked examples
# ---------------------------------------------------------------------------


@dataclass
class RateFormula:
    """Closed-form squared-risk rate as a function of n."""

    kind: str
    params: dict

    @property
    def degenerate_log(self) -> bool:
        """The sparse boundary s = p, where log(p/s) is zero."""
        return self.kind == "sparse_l1" and self.params["s"] == self.params["p"]

    def risk(self, n: int) -> float:
        lo, _ = self.bracket(n)
        return lo

    def bracket(self, n: int) -> tuple[float, float]:
        k = self.kind
        p = self.params
        if k == "sparse_l1":
            s, d = p["s"], p["p"]
            v = s / n if self.degenerate_log else s * np.log(d / s) / n
            return (v, v)
        if k == "ellipsoid":
            v = kolmogorov_index(p["a"], n).rate
            return (v, v)
        if k == "holder":
            al, gam = p["alpha"], p["gamma"]
            v = min(n ** (-2.0 * al / (2.0 * al + 1.0)), gam * gam)
            return (v, v)
        if k == "monotone":
            dim = p["p"]
            if dim == 1:
                v = min(n ** (-2.0 / 3.0), 1.0)
                return (v, v)
            if dim == 2:
                return (min(n ** -0.5, 1.0), min(n ** -0.5 * np.log(n), 1.0))
            v = min(n ** (-1.0 / dim), 1.0)
            return (v, v)
        raise ValueError(f"unknown rate kind {k!r}")


def theoretical_rate(kind: str, **params) -> RateFormula:
    """Closed-form rates: sparse_l1{s,p}, ellipsoid{a}, holder{alpha,gamma},
    monotone{p}.  The sparse boundary s = p degenerates log(p/s) to zero and
    falls back to s/n with a flag."""
    kind = kind.lower()
    if kind == "sparse_l1":
        s, p = int(params["s"]), int(params["p"])
        if not (1 <= s <= p):
            raise ValueError("need 1 <= s <= p")
        return RateFormula(kind, {"s": s, "p": p})
    if kind == "ellipsoid":
        a = np.asarray(params["a"], dtype=np.float64)
        if np.any(a <= 0) or np.any(np.diff(a) < 0):
            raise ValueError("a must be positive ascending")
        return RateFormula(kind, {"a": a})
    if kind == "holder":
        alpha, gamma = float(params["alpha"]), float(params.get("gamma", 1.0))
        if not (0 < alpha <= 1) or gamma <= 0:
            raise ValueError("need alpha in (0,1] and gamma > 0")
        return RateFormula(kind, {"alpha": alpha, "gamma": gamma})
    if kind == "monotone":
        p = int(params["p"])
        if p < 1:
            raise ValueError("need p >= 1")
        return RateFormula(kind, {"p": p})
    raise ValueError(f"unknown rate kind {kind!r}")
