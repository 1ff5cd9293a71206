"""Budget and dual functionals on terminal payoffs, with their norms.

Everything here is for the paper's model case, the positive-power utility
U(x) = p x^{1/p} with p > 1, and takes its exponent p; q = p/(p-1).
``portsens norms`` refuses every other utility before it gets here.

A market with price of risk lambda and null-space directions nu (sigma
nu = 0 in every reachable regime) prices payoffs through the density family
Y^nu = exp(-int r dt) E(-int (lambda + nu) dW)_T.  Two convex functionals
on payoff samples Z arise:

    J(Z) = max over the family of mean( Y^nu * U^{-1}(|Z|) )
    I(Z) = min over the family of mean( |Z| * V(Y^nu / |Z|) )

with U^{-1}(|z|) = (|z|/p)^p and V the convex conjugate of the utility.
J is the cost of replicating the wealth profile whose utility is Z, so
J(U(X*)) equals the initial wealth exactly at the optimizer; I is its dual
companion, explicitly (p - 1) * mean(Y^{1-q} |Z|^q).  The induced norms
are weighted q- and p-means:

    norm_I(Z) = (min over family of mean Y^{1-q} |Z|^q)^{1/q}
    norm_J(X) = (max over family of mean Y |X|^p)^{1/p}

They pair in a Hölder inequality |mean(YZ)| <= norm_I(Y) * norm_J(Z) that
holds exactly on the empirical measure, by the pointwise factorization
|YZ| = (W^{-1/p}|Y|) (W^{1/p}|Z|) with the density as weight.

The family is a finite tuple of (n,) coefficient processes, zero first, so
norm_I is an upper and norm_J a lower bound for their full-family
counterparts; enlarging the family tightens both monotonically.

The Luxemburg and Amemiya norms take any convex modular F with F(0) = 0;
note the Amemiya norm at k = 1 gives amemiya(J, U(X*)) <= 1 + J(U(X*)) =
1 + x0, the budget-set bound.

The functionals and norms take density samples, not an ensemble: the
(family, M) array of log Y^nu that ``density_logs`` computes in one path
pass.  A caller streams the paths once and evaluates every functional, norm
and pairing on the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from portsens.estimate import Check, ConfigError, ValueEstimate, mean_estimate
from portsens.market import MarketModel, RegimeTable, mpr_table
from portsens.paths import PathEnsemble, path_sums

_KERNEL_TOL = 1e-10  # largest |sigma nu| accepted, per max(1, |sigma| |nu|)
_REL_TOL = 1e-12  # relative width at which the norm searches stop
_MAX_ITER = 200  # steps of each doubling, halving or section loop
_HOLDER_SLACK = 1e-9  # relative rounding allowance of the Hölder pairing


def density_logs(model: MarketModel, family: tuple,
                 ensemble: PathEnsemble) -> np.ndarray:
    """log Y^nu per (family member, path), discount included; one pass.

    Every member must lie in the null space of sigma in every regime the
    paths can reach; each is checked before the pass on its one table, the
    joint regimes of the market and the whole family."""
    regimes = RegimeTable(ensemble.grid, model.mu, model.sigma, model.rate,
                          *family)
    lam, sg_v = mpr_table(model, regimes), regimes.values(model.sigma)
    scale = float(np.max(np.abs(sg_v))) or 1.0
    sums = {"R": ("time", regimes.values(model.rate))}
    for i, nu in enumerate(family):
        nu_v = regimes.values(nu)
        prod = np.einsum("...dn,...n->...d", sg_v, nu_v)
        worst = float(np.max(np.abs(prod))) if prod.size else 0.0
        nu_scale = float(np.max(np.abs(nu_v))) if nu_v.size else 0.0
        if worst > _KERNEL_TOL * max(1.0, scale * nu_scale):
            r = int(np.argmax(np.max(np.abs(prod), axis=-1)))
            raise ConfigError(
                f"family member {i} leaves the volatility null space "
                f"(max |sigma nu| = {worst:g} on {regimes.describe(r)})")
        gamma = lam + nu_v
        sums.update({f"S{i}": ("ito", gamma), f"Q{i}": ("quad", gamma, gamma)})
    s = path_sums(ensemble, regimes, sums)
    return np.stack([-s["R"] - s[f"S{i}"] - 0.5 * s[f"Q{i}"]
                     for i in range(len(family))])


def _wealth(z, p: float) -> np.ndarray:
    """U^{-1}(|z|) = (|z| / p)^p, the wealth whose utility is |z|."""
    return (np.abs(z) / p) ** p


def j_functional(Z, p: float, logs: np.ndarray) -> ValueEstimate:
    """max over the family of mean(Y^nu * U^{-1}(|Z|)) on density samples:
    the estimate of the first maximizing member i, named ``j[nu=i]``."""
    wealth = _wealth(Z, p)
    return max((mean_estimate(np.exp(row) * wealth, f"j[nu={i}]")
                for i, row in enumerate(logs)), key=lambda est: est.mean)


def norm_I(Z, p: float, logs: np.ndarray) -> float:
    """(min over family of mean Y^{1-q} |Z|^q)^{1/q} on density samples."""
    q = p / (p - 1.0)
    vals = np.abs(Z)
    with np.errstate(over="ignore"):
        moments = [float(np.mean(np.exp((1.0 - q) * row) * vals**q))
                   for row in logs]
    if not all(math.isfinite(m) for m in moments):
        raise RuntimeError("q-moment diverges on the sample")
    return min(moments) ** (1.0 / q)


def norm_J(X, p: float, logs: np.ndarray) -> float:
    """(max over family of mean Y |X|^p)^{1/p} on density samples."""
    vals = np.abs(X)
    with np.errstate(over="ignore"):
        moments = [float(np.mean(np.exp(row) * vals**p)) for row in logs]
    if not all(math.isfinite(m) for m in moments):
        raise RuntimeError("p-moment diverges on the sample")
    return max(moments) ** (1.0 / p)


def j_evaluator(p: float, logs: np.ndarray):
    """The J modular on density samples as a plain callable on payoffs,
    for the Luxemburg and Amemiya norms; exponentiates the samples once
    and holds one member's products at a time."""
    y = np.exp(logs)

    def F(z: np.ndarray) -> float:
        wealth = _wealth(z, p)
        return float(np.max([np.mean(row * wealth) for row in y]))

    return F


def luxemburg_norm(F, Z) -> float:
    """inf over beta > 0 with F(Z / beta) <= 1, by bisection.

    F must be convex with F(0) = 0, so F(Z / beta) is nonincreasing in
    beta and the set {F <= 1} is a half line.  Returns 0 when F stays
    <= 1 down to beta = 2**-_MAX_ITER.
    """
    z = np.asarray(Z, dtype=float)
    if not np.any(z):
        return 0.0

    def ok(beta):
        v = F(z / beta)
        if math.isnan(v):
            raise RuntimeError("modular evaluated to nan")
        return v <= 1.0

    # bracket [bad, good] by halving from 1 while F stays <= 1, or doubling
    # while it stays above 1: no scale is evaluated twice
    if ok(1.0):
        good, bad = 1.0, 0.5
        for _ in range(_MAX_ITER):
            if not ok(bad):
                break
            good, bad = bad, bad / 2.0
        else:
            return 0.0  # at most 1 at every scale tried
    else:
        bad, good = 1.0, 2.0
        for _ in range(_MAX_ITER - 1):
            if ok(good):
                break
            bad, good = good, good * 2.0
        else:
            raise RuntimeError("no finite scale brings the modular below 1")
    for _ in range(_MAX_ITER):
        mid = math.sqrt(bad * good)
        if ok(mid):
            good = mid
        else:
            bad = mid
        if good - bad <= _REL_TOL * good:
            break
    return good


def amemiya_norm(F, Z) -> float:
    """min over k > 0 of (1 + F(k Z)) / k, golden-section on log k.

    For convex F with F(0) = 0, k F'(k Z) - F(k Z) - 1 is nondecreasing in
    k, so the objective g(t) = (1 + F(e^t Z)) e^{-t} falls strictly, then
    stays at its minimum, then rises: it is unimodal in t = log k.  A walk
    on the grid t = -45, -44.5, .., 45 brackets the minimum: from t = 0 it
    steps left while the left neighbour is no larger (through an infinite
    right tail too), and if it took no left step, right while the right
    neighbour is strictly smaller.  It stops at the first grid minimum, as
    a scan of the whole grid would, after a few evaluations instead of 181;
    golden-section on the two neighbouring grid intervals pins it down.
    A nan at a grid point the walk does not visit goes unnoticed; only a
    non-convex F can produce one.
    """
    z = np.asarray(Z, dtype=float)
    if not np.any(z):
        return 0.0

    def g(t):
        v = F(math.exp(t) * z)
        if math.isnan(v):
            raise RuntimeError("modular evaluated to nan")
        return (1.0 + v) * math.exp(-t) if math.isfinite(v) else math.inf

    ts = np.linspace(-45.0, 45.0, 181)
    last = len(ts) - 1
    k = last // 2  # ts[k] == 0.0
    g_k = g(ts[k])
    while k > 0 and (g_left := g(ts[k - 1])) <= g_k:
        k, g_k = k - 1, g_left
    if k == last // 2:
        while k < last and (g_right := g(ts[k + 1])) < g_k:
            k, g_k = k + 1, g_right
    if k == 0 or k == last:
        raise RuntimeError("Amemiya norm has no interior minimum in range")
    a, b = float(ts[k - 1]), float(ts[k + 1])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    g_c, g_d = g(c), g(d)
    for _ in range(_MAX_ITER):
        if g_c < g_d:
            b, d, g_d = d, c, g_c
            c = b - invphi * (b - a)
            g_c = g(c)
        else:
            a, c, g_c = c, d, g_d
            d = a + invphi * (b - a)
            g_d = g(d)
        if b - a <= _REL_TOL:
            break
    return g(0.5 * (a + b))


@dataclass(frozen=True)
class HolderReport:
    lhs: float  # |mean(Y Z)|
    norm_i: float  # norm_I(Y)
    norm_j: float  # norm_J(Z)
    check: Check  # lhs at most rhs, up to a relative rounding slack

    @property
    def rhs(self) -> float:
        return self.norm_i * self.norm_j


def holder_check(Y, Z, p: float, logs: np.ndarray) -> HolderReport:
    """|mean(Y Z)| <= norm_I(Y) * norm_J(Z), exact on the sample."""
    lhs = abs(float(np.mean(Y * Z)))
    ni, nj = norm_I(Y, p, logs), norm_J(Z, p, logs)
    return HolderReport(lhs=lhs, norm_i=ni, norm_j=nj, check=Check(
        "holder pairing |mean(Y Z)|", "at most", lhs,
        ni * nj * (1.0 + _HOLDER_SLACK), 0.0, None))
