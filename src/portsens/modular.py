"""Budget and dual functionals on terminal payoffs, with their norms.

A market with price of risk lambda and null-space directions nu (sigma
nu = 0 in every reachable regime) prices payoffs through the density family
Y^nu = exp(-int r dt) E(-int (lambda + nu) dW)_T.  Two convex functionals
on payoff samples Z arise:

    J(Z) = max over the family of mean( Y^nu * U^{-1}(|Z|) )
    I(Z) = min over the family of mean( |Z| * V(Y^nu / |Z|) )

with V the convex conjugate of the utility.  J is the cost of replicating
the wealth profile whose utility is Z, so J(U(X*)) equals the initial
wealth exactly at the optimizer; I is its dual companion.  For power
utility I has the explicit form (p - 1) * mean(Y^{1-q} |Z|^q), and the
induced norms simplify to weighted q- and p-means:

    norm_I(Z) = (min over family of mean Y^{1-q} |Z|^q)^{1/q}
    norm_J(X) = (max over family of mean Y |X|^p)^{1/p}

They pair in a Hölder inequality |mean(YZ)| <= norm_I(Y) * norm_J(Z) that
holds exactly on the empirical measure, by the pointwise factorization
|YZ| = (W^{-1/p}|Y|) (W^{1/p}|Z|) with the density as weight.

The family here is a finite user-declared list (default: zero only), so
the reported norm_I is an upper bound and norm_J a lower bound for their
full-family counterparts; enlarging the family tightens both
monotonically.

Generic Luxemburg and Amemiya norms of any convex modular evaluator are
provided as well; note the Amemiya norm at k = 1 gives
amemiya(J, U(X*)) <= 1 + J(U(X*)) = 1 + x0, the budget-set bound.

The functionals and norms take density samples, not an ensemble: the
(family, M) array of log Y^nu that ``density_logs`` computes in one path
pass.  A caller streams the paths once and evaluates every functional, norm
and pairing on the same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from portsens import utility as ut
from portsens.estimate import ValueEstimate, mean_estimate
from portsens.market import (CoefficientProcess, MarketModel, RegimeTable,
                             integrand, mpr_table, zeros)
from portsens.paths import PathEnsemble, TimeGrid, path_sums

_KERNEL_TOL = 1e-10  # largest |sigma nu| accepted, per max(1, |sigma| |nu|)
_REL_TOL = 1e-12  # relative width at which the norm searches stop
_MAX_ITER = 200  # steps of each doubling, halving or section loop
_HOLDER_SLACK = 1e-9  # relative rounding allowance of the Hölder pairing


class ModularError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ModularFunctional:
    """Market, utility and a finite family of null-space directions."""

    model: MarketModel
    utility: ut.UtilitySpec
    nu_family: tuple = ()

    def __post_init__(self):
        fam = tuple(self.nu_family) or (zeros((self.model.n,)),)
        for nu in fam:
            if not isinstance(nu, CoefficientProcess) \
                    or nu.shape != (self.model.n,):
                raise ModularError(
                    f"family members must be ({self.model.n},) coefficient "
                    "processes")
        object.__setattr__(self, "nu_family", fam)


def _validate_kernel(mf: ModularFunctional, grid: TimeGrid) -> None:
    """Every family member must lie in the null space of sigma, in every
    regime the paths can reach."""
    sigma = mf.model.sigma
    for i, nu in enumerate(mf.nu_family):
        regimes = RegimeTable(grid, sigma, nu)
        sg_v, nu_v = regimes.values(sigma), regimes.values(nu)
        scale = float(np.max(np.abs(sg_v))) or 1.0
        prod = np.einsum("...dn,...n->...d", sg_v, nu_v)
        worst = float(np.max(np.abs(prod))) if prod.size else 0.0
        nu_scale = float(np.max(np.abs(nu_v))) if nu_v.size else 0.0
        if worst > _KERNEL_TOL * max(1.0, scale * nu_scale):
            r = int(np.argmax(np.max(np.abs(prod), axis=-1)))
            raise ModularError(
                f"family member {i} leaves the volatility null space "
                f"(max |sigma nu| = {worst:g} on {regimes.describe(r)})")


def density_logs(mf: ModularFunctional, ensemble: PathEnsemble) -> np.ndarray:
    """log Y^nu per (family member, path), discount included; one pass."""
    grid = ensemble.grid
    model = mf.model
    _validate_kernel(mf, grid)
    sums = {"R": ("time", integrand(grid, model.rate))}
    for i, nu in enumerate(mf.nu_family):
        regimes = RegimeTable(grid, model.mu, model.sigma, model.rate, nu)
        gamma = (regimes, mpr_table(model, regimes) + regimes.values(nu))
        sums.update({f"S{i}": ("ito", gamma), f"Q{i}": ("quad", gamma, gamma)})
    s = path_sums(ensemble, sums)
    return np.stack([-s["R"] - s[f"S{i}"] - 0.5 * s[f"Q{i}"]
                     for i in range(len(mf.nu_family))])


def _check_logs(mf: ModularFunctional, logs: np.ndarray) -> None:
    if logs.ndim != 2 or logs.shape[0] != len(mf.nu_family):
        raise ModularError(f"density samples must have shape (family "
                           f"{len(mf.nu_family)}, paths), got {logs.shape}")


def _payoff_values(Z, mf: ModularFunctional, logs: np.ndarray) -> np.ndarray:
    """Per-path payoff values, checked against the density samples."""
    _check_logs(mf, logs)
    count = logs.shape[1]
    vals = np.asarray(Z, float)
    if vals.shape != (count,):
        raise ModularError(f"payoff must have one value per path "
                           f"({count}), got shape {vals.shape}")
    return vals


def j_functional(Z, mf: ModularFunctional,
                 logs: np.ndarray) -> ValueEstimate:
    """max over the family of mean(Y^nu * U^{-1}(|Z|)) on density samples:
    the estimate of the first maximizing member i, named ``j[nu=i]``."""
    vals = np.abs(_payoff_values(Z, mf, logs))
    wealth = np.asarray(ut.inverse(mf.utility, vals))
    best = None
    for i in range(logs.shape[0]):
        est = mean_estimate(np.exp(logs[i]) * wealth, f"j[nu={i}]")
        if best is None or est.mean > best.mean:
            best = est
    return best


def _require_power(u: ut.UtilitySpec, what: str) -> None:
    if u.kind != "power":
        raise ModularError(f"{what} uses the explicit power-utility form")


def norm_I(Z, mf: ModularFunctional, logs: np.ndarray) -> float:
    """(min over family of mean Y^{1-q} |Z|^q)^{1/q} on density samples."""
    _require_power(mf.utility, "norm_I")
    q = mf.utility.q
    vals = np.abs(_payoff_values(Z, mf, logs))
    with np.errstate(over="ignore"):
        moments = [float(np.mean(np.exp((1.0 - q) * logs[i]) * vals**q))
                   for i in range(logs.shape[0])]
    if not all(math.isfinite(m) for m in moments):
        raise ModularError("q-moment diverges on the sample")
    return min(moments) ** (1.0 / q)


def norm_J(X, mf: ModularFunctional, logs: np.ndarray) -> float:
    """(max over family of mean Y |X|^p)^{1/p} on density samples."""
    _require_power(mf.utility, "norm_J")
    p = mf.utility.p
    vals = np.abs(_payoff_values(X, mf, logs))
    with np.errstate(over="ignore"):
        moments = [float(np.mean(np.exp(logs[i]) * vals**p))
                   for i in range(logs.shape[0])]
    if not all(math.isfinite(m) for m in moments):
        raise ModularError("p-moment diverges on the sample")
    return max(moments) ** (1.0 / p)


def j_evaluator(mf: ModularFunctional, logs: np.ndarray):
    """The J modular on density samples as a plain callable on payoffs.

    Exponentiates the samples once, so it can be handed to the generic
    Luxemburg/Amemiya norms.
    """
    _check_logs(mf, logs)
    y = np.exp(logs)

    def F(z: np.ndarray) -> float:
        wealth = np.asarray(ut.inverse(mf.utility, np.abs(z)))
        return float(np.max(np.mean(y * wealth, axis=1)))

    return F


def luxemburg_norm(F, Z) -> float:
    """inf over beta > 0 with F(Z / beta) <= 1, by bisection.

    F must be convex with F(0) = 0, so F(Z / beta) is nonincreasing in
    beta and the set {F <= 1} is a half line.
    """
    z = np.asarray(Z, dtype=float)
    if not np.any(z):
        return 0.0

    def ok(beta):
        v = F(z / beta)
        if math.isnan(v):
            raise ModularError("modular evaluated to nan")
        return v <= 1.0

    good = 1.0
    for _ in range(_MAX_ITER):
        if ok(good):
            break
        good *= 2.0
    else:
        raise ModularError("no finite scale brings the modular below 1")
    bad = good / 2.0
    for _ in range(_MAX_ITER):
        if not ok(bad):
            break
        good = bad
        bad /= 2.0
        if bad < 1e-300:
            return 0.0  # below 1 at every scale
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
            raise ModularError("modular evaluated to nan")
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
        raise ModularError("Amemiya norm has no interior minimum in range")
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

    @property
    def rhs(self) -> float:
        return self.norm_i * self.norm_j

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + _HOLDER_SLACK)


def holder_check(Y, Z, mf: ModularFunctional,
                 logs: np.ndarray) -> HolderReport:
    """|mean(Y Z)| <= norm_I(Y) * norm_J(Z), exact on the sample."""
    yv = _payoff_values(Y, mf, logs)
    zv = _payoff_values(Z, mf, logs)
    return HolderReport(lhs=abs(float(np.mean(yv * zv))),
                        norm_i=norm_I(yv, mf, logs),
                        norm_j=norm_J(zv, mf, logs))
