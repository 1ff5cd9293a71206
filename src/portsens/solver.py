"""Static solutions of the base utility-maximization problem.

The martingale method reduces the dynamic problem to a static one: maximize
E[U(X)] over terminal payoffs X subject to the budget E[Zhat X] = x0, where
Zhat is the pricing density built from the market price of risk (and the
rate discount when there is one).  The optimizer is X* = I(y Zhat) with
I = (U')^{-1} and y > 0 solving the budget equation.  ``bisect_budget``
solves that equation for a custom utility table and ``budget_estimate``
turns the solution into an estimate; ``valuation`` and ``sensitivity``
call both.

For power utility U(x) = p x^{1/p} everything is explicit, and
``optimal_terminal_wealth`` returns the optimal wealth samples that the
``norms`` command reads:

    X* = x0 Zhat^{-q} / E[Zhat^{1-q}],      q = p/(p-1),
    value = p x0^{1/p} E[Zhat^{1-q}]^{1/q}.

On a fixed ensemble the budget is normalized by the sample mean of
Zhat^{1-q}, so mean(Zhat X*) = x0 holds exactly and the sample mean of
U(X*) coincides with the plug-in value formula path by path.

The density uses the minimal measure (kernel component nu = 0).  For
deterministic coefficients this is the exact dual optimizer: any
deterministic kernel component nu adds exp(q(q-1)/2 int |nu|^2 dt) >= 1 to
E[Zhat^{1-q}] because nu is orthogonal to the price of risk pointwise.
Incomplete markets with stochastic coefficients have no closed-form dual
optimizer and are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from portsens import utility as ut
from portsens.estimate import ValueEstimate, delta_estimate
from portsens.market import (MarketModel, integrand, mpr_from_values,
                             mpr_integrand, scalar_constant)
from portsens.paths import PathEnsemble, path_sums

_REL_TOL = 1e-12  # relative bracket width at which the bisection stops
_MAX_ITER = 200  # steps of each bracket expansion and of the bisection


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class OptimalWealth:
    """Optimal terminal wealth samples with density and value."""

    xstar: np.ndarray
    z: np.ndarray  # pricing density per path, discount included
    value: ValueEstimate

    def __post_init__(self):
        if np.any(self.xstar <= 0):
            raise SolverError("optimal wealth must be strictly positive")


@dataclass(frozen=True)
class ClosedFormValue:
    value: float
    formula: str


def optimal_terminal_wealth(model: MarketModel, u: ut.UtilitySpec,
                            logzhat: np.ndarray) -> OptimalWealth:
    """Solve the static problem for power utility on pricing-density samples.

    ``logzhat`` holds log Zhat per path (discount included), e.g. the nu = 0
    row of ``modular.density_logs``.  The market must be complete (n = d)
    or have deterministic coefficients.  Log and custom utilities are
    refused: ``valuation.value_surface`` values them at tau = 0.
    """
    if u.kind != "power":
        raise SolverError(f"optimal wealth needs a power utility, "
                          f"got {u.label!r}")
    if not (model.n == model.d or model.is_deterministic):
        raise SolverError("incomplete market with stochastic coefficients: "
                          "no closed-form dual optimizer")
    logzhat = np.asarray(logzhat, dtype=float)
    x0, q = model.x0, u.q
    v = np.exp((1.0 - q) * logzhat)  # Zhat^{1-q}
    m0 = float(np.mean(v))
    xs = x0 * np.exp(-q * logzhat) / m0
    # mean U(X*) equals p x0^{1/p} m0^{1/q} exactly; the delta method
    # tracks the nonlinearity of the m0 power
    val = delta_estimate(
        [v], lambda m: u.p * x0 ** (1 / u.p) * m[0] ** (1 / q),
        lambda m: np.array([u.p * x0 ** (1 / u.p) / q
                            * m[0] ** (1 / q - 1)]),
        f"value[power p={u.p:g}]")
    return OptimalWealth(xstar=xs, z=np.exp(logzhat), value=val)


def bisect_budget(u: ut.UtilitySpec, zhat: np.ndarray, x0: float,
                  weights: np.ndarray | None = None) -> float:
    """Solve mean(w Zhat I(y Zhat)) = x0; the map is strictly decreasing in y."""

    def budget(y):
        b = zhat * np.asarray(ut.inverse_marginal(u, y * zhat))
        if weights is not None:
            b = weights * b
        return float(np.mean(b)) - x0

    lo = hi = float(ut.derivative(u, x0))
    for _ in range(_MAX_ITER):
        if budget(hi) < 0:
            break
        hi *= 2.0
    else:
        raise SolverError("budget bracket expansion failed (upper)")
    for _ in range(_MAX_ITER):
        if budget(lo) > 0:
            break
        lo /= 2.0
    else:
        raise SolverError("budget bracket expansion failed (lower)")
    for _ in range(_MAX_ITER):
        mid = np.sqrt(lo * hi)
        if budget(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _REL_TOL * hi:
            break
    return float(np.sqrt(lo * hi))


def budget_estimate(values: np.ndarray, spent: np.ndarray, y: float,
                    estimator: str) -> ValueEstimate:
    """Mean of per-path utilities at a budget-constrained optimum.

    ``values`` is w U(X*) and ``spent`` w Zhat X* per path, where the
    multiplier y of X* = I(y Zhat) was solved on these paths so that
    mean(spent) = x0.  The estimate is mean(values).  Differentiating the
    budget equation implicitly (U'(X*) = y Zhat) gives the first-order
    effect of the multiplier's own noise, so the influence of a path is
    w U(X*) - y (w Zhat X* - x0).
    """
    return delta_estimate([values, spent], lambda m: m[0],
                          lambda m: np.array([1.0, -y]), estimator)


# ---------------------------------------------------------------------------
# closed forms

def _pieces(T: float, *procs) -> tuple[np.ndarray, list]:
    """Lengths of the pieces of [0, T] on which every deterministic
    coefficient is constant, and each coefficient's value on each piece."""
    if not all(p.is_deterministic for p in procs):
        raise SolverError("needs deterministic coefficients")
    breaks = np.array(sorted({b for p in procs
                             for b in p._segments()[0].tolist()}), float)
    edges = np.concatenate(([0.0], breaks[(breaks > 0) & (breaks < T)], [T]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    return np.diff(edges), [v[np.searchsorted(b, mid, side="right")]
                            for b, v in (p._segments() for p in procs)]


def integrate_product(a, b, T: float) -> float:
    """Exact int_0^T sum(a(t) * b(t)) dt for deterministic coefficients.

    With a = b this is the squared L2 norm; entries are summed, so matrix
    coefficients integrate their Frobenius inner product.
    """
    lengths, (va, vb) = _pieces(T, a, b)
    products = (va * vb).reshape(len(lengths), -1)
    return float(np.sum(products * lengths[:, None]))


def deterministic_mpr_integral_sq(model: MarketModel, T: float) -> float:
    """int_0^T |lambda|^2 dt for deterministic coefficients, exact in time."""
    lengths, values = _pieces(T, model.mu, model.sigma, model.rate)
    lam = mpr_from_values(*values)
    return float(np.sum(lam**2 * lengths[:, None]))


def value_closed_form(model: MarketModel, u: ut.UtilitySpec, T: float,
                      ensemble: PathEnsemble | None = None) -> ClosedFormValue:
    """Value of the base problem where a closed form exists.

    log utility: log x0 + int r dt + 1/2 E int |lambda|^2 dt (the expectation
    is exact for deterministic coefficients and a Monte Carlo mean otherwise,
    in which case an ensemble is required).
    power utility, deterministic coefficients:
    p x0^{1/p} exp((1/p) int r dt) exp((q-1)/2 int |lambda|^2 dt).
    """
    if u.kind == "log":
        if model.is_deterministic:
            lam2 = deterministic_mpr_integral_sq(model, T)
            rint = integrate_product(model.rate, scalar_constant(1.0), T)
            return ClosedFormValue(float(np.log(model.x0) + rint + 0.5 * lam2),
                                   "log-deterministic")
        if ensemble is None:
            raise SolverError("adapted coefficients need an ensemble")
        lam = mpr_integrand(model, ensemble.grid)
        s = path_sums(ensemble, {"Q": ("quad", lam, lam),
                                 "R": ("time", integrand(ensemble.grid,
                                                         model.rate))})
        return ClosedFormValue(float(np.log(model.x0)
                                     + np.mean(0.5 * s["Q"] + s["R"])),
                               "log-mc")
    if u.kind == "power":
        if not model.is_deterministic:
            raise SolverError("power closed form needs deterministic "
                              "coefficients")
        lam2 = deterministic_mpr_integral_sq(model, T)
        rint = integrate_product(model.rate, scalar_constant(1.0), T)
        val = (u.p * model.x0 ** (1 / u.p) * np.exp(rint / u.p)
               * np.exp((u.q - 1.0) / 2.0 * lam2))
        return ClosedFormValue(float(val), f"power-deterministic p={u.p:g}")
    raise SolverError(f"no closed form for utility {u.label!r}")
