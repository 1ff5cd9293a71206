"""Static solutions of the base utility-maximization problem.

The martingale method reduces the dynamic problem to a static one: maximize
E[U(X)] over terminal payoffs X subject to the budget E[Zhat X] = x0, where
Zhat is the pricing density built from the market price of risk (and the
rate discount when there is one).  The optimizer is X* = I(y Zhat) with
I = (U')^{-1} and y > 0 solving the budget equation.  ``bisect_budget``
solves that equation for a custom utility table by bracketed regula falsi;
``valuation`` and ``sensitivity`` call it, and ``budget_estimate`` turns
their solutions into estimates whose errors include the multiplier's.

For power utility U(x) = p x^{1/p} everything is explicit, and
``optimal_terminal_wealth`` returns the optimal wealth samples that the
``norms`` command reads; ``cli.cmd_norms`` refuses every other utility and
every market without a closed-form dual optimizer before its pass:

    X* = x0 Zhat^{-q} / E[Zhat^{1-q}],      q = p/(p-1),
    value = p x0^{1/p} E[Zhat^{1-q}]^{1/q}.

On a fixed ensemble the budget is normalized by the sample mean of
Zhat^{1-q}, so mean(Zhat X*) = x0 holds exactly.  For deterministic
coefficients ``value_closed_form`` gives the value as the grid sums that
the estimators' expectation is made of.

The density uses the minimal measure (kernel component nu = 0).  For
deterministic coefficients this is the exact dual optimizer: any
deterministic kernel component nu adds exp(q(q-1)/2 int |nu|^2 dt) >= 1 to
E[Zhat^{1-q}] because nu is orthogonal to the price of risk pointwise.
Incomplete markets with stochastic coefficients have no closed-form dual
optimizer.  ``check_dual_optimizer`` is the one test of that rule: every
command that needs the optimizer, with or without a perturbation, calls it
before drawing a path, and it refuses with a ``ConfigError``.  A failed
solve is a ``RuntimeError``, never a refusal.
"""

from __future__ import annotations

import math

import numpy as np

from portsens import utility as ut
from portsens.estimate import ConfigError, ValueEstimate, delta_estimate
from portsens.market import MarketModel, RegimeTable, deterministic, mpr_table
from portsens.paths import TimeGrid

_REL_TOL = 1e-12  # relative bracket width at which the search stops
_MAX_ITER = 200  # steps of each bracket expansion and of the search


def check_dual_optimizer(model: MarketModel, *directions) -> None:
    """Refuse a market whose minimal measure need not be the dual
    optimizer: an incomplete one (n > d) where the market or one of the
    coefficient ``directions`` given (None for an absent one) is
    stochastic."""
    if not (model.n == model.d or deterministic(
            model.mu, model.sigma, model.rate, *directions)):
        raise ConfigError("incomplete market with stochastic "
                          "coefficients: no closed-form dual optimizer")


def optimal_terminal_wealth(model: MarketModel, u: ut.UtilitySpec,
                            logzhat: np.ndarray) -> np.ndarray:
    """The optimal wealth X* per path for a power utility.

    ``logzhat`` holds log Zhat per path (discount included), e.g. the nu = 0
    row of ``modular.density_logs``; the market must be complete (n = d)
    or have deterministic coefficients (``check_dual_optimizer``).
    """
    logzhat = np.asarray(logzhat, dtype=float)
    q = u.q
    m0 = float(np.mean(np.exp((1.0 - q) * logzhat)))  # mean Zhat^{1-q}
    xstar = model.x0 * np.exp(-q * logzhat) / m0
    if np.any(xstar <= 0):
        raise RuntimeError("optimal wealth must be strictly positive")
    return xstar


def bisect_budget(u: ut.UtilitySpec, zhat: np.ndarray, x0: float,
                  weights: np.ndarray | None = None) -> float:
    """Solve mean(w Zhat I(y Zhat)) = x0; the map is strictly decreasing in y.

    The bracket grows from U'(x0) by doubling and halving.  Illinois regula
    falsi on log y (Dowell & Jarratt 1971) narrows it: the secant point of
    the ends replaces the end of its sign, and an end kept twice in a row
    has the weight of its budget halved, so both ends converge.  Returns
    the secant point of the final bracket.
    """

    wz = zhat if weights is None else weights * zhat

    def budget(y):
        return float(np.mean(wz * ut.inverse_marginal(u, y * zhat))) - x0

    y0 = float(ut.derivative(u, x0))
    y, b = [y0, y0], [budget(y0)] * 2  # the low and the high end
    for _ in range(_MAX_ITER):
        if b[1] < 0:
            break
        y[1] *= 2.0
        b[1] = budget(y[1])
    else:
        raise RuntimeError("budget bracket expansion failed (upper)")
    for _ in range(_MAX_ITER):
        if b[0] > 0:
            break
        y[0] /= 2.0
        b[0] = budget(y[0])
    else:
        raise RuntimeError("budget bracket expansion failed (lower)")
    # log y and Illinois weight of each end, and the end replaced last
    t, w, last = [math.log(v) for v in y], [1.0, 1.0], None

    def secant(b_lo, b_hi):
        return t[0] + (t[1] - t[0]) * b_lo / (b_lo - b_hi)

    for _ in range(_MAX_ITER):
        if -math.expm1(t[0] - t[1]) <= _REL_TOL:  # (hi - lo) / hi
            break
        # half the stop width or more from either end, so that an end next
        # to the root closes the bracket in one step
        s = min(max(secant(w[0] * b[0], w[1] * b[1]), t[0] + _REL_TOL / 2),
                t[1] - _REL_TOL / 2)
        f = budget(math.exp(s))
        k = int(f <= 0)
        if k == last:
            w[1 - k] /= 2.0
        t[k], b[k], w[k], last = s, f, 1.0, k
    return math.exp(secant(*b))


def budget_estimate(values: np.ndarray, spent: np.ndarray, slope: float,
                    estimator: str) -> ValueEstimate:
    """Mean of per-path terms at a budget-constrained optimum.

    ``spent`` is w Zhat X* per path, where the multiplier y of
    X* = I(y Zhat) was solved on these paths so that mean(spent) = x0, and
    ``values`` are terms that depend on y through X*.  The estimate is
    mean(values).  Differentiating the budget equation implicitly gives
    the first-order effect of the multiplier's own noise, so the influence
    of a path is values - slope (spent - x0), where ``slope`` is the ratio
    of the y-derivatives of mean(values) and of mean(spent).  For values
    w U(X*) the slope is y itself, because U'(X*) = y Zhat wherever X*
    moves with y (a table's X* saturated at an end row does not).
    """
    return delta_estimate([values, spent], lambda m: m[0],
                          lambda m: np.array([1.0, -slope]), estimator)


# ---------------------------------------------------------------------------
# closed forms

def value_closed_form(model: MarketModel, u: ut.UtilitySpec,
                      grid: TimeGrid) -> float:
    """Value of the base problem for deterministic coefficients, exact on
    the grid.

    The time integrals are the left-node sums of the path-sum kernel: each
    regime's value times dt times the nodes it holds.  So the value is
    exactly the expectation the Monte Carlo estimators target, also where
    breakpoints fall between nodes.

    log utility:   log x0 + int r dt + 1/2 int |lambda|^2 dt;
    power utility: p x0^{1/p} exp((1/p) int r dt) exp((q-1)/2 int |lambda|^2 dt).
    """
    if not deterministic(model.mu, model.sigma, model.rate):
        raise RuntimeError("closed forms need deterministic coefficients")
    if u.kind not in ("log", "power"):
        raise RuntimeError(f"no closed form for utility {u.label!r}")
    regimes = RegimeTable(grid, model.mu, model.sigma, model.rate)
    occupation = grid.dt * np.bincount(regimes.time_rows,
                                       minlength=len(regimes))
    rint = float(occupation @ regimes.values(model.rate)[:, 0])
    lam2 = float(occupation @ np.sum(mpr_table(model, regimes) ** 2, axis=1))
    if u.kind == "log":
        return float(np.log(model.x0) + rint + 0.5 * lam2)
    return float(u.p * model.x0 ** (1 / u.p) * np.exp(rint / u.p)
                 * np.exp((u.q - 1.0) / 2.0 * lam2))
