"""Directional derivatives of the perturbed values, in closed form and by
finite differences.

The central objects are the weak and strong sensitivities at the base
market: derivatives of the perturbed value in tau at tau = 0.  Both have
closed-form representations as expectations of path functionals of the
BASE optimum, so one simulation estimates them without any differencing.
With S = sigma sigma^T, Dlambda the price-of-risk direction induced by
(dmu, dsigma, dr), and X the base optimal wealth:

weak     E[ U(X) ( int Dlambda^T dW + (1/p) int dr dt ) ]  (power index p)
strong   adds the quadratic coupling int lambda^T Dlambda dt of the fixed
         paths to the moving coefficients.

The estimators below are the exact tau-derivatives of the Monte Carlo
value curves of the valuation module under common random numbers.  That is
a stronger property than unbiasedness: central finite differences of the
simulated curve converge to the formula estimate at the deterministic rate
O(eps^2) with no Monte Carlo noise in the difference, which makes the
formula-versus-difference verdicts sharp.  The differences read every
step they are given: a Richardson tableau of central differences, coarse
to fine, removes one more even power of the step per column
(``fd_sensitivity``).  The same curves decide whether each formula is the
derivative: the residual u(tau) - u(0) - tau D must vanish at second order
on both sides of tau = 0 (``residual_decay``).

Two classical pitfalls are packaged as reports: the drift example where
the weak and strong sensitivities genuinely differ (an adapted price of
risk reacts to the tilted paths), and the discrepancy functional showing
that the base-point derivative formula cannot be transported to perturbed
points when the price of risk is adapted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from portsens import utility as ut
from portsens.estimate import (Check, ConfigError, ValueEstimate,
                               combine_linear, delta_estimate, mean_estimate)
from portsens.market import (MarketModel, RegimeTable, constant,
                             dlambda_direction, indicator, mpr_table)
from portsens.paths import PathEnsemble, TimeGrid, path_sums
from portsens.solver import bisect_budget, budget_estimate
from portsens.valuation import (PerturbationSpec, SurfaceRow,
                                check_experiment, surface_rows,
                                surface_sums)


def _direction(model: MarketModel, pert: PerturbationSpec,
               regimes: RegimeTable) -> np.ndarray:
    """The price-of-risk direction per regime of the pass's table: a direct
    dlambda as given, a coefficient direction through the chain rule."""
    if pert.dlambda is not None:
        return regimes.values(pert.dlambda)
    return dlambda_direction(model, pert.dmu, pert.dsigma, regimes,
                             dr=pert.drate)


def check_rate_direction(u: ut.UtilitySpec, pert: PerturbationSpec) -> None:
    """Refuse a rate direction under a custom utility: the closed-form
    sensitivities of a table have no rate term."""
    if u.kind == "custom" and pert.drate is not None:
        raise ConfigError("rate directions need power or log utility")


def _sens_sums(model: MarketModel, u: ut.UtilitySpec,
               pert: PerturbationSpec, regimes: RegimeTable,
               lam: np.ndarray) -> dict:
    """The ``path_sums`` requests of the base-point sensitivities: r, s1,
    q11 for int r dt, int lambda^T dW and int |lambda|^2 dt; s2 and dq for
    int Dlambda^T dW and int lambda^T Dlambda dt; dr for int dr dt (rate
    directions only).  Log utility never reads s1, so it is left out there.
    No name is one of ``surface_sums``.  A rate direction under a custom
    utility is refused here, the one rule that only the sensitivities
    have; ``valuation.check_experiment`` admits the rest."""
    check_rate_direction(u, pert)
    dlam = _direction(model, pert, regimes)
    sums = {"r": ("time", regimes.values(model.rate)),
            "q11": ("quad", lam, lam), "s2": ("ito", dlam),
            "dq": ("quad", lam, dlam)}
    if u.kind != "log":
        sums["s1"] = ("ito", lam)
    if pert.drate is not None:
        sums["dr"] = ("time", regimes.values(pert.drate))
    return sums


def _power_sens(u, x0, v, fac, name) -> ValueEstimate:
    scale = u.p * x0 ** (1.0 / u.p)
    return delta_estimate(
        [v, v * fac],
        lambda m: scale * m[0] ** (-1.0 / u.p) * m[1],
        lambda m: np.array([-scale / u.p * m[0] ** (-1.0 / u.p - 1.0) * m[1],
                            scale * m[0] ** (-1.0 / u.p)]),
        name)


def sensitivity_pair(model: MarketModel, u: ut.UtilitySpec,
                     pert: PerturbationSpec,
                     ensemble: PathEnsemble) -> tuple[ValueEstimate,
                                                      ValueEstimate]:
    """(weak, strong) closed-form sensitivity estimates from one pass."""
    _, weak, strong = _sens_estimates(model, u, pert, _surface_and_sens_sums(
        model, u, pert, (), ensemble))
    return weak, strong


def _sens_estimates(model: MarketModel, u: ut.UtilitySpec,
                    pert: PerturbationSpec,
                    s: dict) -> tuple[float, ValueEstimate, ValueEstimate]:
    """The value at tau = 0, where the weak and strong values coincide path
    by path, and the (weak, strong) sensitivity estimates, from the sums of
    ``_sens_sums``."""
    R, Q11, s2, dq = s["r"], s["q11"], s["s2"], s["dq"]
    dR = s.get("dr", 0.0)
    x0 = model.x0
    weak_name = f"weak-sens[{pert.label}]"
    strong_name = f"strong-sens[{pert.label}]"
    if u.kind == "power":
        v = np.exp((u.q - 1.0) * (R + s["s1"] + 0.5 * Q11))
        base = u.p * x0 ** (1.0 / u.p) * float(np.mean(v)) ** (1.0 / u.q)
        weak = _power_sens(u, x0, v, s2 + dR / u.p, weak_name)
        strong = _power_sens(u, x0, v, (s2 + dq + dR) / u.p, strong_name)
    elif u.kind == "log":
        lin = R + 0.5 * Q11
        base = float(np.mean(lin)) + math.log(x0)
        weak = mean_estimate(s2 * (lin + math.log(x0)) + dq + dR, weak_name)
        strong = mean_estimate(dq + dR, strong_name)
    else:
        zhat = np.exp(-(R + s["s1"] + 0.5 * Q11))
        y = bisect_budget(u, zhat, x0)
        xbar = np.asarray(ut.inverse_marginal(u, y * zhat))
        uvals = np.asarray(ut.evaluate(u, xbar))
        base = float(np.mean(uvals))
        spent, fac = zhat * xbar, s2 + dq
        # y is solved on these paths, so its noise enters both estimates
        # (solver.budget_estimate): each one's slope is its y-derivative
        # over the budget's, with dX/dy = zhat I'(y zhat), which is 0 where
        # X saturates at a table end, and U'(X) = y zhat where it is not
        dx = zhat * ut.inverse_marginal_slope(u, xbar)
        dspent = float(np.mean(zhat * dx))
        weak = budget_estimate(uvals * s2, spent,
                               y * float(np.mean(zhat * dx * s2)) / dspent,
                               weak_name)
        # envelope form: only the pricing density moves the strong value
        strong = budget_estimate(
            y * spent * fac, spent,
            float(np.mean(zhat * (xbar + y * dx) * fac)) / dspent,
            strong_name)
    return base, weak, strong


# ---------------------------------------------------------------------------
# finite differences

# the difference steps of ``sens`` unless --eps names others
DIFFERENCE_STEPS = (0.05, 0.025)


def check_steps(eps) -> tuple:
    """The step sizes in increasing order, if there are at least two and
    they are finite, positive and distinct."""
    eps = tuple(sorted(float(e) for e in eps))
    if (len(eps) < 2 or len(set(eps)) < len(eps)
            or not all(0 < e < math.inf for e in eps)):
        raise ConfigError("need at least two distinct finite positive step "
                          "sizes")
    return eps


def fd_sensitivity(rows: list[SurfaceRow], h, label: str) \
        -> tuple[tuple[ValueEstimate, float], tuple[ValueEstimate, float]]:
    """(weak, strong) central differences of the value curves,
    Richardson-extrapolated over every step, each with its extrapolation
    correction.

    ``rows`` is a value surface on shared paths (common random numbers)
    that holds +-h_i for every step h_i of ``h``; ``label`` names the
    direction.  ``h`` holds steps that ``check_steps`` admitted, ordered
    coarse to fine, h_0 > h_1 > ....  The tableau starts from the central
    differences T_i0 at h_i and removes one more even power of h per
    column:

        T_ij = w T_i,j-1 + (1 - w) T_i-1,j-1,
        w = h_{i-j}^2 / (h_{i-j}^2 - h_i^2).

    Each entry combines the per-path influence vectors.  The estimate is
    the top entry; its correction, the top entry minus the finest entry one
    order below it, bounds the residual bias of that entry.
    """
    out = []
    for side in ("weak", "strong"):
        by_tau = {r.tau: getattr(r, side) for r in rows}
        col = [combine_linear([by_tau[e], by_tau[-e]], [0.5 / e, -0.5 / e],
                              f"central[{e:g}]") for e in h]
        for j in range(1, len(h)):
            below, col = col, []
            for m in range(len(below) - 1):  # T_ij with i = m + j
                coarse = h[m] * h[m]
                w = coarse / (coarse - h[m + j] * h[m + j])
                col.append(combine_linear([below[m + 1], below[m]],
                                          [w, 1.0 - w],
                                          f"richardson[{side},{label}]"))
        out.append((col[0], col[0].mean - below[-1].mean))
    return tuple(out)


def _surface_and_sens_sums(model: MarketModel, u: ut.UtilitySpec,
                           pert: PerturbationSpec, taus,
                           ensemble: PathEnsemble) -> dict:
    """The sums of ``surface_sums`` over ``taus`` and of ``_sens_sums``,
    from one path pass on ``pert.regimes`` once the experiment is
    admitted."""
    check_experiment(model, u, pert, taus, ensemble.grid)
    regimes = pert.regimes(model, ensemble.grid)
    lam = mpr_table(model, regimes)
    return path_sums(ensemble, regimes,
                     {**surface_sums(model, u, pert, taus, regimes, lam),
                      **_sens_sums(model, u, pert, regimes, lam)})


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Formula-versus-difference comparison for one direction."""

    direction: str
    side: str
    formula: ValueEstimate
    fd: ValueEstimate
    check: Check  # the formula within tolerance of the difference


def sensitivity_reports(model: MarketModel, u: ut.UtilitySpec,
                        pert: PerturbationSpec, ensemble: PathEnsemble,
                        eps: tuple = DIFFERENCE_STEPS) \
        -> tuple[tuple[SensitivityReport, SensitivityReport],
                 tuple[SecondOrderReport, ...]]:
    """(weak, strong) closed-form sensitivities against the Richardson
    differences over every step of ``eps``, and the residual decay of each
    value curve on each side, from one path pass.

    The check's tolerance combines the Monte Carlo error of the formula-
    minus-difference contrast (tight, because both ride on the same paths)
    with the extrapolation correction as a bias allowance, plus a floating-
    point floor: when the curve is exactly quadratic in tau the difference
    reproduces the formula path by path and only rounding noise remains.

    The decay reports, weak +eps, weak -eps, strong +eps and strong -eps,
    fit the residual u(tau) - u(0) - tau D of each value curve and its
    formula D at tau = +eps and at tau = -eps (``residual_decay`` over the
    steps with D and with -D); u(0) is read off the sensitivity sums.
    """
    eps = check_steps(eps)
    taus = sorted({s * e for e in eps for s in (1.0, -1.0)})
    s = _surface_and_sens_sums(model, u, pert, taus, ensemble)
    base, *formulas = _sens_estimates(model, u, pert, s)
    rows = surface_rows(model, u, taus, s)
    fds = fd_sensitivity(rows, eps[::-1], pert.label)
    reports, decays = [], []
    for side, formula, (fd, correction) in zip(("weak", "strong"), formulas,
                                               fds):
        contrast = combine_linear([formula, fd], [1.0, -1.0], "contrast")
        tol = (3.0 * contrast.se + abs(correction)
               + 1e-11 * (1.0 + abs(formula.mean)))
        reports.append(SensitivityReport(
            direction=pert.label, side=side, formula=formula, fd=fd,
            check=Check(f"{pert.label} [{side}]", "within", formula.mean,
                        fd.mean, tol, formula.se)))
        curve = {r.tau: getattr(r, side).mean for r in rows}
        for sign, text in ((1.0, "+"), (-1.0, "-")):
            decays.append(residual_decay(
                eps, base, [curve[sign * e] for e in eps],
                sign * formula.mean, f"[{side}, {text}eps]"))
    return tuple(reports), tuple(decays)


# ---------------------------------------------------------------------------
# the two counterexamples

def _example1_model() -> tuple[MarketModel, PerturbationSpec]:
    """Unit volatility, price of risk 1 on {W < 0} and 0 elsewhere,
    perturbed by a constant unit drift."""
    model = MarketModel(d=1, n=1,
                        mu=indicator(0, 0.0, [0.0], [1.0]),
                        sigma=constant([[1.0]]))
    return model, PerturbationSpec(dmu=constant([1.0]), label="unit-drift")


@dataclass(frozen=True, eq=False)
class Example1Report:
    """Weak and strong drift sensitivities of the sign-switching market.

    The strong sensitivity is T/2: the perturbation only matters while the
    price of risk is on, which happens half the time.  The weak one is
    smaller by T^{3/2} / (3 sqrt(2 pi)): tilting the measure moves the
    paths, and the price of risk switches off exactly where the tilt
    pushes them.
    """

    weak: ValueEstimate
    strong: ValueEstimate
    gap: ValueEstimate  # weak minus strong, on the same paths
    expected_weak: float
    expected_strong: float

    @property
    def expected_gap(self) -> float:
        return self.expected_weak - self.expected_strong


def example1_report(T: float, M: int, N: int, seed: int) -> Example1Report:
    model, pert = _example1_model()
    ensemble = PathEnsemble(TimeGrid(T, N), n=1, count=M, seed=seed)
    weak, strong = sensitivity_pair(model, ut.log_utility(), pert, ensemble)
    return Example1Report(
        weak=weak, strong=strong,
        gap=combine_linear([weak, strong], [1.0, -1.0],
                           f"weak-minus-strong[{pert.label}]"),
        expected_weak=T / 2.0 - T ** 1.5 / (3.0 * math.sqrt(2.0 * math.pi)),
        expected_strong=T / 2.0)


def example2_reports(T: float, M: int, N: int, seed: int) \
        -> tuple[ValueEstimate, ValueEstimate]:
    """(deterministic, adapted) values of the discrepancy functional
    E[ exp(int lambda dW + int |lambda|^2 dt / 2) *
    (int Dlambda dW - int lambda^T Dlambda dt) ] from one pass over shared
    paths: the obstruction to reusing the base-point derivative formula at
    a perturbed point (square-root utility normalization).

    Both take Dlambda = -1.  The deterministic case takes lambda = 1 and
    vanishes, as for every deterministic price of risk; the adapted case
    takes lambda = 1 on {W < 0} and is strictly positive.
    """
    ensemble = PathEnsemble(TimeGrid(T, N), n=1, count=M, seed=seed)
    direction = constant([-1.0])
    cases = ("det", constant([1.0])), \
        ("adapted", indicator(0, 0.0, [0.0], [1.0]))
    regimes = RegimeTable(ensemble.grid, direction, *(c for _, c in cases))
    dlam = regimes.values(direction)
    sums = {"s2": ("ito", dlam)}
    for case, lam in cases:
        lam = regimes.values(lam)
        sums.update({f"{case}.s1": ("ito", lam),
                     f"{case}.q11": ("quad", lam, lam),
                     f"{case}.dq": ("quad", lam, dlam)})
    s = path_sums(ensemble, regimes, sums)
    return tuple(mean_estimate(
        np.exp(s[f"{case}.s1"] + 0.5 * s[f"{case}.q11"])
        * (s["s2"] - s[f"{case}.dq"]), "discrepancy") for case, _ in cases)


# ---------------------------------------------------------------------------
# second-order expansion quality

@dataclass(frozen=True, eq=False)
class SecondOrderReport:
    """How fast the first-order residual of a value curve vanishes.

    The residual u(eps) - u(0) - eps * D of the first-order expansion must
    be second order in eps for D to be the derivative; a wrong D leaves a
    first-order residual on either side of the tangent.  The report fits a
    log-log slope to |residual| over the steps where it exceeds the
    numerical floor; with fewer than two such steps the check is vacuous
    and the slope reported as infinity.  The check passes a slope of at
    least 1.8, so a vacuous one.
    """

    slope: float
    vacuous: bool
    check: Check


def residual_decay(eps, base: float, curve, deriv: float,
                   label: str) -> SecondOrderReport:
    """Decay of |curve[i] - base - eps[i] * deriv| with the step.

    ``curve`` holds the values at the increasing steps ``eps``; ``label``
    ends the check's name.
    """
    scale = abs(base) + max(abs(v) for v in curve)
    floor = 1e-12 * max(scale, 1.0)
    pts = [(e, abs(v - base - e * deriv)) for e, v in zip(eps, curve)]
    pts = [p for p in pts if p[1] > floor]
    if len(pts) < 2:
        slope, vacuous = math.inf, True
    else:
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        slope, vacuous = float(np.polyfit(xs, ys, 1)[0]), False
    return SecondOrderReport(
        slope=slope, vacuous=vacuous,
        check=Check(f"log-log slope of |residual| {label}", "at least",
                    slope, 1.8, 0.0, None))
