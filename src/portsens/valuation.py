"""Weakly and strongly perturbed values of the utility-maximization problem.

Both perturbations move the market coefficients along fixed directions,
mu + tau dmu, sigma + tau dsigma, r + tau dr, or the price of risk directly
along lambda + tau dlambda, as ``PerturbationSpec.moved`` forms them, with
their tau-derivatives from ``.derivative``.  They differ in what the
perturbation does to the underlying randomness:

strong   the driving paths and their law are kept, the coefficients change;
         the value is the plug-in optimum in the perturbed market.
weak     the perturbed price of risk also tilts the measure, with density
         G = E(int (lambda^tau - lambda) dW)_T; under the tilted measure
         W^tau = W - int (lambda^tau - lambda) dt is a Brownian motion and
         the market with price of risk lambda^tau is priced on it.

Monte Carlo uses one set of base paths for every tau (common random
numbers): the weak expectation is pulled back to the base measure through
the weight G, so at tau = 0 the weak and strong estimators coincide path by
path, not just in distribution.

The discrete-time weight is exact: tilting a Gaussian increment by
exp(g dW - g^2 dt / 2) shifts its mean by g dt exactly, so conditionally
centered integrands keep zero mean under the tilted measure.  This is what
lets the logarithmic estimator drop the martingale term int lambda dW from
log Zhat on both sides, which costs nothing in bias and removes the
dominant variance contribution.

The plug-in optimizer takes the minimal pricing measure as the dual
optimizer, which holds in complete markets and for deterministic
coefficients and directions; ``solver.check_dual_optimizer`` is the one
test of that rule.  ``check_experiment`` is the one admission check of
every value and sensitivity experiment, with that test among its rules:
``value_surface`` and the fused pass of ``sensitivity`` (``example1`` and
``sens``) each run it once before drawing a path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from portsens import utility as ut
from portsens.estimate import (ConfigError, ValueEstimate, delta_estimate,
                               mean_estimate)
from portsens.market import (CoefficientProcess, MarketModel, RegimeTable,
                             check_drivers, check_h1_direction,
                             dlambda_direction, mpr_from_values, mpr_table)
from portsens.paths import PathEnsemble, TimeGrid, path_sums
from portsens.solver import (bisect_budget, budget_estimate,
                             check_dual_optimizer)


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """Direction of a market perturbation.

    Either coefficient directions (any subset of dmu, dsigma, drate) or a
    direct price-of-risk direction dlambda, not both.  Directions are
    coefficient processes with the shapes of the objects they perturb.
    """

    dmu: CoefficientProcess | None = None
    dsigma: CoefficientProcess | None = None
    drate: CoefficientProcess | None = None
    dlambda: CoefficientProcess | None = None
    label: str = ""

    def __post_init__(self):
        given = [name for name, p in self._named() if p is not None]
        if self.dlambda is not None and len(given) > 1:
            raise ConfigError("dlambda excludes coefficient directions")
        if not given:
            raise ConfigError("perturbation needs at least one direction")
        if not self.label:
            object.__setattr__(self, "label", "+".join(given))

    def _named(self) -> list:
        """(name, process) of every direction, the fields before ``label``
        in their order, absent ones as None."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)[:-1]]

    @property
    def directions(self) -> tuple:
        """(dmu, dsigma, drate, dlambda), absent ones as None."""
        return tuple(p for _, p in self._named())

    def regimes(self, model: MarketModel, grid: TimeGrid) -> RegimeTable:
        """The joint regimes of the market and every direction: the one
        table of every value and sensitivity pass."""
        return RegimeTable(grid, model.mu, model.sigma, model.rate,
                           *self.directions)

    def moved(self, model: MarketModel, regimes: RegimeTable,
              lam0: np.ndarray, tau: float) -> tuple:
        """Price of risk lambda^tau and rate r^tau per regime, given lam0
        at tau = 0."""
        r0 = regimes.values(model.rate)
        r = r0 if self.drate is None else r0 + tau * regimes.values(self.drate)
        if self.dlambda is not None:
            return lam0 + tau * regimes.values(self.dlambda), r
        mu, sg = (regimes.values(p) for p in (model.mu, model.sigma))
        if self.dmu is not None:
            mu = mu + tau * regimes.values(self.dmu)
        if self.dsigma is not None:
            sg = sg + tau * regimes.values(self.dsigma)
        return mpr_from_values(mu, sg, r), r

    def derivative(self, model: MarketModel, regimes: RegimeTable) -> tuple:
        """Dlambda and dr per regime, the tau-derivatives of ``moved``, dr
        None without a rate direction; Dlambda by the chain rule."""
        dr = None if self.drate is None else regimes.values(self.drate)
        if self.dlambda is not None:
            return regimes.values(self.dlambda), dr
        return dlambda_direction(model, self.dmu, self.dsigma, regimes,
                                 dr=self.drate), dr

    def validate_for(self, model: MarketModel) -> None:
        # the shapes of mu, sigma, r and lambda, in field order
        shapes = [(model.d,), (model.d, model.n), (1,), (model.n,)]
        for (name, proc), want in zip(self._named(), shapes):
            if proc is not None and proc.shape != want:
                raise ConfigError(
                    f"{name} must have shape {want}, got {proc.shape}")
        check_drivers(model.n, *self.directions)


@dataclass(frozen=True, eq=False)
class SurfaceRow:
    """Weak and strong values at one tau, with the sample mean of the
    measure-change weight G (1 at tau = 0)."""

    tau: float
    weak: ValueEstimate
    strong: ValueEstimate
    weight_mean: float


def check_experiment(model: MarketModel, u: ut.UtilitySpec,
                     pert: PerturbationSpec, taus, grid: TimeGrid) -> None:
    """Admit a value or sensitivity experiment before any path is drawn:
    the directions must fit the market, the market must have a plug-in
    optimizer (``solver.check_dual_optimizer``), a volatility direction
    must keep the null space in every regime the paths can reach, at every
    nonzero tau of ``taus`` or, if there is none, as for the formulas
    alone, at every small tau, and a custom utility must be tabulated at
    x0, the multiplier search's first point."""
    pert.validate_for(model)
    check_dual_optimizer(model, *pert.directions)
    if pert.dsigma is not None:
        regimes, reports = check_h1_direction(
            model.sigma, pert.dsigma, sorted(set(taus) - {0.0}), grid)
        for rep in reports:
            if not rep.check.passed:
                raise ConfigError(
                    f"volatility direction: {rep.check.name} = "
                    f"{rep.check.value} (full rank: {rep.full_rank}, "
                    f"kernel preserved: {rep.kernel_equal}), first on "
                    f"{regimes.describe(rep.worst_regime)}")
    if u.kind == "custom":
        try:
            ut.derivative(u, model.x0)
        except ValueError as exc:
            raise ConfigError(f"x0 = {model.x0:g}: {exc}") from None


def surface_sums(model: MarketModel, u: ut.UtilitySpec,
                 pert: PerturbationSpec, taus, regimes: RegimeTable,
                 lam0: np.ndarray) -> dict:
    """The ``path_sums`` requests of the value surface over ``taus``, named
    R, Q, S, G, GG and X with the tau's position appended, on the table
    ``pert.regimes`` of an experiment that ``check_experiment`` admitted,
    whose price of risk is ``lam0``.  The log estimators read neither S
    nor X, so log utility requests neither."""
    sums = {}
    for i, tau in enumerate(taus):
        lam, r_tau = pert.moved(model, regimes, lam0, tau)
        delta = lam - lam0
        sums.update({f"R{i}": ("time", r_tau),
                     f"Q{i}": ("quad", lam, lam), f"G{i}": ("ito", delta),
                     f"GG{i}": ("quad", delta, delta)})
        if u.kind != "log":
            sums.update({f"S{i}": ("ito", lam),
                         f"X{i}": ("quad", lam, delta)})
    return sums


def surface_rows(model: MarketModel, u: ut.UtilitySpec, taus,
                 s: dict) -> list[SurfaceRow]:
    """Weak and strong values per tau from the sums of ``surface_sums``.

    Per tau each side's value reads its log pricing density, discount
    included, as an (M,) array: under the tilted measure on the weak side,
    which also reads the measure-change weight G as (log G, G), and on the
    base measure on the strong side.  Log utility reads neither S nor X, so
    there both sides read -(int r^tau dt + 1/2 int |lambda^tau|^2 dt).
    """
    rows = []
    for i, tau in enumerate(taus):
        R, Q = s[f"R{i}"], s[f"Q{i}"]
        log_g = s[f"G{i}"] - 0.5 * s[f"GG{i}"]
        g = np.exp(log_g)
        if u.kind == "log":
            log_zw = log_zs = -(R + 0.5 * Q)
        else:
            S, X = s[f"S{i}"], s[f"X{i}"]
            log_zw, log_zs = -S + X - 0.5 * Q - R, -S - 0.5 * Q - R
        name = f"value[tau={tau:g},{u.label}]"
        rows.append(SurfaceRow(
            tau=tau,
            weak=_estimate_value(u, model.x0, log_zw, (log_g, g),
                                 f"weak-{name}"),
            strong=_estimate_value(u, model.x0, log_zs, None,
                                   f"strong-{name}"),
            weight_mean=float(np.mean(g))))
    return rows


def _estimate_value(u: ut.UtilitySpec, x0: float, log_z: np.ndarray,
                    weight: tuple | None, name: str) -> ValueEstimate:
    """The plug-in value of one side from its log pricing density log_z
    and, on the weak side, the measure-change weight as (log G, G)."""
    log_g, g = weight or (None, None)
    if u.kind == "log":
        vals = np.log(x0) - log_z
        if g is not None:
            vals = g * vals
        return mean_estimate(vals, name)
    if u.kind == "power":
        q = u.q
        expo = (1.0 - q) * log_z
        if g is not None:
            expo = expo + log_g
        v = np.exp(expo)
        scale = u.p * x0 ** (1.0 / u.p)
        return delta_estimate(
            [v], lambda m: scale * m[0] ** (1.0 / q),
            lambda m: np.array([scale / q * m[0] ** (1.0 / q - 1.0)]),
            name)
    # custom utility: budget bisection under the relevant measure; the
    # multiplier y solves mean(g z X*) = x0, and differentiating that
    # equation implicitly adds -y (g z X* - x0) to the influence of g U(X*)
    z = np.exp(log_z)
    y = bisect_budget(u, z, x0, weights=g)
    xs = np.asarray(ut.inverse_marginal(u, y * z))
    vals, spent = np.asarray(ut.evaluate(u, xs)), z * xs
    if g is not None:
        vals, spent = g * vals, g * spent
    return budget_estimate(vals, spent, y, name)


def value_surface(model: MarketModel, u: ut.UtilitySpec,
                  pert: PerturbationSpec, taus,
                  ensemble: PathEnsemble) -> list[SurfaceRow]:
    """Weak and strong values over a tau grid, one path pass in total."""
    taus = [float(t) for t in taus]
    check_experiment(model, u, pert, taus, ensemble.grid)
    regimes = pert.regimes(model, ensemble.grid)
    s = path_sums(ensemble, regimes, surface_sums(
        model, u, pert, taus, regimes, mpr_table(model, regimes)))
    return surface_rows(model, u, taus, s)
