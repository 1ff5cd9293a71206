"""Static optimizer: closed-form values, budgets and multipliers.

Frozen constants come from scripts/derive_oracles.py.
"""

import math

import numpy as np
import pytest

from portsens import utility
from portsens.estimate import ConfigError
from portsens.market import MarketModel, constant, indicator, piecewise
from portsens.modular import density_logs
from portsens.paths import PathEnsemble, TimeGrid
from portsens.solver import (bisect_budget, check_dual_optimizer,
                             optimal_terminal_wealth, value_closed_form)
from portsens.utility import (custom_utility, derivative, inverse_marginal,
                              log_utility, power_utility, sqrt_utility)
from portsens.valuation import PerturbationSpec, value_surface


@pytest.fixture(scope="module")
def unit_model():
    """lambda = 1: mu = sigma = 1, r = 0."""
    return MarketModel(d=1, n=1, mu=constant([1.0]), sigma=constant([[1.0]]))


@pytest.fixture(scope="module")
def unit_ens():
    return PathEnsemble(TimeGrid(1.0, 128), n=1, count=40000, seed=301)


def solve(model, u, ens):
    # the nu = 0 density row, as the norms command feeds the solver
    logz = density_logs(model, (constant(np.zeros(model.n)),), ens)[0]
    return optimal_terminal_wealth(model, u, logz), np.exp(logz)


def static_value(model, u, ens):
    # the strong value at tau = 0 is the static optimum on the base paths
    pert = PerturbationSpec(dmu=constant([0.0] * model.d))
    row, = value_surface(model, u, pert, [0.0], ens)
    return row.strong


def test_power_p2_value_matches_oracle(unit_model, unit_ens):
    # E U(X*) = 2 e^{1/2} = 3.2974425414002564
    value = static_value(unit_model, sqrt_utility(), unit_ens)
    assert abs(value.mean - 3.2974425414002564) <= 3 * value.se
    # budget holds exactly by construction on the sample
    xstar, z = solve(unit_model, sqrt_utility(), unit_ens)
    budget = float(np.mean(z * xstar))
    assert budget == pytest.approx(1.0, abs=1e-12)
    assert np.all(xstar > 0)


def test_power_p3_value_and_multiplier(unit_model, unit_ens):
    u = power_utility(3.0)
    value = static_value(unit_model, u, unit_ens)
    assert abs(value.mean - 3.852076250063224) <= 3 * value.se
    xstar, z = solve(unit_model, u, unit_ens)
    # U'(X*) = y Zhat with y = (m0 / x0)^{1/q} on every path, where
    # m0 = E[Z^{1-q}] = 1.4549914146182013
    m0 = float(np.mean(z ** (1.0 - 1.5)))
    np.testing.assert_allclose(derivative(u, xstar) / z,
                               m0 ** (1.0 / 1.5), rtol=1e-12)
    assert abs(m0 - 1.4549914146182013) <= 0.02


def test_log_value_matches_closed_form(unit_model, unit_ens):
    value = static_value(unit_model, log_utility(), unit_ens)
    # log x0 + int r + int |lambda|^2 / 2 = 0.5, path by path once the
    # martingale term is dropped
    assert value.mean == pytest.approx(0.5, rel=1e-12)
    assert value.se == 0.0
    assert value_closed_form(unit_model, log_utility(), unit_ens.grid) \
        == pytest.approx(0.5)


def test_value_closed_form_power(det2d_model):
    value = value_closed_form(det2d_model, power_utility(3.0),
                              TimeGrid(1.0, 64))
    assert value == pytest.approx(3.1261207041437253, rel=1e-12)


def test_value_closed_form_log_adapted(switch_model, ens1d):
    # log x0 + E int 1_{W<0} dt / 2 = T/4
    value = static_value(switch_model, log_utility(), ens1d)
    assert value.mean == pytest.approx(0.25, abs=0.01)


def test_closed_form_is_the_grid_expectation():
    # breakpoints between nodes: the kernel's left-node sums, not the time
    # integrals, are what the estimators' expectation is made of
    model = MarketModel(d=1, n=1, mu=piecewise([1.0 / 3.0], [[0.3], [0.8]]),
                        sigma=constant([[0.5]]),
                        rate=piecewise([0.5], [[0.01], [0.04]]))
    ens = PathEnsemble(TimeGrid(1.0, 64), n=1, count=500, seed=306)
    value = static_value(model, log_utility(), ens)
    assert value.se == 0.0
    assert value.mean == pytest.approx(
        value_closed_form(model, log_utility(), ens.grid), rel=1e-12)


@pytest.mark.parametrize("case", ["adapted-power", "custom"])
def test_value_closed_form_refusals(case, switch_model, unit_model):
    x = np.linspace(1e-6, 400.0, 100)
    model, u, message = {
        "adapted-power": (switch_model, power_utility(3.0),
                          "closed forms need deterministic coefficients"),
        "custom": (unit_model, custom_utility(x, 2.0 * np.sqrt(x)),
                   "no closed form for utility 'custom'")}[case]
    with pytest.raises(RuntimeError, match=message):
        value_closed_form(model, u, grid=TimeGrid(1.0, 64))


def test_custom_utility_budget_bisection(unit_model):
    # the table's inverse marginal is a closed-form root per cubic piece
    ens = PathEnsemble(TimeGrid(1.0, 64), n=1, count=2000, seed=305)
    x = np.linspace(1e-6, 400.0, 6000)
    table = custom_utility(x, 2.0 * np.sqrt(x))
    value = static_value(unit_model, table, ens)
    exact = static_value(unit_model, sqrt_utility(), ens)
    # same market and paths, nearly the same optimum: the gap is table
    # accuracy (1.3e-3 here), not Monte Carlo noise (se/mean 1.4e-2)
    assert value.mean == pytest.approx(exact.mean, rel=5e-3)
    assert abs(value.mean - 2.0 * math.exp(0.5)) <= 3 * value.se


def test_bisect_budget_brackets_extreme_budgets(rng):
    zhat = np.exp(rng.normal(size=2000) * 0.3)
    for x0 in (1e-6, 1.0, 1e6):
        y = bisect_budget(sqrt_utility(), zhat, x0)
        xs = inverse_marginal(sqrt_utility(), y * zhat)
        assert float(np.mean(zhat * xs)) == pytest.approx(x0, rel=1e-9)


# multipliers that geometric bisection to relative width 1e-12 finds on the
# 2 sqrt(x) table below, by (x0, weighted)
_TABLE_MULTIPLIERS = {(1.0, False): 1.0448286061891312,
                      (0.01, True): 10.576235497338054,
                      (50.0, False): 0.14776100896132974}


@pytest.mark.parametrize("x0, weighted", sorted(_TABLE_MULTIPLIERS))
def test_bisect_budget_needs_few_budget_evaluations(x0, weighted,
                                                     monkeypatch):
    # the log-spaced 801-row table of the custom-utility benchmark
    x = 10.0 ** np.linspace(-4.0, 4.0, 801)
    table = custom_utility(x, 2.0 * np.sqrt(x))
    zhat = np.exp(np.linspace(-1.0, 1.0, 30) ** 3)
    w = 1.0 + 0.5 * np.cos(np.arange(30.0)) if weighted else None
    calls = []

    def counted(u, y):
        calls.append(1)
        return inverse_marginal(u, y)

    # each budget evaluation is one inverse_marginal call
    monkeypatch.setattr(utility, "inverse_marginal", counted)
    y = bisect_budget(table, zhat, x0, weights=w)
    assert y == pytest.approx(_TABLE_MULTIPLIERS[x0, weighted], rel=1e-12)
    assert len(calls) <= 20


def test_dual_optimizer_needs_deterministic_directions():
    # n > d: the market and every direction given must be deterministic;
    # n == d: anything adapted is solved
    incomplete = MarketModel(d=1, n=2, mu=constant([0.06]),
                             sigma=constant([[0.2, 0.0]]))
    det = PerturbationSpec(dmu=constant([0.1]), drate=constant([0.01]))
    adapted = PerturbationSpec(dmu=indicator(1, 0.0, [0.0], [0.1]))
    check_dual_optimizer(incomplete, *det.directions)
    with pytest.raises(ConfigError, match="incomplete market"):
        check_dual_optimizer(incomplete, *adapted.directions)
    complete = MarketModel(d=1, n=1, mu=indicator(0, 0.0, [0.0], [0.5]),
                           sigma=constant([[1.0]]))
    check_dual_optimizer(complete, *adapted.directions)


def test_state_price_density_mean_one(unit_model, unit_ens):
    z = np.exp(density_logs(unit_model, (constant([0.0]),), unit_ens)[0])
    se = float(np.std(z)) / math.sqrt(unit_ens.count)
    assert abs(float(np.mean(z)) - 1.0) <= 3 * se


def test_deterministic_mpr_integral(det2d_model):
    # log x0 + int r + |lambda|^2 / 2, lambda from scripts/derive_oracles.py
    lam = np.array([0.2833333333333333, 0.26666666666666666])
    grid = TimeGrid(1.0, 64)
    assert value_closed_form(det2d_model, log_utility(), grid) \
        == pytest.approx(0.01 + 0.5 * float(lam @ lam), rel=1e-12)
    # piecewise rate shifts lambda segment by segment; the break at 0.5 is
    # a node, so the left-node sums are the time integrals
    model = MarketModel(d=1, n=1, mu=constant([0.1]),
                        sigma=constant([[0.5]]),
                        rate=piecewise([0.5], [[0.0], [0.05]]))
    expect = (0.05 * 0.5 + 0.5 * ((0.1 / 0.5) ** 2 * 0.5
                                  + (0.05 / 0.5) ** 2 * 0.5))
    assert value_closed_form(model, log_utility(), grid) \
        == pytest.approx(expect, rel=1e-12)
