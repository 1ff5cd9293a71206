"""Weak and strong perturbed values: coincidences, curves, refusals."""

import csv
import math

import numpy as np
import pytest

from portsens.cli import SURFACE_HEADER, main
from portsens.estimate import ConfigError, combine_linear
from portsens.market import MarketModel, constant, indicator
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import sensitivity_pair
from portsens.utility import custom_utility, log_utility, power_utility
from portsens.valuation import PerturbationSpec, value_surface

UNIT_DRIFT = PerturbationSpec(dmu=constant([1.0]))


@pytest.fixture(scope="module")
def switch_ens():
    """Finer grid than the shared fixtures: the indicator coefficient has an
    O(N^-1/2) occupation-time bias, kept below the test allowance here."""
    return PathEnsemble(TimeGrid(1.0, 400), n=1, count=30000, seed=401)


def test_perturbation_spec_validation():
    with pytest.raises(ConfigError, match="dlambda excludes coefficient"):
        PerturbationSpec(dmu=constant([1.0]), dlambda=constant([1.0]))
    with pytest.raises(ConfigError, match="needs at least one direction"):
        PerturbationSpec()
    spec = PerturbationSpec(dmu=constant([0.1, 0.2]),
                            drate=constant([0.01]))
    assert spec.label == "dmu+drate"
    named = PerturbationSpec(dmu=constant([1.0]), label="bump")
    assert named.label == "bump"


def test_perturbation_shape_check(det2d_model):
    ok = PerturbationSpec(dmu=constant([0.04, 0.02]),
                          dsigma=constant([[0.1, 0.0], [0.0, 0.1]]),
                          drate=constant([0.01]))
    ok.validate_for(det2d_model)
    for bad, name in ((PerturbationSpec(dmu=constant([0.04])), "dmu"),
                      (PerturbationSpec(dsigma=constant([[0.1, 0.0]])),
                       "dsigma"),
                      (PerturbationSpec(drate=constant([0.01, 0.02])),
                       "drate"),
                      (PerturbationSpec(dlambda=constant([[1.0, 0.0]])),
                       "dlambda")):
        with pytest.raises(ConfigError, match=f"^{name} must have shape"):
            bad.validate_for(det2d_model)


@pytest.mark.parametrize("make_u", [
    log_utility,
    lambda: power_utility(3.0),
    lambda: custom_utility(np.linspace(1e-6, 60.0, 3000),
                           2.0 * np.sqrt(np.linspace(1e-6, 60.0, 3000))),
], ids=["log", "power", "custom"])
def test_weak_equals_strong_at_tau_zero(switch_model, make_u):
    # the tilt weight is exp(0) path by path, so the two estimators share
    # every intermediate array, not just the limit
    ens = PathEnsemble(TimeGrid(1.0, 32), n=1, count=2000, seed=402)
    row, = value_surface(switch_model, make_u(), UNIT_DRIFT, [0.0], ens)
    w, s = row.weak, row.strong
    assert w.mean == s.mean
    assert w.se == s.se
    np.testing.assert_array_equal(w.influence, s.influence)


def test_deterministic_market_values_match_closed_form(det2d_model):
    # constant coefficients: R, Q are exact at any step count and the weak
    # and strong values share one closed-form limit
    mu = np.array([0.08, 0.05])
    sigma = np.array([[0.2, 0.05], [0.0, 0.15]])
    dmu = np.array([0.04, 0.02])
    r, dr, p, T = 0.01, 0.01, 3.0, 1.0
    q = p / (p - 1.0)
    pert = PerturbationSpec(dmu=constant(dmu), drate=constant([dr]))
    ens = PathEnsemble(TimeGrid(T, 32), n=2, count=40000, seed=403)
    taus = [0.0, 0.1, 0.2]
    rows = value_surface(det2d_model, power_utility(p), pert, taus, ens)
    for row in rows:
        lam = np.linalg.solve(sigma, mu + row.tau * dmu - (r + row.tau * dr))
        expect = p * math.exp((r + row.tau * dr) * T / p) \
            * math.exp((q - 1.0) / 2.0 * float(lam @ lam) * T)
        assert abs(row.weak.mean - expect) < 3.0 * row.weak.se
        assert abs(row.strong.mean - expect) < 3.0 * row.strong.se
        gap = combine_linear([row.weak, row.strong], [1.0, -1.0], "gap")
        assert abs(gap.mean) < 3.0 * gap.se + 1e-12
    assert rows[0].weak.mean == pytest.approx(3.1261207041437253, abs=0.02)


def test_switch_market_weak_curve(switch_model, switch_ens):
    # occupation-time closed form: u_w = (tau + 1/2) int Phi(-tau sqrt(s)) ds
    #                                    + tau^2 T / 2
    oracle = {0.0: 0.25, 0.05: 0.2689378861884327,
              0.1: 0.2890582493934509, 0.2: 0.3329136896628353,
              0.3: 0.3817382182559083}
    taus = sorted(oracle)
    rows = value_surface(switch_model, log_utility(), UNIT_DRIFT, taus,
                         switch_ens)
    for row in rows:
        tol = 3.0 * row.weak.se + 0.005
        assert abs(row.weak.mean - oracle[row.tau]) < tol, row.tau


def test_switch_market_strong_curve_and_gap(switch_model, switch_ens):
    rows = value_surface(switch_model, log_utility(), UNIT_DRIFT,
                         [0.05, 0.1, 0.2], switch_ens)
    for row in rows:
        tau = row.tau
        expect_strong = (0.5 + tau) * 0.5 + tau * tau * 0.5
        tol = 3.0 * row.strong.se + 0.005
        assert abs(row.strong.mean - expect_strong) < tol
        # the measure tilt pushes paths away from the high-reward region,
        # so the weak value sits strictly below the strong one
        gap = combine_linear([row.weak, row.strong], [1.0, -1.0], "gap")
        occ = {0.05: 0.2689378861884327 - 0.27625,
               0.1: 0.2890582493934509 - 0.305,
               0.2: 0.3329136896628353 - 0.37}[tau]
        assert gap.mean < 0.0
        assert abs(gap.mean - occ) < 3.0 * gap.se + 0.002


def test_weight_mean_tracks_unit_expectation(switch_model, switch_ens):
    rows = value_surface(switch_model, log_utility(), UNIT_DRIFT, [0.0, 0.2],
                         switch_ens)
    assert rows[0].weight_mean == 1.0
    # E[G] = 1 exactly, also in discrete time
    assert rows[1].weight_mean == pytest.approx(1.0, abs=0.02)


def test_log_deterministic_strong_has_zero_variance(det2d_model, ens2d):
    pert = PerturbationSpec(dmu=constant([0.04, 0.02]))
    rows = value_surface(det2d_model, log_utility(), pert, [0.0, 0.1], ens2d)
    mu = np.array([0.08, 0.05])
    sigma = np.array([[0.2, 0.05], [0.0, 0.15]])
    for row in rows:
        lam = np.linalg.solve(sigma, mu + row.tau * np.array([0.04, 0.02])
                              - 0.01)
        expect = 0.01 + 0.5 * float(lam @ lam)
        assert row.strong.se == 0.0
        assert row.strong.mean == pytest.approx(expect, rel=1e-12)
    assert rows[1].weak.se > 0.0


def test_kernel_breaking_volatility_refused(ens1d):
    model = MarketModel(d=1, n=2, mu=constant([0.06]),
                        sigma=constant([[1.0, 0.0]]))
    rotate = PerturbationSpec(dsigma=constant([[0.0, 1.0]]))
    with pytest.raises(ConfigError, match="kernel preserved: False"):
        value_surface(model, log_utility(), rotate, [0.0, 0.5], ens1d)
    stretch = PerturbationSpec(dsigma=constant([[0.5, 0.0]]))
    rows = value_surface(model, log_utility(), stretch, [0.0, 0.5], ens1d)
    assert rows[1].strong.mean < rows[0].strong.mean  # lambda shrinks


def test_incomplete_adapted_market_refused(ens1d, generated):
    # one admission check before every pass: the closed-form
    # sensitivities refuse what the value surface refuses, and neither
    # draws a path first
    model = MarketModel(d=1, n=2, mu=indicator(0, 0.0, [0.0], [0.5]),
                        sigma=constant([[1.0, 0.0]]))
    pert = PerturbationSpec(dmu=constant([0.1]))
    with pytest.raises(ConfigError, match="incomplete"):
        value_surface(model, log_utility(), pert, [0.0, 0.1], ens1d)
    with pytest.raises(ConfigError, match="incomplete"):
        sensitivity_pair(model, power_utility(3.0), pert, ens1d)
    assert sum(generated) == 0


def test_custom_table_x0_refused_before_the_pass(generated):
    # the multiplier search starts at U'(x0), so the table must hold x0
    x = np.linspace(1e-6, 60.0, 500)
    model = MarketModel(d=1, n=1, mu=constant([0.1]),
                        sigma=constant([[0.2]]), x0=100.0)
    ens = PathEnsemble(TimeGrid(1.0, 16), n=1, count=200, seed=1)
    with pytest.raises(ConfigError,
                       match=r"x0 = 100: x outside the table range"):
        value_surface(model, custom_utility(x, 2.0 * np.sqrt(x)),
                      PerturbationSpec(dmu=constant([0.01])), [0.0, 0.1],
                      ens)
    assert sum(generated) == 0


def test_surface_csv_round_trip(tmp_path, switch_model):
    ens = PathEnsemble(TimeGrid(1.0, 16), n=1, count=500, seed=405)
    rows = value_surface(switch_model, power_utility(2.0), UNIT_DRIFT,
                         [0.0, 0.37, 1.25], ens)
    config = tmp_path / "switch.ini"
    config.write_text(
        "[market]\nd = 1\nn = 1\nmu = ind:j=0;c=0.0;lo=[0.0];hi=[1.0]\n"
        "sigma = const:[1.0]\n[utility]\nspec = power:p=2\n"
        "[perturbation]\ndmu = const:[1.0]\ntaus = 0.0,0.37,1.25\n"
        "[mc]\npaths = 500\nsteps = 16\nhorizon = 1.0\nseed = 405\n")
    assert main(["value", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "surface.csv"
    header = path.read_text().splitlines()[0]
    assert header.split(",") == SURFACE_HEADER
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 3
    for rec, row in zip(back, rows):
        assert float(rec["tau"]) == row.tau
        assert float(rec["u_weak"]) == row.weak.mean
        assert float(rec["se_strong"]) == row.strong.se
        assert float(rec["weight_mean"]) == row.weight_mean
        assert int(rec["seed"]) == ens.seed
