"""Closed-form sensitivities against oracles, differences and each other."""

import tracemalloc

import numpy as np
import pytest

from portsens import sensitivity
from portsens.cli import load_config
from portsens.estimate import Check, ConfigError, combine_linear, mean_estimate
from portsens.market import MarketModel, constant, dlambda_direction
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import (_example1_model, example1_report,
                                  example2_reports, fd_sensitivity,
                                  residual_decay, sensitivity_pair,
                                  sensitivity_reports)
from portsens.utility import custom_utility, log_utility, power_utility
from portsens.valuation import PerturbationSpec, SurfaceRow, value_surface

DMU2 = constant([0.04, 0.02])
DRATE = constant([0.01])
UNIT_DRIFT = PerturbationSpec(dmu=constant([1.0]))


@pytest.fixture(scope="module")
def det_ens():
    # constant coefficients: no time-discretization error, only MC noise
    return PathEnsemble(TimeGrid(1.0, 32), n=2, count=40000, seed=501)


@pytest.fixture(scope="module")
def switch_ens():
    return PathEnsemble(TimeGrid(1.0, 400), n=1, count=30000, seed=502)


@pytest.fixture(scope="module")
def switch_model():
    from portsens.market import MarketModel, indicator
    return MarketModel(d=1, n=1, mu=indicator(0, 0.0, [0.0], [1.0]),
                       sigma=constant([[1.0]]))


def test_power_sensitivities_match_closed_form(det2d_model, det_ens):
    cases = [
        (power_utility(2.0), PerturbationSpec(dmu=DMU2),
         0.17946878014773024),
        (power_utility(3.0), PerturbationSpec(dmu=DMU2),
         0.12938666247705974),
        (power_utility(3.0), PerturbationSpec(dmu=DMU2, drate=DRATE),
         0.09725708857336034),
    ]
    for u, pert, expect in cases:
        weak, strong = sensitivity_pair(det2d_model, u, pert, det_ens)
        assert abs(weak.mean - expect) < 3.0 * weak.se, u.label
        # deterministic price of risk: the two sensitivities coincide
        assert abs(strong.mean - expect) < 3.0 * strong.se, u.label
        gap = combine_linear([weak, strong], [1.0, -1.0], "gap")
        assert abs(gap.mean) < 3.0 * gap.se + 1e-12


def test_log_sensitivity_matches_closed_form(det2d_model, det_ens):
    pert = PerturbationSpec(dmu=DMU2, drate=DRATE)
    weak, strong = sensitivity_pair(det2d_model, log_utility(), pert, det_ens)
    expect = 0.06555555555555555
    assert abs(weak.mean - expect) < 3.0 * weak.se
    # strong log sensitivity integrates deterministic coefficients only
    assert strong.se == 0.0
    assert strong.mean == pytest.approx(expect, rel=1e-12)


def test_zero_direction_gives_zero_sensitivity(det2d_model, det_ens):
    pert = PerturbationSpec(dmu=constant([0.0, 0.0]))
    for u in (log_utility(), power_utility(3.0)):
        weak, strong = sensitivity_pair(det2d_model, u, pert, det_ens)
        assert (weak.mean, weak.se) == (0.0, 0.0)
        assert (strong.mean, strong.se) == (0.0, 0.0)


def test_coefficient_and_mpr_directions_agree_pathwise(det2d_model, det_ens):
    # the chain rule through the price of risk is evaluated node by node;
    # feeding the resulting vector back as a direct direction must
    # reproduce the estimates bit for bit, influence vectors included
    pert = PerturbationSpec(dmu=DMU2,
                            dsigma=constant([[0.02, 0.01], [0.0, 0.03]]))
    vals = dlambda_direction(det2d_model, pert.dmu, pert.dsigma,
                             pert.regimes(det2d_model, det_ens.grid))
    assert vals.shape == (1, 2)
    direct = PerturbationSpec(dlambda=constant(vals[0]))
    for u in (log_utility(), power_utility(3.0)):
        wa, sa = sensitivity_pair(det2d_model, u, pert, det_ens)
        wb, sb = sensitivity_pair(det2d_model, u, direct, det_ens)
        assert wa.mean == wb.mean and sa.mean == sb.mean
        np.testing.assert_array_equal(wa.influence, wb.influence)
        np.testing.assert_array_equal(sa.influence, sb.influence)


@pytest.mark.parametrize("side", ["weak", "strong"])
def test_formula_matches_finite_difference_power(det2d_model, det_ens, side):
    pert = PerturbationSpec(dmu=DMU2, drate=DRATE)
    (weak, strong), _ = sensitivity_reports(det2d_model, power_utility(3.0),
                                            pert, det_ens)
    rep = weak if side == "weak" else strong
    assert rep.side == side
    assert rep.check.passed, rep.check.line()
    assert rep.check.error <= rep.check.bound


@pytest.mark.parametrize("side", ["weak", "strong"])
def test_formula_matches_finite_difference_adapted(switch_model, switch_ens,
                                                   side):
    (weak, strong), _ = sensitivity_reports(switch_model, log_utility(),
                                            UNIT_DRIFT, switch_ens)
    rep = weak if side == "weak" else strong
    assert rep.check.passed, rep.check.line()


def test_fd_correction_vanishes_on_quadratic_curve(det2d_model, det_ens):
    pert = PerturbationSpec(dmu=DMU2)
    rows = value_surface(det2d_model, log_utility(), pert,
                         [-0.2, -0.1, 0.1, 0.2], det_ens)
    _, (fd, correction) = fd_sensitivity(rows, (0.2, 0.1), pert.label)
    assert fd.estimator == "richardson[strong,dmu]"
    # deterministic log curve is exactly quadratic in tau, so the central
    # differences already equal the slope and the correction is tiny
    assert abs(correction) < 1e-12


def test_sensitivity_pair_refuses_a_direction_that_breaks_the_kernel(
        generated):
    # with no tau to check, the formulas alone need ker sigma in ker dsigma
    # at every small tau: the rotation is refused before any path is drawn,
    # while dsigma = -sigma, whose sigma + dsigma vanishes, keeps the
    # kernel at every tau < 1 and is valued: lambda^tau = 0.05 / (1 - tau),
    # so the strong log sensitivity int lambda Dlambda dt is 0.05^2
    model = MarketModel(d=1, n=2, mu=constant([0.05]),
                        sigma=constant([[1.0, 0.0]]))
    ens = PathEnsemble(TimeGrid(1.0, 16), n=2, count=500, seed=1)
    rotate = PerturbationSpec(dsigma=constant([[0.0, 1.0]]))
    for u in (log_utility(), power_utility(3.0)):
        with pytest.raises(ConfigError,
                           match=r"at small tau .* on t in \[0, 1\)"):
            sensitivity_pair(model, u, rotate, ens)
    assert sum(generated) == 0
    shrink = PerturbationSpec(dsigma=constant([[-1.0, 0.0]]))
    _, strong = sensitivity_pair(model, log_utility(), shrink, ens)
    assert sum(generated) == 500
    assert strong.mean == pytest.approx(0.0025, rel=1e-12)


def test_richardson_tableau_reads_every_step():
    # u(tau) = 1 + 0.7 tau + 0.3 tau^2 + 2 tau^3 + 5 tau^4 + 9 tau^5 + 4 tau^6
    # with one noise vector shared by every tau: the central difference at
    # h is 0.7 + 2 h^2 + 9 h^4, so three steps remove both error terms,
    # where the two finest alone leave -2.25e-4
    coeffs = (1.0, 0.7, 0.3, 2.0, 5.0, 9.0, 4.0)
    noise = np.random.default_rng(7).normal(size=1000)
    rows = []
    for tau in (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2):
        value = sum(c * tau ** k for k, c in enumerate(coeffs))
        est = mean_estimate(value + noise, f"u[{tau:g}]")
        rows.append(SurfaceRow(tau=tau, weak=est, strong=est,
                               weight_mean=1.0))
    (weak, _), (strong, _) = fd_sensitivity(rows, (0.2, 0.1, 0.05), "poly")
    assert abs(weak.mean - 0.7) < 1e-12 and abs(strong.mean - 0.7) < 1e-12
    (two, _), _ = fd_sensitivity(rows, (0.1, 0.05), "poly")
    assert two.mean - 0.7 == pytest.approx(-2.25e-4, rel=1e-6)


def test_custom_utility_rate_direction_refused(det2d_model, det_ens):
    x = np.linspace(1e-6, 60.0, 500)
    table = custom_utility(x, 2.0 * np.sqrt(x))
    pert = PerturbationSpec(dmu=DMU2, drate=DRATE)
    with pytest.raises(ConfigError, match="rate directions need power or "
                       "log utility"):
        sensitivity_pair(det2d_model, table, pert, det_ens)


def test_example1_sign_switching_gap():
    rep = example1_report(T=1.0, M=30000, N=300, seed=503)
    assert rep.expected_strong == 0.5
    assert rep.expected_weak == pytest.approx(0.3670192398661891, rel=1e-12)
    assert abs(rep.strong.mean - 0.5) < 3.0 * rep.strong.se + 0.005
    assert abs(rep.weak.mean - rep.expected_weak) < 3.0 * rep.weak.se + 0.01
    assert rep.gap.mean < 0.0
    assert Check("gap", "below", rep.gap.mean, 0.0, 5.0, rep.gap.se).passed
    assert abs(rep.gap.mean - rep.expected_gap) < 3.0 * rep.gap.se + 0.01


def test_long_path_pass_holds_only_small_blocks():
    # increments, paths, regime codes and flags and the price-of-risk slot
    # of a path of 2000 steps take 52 kB, so a default block holds 40 of
    # them: the pass keeps one 2 MB scratch set, not 64 MB arrays of all
    # paths
    model, pert = _example1_model()
    ens = PathEnsemble(TimeGrid(1.0, 2000), n=1, count=4000, seed=505)
    tracemalloc.start()
    try:
        weak, strong = sensitivity_pair(model, log_utility(), pert, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert weak.mean < strong.mean


def test_example2_discrepancy():
    det, adapted = example2_reports(T=1.0, M=30000, N=500, seed=504)
    # deterministic price of risk: the functional vanishes identically
    assert Check("det", "sigmas", det.mean, 0.0, 3.0, det.se).sigmas < 3.0
    # adapted price of risk: strictly positive obstruction
    assert adapted.mean > 0.0
    assert Check("adapted", "above", adapted.mean, 0.0, 5.0,
                 adapted.se).passed
    # independent Euler estimate at N=1000 sits at 0.3841 +- 0.0023; the
    # N=500 grid carries a visible positive step bias, allowed for here
    assert abs(adapted.mean - 0.3841250605911561) \
        < 3.0 * adapted.se + 0.02


def decay_inputs(monkeypatch, *args, **kwargs):
    """The (eps, base, curve, deriv, label) of every ``residual_decay`` call
    that ``sensitivity_reports(*args, **kwargs)`` makes, in call order
    (weak +eps, weak -eps, strong +eps, strong -eps), and its decay
    reports."""
    calls, decay = [], sensitivity.residual_decay

    def recorded(*call):
        calls.append(call)
        return decay(*call)

    monkeypatch.setattr(sensitivity, "residual_decay", recorded)
    _, decays = sensitivity_reports(*args, **kwargs)
    assert [call[4] for call in calls] == ["[weak, +eps]", "[weak, -eps]",
                                          "[strong, +eps]", "[strong, -eps]"]
    return calls, decays


def test_second_order_check_fails_an_off_derivative_on_a_convex_curve(
        det2d_model, monkeypatch):
    # both deterministic2d curves lie above their tangents on both sides;
    # each decay check fits |residual| and still fails a derivative 0.05
    # off, whose residual turns first order
    u, pert = power_utility(3.0), PerturbationSpec(dmu=DMU2, drate=DRATE)
    ens = PathEnsemble(TimeGrid(1.0, 32), n=2, count=2000, seed=11)
    calls, decays = decay_inputs(monkeypatch, det2d_model, u, pert, ens,
                                 eps=(0.2, 0.1, 0.05, 0.025))
    for (eps, base, curve, deriv, label), rep in zip(calls, decays):
        assert eps == (0.025, 0.05, 0.1, 0.2)
        assert all(v - base - e * deriv > 0.0 for e, v in zip(eps, curve))
        assert not rep.vacuous and rep.check.passed and 1.9 < rep.slope < 2.1
        off = residual_decay(eps, base, curve, deriv - 0.05, label)
        assert not off.vacuous and not off.check.passed
        assert 0.9 < off.slope < 1.2


def test_second_order_check_refuses_bad_steps(switch_model, generated):
    # the difference steps, which the decay checks read too, are refused
    # before any path is drawn
    ens = PathEnsemble(TimeGrid(1.0, 8), n=1, count=10, seed=1)
    for eps in ((0.0, 0.1), (-0.1, 0.2), (0.1,), (0.1, 0.1)):
        with pytest.raises(ConfigError, match="positive step"):
            sensitivity_reports(switch_model, log_utility(), UNIT_DRIFT, ens,
                                eps=eps)
    assert sum(generated) == 0


def test_second_order_check_fails_with_an_off_derivative(switch_model,
                                                         monkeypatch):
    # at T = 4 the weak curve bends below its tangent on both sides, so no
    # decay check is vacuous; handed a derivative 0.05 off, the weak
    # residual turns first order and the fitted slope drops to about 1
    ens = PathEnsemble(TimeGrid(4.0, 400), n=1, count=30000, seed=505)
    calls, decays = decay_inputs(monkeypatch, switch_model, log_utility(),
                                 UNIT_DRIFT, ens,
                                 eps=(0.00625, 0.0125, 0.025, 0.05))
    assert all(not rep.vacuous and rep.check.passed for rep in decays)
    for eps, base, curve, deriv, label in calls[:2]:
        assert all(v - base - e * deriv < 0.0 for e, v in zip(eps, curve))
        off = residual_decay(eps, base, curve, deriv + 0.05, label)
        assert not off.vacuous and not off.check.passed
        assert 0.9 < off.slope < 1.2


def test_minus_eps_catches_an_off_derivative_that_plus_eps_passes(
        monkeypatch):
    # on configs/example1.ini at 2000 x 32 a weak derivative 2% high
    # leaves a first-order residual that partly cancels the curvature at
    # +eps, where the slope rises to about 3.5, and adds to it at -eps,
    # where it falls to about 1.55: only the -eps side fails it
    cfg = load_config("configs/example1.ini", {"paths": 2000, "steps": 32})
    calls, _ = decay_inputs(monkeypatch, cfg.model, cfg.utility, cfg.pert,
                            cfg.ensemble)
    plus, minus = (residual_decay(eps, base, curve, 1.02 * deriv, label)
                   for eps, base, curve, deriv, label in calls[:2])
    assert plus.check.passed and 3.3 < plus.slope < 3.7
    assert not minus.check.passed and 1.4 < minus.slope < 1.7


def test_second_order_report_slope_threshold():
    # residuals -eps^k decay with slope k; residuals below the floor leave
    # the check vacuous, which passes
    eps = (0.05, 0.1)
    for k, ok in ((2.0, True), (1.9, True), (1.2, False)):
        rep = residual_decay(eps, 0.0, [-e ** k for e in eps], 0.0, "[k]")
        assert not rep.vacuous and rep.slope == pytest.approx(k)
        assert rep.check.passed == ok
    rep = residual_decay(eps, 1.0, [1.0, 1.0], 0.0, "[flat]")
    assert rep.vacuous and rep.check.passed


def test_gap_report_sides(det2d_model, det_ens, switch_model, switch_ens):
    weak, strong = sensitivity_pair(switch_model, log_utility(), UNIT_DRIFT,
                                    switch_ens)
    gap = combine_linear([weak, strong], [1.0, -1.0], "gap")
    assert gap.mean < 0.0
    assert Check("gap", "below", gap.mean, 0.0, 5.0, gap.se).passed
    assert abs(gap.mean - -0.13298076013381088) < 3.0 * gap.se + 0.01
    weak, strong = sensitivity_pair(det2d_model, log_utility(),
                                    PerturbationSpec(dmu=DMU2), det_ens)
    gap = combine_linear([weak, strong], [1.0, -1.0], "gap")
    assert abs(gap.mean) <= 3.0 * gap.se + 1e-12


def test_sensitivity_demo_fails_a_gap_beyond_three_se():
    # sens decides its deterministic weak - strong contrast with a check
    # of the paired estimate it prints within 3 sigma of 0; at se = 0 only
    # a zero gap agrees
    for gap, se, ok in ((0.29, 0.1, True), (-0.29, 0.1, True),
                        (0.31, 0.1, False), (-0.31, 0.1, False),
                        (1e-3, 0.0, False), (0.0, 0.0, True)):
        check = Check("weak - strong", "sigmas", gap, 0.0, 3.0, se)
        assert check.passed == ok
