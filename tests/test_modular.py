"""Budget and dual modulars, their norms, and the Hölder pairing."""

import math

import numpy as np
import pytest

from portsens.estimate import ConfigError
from portsens.market import MarketModel, constant, indicator
from portsens.modular import (_MAX_ITER, _REL_TOL, HolderReport, amemiya_norm,
                              density_logs, holder_check, j_evaluator,
                              j_functional, luxemburg_norm, norm_I, norm_J)
from portsens.paths import PathEnsemble, TimeGrid
from portsens.solver import optimal_terminal_wealth
from portsens.utility import evaluate, power_utility

ZERO = (constant([0.0, 0.0]),)  # the family of the zero direction alone


@pytest.fixture(scope="module")
def mod_model():
    # one traded asset on two noises: the second coordinate spans the
    # volatility null space, so constant [0, c] directions are admissible
    return MarketModel(d=1, n=2, mu=constant([0.06]),
                       sigma=constant([[0.2, 0.0]]))


@pytest.fixture(scope="module")
def mod_ens():
    return PathEnsemble(TimeGrid(1.0, 64), n=2, count=40000, seed=601)


@pytest.fixture(scope="module")
def logs3(mod_model, mod_ens):
    # density samples of a three-member family, read with p = 3
    fam = ZERO + (constant([0.0, 0.3]), constant([0.0, -0.5]))
    return density_logs(mod_model, fam, mod_ens)


@pytest.fixture(scope="module")
def opt3(mod_model, logs3, mod_ens):
    # the zero member's samples are the minimal-measure pricing density
    return optimal_terminal_wealth(mod_model, power_utility(3.0), logs3[0])


def test_kernel_violation_rejected(mod_model, mod_ens):
    with pytest.raises(ConfigError, match="null space"):
        density_logs(mod_model, (constant([0.1, 0.0]),), mod_ens)
    # a member that leaves the null space only on {W^0 < -3} is refused
    # before any path is drawn, whether or not a path would get there
    rare = indicator(0, -3.0, [0.0, 0.2], [0.1, 0.2])
    with pytest.raises(ConfigError, match=r"W\^0 in \[-inf, -3\)"):
        density_logs(mod_model, (rare,), PathEnsemble(
            TimeGrid(1.0, 8), n=2, count=2, seed=1))


def test_budget_identity_at_optimal_payoff(mod_model, mod_ens, logs3, opt3):
    z = np.asarray(evaluate(power_utility(3.0), opt3))
    # single zero member: J inverts the utility and reprices the budget,
    # which the multiplier bisection pinned at x0 on these very samples
    j0 = j_functional(z, 3.0, density_logs(mod_model, ZERO, mod_ens))
    assert abs(j0.mean - mod_model.x0) < 1e-9 * (1.0 + mod_model.x0)
    assert j0.estimator == "j[nu=0]"
    # the optimal payoff is replicable, so every member prices it at x0
    # and the maximum sits within Monte Carlo noise of the budget
    j = j_functional(z, 3.0, logs3)
    assert abs(j.mean - mod_model.x0) < 3.0 * j.se
    # the maximizing member's own estimate comes back unchanged; U^{-1}(z)
    # = (z / p)^p is the optimal wealth itself
    member = int(j.estimator[len("j[nu="):-1])
    wealth = (np.abs(z) / 3.0) ** 3.0
    assert wealth == pytest.approx(opt3, rel=1e-12)
    assert j.mean == float(np.mean(np.exp(logs3[member]) * wealth))


def test_luxemburg_closed_form(logs3, opt3):
    # J(k U(X*)) = k^p x0 for power utility, so the Luxemburg norm of the
    # optimal payoff is exactly the p-th root of the replicated budget
    F = j_evaluator(3.0, logs3)
    z = np.asarray(evaluate(power_utility(3.0), opt3))
    budget = F(z)
    lux = luxemburg_norm(F, z)
    assert lux == pytest.approx(budget ** (1.0 / 3.0), rel=1e-9)
    assert lux == pytest.approx(1.0, abs=0.02)


def test_amemiya_closed_form(mod_model, mod_ens):
    for p, expect in ((2.0, 2.0), (3.0, 1.8898815748423097)):
        u = power_utility(p)
        q = p / (p - 1.0)
        logs = density_logs(mod_model, ZERO, mod_ens)
        xstar = optimal_terminal_wealth(mod_model, u, logs[0])
        z = np.asarray(evaluate(u, xstar))
        F = j_evaluator(p, logs)
        budget = F(z)
        am = amemiya_norm(F, z)
        # min over k of (1 + k^p b) / k = q (p-1)^{1/p} b^{1/p}
        assert am == pytest.approx(q * (p - 1.0) ** (1.0 / p)
                                   * budget ** (1.0 / p), rel=1e-9)
        assert am == pytest.approx(expect, abs=0.02)
        # k = 1 gives the budget-set bound, tight exactly at p = 2
        assert am <= 1.0 + budget + 1e-9
        lux = luxemburg_norm(F, z)
        assert am / lux == pytest.approx(q * (p - 1.0) ** (1.0 / p),
                                         rel=1e-9)


def test_norms_match_lognormal_moments(logs3, opt3):
    zhat = np.exp(logs3[0])
    # E[Zhat] = 1 and E[Zhat X*^3] = exp(0.2025) for lambda = 0.3, T = 1
    assert norm_I(zhat, 3.0, logs3) == pytest.approx(1.0, abs=0.02)
    assert norm_J(opt3, 3.0, logs3) \
        == pytest.approx(1.2244600851219147, abs=0.02)


def test_norm_homogeneity(mod_ens, logs3, rng):
    z = rng.lognormal(size=mod_ens.count)
    assert norm_I(3.0 * z, 3.0, logs3) \
        == pytest.approx(3.0 * norm_I(z, 3.0, logs3), rel=1e-12)
    assert norm_J(3.0 * z, 3.0, logs3) \
        == pytest.approx(3.0 * norm_J(z, 3.0, logs3), rel=1e-12)
    F = j_evaluator(3.0, logs3)
    assert luxemburg_norm(F, 2.0 * z) \
        == pytest.approx(2.0 * luxemburg_norm(F, z), rel=1e-9)
    assert amemiya_norm(F, 2.0 * z) \
        == pytest.approx(2.0 * amemiya_norm(F, z), rel=1e-9)


def test_luxemburg_triangle_inequality(mod_ens, logs3, rng):
    F = j_evaluator(3.0, logs3)
    a = rng.lognormal(size=mod_ens.count)
    b = np.abs(rng.normal(size=mod_ens.count)) * 2.0
    lhs = luxemburg_norm(F, a + b)
    assert lhs <= (luxemburg_norm(F, a) + luxemburg_norm(F, b)) * (1 + 1e-9)


def test_holder_inequality_on_random_pairs(mod_ens, logs3, rng):
    for _ in range(20):
        y = rng.lognormal(sigma=0.8, size=mod_ens.count)
        z = rng.normal(size=mod_ens.count) * rng.lognormal(
            sigma=0.5, size=mod_ens.count)
        rep = holder_check(y, z, 3.0, logs3)
        assert rep.check.passed
        assert rep.check.passed
    assert isinstance(rep, HolderReport)


def test_zero_payoff(mod_ens, logs3):
    zero = np.zeros(mod_ens.count)
    F = j_evaluator(3.0, logs3)
    assert luxemburg_norm(F, zero) == 0.0
    assert amemiya_norm(F, zero) == 0.0
    assert j_functional(zero, 3.0, logs3).mean == 0.0
    assert norm_I(zero, 3.0, logs3) == 0.0


def test_divergent_moments_raise(mod_ens, logs3):
    huge = np.full(mod_ens.count, 1e308)
    with pytest.raises(RuntimeError, match="q-moment diverges"):
        norm_I(huge, 3.0, logs3)
    with pytest.raises(RuntimeError, match="p-moment diverges"):
        norm_J(huge, 3.0, logs3)


def test_degenerate_modulars_raise(mod_ens):
    z = np.ones(mod_ens.count)
    with pytest.raises(RuntimeError, match="no finite scale"):
        luxemburg_norm(lambda v: 2.0, z)
    with pytest.raises(RuntimeError, match="interior"):
        amemiya_norm(lambda v: 0.0, z)


def doubled_luxemburg(F, Z) -> float:
    """The Luxemburg norm with its bracket from doubling 1 until F <= 1 and
    then halving from half that scale, which evaluates that half again
    after a doubling step: the reference that the one-pass bracket must
    equal bit for bit."""
    z = np.asarray(Z, dtype=float)

    def ok(beta):
        return F(z / beta) <= 1.0

    good = 1.0
    for _ in range(_MAX_ITER):
        if ok(good):
            break
        good *= 2.0
    else:
        raise RuntimeError("no finite scale brings the modular below 1")
    bad = good / 2.0
    for _ in range(_MAX_ITER):
        if not ok(bad):
            break
        good = bad
        bad /= 2.0
    else:
        return 0.0
    for _ in range(_MAX_ITER):
        mid = math.sqrt(bad * good)
        if ok(mid):
            good = mid
        else:
            bad = mid
        if good - bad <= _REL_TOL * good:
            break
    return good


@pytest.mark.parametrize("scale", [1e-6, 0.5, 1.0, 2.0, 1e6])
def test_luxemburg_bracket_evaluates_each_scale_once(scale, logs3, opt3):
    # scales above 1 double the bracket from 1, scales below halve it; the
    # bracket and so the bisection and its result are the reference's
    F = j_evaluator(3.0, logs3)
    z = np.asarray(evaluate(power_utility(3.0), opt3))
    seen = []

    def G(v):
        seen.append(v.tobytes())
        return scale * F(v)

    lux = luxemburg_norm(G, z)
    assert len(set(seen)) == len(seen)
    assert lux == doubled_luxemburg(G, z)
    assert lux == pytest.approx(scale ** (1.0 / 3.0), rel=0.03)


def test_luxemburg_keeps_its_degenerate_results(mod_ens):
    # a modular below 1 at every scale halves the scale _MAX_ITER times
    # and gives 0, as the reference does
    z = np.ones(mod_ens.count)
    calls = []

    def below(v):
        calls.append(1)
        return 0.5

    assert luxemburg_norm(below, z) == 0.0
    assert len(calls) == 1 + _MAX_ITER
    assert doubled_luxemburg(below, z) == 0.0
    calls = []

    def above(v):
        calls.append(1)
        return 2.0

    with pytest.raises(RuntimeError, match="no finite scale"):
        luxemburg_norm(above, z)
    assert len(calls) == _MAX_ITER


def scanned_amemiya(F, Z) -> float:
    """The Amemiya norm with its bracket from a scan of all 181 grid points
    (the first minimum by argmin), then the golden-section step of
    ``amemiya_norm``: the reference that the walk must equal bit for bit."""
    z = np.asarray(Z, dtype=float)

    def g(t):
        v = F(math.exp(t) * z)
        if math.isnan(v):
            raise RuntimeError("modular evaluated to nan")
        return (1.0 + v) * math.exp(-t) if math.isfinite(v) else math.inf

    ts = np.linspace(-45.0, 45.0, 181)
    gs = [g(t) for t in ts]
    k = int(np.argmin(gs))
    if k == 0 or k == len(ts) - 1:
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


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_amemiya_walk_matches_the_full_scan(scale, mod_model, mod_ens,
                                            logs3, opt3, rng):
    # a scaled modular moves the minimum about 10 grid points either way,
    # so the walk runs in both directions
    logs2 = density_logs(mod_model, ZERO, mod_ens)
    z2 = np.asarray(evaluate(power_utility(2.0), optimal_terminal_wealth(
        mod_model, power_utility(2.0), logs2[0])))
    z3 = np.asarray(evaluate(power_utility(3.0), opt3))
    for F, z in ((j_evaluator(3.0, logs3), z3),
                 (j_evaluator(3.0, logs3), rng.lognormal(size=mod_ens.count)),
                 (j_evaluator(2.0, logs2), z2)):
        def G(v, F=F):
            return scale * F(v)

        assert amemiya_norm(G, z) == scanned_amemiya(G, z)


def test_amemiya_walk_evaluates_few_grid_points(logs3, opt3):
    # about 3 walk steps and 61 golden-section evaluations, where a scan of
    # the whole grid makes 181 before the same golden-section step
    F = j_evaluator(3.0, logs3)
    calls = []

    def counted(v):
        calls.append(1)
        return F(v)

    z = np.asarray(evaluate(power_utility(3.0), opt3))
    am = amemiya_norm(counted, z)
    assert len(calls) <= 70
    assert am == scanned_amemiya(F, z)


@pytest.mark.parametrize("c", [math.exp(100.0), math.exp(-100.0)],
                         ids=["left-end", "right-end"])
def test_amemiya_minimum_at_a_grid_end_raises(c):
    # g(t) = e^{-t} + c e^t has its minimum at t = -log(c) / 2 = -+50,
    # beyond either end of the grid
    z = np.ones(4)
    with pytest.raises(RuntimeError, match="no interior minimum"):
        amemiya_norm(lambda v: c * float(np.mean(v)) ** 2, z)
    with pytest.raises(RuntimeError, match="no interior minimum"):
        scanned_amemiya(lambda v: c * float(np.mean(v)) ** 2, z)


def test_amemiya_walk_crosses_an_infinite_tail():
    # finite only while max |v| <= 1/2: g is infinite from t = -0.5 on, so
    # the walk steps left through the tail from t = 0 to its minimum
    def F(v):
        return 4.0 * float(np.mean(v)) ** 2 if np.max(v) <= 0.5 \
            else math.inf

    z = np.ones(4)
    am = amemiya_norm(F, z)
    assert am == scanned_amemiya(F, z)
    assert am == pytest.approx(4.0, rel=1e-6)
