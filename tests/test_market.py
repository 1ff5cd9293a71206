"""Coefficient processes, market price of risk, and kernel stability."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portsens.estimate import ConfigError
from portsens.market import (MarketModel, RegimeTable, check_h1_direction,
                             constant, dlambda_direction, indicator,
                             mpr_from_values, mpr_table, parse_coefficient,
                             piecewise)
from portsens.paths import PathEnsemble, TimeGrid, cumulative
from portsens.valuation import PerturbationSpec

from conftest import node_regimes


def market_regimes(model, grid, *directions):
    """The joint regime table of a market and the directions given."""
    return RegimeTable(grid, model.mu, model.sigma, model.rate, *directions)


def test_constant_infers_shape():
    c = constant([[1.0, 2.0], [3.0, 4.0]])
    assert c.shape == (2, 2)
    grid = TimeGrid(1.0, 4)
    vals = c.evaluate(grid)
    assert vals.shape == (4, 2, 2)
    assert np.all(vals == c.values)
    assert constant([0.05]).shape == (1,)


def test_piecewise_segment_selection():
    pw = piecewise([0.25, 0.5], [[1.0], [2.0], [3.0]])
    vals = pw.evaluate(TimeGrid(1.0, 8))
    # left nodes 0, .125, .25, ..., .875; segment switches at the breaks
    assert list(vals[:, 0]) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    with pytest.raises(ConfigError, match="increase strictly"):
        piecewise([0.5, 0.25], [[1.0], [2.0], [3.0]])
    with pytest.raises(ConfigError, match="piecewise needs 2 value rows"):
        piecewise([0.5], [[1.0]])


def test_indicator_reads_left_nodes():
    ind = indicator(0, 0.0, [0.0], [1.0])
    grid = TimeGrid(1.0, 4)
    W = np.zeros((1, 5, 1))
    W[0, :, 0] = [0.0, -1.0, -1.0, 2.0, 2.0]
    vals = ind.evaluate(grid, W)
    # threshold is strict: W = 0 at t_0 counts as low
    assert list(vals[0, :, 0]) == [0.0, 1.0, 1.0, 0.0]
    with pytest.raises(ConfigError, match="needs paths"):
        ind.evaluate(grid, None)
    with pytest.raises(ConfigError, match="driver index 3 out of range"):
        indicator(3, 0.0, [0.0], [1.0]).evaluate(grid, W)


# each text with the constructor call that builds the same process
COEFF_CASES = {
    "const:[1.5]": constant([1.5]),
    "const:[1.0,-2.0,0.5,3.0]": constant([[1.0, -2.0], [0.5, 3.0]]),
    "pw:t=[0.5];v=[1.0,2.0]": piecewise([0.5], [[1.0], [2.0]]),
    "ind:j=0;c=0.0;lo=[0.0];hi=[1.0]": indicator(0, 0.0, [0.0], [1.0]),
    "ind:j=1;c=-0.5;lo=[1.0,0.0];hi=[0.0,2.0]":
        indicator(1, -0.5, [1.0, 0.0], [0.0, 2.0]),
}
COEFF_SHAPES = [(1,), (2, 2), (1,), (1,), (2,)]


def assert_same_process(got, want):
    """Equal kind, shape, driver, threshold, value rows and breaks."""
    assert (got.kind, got.shape, got.driver, got.threshold) \
        == (want.kind, want.shape, want.driver, want.threshold)
    for name in ("values", "breaks"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("text,shape", list(zip(COEFF_CASES, COEFF_SHAPES)))
def test_mini_language_round_trip(text, shape):
    assert_same_process(parse_coefficient(text, shape), COEFF_CASES[text])


def _text(values) -> str:
    return "[" + ",".join(repr(v) for v in values) + "]"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                max_size=6),
       st.integers(0, 2))
def test_mini_language_round_trip_random(values, kind):
    # a process built by its constructor, written in the mini-language with
    # every number in repr, parses back to the same fields
    shape = (len(values),)
    if kind == 0:
        proc, text = constant(values), "const:" + _text(values)
    elif kind == 1:
        rows = [values, [v + 1 for v in values], [v - 1 for v in values]]
        proc = piecewise([0.3, 0.7], rows)
        text = "pw:t=[0.3,0.7];v=" + _text(v for row in rows for v in row)
    else:
        high = [v * 2 for v in values]
        proc = indicator(1, 0.25, values, high)
        text = f"ind:j=1;c=0.25;lo={_text(values)};hi={_text(high)}"
    assert_same_process(parse_coefficient(text, shape), proc)


def test_parse_rejects_malformed():
    for text, message in [
            ("const:[1.0", "expected a"),
            ("pw:t=[0.5];v=[1.0]", "pw with 1 breakpoints needs 2 values"),
            ("ind:j=0;c=0.0", "ind needs j=, c="),
            ("mystery:[1.0]", "unknown coefficient spec"),
            ("const:[a,b]", "bad number in list"),
            ("ind:j=0;c=nan;lo=[0.0];hi=[1.0]", "threshold must be finite")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_coefficient(text, (1,))
    # every comparison with nan is false, so only a finiteness check
    # refuses these; the strict-increase check passes [0.5, nan]
    for text in ["pw:t=[nan];v=[0.01,0.5]", "pw:t=[0.5,nan];v=[1,2,3]",
                 "pw:t=[0.5,inf];v=[1,2,3]", "pw:t=[-inf];v=[1,2]"]:
        with pytest.raises(ConfigError, match="breakpoints must be finite"):
            parse_coefficient(text, (1,))
    with pytest.raises(ConfigError, match=r"const needs 3 entries"):
        parse_coefficient("const:[1.0,2.0]", (3,))


def test_model_shape_validation():
    with pytest.raises(ValueError):
        MarketModel(d=2, n=1, mu=constant([0.1, 0.1]),
                    sigma=constant([[1.0], [1.0]]))
    for x0 in (0.0, np.inf):
        with pytest.raises(ValueError):
            MarketModel(d=1, n=1, mu=constant([0.1]),
                        sigma=constant([[1.0]]), x0=x0)
    with pytest.raises(ValueError):
        MarketModel(d=1, n=1, mu=constant([0.1, 0.2]),
                    sigma=constant([[1.0]]))
    # a market with no asset
    with pytest.raises(ValueError, match="need 1 <= d <= n"):
        MarketModel(d=0, n=1, mu=constant(np.zeros(0)),
                    sigma=constant(np.zeros((0, 1))))


def test_mpr_square_market_solves_linear_system(det2d_model):
    grid = TimeGrid(1.0, 4)
    lam = mpr_table(det2d_model, market_regimes(det2d_model, grid))
    sig = det2d_model.sigma.values[0]
    mu = det2d_model.mu.values[0]
    expect = np.linalg.solve(sig, mu - 0.01)
    assert np.allclose(lam, expect, atol=1e-14)
    # frozen oracle: scripts/derive_oracles.py
    assert lam[0] == pytest.approx([0.2833333333333333, 0.26666666666666666])


def test_mpr_degenerate_market_minimal_norm():
    # d = 1, n = 2: lambda = sigma^T (sigma sigma^T)^{-1} excess lies in
    # the row space of sigma
    model = MarketModel(d=1, n=2, mu=constant([0.06]),
                        sigma=constant([[0.2, 0.0]]))
    regimes = market_regimes(model, TimeGrid(1.0, 2))
    lam = mpr_table(model, regimes)
    assert np.allclose(lam[regimes.time_rows], [[0.3, 0.0], [0.3, 0.0]])


def test_mpr_fast_path_matches_general():
    # d = 1 regimes stacked with distinct rates take the general solve and
    # match sigma^T (sigma sigma^T)^{-1} (mu - r) row by row
    mu_v = np.array([[0.06], [0.02]])
    sigma_v = np.array([[[0.2, 0.1]], [[0.3, -0.1]]])
    rate_v = np.array([[0.01], [0.0]])
    lam = mpr_from_values(mu_v, sigma_v, rate_v)
    for k in range(2):
        S = sigma_v[k] @ sigma_v[k].T
        expect = sigma_v[k].T @ np.linalg.solve(S, mu_v[k] - rate_v[k])
        assert np.allclose(lam[k], expect, atol=1e-15)


def test_mpr_rejects_singular_volatility():
    model = MarketModel(d=2, n=2, mu=constant([0.1, 0.1]),
                        sigma=constant([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConfigError, match="condition inf exceeds cap"):
        mpr_table(model, market_regimes(model, TimeGrid(1.0, 2)))
    with pytest.raises(ConfigError, match="condition inf exceeds cap"):
        mpr_from_values(np.array([0.1]), np.array([[0.0, 0.0]]),
                        np.array([0.0]))


@pytest.mark.parametrize("sigma, refused", [
    ([[0.0, 0.0]], True),  # zero Gram scalar
    ([[0.2, 0.1]], False),
    ([[1.0, 0.0], [0.0, 1e-5]], True),  # finite, condition 1e10
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], True),  # singular
    ([[0.2, 0.05, 0.0], [0.0, 0.15, 0.02], [0.01, 0.0, 0.3]], False)],
    ids=["singular-d1", "well-conditioned-d1", "ill-conditioned-d2",
         "singular-d3", "well-conditioned-d3"])
def test_gram_condition_gates_every_dimension(sigma, refused):
    sigma_v = np.array(sigma)
    mu_v, rate_v = np.full(len(sigma), 0.05), np.array([0.01])
    if refused:
        with pytest.raises(ConfigError, match="exceeds cap"):
            mpr_from_values(mu_v, sigma_v, rate_v)
    else:
        lam = mpr_from_values(mu_v, sigma_v, rate_v)
        assert np.allclose(sigma_v @ lam, mu_v - rate_v, atol=1e-14)


def _fd_dlambda(model, dmu, dsigma, dr, grid, W, h=1e-6):
    def shifted(side):
        mu_v = model.mu.evaluate(grid, W)
        sigma_v = model.sigma.evaluate(grid, W)
        rate_v = model.rate.evaluate(grid, W)
        if dmu is not None:
            mu_v = mu_v + side * h * dmu.evaluate(grid, W)
        if dsigma is not None:
            sigma_v = sigma_v + side * h * dsigma.evaluate(grid, W)
        if dr is not None:
            rate_v = rate_v + side * h * dr.evaluate(grid, W)
        return mpr_from_values(mu_v, sigma_v, rate_v)

    return (shifted(1.0) - shifted(-1.0)) / (2.0 * h)


@pytest.mark.parametrize("dmu,dsigma,dr", [
    (constant([0.04, 0.02]), None, None),
    (None, constant([[0.05, -0.02], [0.01, 0.03]]), None),
    (None, None, constant([0.01])),
    (constant([0.04, 0.02]), constant([[0.05, -0.02], [0.01, 0.03]]),
     constant([0.01])),
])
def test_dlambda_direction_matches_fd(det2d_model, dmu, dsigma, dr):
    grid = TimeGrid(1.0, 4)
    regimes = market_regimes(det2d_model, grid, dmu, dsigma, dr)
    formula = dlambda_direction(det2d_model, dmu, dsigma, regimes, dr=dr)
    fd = _fd_dlambda(det2d_model, dmu, dsigma, dr, grid, None)
    assert np.allclose(formula[regimes.time_rows], fd, atol=1e-8)


def test_dlambda_direction_adapted(switch_model):
    # indicator drift direction, spread over actual paths by regime
    ens = PathEnsemble(TimeGrid(1.0, 16), n=1, count=8, seed=5)
    W = cumulative(ens.increments(0, 8))
    dmu = indicator(0, 0.0, [0.2], [0.6])
    grid = ens.grid
    regimes = market_regimes(switch_model, grid, dmu)
    formula = dlambda_direction(switch_model, dmu, None, regimes)
    assert formula.shape == (len(regimes), 1) == (2, 1)
    fd = _fd_dlambda(switch_model, dmu, None, None, grid, W)
    at = node_regimes(regimes, W)
    assert formula[at].shape == (8, 16, 1)
    assert np.allclose(formula[at], fd, atol=1e-8)


def test_only_tables_that_differ_within_a_segment_read_the_paths():
    # on the pass table of a sign-switching market with a rate break, the
    # price of risk reads the paths; the rate, a constant Dlambda, an
    # indicator with equal rows and the tau = 0 direction are time-only,
    # and spreading them by time_rows gives each path's node values
    model = MarketModel(d=1, n=1, mu=indicator(0, 0.0, [0.0], [1.0]),
                        sigma=constant([[1.0]]),
                        rate=piecewise([0.5], [[0.0], [0.01]]))
    pert = PerturbationSpec(dmu=constant([1.0]))
    same = indicator(0, 0.3, [0.5], [0.5])
    grid = TimeGrid(1.0, 16)
    regimes = market_regimes(model, grid, pert.dmu, same)
    assert regimes.drivers == [0] and len(regimes) == 2 * 3
    lam = mpr_table(model, regimes)
    time_only = [regimes.values(model.rate),
                 dlambda_direction(model, pert.dmu, None, regimes),
                 regimes.values(same),
                 pert.moved_lambda(model, regimes, lam, 0.0) - lam]
    assert regimes.reads_paths(lam)
    W = cumulative(PathEnsemble(grid, n=1, count=20, seed=3).increments())
    index = node_regimes(regimes, W)
    assert len(np.unique(lam[index])) == 2 * 2  # sign of W, rate
    for table in time_only:
        assert not regimes.reads_paths(table)
        assert np.array_equal(np.broadcast_to(table[regimes.time_rows],
                                              (20, 16, 1)), table[index])


def test_regime_table_counts_only_reachable_regimes():
    grid = TimeGrid(1.0, 8)
    # the first segment holds t_0 alone, where W = 0 is above the cut
    early = piecewise([0.1], [[1.0], [2.0]])
    ind = indicator(0, -3.0, [0.0], [5.0])
    regimes = RegimeTable(grid, early, ind, None)
    assert len(regimes) == 1 + 2
    assert regimes.describe(0) == "t in [0, 0.1), W^0 in [-3, inf)"
    assert list(regimes.values(early)[:, 0]) == [1.0, 2.0, 2.0]
    assert sorted(regimes.values(ind)[:, 0]) == [0.0, 0.0, 5.0]
    # a cut below zero splits every later segment, two drivers multiply
    two = RegimeTable(grid, indicator(0, -3.0, [0.0], [1.0]),
                      indicator(0, 1.0, [0.0], [1.0]),
                      indicator(1, 0.0, [0.0], [1.0]))
    assert len(two) == 3 * 2
    assert len(RegimeTable(grid, constant([1.0]))) == 1
    W = np.zeros((1, 9, 2))
    W[0, 1:, 0], W[0, 1:, 1] = -4.0, 2.0
    assert two.describe(int(node_regimes(two, W)[0, 3])) \
        == "t in [0, 1), W^0 in [-inf, -3), W^1 in [0, inf)"
    # a driver beyond the market's Brownian coordinates is refused when the
    # market is built, before any table indexes paths
    with pytest.raises(ConfigError, match="driver index 1"):
        MarketModel(d=1, n=1, mu=indicator(1, 0.0, [0.0], [1.0]),
                    sigma=constant([[1.0]]))


def test_h1_accepts_kernel_preserving_and_rejects_rotation():
    sigma = constant([[1.0, 0.0]])
    grid = TimeGrid(1.0, 4)
    _, (ok,) = check_h1_direction(sigma, constant([[0.5, 0.0]]), [1.0], grid)
    assert ok.full_rank and ok.kernel_equal and ok.check.passed
    _, (bad,) = check_h1_direction(sigma, constant([[0.0, 0.5]]), [1.0], grid)
    assert not bad.kernel_equal and not bad.check.passed
    # with no tau, the report holds for every small tau: the rotation
    # fails it, and -sigma, which loses rank at tau = 1 only, passes
    assert not check_h1_direction(sigma, constant([[0.0, 0.5]]), [],
                                  grid)[1][0].check.passed
    shrink = constant([[-1.0, 0.0]])
    assert check_h1_direction(sigma, shrink, [], grid)[1][0].check.passed
    assert not check_h1_direction(sigma, shrink, [1.0],
                                  grid)[1][0].check.passed


def stacked_h1(base, pert):
    """(full rank, kernel kept) of one (d, n) sigma and sigma + tau dsigma
    by the per-tau stacked rule: rank sigma = d, and the ranks of
    sigma + tau dsigma and of both stacked equal rank sigma, the stacked
    one counted at sigma's scale."""
    s, sp, st = (np.linalg.svd(m, compute_uv=False)
                 for m in (base, pert, np.vstack((base, pert))))
    rank = np.sum(s > 1e-10 * s[0])
    kept = np.sum(st > 1e-10 * s[0]) == rank \
        and np.sum(sp > 1e-10 * sp[0]) == rank
    return rank == base.shape[0], kept


_MATRIX = st.lists(st.integers(-2, 2), min_size=6, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 1), _MATRIX, _MATRIX, _MATRIX,
       _MATRIX, st.booleans(), st.sampled_from([-1.0, -0.5, 0.25, 1.0, 2.0]))
def test_h1_tau_free_inclusion_matches_the_per_tau_stacked_rule(
        d, extra, lo, hi, dlo, dhi, in_row_space, tau):
    # sigma and dsigma are indicators on one driver, so two regimes; small
    # integer entries make rank-deficient sigma common, and dsigma = M sigma
    # keeps its rows in sigma's row space, so ker sigma lies in ker dsigma
    n = d + extra
    lo, hi = (np.reshape(v[:d * n], (d, n)) for v in (lo, hi))
    dlo, dhi = (np.reshape(v[:d * n], (d, n)) for v in (dlo, dhi))
    if in_row_space:
        dlo = np.reshape(dlo.ravel()[:d * d], (d, d)) @ lo
        dhi = np.reshape(dhi.ravel()[:d * d], (d, d)) @ hi
    sigma = indicator(0, 0.0, lo.astype(float), hi.astype(float))
    dsigma = indicator(0, 0.0, dlo.astype(float), dhi.astype(float))
    regimes, (rep,) = check_h1_direction(sigma, dsigma, [tau],
                                         TimeGrid(1.0, 4))
    base, step = regimes.values(sigma), regimes.values(dsigma)
    want = [stacked_h1(b, b + tau * s) for b, s in zip(base, step)]
    assert rep.full_rank == all(full for full, _ in want)
    assert rep.kernel_equal == all(kept for _, kept in want)
    assert rep.check.passed == (rep.full_rank and rep.kernel_equal)
    if not rep.check.passed:
        assert want[rep.worst_regime] != (True, True)
        assert all(w == (True, True) for w in want[:rep.worst_regime])


def test_h1_adapted_is_exact_over_regimes():
    sig = indicator(0, 0.0, [[1.0, 0.0]], [[2.0, 0.0]])
    grid = TimeGrid(1.0, 8)
    zero = constant([[0.0, 0.0]])
    assert check_h1_direction(sig, zero, [1.0], grid)[1][0].check.passed
    # a rotation on {W < -3} is found although few paths ever get there
    base = constant([[1.0, 0.0]])
    rare = indicator(0, -3.0, [[0.5, 0.0]], [[0.0, 1.0]])
    regimes, reps = check_h1_direction(base, rare, [0.25, 1.0], grid)
    assert not any(rep.check.passed for rep in reps)
    assert "W^0 in [-inf, -3)" in regimes.describe(reps[0].worst_regime)
    assert check_h1_direction(base, indicator(0, -3.0, [[0.5, 0.0]],
                                              [[2.0, 0.0]]),
                              [0.25, 1.0], grid)[1][0].check.passed


def test_zeros_and_bound():
    # every value row must be finite, nan included
    with pytest.raises(ConfigError, match="values and threshold must be"):
        constant([np.inf])
    with pytest.raises(ConfigError, match="values and threshold must be"):
        indicator(0, 0.0, [0.0], [np.nan])
    assert constant(np.zeros((2, 3))).shape == (2, 3)
