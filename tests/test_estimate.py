"""Estimate containers: delta method, linear combinations, paired errors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from portsens.estimate import (Check, ValueEstimate, combine_linear,
                               delta_estimate, mean_estimate)


def test_mean_estimate_matches_formulas(rng):
    x = rng.normal(2.0, 3.0, size=5000)
    est = mean_estimate(x, estimator="m")
    assert est.mean == pytest.approx(float(np.mean(x)), abs=0.0)
    assert est.se == pytest.approx(float(np.std(x, ddof=1)) / math.sqrt(5000))
    assert est.influence.shape == (5000,)
    # influence is centered and reproduces the se
    assert abs(float(np.mean(est.influence))) < 1e-12
    assert float(np.std(est.influence, ddof=1)) / math.sqrt(5000) \
        == pytest.approx(est.se)


def test_value_estimate_rejects_nonfinite():
    with pytest.raises(ValueError):
        ValueEstimate(mean=math.nan, se=0.0, estimator="x",
                      influence=np.zeros(1))
    # one value has no standard error
    with pytest.raises(ValueError, match="non-finite"):
        mean_estimate([2.0], estimator="one")


def test_sigmas_is_the_mean_in_standard_errors():
    est = mean_estimate([-1.0, -2.0, -3.0, -6.0], estimator="m")
    assert Check("m", "sigmas", est.mean, 0.0, 3.0, est.se).sigmas \
        == 3.0 / est.se
    # with se = 0 a zero mean is 0 sigma from zero, any other infinitely far
    assert Check("z", "sigmas", 0.0, 0.0, 3.0, 0.0).sigmas == 0.0
    assert Check("c", "sigmas", -1e-300, 0.0, 3.0, 0.0).sigmas == math.inf


@pytest.mark.parametrize("relation, value, bound, passed", [
    ("within", 1.5, 0.5, True), ("within", 1.75, 0.5, False),
    ("within", 0.5, 0.5, True), ("at most", 1.5, 0.5, True),
    ("at most", 1.75, 0.5, False), ("at least", 0.5, 0.5, True),
    ("at least", 0.25, 0.5, False), ("sigmas", 1.5, 2.0, True),
    ("sigmas", 1.75, 2.0, False), ("sigmas", 0.5, 2.0, True),
    ("below", 0.25, 2.0, True), ("below", 0.5, 2.0, False),
    ("below", 2.0, 2.0, False), ("above", 2.0, 2.0, True),
    ("above", 1.5, 2.0, False), ("above", 0.0, 2.0, False)])
def test_check_relations(relation, value, bound, passed):
    # reference 1 and se 0.25: the sigma relations count |value - 1| in
    # quarters; "below" and "above" also need the value on their side
    check = Check("c", relation, value, 1.0, bound, 0.25)
    assert check.passed == passed
    assert check.line().endswith(": ok" if passed else ": FAIL")
    # a nan value fails every relation, as the Hadamard probe needs
    assert not Check("c", relation, math.nan, 1.0, bound, 0.25).passed


def test_delta_estimate_chain_rule(rng):
    # g(m) = m^2 on a single moment: se must match 2 m * se(m)
    x = rng.normal(1.0, 0.5, size=20000)
    base = mean_estimate(x, estimator="m")
    est = delta_estimate([x], lambda m: m[0] ** 2, lambda m: [2.0 * m[0]],
                         estimator="sq")
    assert est.mean == pytest.approx(base.mean ** 2)
    assert est.se == pytest.approx(2.0 * abs(base.mean) * base.se, rel=1e-9)


def test_delta_estimate_two_moments(rng):
    # ratio of two means against the textbook sandwich variance
    a = rng.normal(3.0, 1.0, size=50000)
    b = rng.normal(2.0, 0.5, size=50000)
    est = delta_estimate([a, b], lambda m: m[0] / m[1],
                         lambda m: [1.0 / m[1], -m[0] / m[1] ** 2],
                         estimator="r")
    ma, mb = float(np.mean(a)), float(np.mean(b))
    assert est.mean == pytest.approx(ma / mb)
    grad = np.array([1.0 / mb, -ma / mb**2])
    cov = np.cov(np.stack([a, b])) / 50000
    assert est.se == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-3)


def test_combine_linear_is_exact(rng):
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    ex = mean_estimate(x, estimator="x")
    ey = mean_estimate(y, estimator="y")
    comb = combine_linear([ex, ey], [2.0, -3.0], "c")
    assert comb.mean == pytest.approx(2.0 * ex.mean - 3.0 * ey.mean, abs=1e-15)
    direct = mean_estimate(2.0 * x - 3.0 * y, estimator="d")
    assert comb.se == pytest.approx(direct.se, rel=1e-12)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
       st.floats(-10, 10), st.floats(-10, 10))
def test_combine_linear_homogeneous(coeffs, a, b):
    # combining combinations equals combining with composed coefficients
    n = len(coeffs)
    base = np.arange(1.0, 7.0)[:n]
    ests = [mean_estimate(np.array([v, v + 1.0]), estimator=str(i))
            for i, v in enumerate(base)]
    once = combine_linear(ests, coeffs, "once")
    scaled = combine_linear([once], [a], "s")
    assert scaled.mean == pytest.approx(a * once.mean, rel=1e-12, abs=1e-12)
    two = combine_linear([once, once], [a, b], "t")
    assert two.mean == pytest.approx((a + b) * once.mean, rel=1e-12, abs=1e-9)


def test_paired_difference_uses_common_randomness(rng):
    x = rng.normal(size=10000)
    noise = rng.normal(scale=0.01, size=10000)
    ex = mean_estimate(x, estimator="x")
    ey = mean_estimate(x + noise, estimator="y")
    paired = combine_linear([ex, ey], [1.0, -1.0], "x-y").se
    # the paired error sees only the small decoupled part
    assert paired < 0.1 * math.hypot(ex.se, ey.se)
    assert combine_linear([ex, ex], [1.0, -1.0], "x-x").se == 0.0

