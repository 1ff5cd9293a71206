"""Utility specs: closed forms, inverse marginals and custom tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portsens.utility import (custom_utility,
                              derivative, evaluate,
                              inverse_marginal, inverse_marginal_slope,
                              load_custom_utility, log_utility,
                              parse_utility, power_utility, sqrt_utility)


def test_power_values():
    u = power_utility(3.0)
    assert evaluate(u, 8.0) == pytest.approx(3.0 * 2.0)
    assert derivative(u, 8.0) == pytest.approx(8.0 ** (-2.0 / 3.0))
    assert u.q == pytest.approx(1.5)
    assert sqrt_utility().p == 2.0
    assert evaluate(sqrt_utility(), 4.0) == pytest.approx(4.0)
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            power_utility(p)


def test_log_values():
    u = log_utility()
    assert evaluate(u, math.e) == pytest.approx(1.0)
    assert derivative(u, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        evaluate(u, 0.0)
    with pytest.raises(ValueError):
        u.q


@settings(max_examples=80, deadline=None)
@given(st.floats(1.2, 10.0), st.floats(-20.0, 20.0))
def test_power_inverse_round_trip(p, logx):
    u = power_utility(p)
    # marginal inverse: U'(I(y)) = y
    y = math.exp(logx / 4.0)
    assert derivative(u, inverse_marginal(u, y)) == pytest.approx(y, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_log_inverse_round_trip(y):
    u = log_utility()
    assert inverse_marginal(u, math.exp(y)) == pytest.approx(math.exp(-y))


def _table_utility():
    x = np.linspace(1e-6, 60.0, 4000)
    return custom_utility(x, 2.0 * np.sqrt(x))


def test_custom_table_tracks_reference():
    u = _table_utility()
    xs = np.array([0.5, 1.0, 4.0, 25.0])
    assert np.allclose(evaluate(u, xs), 2.0 * np.sqrt(xs), rtol=1e-6)
    im = inverse_marginal(u, np.array([0.4, 1.0]))
    assert np.allclose(im, np.array([0.4, 1.0]) ** -2.0, rtol=1e-3)


def _log_spaced_sqrt():
    x = 10.0 ** (-4.0 + 8.0 * np.arange(801) / 800)
    return x, 2.0 * np.sqrt(x)


def _linear_sqrt():
    x = np.linspace(1e-6, 60.0, 4000)
    return x, 2.0 * np.sqrt(x)


def _log1p():
    x = np.linspace(0.01, 10.0, 50)
    return x, np.log1p(x)


def _kinked():
    # U' first rises inside the second piece (U'' > 0 at its left node),
    # and the right end slope is clamped to 0
    return (np.array([0.5, 1.5, 2.5, 3.5, 4.0, 4.5]),
            np.array([0.0, 1.0, 1.99, 2.09, 2.1, 2.102]))


TABLES = pytest.mark.parametrize(
    "make_table", [_log_spaced_sqrt, _linear_sqrt, _log1p, _kinked],
    ids=["sqrt-log801", "sqrt-lin4000", "log1p-50", "kinked-6"])


@TABLES
def test_custom_cubic_matches_pchip(make_table):
    from scipy.interpolate import PchipInterpolator

    x, ux = make_table()
    u = custom_utility(x, ux)
    ref = PchipInterpolator(x, ux, extrapolate=False)
    mids = 0.5 * (x[:-1] + x[1:])
    xs = np.concatenate([x, mids, x[0] + (x[-1] - x[0]) * np.linspace(
        0.0, 1.0, 1001), np.geomspace(x[0], x[-1], 1001)])
    xs = np.clip(xs, x[0], x[-1])
    inside = (xs > x[0]) & (xs < x[-1])
    for got, want in ((evaluate(u, xs), ref(xs)),
                      (derivative(u, xs), ref.derivative()(xs)),
                      (inverse_marginal_slope(u, xs),
                       np.where(inside, 1.0 / ref.derivative(2)(xs), 0.0))):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    with pytest.raises(ValueError, match="custom tables only"):
        inverse_marginal_slope(sqrt_utility(), xs)


@TABLES
def test_custom_inverse_marginal_inverts_the_marginal(make_table):
    x, ux = make_table()
    u = custom_utility(x, ux)
    d_lo, d_hi = derivative(u, x[0]), derivative(u, x[-1])
    y = np.geomspace(max(d_hi, 1e-3 * d_lo), d_lo, 20003)[1:-1]
    # just below each node slope the root sits at the far end of a piece
    # where U' first rises
    near = np.outer(derivative(u, x[:-1]), 1.0 - np.geomspace(1e-15, 1e-3, 13))
    y = np.sort(np.concatenate([y, near[near > d_hi]]))
    xi = inverse_marginal(u, y)
    assert np.all((xi >= x[0]) & (xi <= x[-1]))
    assert np.all(np.diff(xi) < 0)
    assert np.all(np.abs(derivative(u, xi) - y) <= 1e-12 * y)


def test_custom_inverse_marginal_saturates_at_the_table_ends():
    x, ux = _log_spaced_sqrt()
    u = custom_utility(x, ux)
    d_lo, d_hi = float(derivative(u, x[0])), float(derivative(u, x[-1]))
    y = np.array([1e9, 2.0 * d_lo, d_lo, d_hi, 0.5 * d_hi, 1e-9])
    np.testing.assert_array_equal(inverse_marginal(u, y),
                                  [x[0]] * 3 + [x[-1]] * 3)
    assert float(inverse_marginal(u, d_lo * (1 - 1e-9))) > x[0]
    assert float(inverse_marginal(u, d_hi * (1 + 1e-9))) < x[-1]


def test_custom_inverse_marginal_refuses_a_convex_table():
    # U' of a convex table has no unique inverse, so the table is refused
    # when it is read
    x = np.linspace(0.01, 5.0, 200)
    with pytest.raises(ValueError, match="no unique inverse"):
        custom_utility(x, x ** 2)
    # one kink that turns U' upward is enough
    with pytest.raises(ValueError, match="no unique inverse"):
        custom_utility([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 2.5, 3.5, 4.0])


def test_custom_table_rejects_bad_input():
    with pytest.raises(ValueError, match=">= 4 rows"):
        custom_utility([1.0, 2.0], [1.0, 2.0])  # too short
    for x, u in (([1.0, 2.0, 3.0, 2.5], [1.0, 2.0, 3.0, 4.0]),  # x falls
                 ([1.0, 2.0, 3.0, np.inf], [1.0, 2.0, 3.0, 4.0]),
                 ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 3.0])):  # U repeats
        with pytest.raises(ValueError, match="finite and increase strictly"):
            custom_utility(x, u)
    u2 = _table_utility()
    with pytest.raises(ValueError):
        evaluate(u2, 100.0)  # outside the table


def test_load_custom_utility(tmp_path):
    x = np.linspace(0.01, 10.0, 50)
    table = tmp_path / "u.csv"
    np.savetxt(table, np.column_stack([x, np.log1p(x)]), delimiter=",")
    u = load_custom_utility(str(table))
    assert evaluate(u, 1.0) == pytest.approx(math.log(2.0), rel=1e-4)


def test_parse_utility_round_trip():
    assert parse_utility("log").kind == "log"
    assert parse_utility("sqrt").p == 2.0
    assert parse_utility("power:p=3").p == 3.0
    with pytest.raises(ValueError):
        parse_utility("power:q=3")
    with pytest.raises(ValueError):
        parse_utility("cubic")


def test_parse_custom_file(tmp_path):
    x = np.linspace(0.01, 10.0, 50)
    table = tmp_path / "u.txt"
    np.savetxt(table, np.column_stack([x, np.sqrt(x)]))
    u = parse_utility(f"custom:file={table}")
    assert u.kind == "custom"
    assert evaluate(u, 4.0) == pytest.approx(2.0, rel=1e-6)
