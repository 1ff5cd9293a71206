"""Utility specs: closed forms, inverses, hypothesis probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portsens.utility import (UtilitySpec, check_hypotheses, custom_utility,
                              derivative, evaluate, inverse,
                              inverse_marginal, load_custom_utility,
                              log_utility, parse_utility, power_utility,
                              sqrt_utility)


def test_power_values():
    u = power_utility(3.0)
    assert evaluate(u, 8.0) == pytest.approx(3.0 * 2.0)
    assert derivative(u, 8.0) == pytest.approx(8.0 ** (-2.0 / 3.0))
    assert u.q == pytest.approx(1.5)
    assert sqrt_utility().p == 2.0
    assert evaluate(sqrt_utility(), 4.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        power_utility(1.0)


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
    x = math.exp(logx)
    assert inverse(u, evaluate(u, x)) == pytest.approx(x, rel=1e-9)
    # marginal inverse: U'(I(y)) = y
    y = math.exp(logx / 4.0)
    assert derivative(u, inverse_marginal(u, y)) == pytest.approx(y, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_log_inverse_round_trip(y):
    u = log_utility()
    assert evaluate(u, inverse(u, y)) == pytest.approx(y, abs=1e-12)
    assert inverse_marginal(u, math.exp(y)) == pytest.approx(math.exp(-y))


def _table_utility():
    x = np.linspace(1e-6, 60.0, 4000)
    return custom_utility(x, 2.0 * np.sqrt(x), growth_c=2.0, growth_p=2.0)


def test_custom_table_tracks_reference():
    u = _table_utility()
    xs = np.array([0.5, 1.0, 4.0, 25.0])
    assert np.allclose(evaluate(u, xs), 2.0 * np.sqrt(xs), rtol=1e-6)
    assert np.allclose(inverse(u, evaluate(u, xs)), xs, rtol=1e-6)
    im = inverse_marginal(u, np.array([0.4, 1.0]))
    assert np.allclose(im, np.array([0.4, 1.0]) ** -2.0, rtol=1e-3)


def test_custom_table_rejects_bad_input():
    with pytest.raises(ValueError):
        custom_utility([1.0, 2.0], [1.0, 2.0])  # too short
    u = custom_utility([1.0, 2.0, 3.0, 2.5], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        evaluate(u, 2.0)  # x column not increasing
    u2 = _table_utility()
    with pytest.raises(ValueError):
        evaluate(u2, 100.0)  # outside the table


def test_load_custom_utility(tmp_path):
    x = np.linspace(0.01, 10.0, 50)
    table = tmp_path / "u.csv"
    np.savetxt(table, np.column_stack([x, np.log1p(x)]), delimiter=",")
    u = load_custom_utility(str(table))
    assert evaluate(u, 1.0) == pytest.approx(math.log(2.0), rel=1e-4)


def test_check_hypotheses_power_and_log():
    rep = check_hypotheses(power_utility(3.0))
    assert rep.assumptions_hold
    assert rep.zero_at_zero and rep.strictly_concave
    # log fails positivity at zero: U(0+) = -inf
    rep_log = check_hypotheses(log_utility())
    assert not rep_log.zero_at_zero
    assert rep_log.marginal_blows_up_at_zero
    assert not rep_log.assumptions_hold


def test_check_hypotheses_flags_convex_table():
    x = np.linspace(0.01, 5.0, 200)
    convex = custom_utility(x, x ** 2)
    rep = check_hypotheses(convex)
    assert not rep.strictly_concave
    assert not rep.assumptions_hold


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
