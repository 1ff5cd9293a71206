"""Support functions of point clouds: enumeration, derivatives, probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portsens.danskin import (CompactSet, directional_derivative,
                              hadamard_probe, load_cloud, support_value)
from portsens.estimate import ConfigError

DIAMOND = CompactSet(np.array([[1.0, 0.0], [-1.0, 0.0],
                               [0.0, 1.0], [0.0, -1.0]]))


def test_support_enumeration_against_brute_force(rng):
    for _ in range(100):
        count = int(rng.integers(1, 21))
        m = int(rng.integers(1, 6))
        pts = rng.normal(size=(count, m)) * 3.0
        if rng.random() < 0.3:
            pts[rng.integers(count)] = pts[rng.integers(count)]  # dup ties
        K = CompactSet(pts)
        d = rng.normal(size=m)
        res = support_value(d, K)
        # plain Python accumulation, independent of the array reduction
        brute = [sum(float(a) * float(b) for a, b in zip(row, d))
                 for row in pts]
        v = max(brute)
        assert res.value == pytest.approx(v, rel=1e-12, abs=1e-12)
        assert brute.index(v) in res.argmax
        for i in res.argmax:
            assert brute[i] >= v - 1e-11 * (1.0 + abs(v))
        delta = rng.normal(size=m)
        deriv = directional_derivative(d, delta, K)
        tie_vals = [sum(float(a) * float(b) for a, b in zip(pts[i], delta))
                    for i in res.argmax]
        assert deriv == pytest.approx(max(tie_vals), rel=1e-12, abs=1e-12)


def test_diamond_tie_set_and_derivative():
    res = support_value([1.0, 1.0], DIAMOND)
    assert res.value == 1.0
    assert res.argmax == (0, 2)
    assert res.radius == 1.0
    # only the tied vertices feel the direction change
    assert directional_derivative([1.0, 1.0], [1.0, -1.0], DIAMOND) == 1.0
    assert directional_derivative([1.0, 1.0], [-1.0, -1.0], DIAMOND) == -1.0
    assert directional_derivative([2.0, 1.0], [0.0, 5.0], DIAMOND) == 0.0


def test_duplicated_argmax_points():
    K = CompactSet(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    res = support_value([1.0, 0.0], K)
    assert set(res.argmax) == {0, 1}
    assert directional_derivative([1.0, 0.0], [0.0, 1.0], K) == 0.0


def test_quotient_exact_below_tie_gap():
    # unique argmax with a 0.5 value gap: the quotient hits the derivative
    # exactly for every step small enough that second place cannot catch up
    K = CompactSet(np.array([[1.0, 0.0], [0.5, 0.5]]))
    d, delta = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    deriv = directional_derivative(d, delta, K)
    assert deriv == 0.0
    for tau in (0.5, 0.1, 1e-3, 1e-9):
        v0 = support_value(d, K).value
        vt = support_value(d + tau * delta, K).value
        assert (vt - v0) / tau == deriv


def test_hadamard_probe_default_sequences(rng):
    for _ in range(25):
        K = CompactSet(rng.normal(size=(int(rng.integers(2, 12)),
                                        int(rng.integers(1, 4)))))
        d = rng.normal(size=K.m)
        delta = rng.normal(size=K.m)
        rep = hadamard_probe(d, delta, K)
        assert rep.check.passed, (rep.max_gap, rep.check.bound)
        assert len(rep.quotients) == len(rep.taus) == 10


def test_hadamard_probe_constant_directions():
    rep = hadamard_probe([1.0, 1.0], [1.0, -1.0], DIAMOND,
                         directions=[[1.0, -1.0]] * 4,
                         taus=(0.25, 0.125, 0.0625, 0.03125))
    # no direction drift: the last quotients equal the derivative exactly
    assert rep.check.reference == 1.0
    assert rep.quotients[-1] == 1.0
    assert rep.check.passed


def test_hadamard_quotient_bound_is_tight():
    # single point: the support function is linear and the quotient gap is
    # exactly radius * |h_k - delta|; the probe passes on its additive slack
    K = CompactSet(np.array([[1.0, 0.0]]))
    rep = hadamard_probe([0.3, 0.7], [0.2, -0.4], K)
    drift = 1.0 / len(rep.taus) ** 2
    assert rep.quotients[-1] - rep.check.reference \
        == pytest.approx(drift, rel=1e-12)
    assert rep.check.bound >= K.radius * drift
    assert rep.check.passed


def test_hadamard_probe_validation():
    with pytest.raises(ConfigError, match="one direction per step"):
        hadamard_probe([1.0, 0.0], [0.0, 1.0], DIAMOND,
                       directions=[[0.0, 1.0]] * 3, taus=(0.1, 0.05))
    with pytest.raises(ConfigError, match="direction must have dimension 2"):
        hadamard_probe([1.0, 0.0, 0.0], [0.0, 1.0], DIAMOND)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       st.floats(0.0, 7.5))
def test_support_function_is_sublinear(d1, d2, alpha):
    v = lambda d: support_value(d, DIAMOND).value
    add = np.asarray(d1) + np.asarray(d2)
    assert v(add) <= v(d1) + v(d2) + 1e-12
    assert v(alpha * np.asarray(d1)) == pytest.approx(alpha * v(d1),
                                                      rel=1e-12, abs=1e-12)


def test_cloud_validation():
    with pytest.raises(ConfigError, match="at least one point"):
        CompactSet(np.empty((0, 2)))
    with pytest.raises(ConfigError, match="coordinates must be finite"):
        CompactSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(ConfigError, match=r"must be a \(count, m\) array"):
        CompactSet(np.zeros((2, 2, 2)))
    with pytest.raises(ConfigError, match="direction must have dimension 2"):
        support_value([1.0, 0.0, 0.0], DIAMOND)
    one_d = CompactSet([1.0, 2.0])  # promoted to a single point in R^2
    assert one_d.points.shape == (1, 2)


def test_cloud_csv_round_trip(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("".join(",".join(repr(float(c)) for c in row) + "\n"
                            for row in DIAMOND.points))
    back = load_cloud(str(path))
    np.testing.assert_array_equal(back.points, DIAMOND.points)

    with_header = tmp_path / "header.csv"
    with_header.write_text("x,y\n0.25,-1.5\n3.0,4.0\n\n")
    K = load_cloud(str(with_header))
    np.testing.assert_array_equal(K.points, [[0.25, -1.5], [3.0, 4.0]])

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\noops,3.0\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_cloud(str(bad))

    mixed = tmp_path / "mixed.csv"
    mixed.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ConfigError, match="mixed"):
        load_cloud(str(mixed))

    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    with pytest.raises(ConfigError, match="no points"):
        load_cloud(str(empty))

    with pytest.raises(OSError):
        load_cloud(str(tmp_path / "missing.csv"))
