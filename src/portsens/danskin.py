"""Support functions of point clouds and their directional derivatives.

For a finite cloud K in R^m the support function v(d) = max_z <d, z> is
piecewise linear: its one-sided directional derivative at d in direction
delta is the maximum of <delta, z> over the argmax set S(d), and the
derivative is Hadamard (the difference quotients converge along any
directions h_k -> delta, not just the fixed one).  Everything here is
exact enumeration, which makes the module a test bed for envelope-type
differentiation claims: ties in S(d) are where the derivative is genuinely
one-sided, so they get first-class treatment through a relative tie
tolerance, ``TIE_TOL``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from portsens.estimate import Check, ConfigError


# points within TIE_TOL * (1 + |v|) of the support value v tie with the max
TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CompactSet:
    """Finite point cloud in R^m; the convex hull is implied.

    The supremum of a linear functional over the hull is attained at a
    vertex, so enumeration over the points is exact.
    """

    points: np.ndarray  # (count, m)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ConfigError("cloud must contain at least one point")
        if pts.ndim != 2:
            raise ConfigError("cloud must be a (count, m) array")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("cloud coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def radius(self) -> float:
        return float(np.max(np.linalg.norm(self.points, axis=1)))


@dataclass(frozen=True, eq=False)
class SupportResult:
    value: float
    argmax: tuple  # indices attaining the value within the tie tolerance
    radius: float


def _check_dim(d, K: CompactSet, what: str = "direction") -> np.ndarray:
    d = np.asarray(d, dtype=float).ravel()
    if d.shape != (K.m,):
        raise ConfigError(f"{what} must have dimension {K.m}")
    return d


def support_value(d, K: CompactSet) -> SupportResult:
    """max over the cloud of <d, z> with its tie set."""
    d = _check_dim(d, K)
    inner = K.points @ d
    v = float(np.max(inner))
    ties = np.nonzero(inner >= v - TIE_TOL * (1.0 + abs(v)))[0]
    return SupportResult(value=v, argmax=tuple(int(i) for i in ties),
                         radius=K.radius)


def directional_derivative(d_base, delta, K: CompactSet) -> float:
    """One-sided derivative of the support function: max over the tie set.

    This is the envelope formula: only the maximizers at the base point
    feel an infinitesimal change of direction.
    """
    res = support_value(d_base, K)
    delta = _check_dim(delta, K, "delta")
    return float(np.max(K.points[list(res.argmax)] @ delta))


@dataclass(frozen=True, eq=False)
class HadamardReport:
    """Difference quotients along a converging sequence of directions; the
    check's reference is the directional derivative."""

    quotients: tuple
    taus: tuple
    max_gap: float
    check: Check  # the last quotient near the derivative; nan fails


def hadamard_probe(d_base, delta, K: CompactSet, directions=None,
                   taus=None) -> HadamardReport:
    """Check (v(d + tau_k h_k) - v(d)) / tau_k -> directional derivative.

    ``directions`` is a sequence h_k converging to delta (default: delta
    with a decaying first-coordinate bump); ``taus`` the step sequence.
    For a point cloud the quotient becomes exactly the derivative once
    tau_k max-norm-gap falls below the tie-breaking margin, so the final
    quotient is compared with a tolerance built from the drift of h_k.
    """
    d_base = _check_dim(d_base, K)
    delta = _check_dim(delta, K, "delta")
    if taus is None:
        taus = tuple(0.5 ** k for k in range(4, 14))
    if directions is None:
        bump = np.zeros(K.m)
        bump[0] = 1.0
        directions = [delta + bump / (k + 1.0) ** 2
                      for k in range(len(taus))]
    directions = [_check_dim(h, K) for h in directions]
    if len(directions) != len(taus):
        raise ConfigError("need one direction per step")

    v0 = support_value(d_base, K).value
    quotients = []
    for h, tau in zip(directions, taus):
        vt = support_value(d_base + tau * h, K).value
        quotients.append((vt - v0) / tau)
    deriv = directional_derivative(d_base, delta, K)
    # |quotient_k - derivative| <= radius * |h_k - delta| once tau resolves
    # the ties, by the Lipschitz bound applied to the direction drift
    drift = float(np.linalg.norm(directions[-1] - delta))
    tol = K.radius * drift + 1e-9 * (1.0 + abs(deriv))
    gaps = [abs(qt - deriv) for qt in quotients]
    return HadamardReport(quotients=tuple(quotients), taus=tuple(taus),
                          max_gap=max(gaps),
                          check=Check("last difference quotient", "within",
                                      quotients[-1], deriv, tol, None))


def load_cloud(path: str) -> CompactSet:
    """Point cloud from CSV, one point per row; a header row is optional."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                if rows:
                    raise ConfigError(f"{path}: malformed row {row!r}")
                continue  # header
    if not rows:
        raise ConfigError(f"{path}: no points")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: rows have mixed dimensions {widths}")
    return CompactSet(np.asarray(rows, dtype=float))
