"""Utility functions: evaluation, marginal and inverse marginal.

Three kinds are supported.  The positive-power family U(x) = p x^{1/p} with
p > 1 is the model case: its marginal is U'(x) = x^{-1/q} with q = p/(p-1),
and the inverse marginal is I(y) = y^{-q}.  "sqrt" is the alias p = 2,
i.e. U(x) = 2 sqrt(x).  The logarithm is supported for the exact
counterexamples even though it fails the growth and U(0+) = 0 requirements
that the power family satisfies.

Custom utilities are supplied as a two-column table and interpolated by the
monotone piecewise cubic of Fritsch & Carlson (1980), with the node slopes
of the usual PCHIP rule.  U' is then a quadratic on each piece, so
I = (U')^{-1} is solved in closed form: the node slopes locate the piece and
the piece's quadratic gives the root.  A table is checked once, when it is
read: it must be finite, increase strictly in both columns and be concave,
i.e. have node slopes that decrease strictly, for U' to have a unique
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _end_slope(h0, h1, m0, m1):
    """Moler's shape-preserving three-point slope at an end node for
    increasing data: the one-sided estimate, or 0 where it is not positive."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0 else 0.0


class _MonotoneCubic:
    """Monotone piecewise cubic through strictly increasing (x, y) nodes.

    ``slopes`` holds the Fritsch-Carlson node slopes: inside, the weighted
    harmonic mean of the neighbouring secants, at the ends Moler's
    three-point formula.  Piece i stores the power-basis coefficients
    ``coef[:, i]`` of y_i + c t + b t^2 + a t^3 in t = x - x_i, as
    (a, b, c, y_i).  Arguments are not range-checked.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        d = np.empty_like(x)
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x, self.h, self.slopes = x, h, d
        self.coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def _piece(self, v):
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1, 0,
                    len(self.h) - 1)
        return i, v - self.x[i]

    def __call__(self, v):
        i, t = self._piece(v)
        a, b, c, y0 = self.coef[:, i]
        return ((a * t + b) * t + c) * t + y0

    def derivative(self, v):
        i, t = self._piece(v)
        a, b, c, _ = self.coef[:, i]
        return (3.0 * a * t + 2.0 * b) * t + c

    def second_derivative(self, v):
        i, t = self._piece(v)
        a, b, _, _ = self.coef[:, i]
        return 6.0 * a * t + 2.0 * b

    def inverse_derivative(self, y):
        """The x with derivative(x) = y, saturated at the node range; needs
        strictly decreasing node slopes."""
        d = self.slopes
        k = np.searchsorted(-d, -y)  # first node whose slope is <= y
        i = np.clip(k - 1, 0, len(self.h) - 1)
        a, b, c, _ = self.coef[:, i]
        # on piece i solve A t^2 + B t + C = 0 with C = d_i - y > 0; the root
        # in (0, h_i] is 2C / (sqrt(D) - B) = -(B + sqrt(D)) / (2A), and
        # each form is free of cancellation for its sign of B
        A, B, C = 3.0 * a, 2.0 * b, c - y
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(B <= 0, 2.0 * C / (root - B), -(B + root) / (2.0 * A))
        x = self.x[i] + np.clip(t, 0.0, self.h[i])
        return np.where(k == 0, self.x[0],
                        np.where(k == len(d), self.x[-1], x))


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """Utility abstraction used by the solver and the estimators.

    For kind 'power', p in (1, inf) and q = p/(p-1) is its conjugate
    exponent; for kind 'custom', ``cubic`` interpolates the checked table.
    """

    kind: str  # 'power' | 'log' | 'custom'
    label: str
    p: float | None = None
    cubic: _MonotoneCubic | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("power", "log", "custom"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "power" and not (self.p is not None
                                         and 1 < self.p < np.inf):
            raise ValueError("power utility needs 1 < p < inf")
        if self.kind == "custom" and self.cubic is None:
            raise ValueError("custom utility needs a table")

    @property
    def q(self) -> float:
        if self.kind != "power":
            raise ValueError("conjugate exponent is specific to power utility")
        return self.p / (self.p - 1.0)


def power_utility(p: float) -> UtilitySpec:
    return UtilitySpec(kind="power", p=float(p), label=f"power:p={p:g}")


def sqrt_utility() -> UtilitySpec:
    """U(x) = 2 sqrt(x), the p = 2 member of the power family."""
    return UtilitySpec(kind="power", p=2.0, label="sqrt")


def log_utility() -> UtilitySpec:
    return UtilitySpec(kind="log", label="log")


def custom_utility(x: np.ndarray, u: np.ndarray) -> UtilitySpec:
    """Utility from a two-column table (x, U(x)) that is finite, strictly
    increasing in both columns and concave."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or x.shape != u.shape or x.size < 4:
        raise ValueError("need two equally long columns with >= 4 rows")
    table = np.stack([x, u])
    if not np.all(np.isfinite(table)) or np.any(np.diff(table) <= 0):
        raise ValueError("custom table must be finite and increase "
                         "strictly in both columns")
    cubic = _MonotoneCubic(x, u)
    if np.any(np.diff(cubic.slopes) >= 0):
        raise ValueError("custom utility 'custom': node slopes of U' do not "
                         "decrease strictly, so U' has no unique inverse")
    return UtilitySpec(kind="custom", label="custom", cubic=cubic)


def load_custom_utility(path: str) -> UtilitySpec:
    """Two-column whitespace- or comma-separated monotone table."""
    with open(path) as fh:
        data = np.loadtxt([line.replace(",", " ") for line in fh])
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns")
    return custom_utility(data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# evaluations (vectorized over x / y arrays)

def _check_domain(x, name, strict=False):
    x = np.asarray(x, dtype=float)
    bad = (x <= 0) if strict else (x < 0)
    if np.any(bad):
        raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'}")
    return x


def _in_table(u: UtilitySpec, x) -> _MonotoneCubic:
    """A custom table's interpolant, once x is checked against its range."""
    fwd = u.cubic
    xlo, xhi = fwd.x[0], fwd.x[-1]
    if np.any(x > xhi) or np.any(x < xlo):
        raise ValueError(f"x outside the table range [{xlo:g}, {xhi:g}]")
    return fwd


def evaluate(u: UtilitySpec, x) -> np.ndarray | float:
    if u.kind == "power":
        x = _check_domain(x, "x")
        return u.p * x ** (1.0 / u.p)
    if u.kind == "log":
        x = _check_domain(x, "x", strict=True)
        return np.log(x)
    x = _check_domain(x, "x")
    return _in_table(u, x)(x)


def derivative(u: UtilitySpec, x) -> np.ndarray | float:
    x = _check_domain(x, "x", strict=True)
    if u.kind == "power":
        return x ** (1.0 / u.p - 1.0)
    if u.kind == "log":
        return 1.0 / x
    return _in_table(u, x).derivative(x)


def inverse_marginal_slope(u: UtilitySpec, x) -> np.ndarray:
    """dI/dy at y = U'(x) for the optimal wealth x = I(y) of a custom table:
    1 / U''(x) inside the node range and 0 at its ends, where I saturates
    and x no longer moves with y.  The sensitivities read it for the
    multiplier's noise; the other kinds' are closed-form and do not."""
    if u.kind != "custom":
        raise ValueError("inverse-marginal slopes are read for custom tables "
                         "only")
    x = _check_domain(x, "x")
    fwd = _in_table(u, x)
    inside = (x > fwd.x[0]) & (x < fwd.x[-1])
    with np.errstate(divide="ignore"):
        return np.where(inside, 1.0 / fwd.second_derivative(x), 0.0)


def inverse_marginal(u: UtilitySpec, y) -> np.ndarray | float:
    """I(y) = (U')^{-1}(y), the solver's pointwise optimizer map.

    A custom table saturates at its ends: I(y) is the first node for y at or
    above U' there and the last node for y at or below U' there.
    """
    y = _check_domain(y, "y", strict=True)
    if u.kind == "power":
        return y ** (-u.q)
    if u.kind == "log":
        return 1.0 / y
    return u.cubic.inverse_derivative(y)


def parse_utility(text: str) -> UtilitySpec:
    """Config syntax: power:p=<float> | log | sqrt | custom:file=<path>."""
    text = text.strip()
    if text == "log":
        return log_utility()
    if text == "sqrt":
        return sqrt_utility()
    if text.startswith("power:"):
        body = text[len("power:"):]
        if not body.startswith("p="):
            raise ValueError(f"bad power utility spec {text!r}")
        return power_utility(float(body[2:]))
    if text.startswith("custom:"):
        body = text[len("custom:"):]
        if not body.startswith("file="):
            raise ValueError(f"bad custom utility spec {text!r}")
        return load_custom_utility(body[len("file="):])
    raise ValueError(f"unknown utility spec {text!r}")
