"""Utility functions: evaluation, marginal, inverse, hypotheses.

Three kinds are supported.  The positive-power family U(x) = p x^{1/p} with
p > 1 is the model case: its marginal is U'(x) = x^{-1/q} with q = p/(p-1),
and the inverse marginal is I(y) = y^{-q}.  "sqrt" is the alias p = 2,
i.e. U(x) = 2 sqrt(x).  The logarithm is supported for the exact
counterexamples even though it fails the growth and U(0+) = 0 requirements
that the power family satisfies; ``check_hypotheses`` reports this.  Custom
utilities are supplied as a two-column monotone table and interpolated with
a monotone cubic, which is enough for increasing concave functions given
pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """Utility abstraction used by the solver and the estimators.

    For kind 'power', p in (1, inf) and q = p/(p-1) is its conjugate
    exponent.  growth (C, growth_p) records constants for the bound
    U(x) <= C x^{1/growth_p}.
    """

    kind: str  # 'power' | 'log' | 'custom'
    p: float | None = None
    growth_c: float | None = None
    growth_p: float | None = None
    label: str = ""
    _table: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("power", "log", "custom"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "power" and not (self.p is not None and self.p > 1):
            raise ValueError("power utility needs p > 1")
        if self.kind == "custom" and self._table is None:
            raise ValueError("custom utility needs a table")

    @property
    def q(self) -> float:
        if self.kind != "power":
            raise ValueError("conjugate exponent is specific to power utility")
        return self.p / (self.p - 1.0)

    # interpolators are built lazily and cached on the instance
    def _interp(self):
        cache = self.__dict__.get("_interp_cache")
        if cache is None:
            x, u = self._table
            du = np.diff(u)
            dx = np.diff(x)
            if np.any(dx <= 0) or np.any(du <= 0):
                raise ValueError("custom table must increase strictly in "
                                 "both columns")
            fwd = PchipInterpolator(x, u, extrapolate=False)
            inv = PchipInterpolator(u, x, extrapolate=False)
            der = fwd.derivative()
            cache = (fwd, inv, der, (x[0], x[-1]), (u[0], u[-1]))
            object.__setattr__(self, "_interp_cache", cache)
        return cache


def power_utility(p: float) -> UtilitySpec:
    return UtilitySpec(kind="power", p=float(p), growth_c=float(p),
                       growth_p=float(p), label=f"power:p={p:g}")


def sqrt_utility() -> UtilitySpec:
    """U(x) = 2 sqrt(x), the p = 2 member of the power family."""
    return UtilitySpec(kind="power", p=2.0, growth_c=2.0, growth_p=2.0,
                       label="sqrt")


def log_utility() -> UtilitySpec:
    return UtilitySpec(kind="log", label="log")


def custom_utility(x: np.ndarray, u: np.ndarray, growth_c: float | None = None,
                   growth_p: float | None = None, label: str = "custom") \
        -> UtilitySpec:
    """Utility from a strictly increasing two-column table (x, U(x))."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or x.shape != u.shape or x.size < 4:
        raise ValueError("need two equally long columns with >= 4 rows")
    return UtilitySpec(kind="custom", growth_c=growth_c, growth_p=growth_p,
                       label=label, _table=(x, u))


def load_custom_utility(path: str, **kwargs) -> UtilitySpec:
    """Two-column whitespace- or comma-separated monotone table."""
    data = np.loadtxt(path, delimiter=None if _is_whitespace_table(path) else ",")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns")
    return custom_utility(data[:, 0], data[:, 1], **kwargs)


def _is_whitespace_table(path: str) -> bool:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                return "," not in line
    return True


# ---------------------------------------------------------------------------
# evaluations (vectorized over x / y arrays)

def _check_domain(x, name, strict=False):
    x = np.asarray(x, dtype=float)
    bad = (x <= 0) if strict else (x < 0)
    if np.any(bad):
        raise ValueError(f"{name} must be {'positive' if strict else 'nonnegative'}")
    return x


def evaluate(u: UtilitySpec, x) -> np.ndarray | float:
    if u.kind == "power":
        x = _check_domain(x, "x")
        return u.p * x ** (1.0 / u.p)
    if u.kind == "log":
        x = _check_domain(x, "x", strict=True)
        return np.log(x)
    fwd, _, _, (xlo, xhi), _ = u._interp()
    x = _check_domain(x, "x")
    out = fwd(np.clip(x, xlo, xhi))
    if np.any(x > xhi) or np.any(x < xlo):
        raise ValueError(f"x outside the table range [{xlo:g}, {xhi:g}]")
    return out


def derivative(u: UtilitySpec, x) -> np.ndarray | float:
    x = _check_domain(x, "x", strict=True)
    if u.kind == "power":
        return x ** (1.0 / u.p - 1.0)
    if u.kind == "log":
        return 1.0 / x
    fwd, _, der, (xlo, xhi), _ = u._interp()
    if np.any(x > xhi) or np.any(x < xlo):
        raise ValueError(f"x outside the table range [{xlo:g}, {xhi:g}]")
    return der(x)


def inverse(u: UtilitySpec, y) -> np.ndarray | float:
    """U^{-1}(y): for power, (y/p)^p; for log, exp(y)."""
    y = np.asarray(y, dtype=float)
    if u.kind == "power":
        if np.any(y < 0):
            raise ValueError("power utility takes nonnegative values only")
        return (y / u.p) ** u.p
    if u.kind == "log":
        return np.exp(y)
    _, inv, _, _, (ulo, uhi) = u._interp()
    if np.any(y > uhi) or np.any(y < ulo):
        raise ValueError(f"y outside the table range [{ulo:g}, {uhi:g}]")
    return inv(y)


def inverse_marginal(u: UtilitySpec, y) -> np.ndarray | float:
    """I(y) = (U')^{-1}(y), the solver's pointwise optimizer map."""
    y = _check_domain(y, "y", strict=True)
    if u.kind == "power":
        return y ** (-u.q)
    if u.kind == "log":
        return 1.0 / y
    fwd, _, der, (xlo, xhi), _ = u._interp()

    def solve_one(yv):
        lo, hi = xlo, xhi
        dlo, dhi = der(lo), der(hi)
        if yv >= dlo:
            return lo
        if yv <= dhi:
            return hi
        return brentq(lambda t: der(t) - yv, lo, hi, xtol=1e-14, rtol=1e-12)

    return np.vectorize(solve_one)(y)


# ---------------------------------------------------------------------------
# hypothesis report

@dataclass(frozen=True)
class HypothesesReport:
    """Numerical probes of the standing assumptions on U.

    The limits behind the marginal-utility conditions cannot be tested
    exactly; they are probed at 1e-8 and 1e+8 against thresholds.  The growth
    bound is measured as max U(x)/x^{1/p} over a log-spaced grid.
    """

    marginal_blows_up_at_zero: bool
    marginal_vanishes_at_infinity: bool
    zero_at_zero: bool
    growth_ok: bool
    measured_growth_c: float
    growth_p: float | None
    strictly_increasing: bool
    strictly_concave: bool

    @property
    def assumptions_hold(self) -> bool:
        """True when U satisfies every assumption the derivative formulas use."""
        return (self.marginal_blows_up_at_zero
                and self.marginal_vanishes_at_infinity
                and self.zero_at_zero and self.growth_ok
                and self.strictly_increasing and self.strictly_concave)


def check_hypotheses(u: UtilitySpec, grid_points: int = 200) -> HypothesesReport:
    if u.kind == "custom":
        xlo, xhi = u._interp()[3]
        lo_probe, hi_probe = xlo, xhi
        xs = np.geomspace(max(xlo, 1e-300), xhi, grid_points)
    else:
        lo_probe, hi_probe = 1e-8, 1e8
        xs = np.geomspace(1e-8, 1e8, grid_points)

    d_lo = float(derivative(u, lo_probe))
    d_hi = float(derivative(u, hi_probe))
    inada0 = d_lo >= 1e3 or (u.kind == "custom" and d_lo >= 10.0)
    inada_inf = d_hi <= 1e-3 or (u.kind == "custom" and d_hi <= 0.1)

    if u.kind == "custom":
        zero_at_zero = abs(float(evaluate(u, lo_probe))) <= 0.05
    else:
        # decay toward zero, not just smallness at one point; log fails both
        u_tiny = float(evaluate(u, 1e-16))
        u_small = float(evaluate(u, 1e-8))
        zero_at_zero = abs(u_tiny) <= 0.01 and abs(u_tiny) < 0.5 * abs(u_small)

    gp = u.growth_p
    if gp is None:
        growth_ok, measured = False, float("inf")
    else:
        vals = np.asarray(evaluate(u, xs), dtype=float)
        measured = float(np.max(vals / xs ** (1.0 / gp)))
        declared = u.growth_c if u.growth_c is not None else measured
        growth_ok = np.isfinite(measured) and measured <= declared * (1 + 1e-6)

    uv = np.asarray(evaluate(u, xs), dtype=float)
    increasing = bool(np.all(np.diff(uv) > 0))
    mid = np.asarray(evaluate(u, 0.5 * (xs[:-1] + xs[1:])), dtype=float)
    concave = bool(np.all(mid >= 0.5 * (uv[:-1] + uv[1:]) - 1e-12 * np.abs(mid))
                   and np.any(mid > 0.5 * (uv[:-1] + uv[1:])))

    return HypothesesReport(
        marginal_blows_up_at_zero=inada0,
        marginal_vanishes_at_infinity=inada_inf,
        zero_at_zero=zero_at_zero,
        growth_ok=growth_ok,
        measured_growth_c=measured,
        growth_p=gp,
        strictly_increasing=increasing,
        strictly_concave=concave,
    )


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
