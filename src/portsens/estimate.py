"""Monte Carlo estimate containers and delta-method helpers.

Every estimator in this package reduces a per-path vector to a scalar.  For a
plain sample mean the standard error is the sample standard deviation over
sqrt(M).  Nonlinear functionals of several means (for example a power of a
weighted mean) carry a per-path influence vector: the first-order expansion
of the functional around the sample means.  Every estimate carries one, of
the ensemble's length, so standard errors of such functionals, and of
differences of correlated estimates computed on common random numbers, are
read off the influence vectors.  A ``Check`` decides one verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ValueEstimate:
    """Monte Carlo estimate with its per-path influence.

    ``influence`` holds the per-path first-order contributions, centered so
    that ``mean(influence) == 0`` and ``se == std(influence)/sqrt(M)``.
    """

    mean: float
    se: float
    estimator: str
    influence: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.mean) or not np.isfinite(self.se):
            raise ValueError(f"non-finite estimate in {self.estimator!r}: "
                             f"mean={self.mean} se={self.se}")


# relation: (its test on a Check c, its summary phrase with reference r,
# bound b and the thresholds hi = r + b and lo = r - b)
_RELATIONS = {
    "within": (lambda c: c.error <= c.bound, "within {b:.2g} of {r:.6g}"),
    "at most": (lambda c: c.value <= c.reference + c.bound,
                "at most {hi:.6g}"),
    "at least": (lambda c: c.value >= c.reference - c.bound,
                 "at least {lo:.6g}"),
    "sigmas": (lambda c: c.sigmas <= c.bound,
               "within {b:g} sigma of {r:.6g}"),
    "below": (lambda c: c.value < c.reference and c.sigmas > c.bound,
              "more than {b:g} sigma below {r:.6g}"),
    "above": (lambda c: c.value > c.reference and c.sigmas > c.bound,
              "more than {b:g} sigma above {r:.6g}"),
}


@dataclass(frozen=True)
class Check:
    """One verdict: ``value``, with standard error ``se`` if it is an
    estimate, against ``reference`` and ``bound`` under one of
    ``_RELATIONS``.  Every comparison is false on nan, so a nan value fails
    every relation."""

    name: str
    relation: str
    value: float
    reference: float
    bound: float
    se: float | None

    @property
    def error(self) -> float:
        return abs(self.value - self.reference)

    @property
    def sigmas(self) -> float:
        """``error`` in standard errors; with se = 0, 0 for no error and
        infinity otherwise."""
        if self.se == 0:
            return math.inf if self.error != 0 else 0.0
        return self.error / self.se

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation][0](self))

    def line(self) -> str:
        """The summary line, ending in ``: ok`` or ``: FAIL``."""
        se = "" if self.se is None else f" (se {self.se:.2g}" + (
            f", {self.sigmas:.2f} sigma)"
            if self.relation in ("sigmas", "below", "above") else ")")
        r, b = self.reference, self.bound
        rule = _RELATIONS[self.relation][1].format(r=r, b=b, hi=r + b,
                                                   lo=r - b)
        return (f"  {self.name} = {self.value:.6g}{se}, {rule}: "
                f"{'ok' if self.passed else 'FAIL'}")


def _se_of(centered: np.ndarray) -> float:
    """The standard error of a mean; nan below two values, which have no
    sample variance."""
    m = centered.shape[0]
    if m < 2:
        return float("nan")
    return float(np.std(centered, ddof=1) / np.sqrt(m))


def mean_estimate(values: np.ndarray, estimator: str) -> ValueEstimate:
    """Plain sample mean of per-path values."""
    values = np.asarray(values, dtype=float).ravel()
    m = float(np.mean(values))
    centered = values - m
    return ValueEstimate(mean=m, se=_se_of(centered), estimator=estimator,
                         influence=centered)


def delta_estimate(parts: list[np.ndarray], fn, grad_fn,
                   estimator: str) -> ValueEstimate:
    """Smooth functional g(m_1, ..., m_k) of several sample means.

    ``fn`` maps the vector of means to the estimate, ``grad_fn`` to its
    gradient; the influence vector is the usual linearization
    sum_j dg/dm_j (v_ij - m_j).
    """
    cols = [np.asarray(p, dtype=float).ravel() for p in parts]
    means = np.array([np.mean(c) for c in cols])
    g = float(fn(means))
    grad = np.asarray(grad_fn(means), dtype=float)
    infl = np.zeros_like(cols[0])
    for gj, cj, mj in zip(grad, cols, means):
        infl += gj * (cj - mj)
    return ValueEstimate(mean=g, se=_se_of(infl), estimator=estimator,
                         influence=infl)


def combine_linear(estimates: list[ValueEstimate], coeffs: list[float],
                   estimator: str) -> ValueEstimate:
    """Linear combination of estimates sharing one ensemble.

    Correlations between the terms are kept exactly because the influence
    vectors are combined per path before the standard error is taken.
    """
    if not estimates:
        raise ValueError("empty combination")
    mean = float(sum(c * e.mean for c, e in zip(coeffs, estimates)))
    infl = np.zeros(estimates[0].influence.shape[0])
    for c, e in zip(coeffs, estimates):
        infl += c * e.influence
    return ValueEstimate(mean=mean, se=_se_of(infl), estimator=estimator,
                         influence=infl)

