"""Market coefficients, market price of risk, and kernel-stability checks.

A coefficient is a stack of value rows plus a rule that picks the row at
each node.  Two kinds differ in the rule: deterministic piecewise-constant
in time, where the time segment picks the row (a constant is one segment),
and adapted indicator of a Brownian coordinate, where row 1 applies on
{W^j_{t_k} < c} and row 0 elsewhere.  Both are essentially bounded by
construction and evaluate predictably (the value at node t_k uses path
information up to t_k only).

Every coefficient takes finitely many values, so a set of coefficients takes
finitely many joint values along a path.  ``RegimeTable`` lists the joint
values the Brownian motion can reach on a grid and masks the nodes of each
regime on paths; everything computed from coefficient values alone (the
market price of risk, its directional derivative, rank and null-space
checks) is computed once per regime.  A path pass reads one table, the
joint table of every coefficient it reads: a per-regime table that
``reads_paths`` finds constant within each time segment is spread over
nodes by ``time_rows``; any other enters quad and time sums through each
path's count of nodes per regime, and Ito sums through its sum of
increments over them, both taken from ``mask``.

The market price of risk is lambda = sigma^T (sigma sigma^T)^{-1} (mu - r 1).
Volatility perturbations are admissible only when they preserve the null
space of sigma; ``check_h1_direction`` tests this exactly over the
reachable regimes.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from portsens.estimate import Check, ConfigError
from portsens.paths import TimeGrid

_COND_CAP = 1e8  # largest condition number of sigma sigma^T accepted
_RANK_TOL = 1e-10  # singular values below this share of the largest are 0


@dataclass(frozen=True, eq=False)
class CoefficientProcess:
    """One bounded coefficient process of scalar, vector or matrix shape,
    stored as value rows ``values`` (k, *shape) and a rule that picks one.

    kind 'piecewise': breaks (k-1,) strictly increasing interior
                      breakpoints; row i applies on [breaks[i-1], breaks[i]).
    kind 'indicator': k = 2; row 1 applies where W^driver < threshold,
                      row 0 elsewhere, read at the left node of each step.
    """

    kind: str
    values: np.ndarray
    breaks: np.ndarray | None = None
    driver: int = 0
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind == "piecewise":
            if self.breaks is None:
                raise ConfigError("piecewise needs breaks")
            if not np.all(np.isfinite(self.breaks)):
                raise ConfigError("breakpoints must be finite")
            if np.any(np.diff(self.breaks) <= 0):
                raise ConfigError("breakpoints must increase strictly")
        elif self.kind != "indicator":
            raise ConfigError(f"unknown coefficient kind {self.kind!r}")
        if self.driver < 0:
            raise ConfigError("driver index must be >= 0")
        rows = 2 if self.kind == "indicator" else len(self.breaks) + 1
        if len(self.values) != rows:
            raise ConfigError(f"{self.kind} needs {rows} value rows")
        if len(self.shape) > 2:
            raise ConfigError("coefficients are at most matrix-shaped")
        if not (np.all(np.isfinite(self.values))
                and math.isfinite(self.threshold)):
            raise ConfigError("coefficient values and threshold must "
                              "be finite")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    def evaluate(self, grid: TimeGrid, W: np.ndarray | None = None) -> np.ndarray:
        """Per-node values: (N, *shape) if deterministic, else (B, N, *shape).

        W carries cumulative node values (B, N+1, n); only the left nodes
        t_0 .. t_{N-1} are read, which keeps the evaluation predictable.
        """
        if self.kind == "piecewise":
            return self.values[np.searchsorted(self.breaks, grid.left_nodes,
                                               side="right")]
        if W is None:
            raise ConfigError("indicator coefficient needs paths")
        if self.driver >= W.shape[-1]:
            raise ConfigError(f"driver index {self.driver} out of range "
                              f"for n={W.shape[-1]}")
        return self.values[(W[:, :grid.steps, self.driver]
                            < self.threshold).astype(int)]


def piecewise(breaks, values) -> CoefficientProcess:
    return CoefficientProcess(kind="piecewise",
                              values=np.asarray(values, dtype=float),
                              breaks=np.asarray(breaks, dtype=float))


def constant(values) -> CoefficientProcess:
    return piecewise([], [values])


def indicator(driver: int, threshold: float, low, high) -> CoefficientProcess:
    return CoefficientProcess(kind="indicator",
                              values=np.asarray([low, high], dtype=float),
                              driver=driver, threshold=float(threshold))


def deterministic(*procs: CoefficientProcess | None) -> bool:
    """Whether every coefficient given is deterministic, None standing for
    an absent direction.  A market and directions that all are make the
    minimal measure the dual optimizer and the weak and strong
    sensitivities equal."""
    return all(p is None or p.kind == "piecewise" for p in procs)


def check_drivers(n: int, *procs: CoefficientProcess | None) -> None:
    """Refuse an indicator on a Brownian coordinate outside 0 .. n-1."""
    for p in procs:
        if p is not None and p.kind == "indicator" and p.driver >= n:
            raise ConfigError(f"driver index {p.driver} out of range "
                              f"for n={n}")


# ---------------------------------------------------------------------------
# coefficient mini-language: const:[...] | pw:t=[...];v=[...] |
# ind:j=<int>;c=<float>;lo=[...];hi=[...]   (matrices row-major)

_NUM_LIST = re.compile(r"\[([^\]]*)\]")


def _parse_list(text: str) -> np.ndarray:
    m = _NUM_LIST.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"expected a [..] list, got {text!r}")
    body = m.group(1).strip()
    if not body:
        return np.empty(0)
    try:
        return np.array([float(tok) for tok in body.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad number in list {text!r}") from exc


def _fields(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(";"):
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def parse_coefficient(text: str, shape: tuple[int, ...]) -> CoefficientProcess:
    """Parse the mini-language; flat lists are reshaped row-major to ``shape``."""
    text = text.strip()
    size = int(np.prod(shape, dtype=int))
    if text.startswith("const:"):
        vals = _parse_list(text[len("const:"):])
        if vals.size != size:
            raise ConfigError(f"const needs {size} entries for shape "
                              f"{shape}, got {vals.size}")
        return constant(vals.reshape(shape))
    if text.startswith("pw:"):
        f = _fields(text[len("pw:"):])
        if set(f) != {"t", "v"}:
            raise ConfigError("pw needs exactly t=[...] and v=[...]")
        breaks = _parse_list(f["t"])
        vals = _parse_list(f["v"])
        if vals.size % size or vals.size // size != len(breaks) + 1:
            raise ConfigError(
                f"pw with {len(breaks)} breakpoints needs "
                f"{(len(breaks) + 1) * size} values, got {vals.size}")
        return piecewise(breaks, vals.reshape(len(breaks) + 1, *shape))
    if text.startswith("ind:"):
        f = _fields(text[len("ind:"):])
        if set(f) != {"j", "c", "lo", "hi"}:
            raise ConfigError("ind needs j=, c=, lo=[...], hi=[...]")
        lo = _parse_list(f["lo"])
        hi = _parse_list(f["hi"])
        if lo.size != size or hi.size != size:
            raise ConfigError(f"ind lo/hi need {size} entries each")
        return indicator(int(f["j"]), float(f["c"]),
                         lo.reshape(shape), hi.reshape(shape))
    raise ConfigError(f"unknown coefficient spec {text!r}")


# ---------------------------------------------------------------------------
# regimes: the reachable joint values of a set of coefficients

class RegimeTable:
    """The joint values of coefficient processes that paths can reach.

    Time splits at the union of the piecewise breakpoints into segments,
    and each indicator driver j splits the real line at its sorted
    thresholds into intervals.  A regime is a segment that holds a left
    node, crossed with one interval per driver.  Every such combination is
    reached with positive probability, since W_{t_k} has a density for
    k >= 1; only a segment whose one left node is t_0, where W = 0, reaches
    nothing but the intervals that hold 0.

    ``values(proc)`` gives a member's value in each regime, (R, *shape),
    and ``mask(r, W)`` which left nodes of regime r's segment, ``nodes[r]``,
    lie in its driver intervals on each path of W (B, N+1, n).  The
    member's ``evaluate`` takes its value in regime r at exactly those
    nodes, so a sum of its values over a path's nodes is the sum over
    regimes of each value times the path's count of nodes in that regime,
    and a sum of its values times increments the sum over regimes of each
    value times the path's increments summed over those nodes.  A table
    whose rows agree within every time segment (``reads_paths`` false)
    equals, node by node, its rows picked by ``time_rows``, the (N,) first
    regime of each node's segment, on every path.  Absent (None) members
    are skipped.
    """

    def __init__(self, grid: TimeGrid, *procs: CoefficientProcess | None):
        procs = [p for p in procs if p is not None]
        self.grid = grid
        self.breaks = np.array(sorted({b for p in procs
                                       if p.kind == "piecewise"
                                       for b in p.breaks.tolist()}), float)
        self.drivers = sorted({p.driver for p in procs
                               if p.kind == "indicator"})
        self.cuts = [np.array(sorted({p.threshold for p in procs
                                      if p.kind == "indicator"
                                      and p.driver == j}), float)
                     for j in self.drivers]
        sizes = [len(c) + 1 for c in self.cuts]
        at_zero = tuple(int(np.searchsorted(c, 0.0, side="right"))
                        for c in self.cuts)
        combos = list(itertools.product(*map(range, sizes)))
        seg = np.searchsorted(self.breaks, grid.left_nodes, side="right")
        rows = []  # (segment, its left nodes, interval per driver)
        for s in sorted(set(seg.tolist())):
            nodes = np.flatnonzero(seg == s)
            rows += [(s, slice(nodes[0], nodes[-1] + 1), c)
                     for c in (combos if nodes[-1] > 0 else [at_zero])]
        self.segment = np.array([r[0] for r in rows])
        self.nodes = [r[1] for r in rows]
        self.time = grid.left_nodes[[r[1].start for r in rows]]
        self.intervals = np.array([r[2] for r in rows], dtype=int)  # (R, J)
        # each regime's bounds on W at its nodes: the cuts that close its
        # interval of each driver, below (>=) and above (<)
        self._bounds = [[(j, op, float(c[0]))
                         for j, cuts, i in zip(self.drivers, self.cuts, row)
                         for op, c in ((np.greater_equal, cuts[i - 1:i]),
                                       (np.less, cuts[i:i + 1])) if c.size]
                        for row in self.intervals.tolist()]
        # rows are sorted by segment: the first row of each node's segment
        # and of each row's own
        self.time_rows = np.searchsorted(self.segment, seg)
        self._segment_rows = np.searchsorted(self.segment, self.segment)

    def __len__(self) -> int:
        return len(self.segment)

    def values(self, proc: CoefficientProcess) -> np.ndarray:
        """Per-regime values of a member, shape (R, *shape)."""
        if proc.kind == "piecewise":
            return proc.values[np.searchsorted(proc.breaks, self.time,
                                               side="right")]
        j = self.drivers.index(proc.driver)
        # row 1 on {W^j < c}: the intervals at or below c's own cut
        return proc.values[(self.intervals[:, j] <= np.searchsorted(
            self.cuts[j], proc.threshold)).astype(int)]

    def reads_paths(self, table: np.ndarray) -> bool:
        """Whether per-regime values (R, ...) differ, in any bit, between
        regimes of one time segment, so that sums of them need ``mask``."""
        return table[self._segment_rows].tobytes() != table.tobytes()

    def mask(self, r: int, W: np.ndarray, out: np.ndarray) -> tuple:
        """The left nodes of regime r's segment, a slice, and whether each
        lies in r's driver intervals on each path of W (B, N+1, n), a
        (B, len) view of ``out[0]``; ``out`` is a (2, B, N) bool buffer
        whose ``out[1]`` holds each further bound's comparison."""
        nodes = self.nodes[r]
        mask, flag = out[..., :nodes.stop - nodes.start]
        for k, (j, op, c) in enumerate(self._bounds[r]):
            op(W[:, nodes, j], c, out=flag if k else mask)
            if k:
                mask &= flag
        return nodes, mask

    def describe(self, r: int) -> str:
        """The time segment and driver intervals of regime r."""
        edges = np.concatenate(([0.0], self.breaks, [self.grid.horizon]))
        s = self.segment[r]
        parts = [f"t in [{max(edges[s], 0.0):g}, "
                 f"{min(edges[s + 1], self.grid.horizon):g})"]
        for j, cuts, i in zip(self.drivers, self.cuts, self.intervals[r]):
            bounds = np.concatenate(([-np.inf], cuts, [np.inf]))
            parts.append(f"W^{j} in [{bounds[i]:g}, {bounds[i + 1]:g})")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# market model and market price of risk

@dataclass(frozen=True)
class MarketModel:
    """d risky assets driven by an n-dimensional Brownian motion,
    1 <= d <= n."""

    d: int
    n: int
    mu: CoefficientProcess
    sigma: CoefficientProcess
    rate: CoefficientProcess = field(default_factory=lambda: constant([0.0]))
    x0: float = 1.0

    def __post_init__(self):
        if not 1 <= self.d <= self.n:
            raise ValueError("need 1 <= d <= n")
        if not 0 < self.x0 < math.inf:
            raise ValueError("initial wealth must be positive and finite")
        if self.mu.shape != (self.d,):
            raise ValueError(f"mu must have shape ({self.d},)")
        if self.sigma.shape != (self.d, self.n):
            raise ValueError(f"sigma must have shape ({self.d}, {self.n})")
        if self.rate.shape != (1,):
            raise ValueError("rate must have shape (1,)")
        check_drivers(self.n, self.mu, self.sigma, self.rate)


def _gram_cond(S: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a (..., d, d) stack of Gram matrices."""
    ev = np.linalg.eigvalsh(S)  # ascending
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ev[..., 0] > 0, ev[..., -1] / ev[..., 0], np.inf)


def mpr_from_values(mu_v: np.ndarray, sigma_v: np.ndarray,
                    rate_v: np.ndarray) -> np.ndarray:
    """lambda = sigma^T (sigma sigma^T)^{-1} (mu - r 1) from coefficients.

    mu_v is (..., d), sigma_v (..., d, n), rate_v (..., 1); leading axes
    index regimes and broadcast as in np.linalg.solve.  Raises ConfigError
    when the Gram matrix is singular or its condition number exceeds the
    cap at any of them; d = 1 passes the same gate.
    """
    excess = mu_v - rate_v
    S = sigma_v @ np.swapaxes(sigma_v, -1, -2)
    cond = _gram_cond(S)
    worst = float(np.max(cond))
    if not worst < _COND_CAP:
        raise ConfigError(
            f"sigma sigma^T condition {worst:g} exceeds cap {_COND_CAP:g}")
    x = np.linalg.solve(S, excess[..., None])[..., 0]
    return np.einsum("...dn,...d->...n", sigma_v, x)


def mpr_table(model: MarketModel, regimes: RegimeTable) -> np.ndarray:
    """Market price of risk per regime, (R, n); regimes must hold mu,
    sigma and the rate."""
    return mpr_from_values(regimes.values(model.mu),
                           regimes.values(model.sigma),
                           regimes.values(model.rate))


def dlambda_direction(model: MarketModel, dmu: CoefficientProcess | None,
                      dsigma: CoefficientProcess | None,
                      regimes: RegimeTable,
                      dr: CoefficientProcess | None = None) -> np.ndarray:
    """Directional derivative of the market price of risk per regime.

    With S = sigma sigma^T and excess = mu - r 1:

        Dlambda = sigma^T S^{-1} (dmu - dr 1)
                  + dsigma^T S^{-1} excess
                  - sigma^T S^{-1} (sigma dsigma^T + dsigma sigma^T) S^{-1} excess

    The optional rate direction enters exactly as a drift direction -dr 1.
    Returned as (R, n) values on ``regimes``, which must hold the market
    and every direction given.
    """
    d, n = model.d, model.n
    sigma_v = regimes.values(model.sigma)
    dmu_v = None if dmu is None else regimes.values(dmu)
    if dr is not None:
        drift_dir = -regimes.values(dr) * np.ones(d)  # (R, 1) times (d,)
        dmu_v = drift_dir if dmu_v is None else dmu_v + drift_dir

    sigmaT = np.swapaxes(sigma_v, -1, -2)
    S = sigma_v @ sigmaT

    def solve(rhs):  # S^{-1} rhs for (R, d) right-hand sides
        return np.linalg.solve(S, rhs[..., None])[..., 0]

    out = np.zeros((len(regimes), n))
    if dmu_v is not None:
        out = np.einsum("...nd,...d->...n", sigmaT, solve(dmu_v))
    if dsigma is not None:
        excess = regimes.values(model.mu) - regimes.values(model.rate)
        dsig_v = regimes.values(dsigma)
        w = solve(excess)  # S^{-1} excess
        term = np.einsum("...nd,...d->...n", np.swapaxes(dsig_v, -1, -2), w)
        mixed = (np.einsum("...dn,...en->...de", sigma_v, dsig_v)
                 + np.einsum("...dn,...en->...de", dsig_v, sigma_v))
        term = term - np.einsum("...nd,...d->...n", sigmaT,
                                solve(np.einsum("...de,...e->...d", mixed, w)))
        out = term if dmu_v is None else out + term
    return out


# ---------------------------------------------------------------------------
# kernel stability

@dataclass(frozen=True)
class H1Report:
    full_rank: bool
    kernel_equal: bool
    worst_regime: int  # first failing row; read only when the check fails
    check: Check  # no reachable regime loses full rank or the kernel


def _rank(values: np.ndarray, scale: np.ndarray | None = None) -> tuple:
    """Numerical ranks of a (..., k, n) stack of matrices, counting the
    singular values above _RANK_TOL times ``scale`` (..., 1), by default
    each matrix's largest; and that largest singular value."""
    s = np.linalg.svd(values, compute_uv=False)
    top = s[..., :1]
    return np.sum(s > _RANK_TOL * (top if scale is None else scale),
                  axis=-1), top


def check_h1_direction(sigma: CoefficientProcess, dsigma: CoefficientProcess,
                       taus, grid: TimeGrid) \
        -> tuple[RegimeTable, list[H1Report]]:
    """Full rank of sigma plus null-space equality of sigma and
    sigma + tau dsigma, for each nonzero tau, in every regime the paths can
    reach.

    For tau != 0 the null spaces agree exactly when ker sigma lies in
    ker dsigma and rank (sigma + tau dsigma) = rank sigma.  The inclusion
    does not depend on tau: stacking dsigma under sigma keeps the rank,
    counted at sigma's own scale so that a rank-deficient pair cannot hide
    behind its own tiny leading singular value.  Given no tau, one report
    holds for every small tau != 0: full rank and the inclusion, since the
    rank of sigma + tau dsigma follows for small tau from full rank.
    """
    if sigma.shape != dsigma.shape:
        raise ConfigError("volatility shapes differ")
    regimes = RegimeTable(grid, sigma, dsigma)
    base, step = regimes.values(sigma), regimes.values(dsigma)
    rank, top = _rank(base)
    full = rank == sigma.shape[0]
    within = _rank(np.concatenate((base, step), axis=-2), top)[0] == rank
    equal = [within] if not taus else [
        within & (_rank(base + tau * step)[0] == rank) for tau in taus]
    wheres = [f"tau={tau:g}" for tau in taus] or ["small tau"]
    return regimes, [
        H1Report(full_rank=bool(np.all(full)), kernel_equal=bool(np.all(e)),
                 worst_regime=int(np.argmax(np.ravel(~(full & e)))),
                 check=Check(f"regimes breaking kernel stability at {where}",
                             "at most", int(np.sum(~(full & e))), 0.0, 0.0,
                             None))
        for e, where in zip(equal, wheres)]
