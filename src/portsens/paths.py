"""Seeded Brownian path ensembles and the one path-sum kernel.

An ensemble is a recipe, not an array: path i draws its N x n increments
from a Philox stream keyed by (seed, i), so any path regenerates bit for bit
however paths are split into blocks or workers.  Each thread holds one
generator and re-keys it for every path from a state template of plain
Python ints, which numpy reads faster than uint64 arrays.

``path_sums`` streams blocks of paths through one scratch set per worker
and reduces each block to named per-path stochastic and time integrals,
written into (M,) arrays by path range; means and standard errors are the
caller's.  Integrands are per-regime values on the pass's one regime
table.  Where they depend on time only, they are spread over nodes once
per pass, and a quad or time sum of them is one number for all paths;
otherwise a sum is read off each path's per-regime statistics,
its count of nodes and sum of increments in each regime, taken per block
from one mask per regime.  Memory stays at O(block), and no result
depends on block size or worker count.  A block holds as many paths as
fit one worker's scratch set in ``_SCRATCH_BYTES``, about a core's L2
cache, and at least one; tests fix the count instead through an
ensemble's ``block_paths``.

Integrands follow the left-endpoint convention: the coefficient value at node
t_k multiplies the increment over [t_k, t_{k+1}).  Per-node arrays therefore
have N entries (nodes t_0 .. t_{N-1}) while cumulative paths have N+1.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from portsens.estimate import ConfigError

WORKERS_ENV = "PORTSENS_WORKERS"

# cap on the path count M: every per-path sum and influence vector holds
# 8*M bytes (128 MiB at the cap), and a command holds about 8 (example1)
# to 28 (sens) of them at its peak, while blocks stream within
# _SCRATCH_BYTES
_MAX_PATHS = 2**24

# default scratch bytes of one worker's block buffers (increments, paths,
# a mask and flag and a weight per node, per-regime increment sums): 2 MB,
# about one core's L2
_SCRATCH_BYTES = 2**21

# one Philox generator per thread: a generator is not thread-safe, and every
# path overwrites its whole state, so nothing carries over between callers
_THREAD_RNG = threading.local()


def check_seed(seed: int) -> int:
    """The seed unchanged if it fits the 64-bit Philox key word."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed {seed} is outside [0, 2**64)")
    return seed


def _thread_generator() -> tuple[np.random.Generator, dict]:
    """This thread's generator and the state template that re-keys it.

    The template is the state of a fresh ``Generator(Philox(key))``:
    counter 0 and an empty output buffer (``buffer_pos = 4``), without which
    values buffered by one path would leak into the next.  Setting the
    state copies the template, so only its key changes between paths.  Its
    words are Python ints: numpy sets the same uint64 state from them
    faster than from uint64 arrays, and re-keying is paid once per path.
    """
    pair = getattr(_THREAD_RNG, "pair", None)
    if pair is None:
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0] * 4, "key": [0, 0]},
                 "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(np.random.Philox(key=0))
        pair = _THREAD_RNG.pair = (gen, state)
    return pair


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/N on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ConfigError("horizon must be positive and finite")
        if self.steps < 1:
            raise ConfigError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """All N+1 nodes including both endpoints."""
        return np.linspace(0.0, self.horizon, self.steps + 1)

    @property
    def left_nodes(self) -> np.ndarray:
        """The N nodes t_0 .. t_{N-1} at which integrands are evaluated."""
        return self.nodes[:-1]


@dataclass(frozen=True)
class PathEnsemble:
    """M Brownian paths in R^n on a grid, defined by (seed, scheme).

    Increments are N(0, dt) i.i.d. per coordinate.  By default (None)
    ``path_sums`` sizes blocks so that one worker's scratch set fits in
    ``_SCRATCH_BYTES``, with at least one path per block; a positive
    ``block_paths`` fixes the block size for tests and never affects values.
    """

    grid: TimeGrid
    n: int
    count: int
    seed: int
    scheme: str = "philox-per-path/1"
    block_paths: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.count < 2:
            raise ConfigError(f"paths must be at least 2 (a standard error "
                              f"needs two), got {self.count}")
        if self.count > _MAX_PATHS:
            raise ConfigError(f"paths must be at most {_MAX_PATHS} (each "
                              "per-path sum holds 8 bytes a path), got "
                              f"{self.count}")
        check_seed(self.seed)
        if self.block_paths is not None and self.block_paths < 1:
            raise ValueError(
                f"block_paths must be at least 1, got {self.block_paths}")

    def block_ranges(self, step: int):
        """Consecutive path ranges of ``step`` paths, the last one shorter."""
        for start in range(0, self.count, step):
            yield start, min(start + step, self.count)

    def increments(self, start: int = 0, stop: int | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Increment array of shape (stop-start, N, n) for a path range,
        written into ``out`` (C-contiguous float64 of that shape) if given."""
        stop = self.count if stop is None else stop
        if not 0 <= start <= stop <= self.count:
            raise IndexError(f"bad path range [{start}, {stop})")
        if out is None:
            out = np.empty((stop - start, self.grid.steps, self.n))
        gen, state = _thread_generator()
        key = state["state"]["key"]
        key[0] = self.seed
        for i in range(start, stop):
            key[1] = i
            gen.bit_generator.state = state
            gen.standard_normal(out=out[i - start])
        out *= np.sqrt(self.grid.dt)
        return out


def cumulative(dW: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Node values W_{t_0..t_N} (shape (B, N+1, n)) from increments,
    written into ``out`` if given."""
    B, N, n = dW.shape
    W = np.empty((B, N + 1, n)) if out is None else out
    W[:, 0] = 0.0
    np.cumsum(dW, axis=1, out=W[:, 1:])
    return W


# ---------------------------------------------------------------------------
# the block-level reduction: H is (N, n) node values against increments,
# or (R, n) per-regime values against (B, R, n) increment sums

def ito_sum(H: np.ndarray, dW: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Per-path sum_k <H_k, dW_k> with left-endpoint H."""
    return np.einsum("...kj,...kj->...", H, dW, out=out)


# ---------------------------------------------------------------------------
# the path-sum kernel

def path_sums(ensemble: PathEnsemble, regimes, sums: dict) -> dict:
    """Named per-path sums, all from one pass over the ensemble.

    Each request is ``("ito", a)`` for sum_k <a_k, dW_k>, ``("quad", a, b)``
    for sum_k <a_k, b_k> dt, or ``("time", c)`` for sum_k sum_j c_kj dt.
    An integrand is an (R, k) array of per-regime values on ``regimes``,
    the pass's one ``market.RegimeTable``.  Tables that do not
    ``regimes.reads_paths`` are spread over nodes, (N, k), once per pass
    through ``regimes.time_rows``, however many requests name one array.
    Otherwise a request is read off per-regime statistics of each path,
    from one ``regimes.mask`` of its nodes per regime and block: a quad or
    time request is a per-regime value f, (R,), of sum_j a_j b_j or
    sum_j c_j, summed as dt sum_r f_r c_r over the path's count c_r of
    left nodes in regime r, and an ito request is sum_r <a_r, D_r> over
    its increment sums D_r, (n,), over those nodes.

    Each worker allocates one scratch set per pass, sized to the largest
    block: increments and, if some table reads the paths, cumulative paths,
    a mask and flag per node, (R, B) regime counts and, for ito requests
    that read the paths, a weight per node and (B, R, n) increment sums.
    Unless the ensemble's ``block_paths`` fixes it, a block holds as many
    paths as keep that set, counts aside, within ``_SCRATCH_BYTES``, and at
    least one.  With k workers (``PORTSENS_WORKERS``, 1 if unset or empty)
    worker w takes blocks w, w + k, ...  Returns an (M,) array per name.  A
    quad or time request on tables that read no paths is the same number on
    every path, and comes back as a read-only view of it with stride 0; every
    other request gets its own writable array.
    """
    workers = os.environ.get(WORKERS_ENV) or "1"
    if not workers.isdecimal() or int(workers) < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a whole number of at "
                          f"least 1, got {workers!r}")
    grid = ensemble.grid
    dt, N, n, R = grid.dt, grid.steps, ensemble.n, len(regimes)
    M = ensemble.count
    out = {}
    spread = {}  # node values of each time-only table, by id
    # itos: (result, node values); regime_itos: (result, table) of the ito
    # requests that read the paths; counted: (result, per-regime value f)
    itos, regime_itos, counted = [], [], []
    for name, (kind, *tables) in sums.items():
        if any(map(regimes.reads_paths, tables)):
            out[name] = np.empty(M)
            if kind == "ito":
                regime_itos.append((out[name], tables[0]))
            else:
                counted.append((out[name], np.einsum("rj,rj->r", *tables)
                                if kind == "quad"
                                else np.sum(tables[0], axis=-1)))
            continue
        for t in tables:
            if id(t) not in spread:
                spread[id(t)] = t[regimes.time_rows]
        args = [spread[id(t)] for t in tables]
        if kind == "ito":
            out[name] = np.empty(M)
            itos.append((out[name], args[0]))
        else:  # the same number on every path: one read-only view of it
            out[name] = np.broadcast_to(np.multiply(
                np.einsum("...kj,...kj->...", *args) if kind == "quad"
                else np.sum(args[0], axis=(-2, -1)), dt), M)
    reads = bool(regime_itos or counted)

    # one path's share of the scratch set that ``run`` allocates
    per_path = 8 * N * n
    if reads:
        per_path += 8 * (N + 1) * n + 2 * N
    if regime_itos:
        per_path += 8 * (N + R * n)
    ranges = list(ensemble.block_ranges(
        ensemble.block_paths or max(1, _SCRATCH_BYTES // per_path)))
    B = max(stop - start for start, stop in ranges)

    def run(first_block: int) -> None:
        dW = np.empty((B, N, n))
        if reads:
            W, masks = np.empty((B, N + 1, n)), np.empty((2, B, N), bool)
            counts = np.empty((R, B))
        if regime_itos:
            weight, D = np.empty(B * N), np.empty((B, R, n))
        for start, stop in ranges[first_block::nworkers]:
            b = stop - start
            dw = ensemble.increments(start, stop, out=dW[:b])
            if reads:
                w = cumulative(dw, out=W[:b])
                for r in range(R):
                    nodes, mask = regimes.mask(r, w, out=masks[:, :b])
                    if counted:
                        counts[r, :b] = np.count_nonzero(mask, axis=1)
                    if regime_itos:
                        # a float copy of the mask times the increments:
                        # a batched (1, len) by (len, n) product per path
                        x = weight[:mask.size].reshape(b, 1, -1)
                        np.copyto(x[:, 0], mask)
                        np.matmul(x, dw[:, nodes], out=D[:b, r:r + 1])
            for res, f in counted:
                acc = np.multiply(counts[0, :b], f[0], out=res[start:stop])
                for r in range(1, len(f)):
                    acc += counts[r, :b] * f[r]
                acc *= dt
            for res, values in itos:
                ito_sum(values, dw, res[start:stop])
            for res, table in regime_itos:
                ito_sum(table, D[:b], res[start:stop])

    nworkers = min(int(workers), len(ranges))
    if nworkers == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run, range(nworkers)))
    return out
