"""Seeded Brownian path ensembles with streaming Ito quadrature.

An ensemble is a recipe, not an array: path i draws its N x n increments from
a dedicated Philox stream keyed by (seed, i), so any path can be regenerated
bit-identically regardless of how paths are partitioned into blocks or how
many workers process them.  Philox is counter-based, so a stream depends
only on its key: each thread holds one generator and re-keys it for every
path.  Consumers stream over blocks of paths, reduce each block to a handful
of per-path scalars, and concatenate those in path order; all cross-path
reductions (means, standard errors) happen on the full M-vector in the
caller.  ``path_sums`` is the one such consumer: it returns the named
stochastic and time integrals that every estimator is built from.  This
keeps memory at O(block) while making every result independent of block
size and worker count.  A block holds about ``_BLOCK_CELLS`` increments
unless ``block_paths`` fixes its path count, so a block of long paths has
fewer of them and every block array stays near the size of a core's L2
cache whatever the grid.

Integrands follow the left-endpoint convention: the coefficient value at node
t_k multiplies the increment over [t_k, t_{k+1}).  Per-node arrays therefore
have N entries (nodes t_0 .. t_{N-1}) while cumulative paths have N+1.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

WORKERS_ENV = "PORTSENS_WORKERS"

# binary ensemble dump: 7 little-endian 64-bit header fields, then row-major
# float64 increments of shape (M, N, n)
_DUMP_MAGIC = int.from_bytes(b"BRWNPATH", "little")
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<6Qd")  # magic, version, seed, M, N, n, T

_MAX_CELLS = 2**34  # hard cap on M*N*n for any materialization request

# default block size in float64 cells (B*N*n): one (B, N, n) block array is
# 2 MB, about the L2 of one core
_BLOCK_CELLS = 2**18

# one Philox generator per thread: a generator is not thread-safe, and every
# path overwrites its whole state, so nothing carries over between callers
_THREAD_RNG = threading.local()


def check_seed(seed: int) -> int:
    """The seed unchanged if it fits the 64-bit Philox key word."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


def check_block_paths(block_paths: int | None) -> int | None:
    """The block size unchanged if it is None (the default) or positive."""
    if block_paths is not None and block_paths < 1:
        raise ValueError(f"block_paths must be at least 1, got {block_paths}")
    return block_paths


def _thread_generator() -> tuple[np.random.Generator, dict]:
    """This thread's generator and the state template that re-keys it.

    The template is the state of a fresh ``Generator(Philox(key))``:
    counter 0 and an empty output buffer (``buffer_pos = 4``), without which
    values buffered by one path would leak into the next.  Setting the
    state copies the template, so only its key changes between paths.
    """
    pair = getattr(_THREAD_RNG, "pair", None)
    if pair is None:
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, np.uint64),
                           "key": np.zeros(2, np.uint64)},
                 "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(np.random.Philox(key=0))
        pair = _THREAD_RNG.pair = (gen, state)
    return pair


class ResourceLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/N on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

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

    Increments are N(0, dt) i.i.d. per coordinate.  ``block_paths`` is a
    memory knob only; it never affects values.  By default (None) a block
    holds as many paths as fit in ``_BLOCK_CELLS`` increments, and at
    least one.
    """

    grid: TimeGrid
    n: int
    count: int
    seed: int
    scheme: str = "philox-per-path/1"
    block_paths: int | None = field(default=None, compare=False)
    _stored: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.count < 1:
            raise ValueError("need n >= 1 and count >= 1")
        check_seed(self.seed)
        check_block_paths(self.block_paths)
        if self.count * self.grid.steps * self.n > _MAX_CELLS:
            raise ResourceLimitError(
                f"ensemble of {self.count}x{self.grid.steps}x{self.n} cells "
                "exceeds the resource cap")

    def block_ranges(self):
        step = self.block_paths or max(
            1, _BLOCK_CELLS // (self.grid.steps * self.n))
        for start in range(0, self.count, step):
            yield start, min(start + step, self.count)

    def increments(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Increment array of shape (stop-start, N, n) for a path range."""
        stop = self.count if stop is None else stop
        if not 0 <= start <= stop <= self.count:
            raise IndexError(f"bad path range [{start}, {stop})")
        if self._stored is not None:
            return self._stored[start:stop]
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


def simulate(grid: TimeGrid, n: int, M: int, seed: int,
             block_paths: int | None = None) -> PathEnsemble:
    """Seeded ensemble of M Brownian paths in R^n on the grid."""
    return PathEnsemble(grid=grid, n=n, count=M, seed=seed,
                        block_paths=block_paths)


def cumulative(dW: np.ndarray) -> np.ndarray:
    """Node values W_{t_0..t_N} (shape (B, N+1, n)) from increments."""
    B, N, n = dW.shape
    W = np.empty((B, N + 1, n))
    W[:, 0] = 0.0
    np.cumsum(dW, axis=1, out=W[:, 1:])
    return W


def resolve_workers(workers: int | None = None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return max(1, workers)


def map_blocks(ensemble: PathEnsemble, block_fn, workers: int | None = None,
               needs_w: bool = True):
    """Apply block_fn(start, stop, dW, W) over all blocks, in path order.

    block_fn returns one array or a tuple of arrays whose leading axis is the
    block's path count; the results are concatenated along that axis.  W is
    None when ``needs_w`` is false, which saves building the cumulative
    paths of every block.  Blocks may be processed by several threads, but
    because every path owns its RNG stream and reductions happen on the
    concatenated output, the result is bit-identical for any worker count.
    """
    ranges = list(ensemble.block_ranges())

    def run(rng):
        start, stop = rng
        dW = ensemble.increments(start, stop)
        return block_fn(start, stop, dW, cumulative(dW) if needs_w else None)

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(ranges) == 1:
        pieces = [run(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            pieces = list(pool.map(run, ranges))
    if isinstance(pieces[0], tuple):
        return tuple(np.concatenate(cols) for cols in zip(*pieces))
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# block-level reductions; H may be deterministic (N, n) or adapted (B, N, n)

def ito_sum(H: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Per-path sum_k <H_k, dW_k> with left-endpoint H."""
    return np.einsum("...kj,bkj->b", H, dW) if H.ndim == 2 \
        else np.einsum("bkj,bkj->b", H, dW)


def quad_sum(H: np.ndarray, G: np.ndarray, dt: float) -> np.ndarray:
    """Per-path sum_k <H_k, G_k> dt (zero-dimensional if both deterministic)."""
    prod = np.einsum("...kj,...kj->...", H, G)
    return prod * dt


# ---------------------------------------------------------------------------
# the path-sum kernel

def path_sums(ensemble: PathEnsemble, sums: dict,
              workers: int | None = None) -> dict:
    """Named per-path sums, all from one pass over the ensemble.

    Each request is ``("ito", a)`` for sum_k <a_k, dW_k>, ``("quad", a, b)``
    for sum_k <a_k, b_k> dt, or ``("time", c)`` for sum_k sum_j c_kj dt.
    An integrand is a pair ``(regimes, table)``: ``regimes.index(W)`` gives
    the regime of every left node, (N,) when it depends on time only and
    (B, N) when it reads the paths, and ``table[index]`` the node values
    (see ``market.RegimeTable``).  A deterministic integrand thus reduces
    as an (N, k) array and an adapted one as (B, N, k).  A table that is a
    broadcast view, one value for every regime as a constant coefficient
    gives, spreads as a broadcast view too: einsum sums a broadcast operand
    in another order than a dense one, so a constant keeps the order it
    has as ``CoefficientProcess.evaluate`` output, and a caller that wants
    the dense order passes a dense table.

    Within a block, node values are gathered on first use and dropped after
    the last request that names the same integrand object, so requests
    listed in groups hold only one group's integrands at a time.  The
    cumulative paths are built only when some regime table has drivers.
    Returns an (M,) array per name.
    """
    dt = ensemble.grid.dt
    fields = [f for _, *fs in sums.values() for f in fs]
    uses = Counter(id(f) for f in fields)
    needs_w = any(regimes.drivers for regimes, _ in fields)

    def block(start, stop, dW, W):
        index, live, left = {}, {}, Counter(uses)

        def values(f):
            key = id(f)
            if key not in live:
                regimes, table = f
                if id(regimes) not in index:
                    index[id(regimes)] = regimes.index(W)
                idx = index[id(regimes)]
                live[key] = (np.broadcast_to(table[0], idx.shape
                                             + table.shape[1:])
                             if table.strides[0] == 0 else table[idx])
            vals = live[key]
            left[key] -= 1
            if not left[key]:
                del live[key]
            return vals

        out = []
        for kind, *fs in sums.values():
            if kind == "ito":
                v = ito_sum(values(fs[0]), dW)
            elif kind == "quad":
                v = quad_sum(values(fs[0]), values(fs[1]), dt)
            else:
                v = np.sum(values(fs[0]), axis=(-2, -1)) * dt
            out.append(np.broadcast_to(v, (stop - start,)).astype(float,
                                                                  copy=True))
        return tuple(out)

    return dict(zip(sums, map_blocks(ensemble, block, workers, needs_w)))


# ---------------------------------------------------------------------------
# binary ensemble dump

def dump_ensemble(ensemble: PathEnsemble, path: str,
                  workers: int | None = None) -> None:
    """Write header + row-major float64 increments to ``path``."""
    grid = ensemble.grid
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION,
                                   ensemble.seed, ensemble.count,
                                   grid.steps, ensemble.n, grid.horizon))
        for start, stop in ensemble.block_ranges():
            fh.write(np.ascontiguousarray(
                ensemble.increments(start, stop)).tobytes())


def load_ensemble(path: str, block_paths: int | None = None) -> PathEnsemble:
    """Read an ensemble dump; the result serves stored increments."""
    with open(path, "rb") as fh:
        header = fh.read(_DUMP_HEADER.size)
        if len(header) < _DUMP_HEADER.size:
            raise ValueError("truncated ensemble file")
        magic, version, seed, M, N, n, T = _DUMP_HEADER.unpack(header)
        if magic != _DUMP_MAGIC:
            raise ValueError("not an ensemble dump (bad magic)")
        if version != _DUMP_VERSION:
            raise ValueError(f"unsupported ensemble dump version {version}")
        if M * N * n > _MAX_CELLS:
            raise ResourceLimitError("stored ensemble exceeds the resource cap")
        payload = fh.read(8 * M * N * n)
    if len(payload) != 8 * M * N * n:
        raise ValueError("truncated ensemble payload")
    data = np.frombuffer(payload, dtype="<f8")
    grid = TimeGrid(horizon=T, steps=N)
    return PathEnsemble(grid=grid, n=n, count=M, seed=seed,
                        scheme="stored/1", block_paths=block_paths,
                        _stored=data.reshape(M, N, n))
