"""Path engine: reproducibility and the stochastic calculus kernels.

The load-bearing property is that every path owns its RNG stream, so any
partitioning of the ensemble (block size, worker count) produces identical
bits.
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from portsens import paths as paths_mod
from portsens.market import (RegimeTable, constant, indicator, mpr_table,
                             piecewise)
from portsens.estimate import ConfigError
from portsens.paths import (PathEnsemble, TimeGrid, cumulative, ito_sum,
                            path_sums)

from conftest import node_regimes


def on_table(grid, *procs):
    """One regime table of ``procs`` and each one's values on it."""
    regimes = RegimeTable(grid, *procs)
    return (regimes, *(regimes.values(p) for p in procs))


def market_lambda(model, grid):
    """The market's regime table and its price of risk on it."""
    regimes = RegimeTable(grid, model.mu, model.sigma, model.rate)
    return regimes, mpr_table(model, regimes)


def test_grid_validation():
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            TimeGrid(horizon, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.nodes.shape == (9,)
    assert g.left_nodes[-1] == pytest.approx(1.75)


def test_increments_independent_of_block_size():
    grid = TimeGrid(1.0, 16)
    a = PathEnsemble(grid, n=2, count=100, seed=7, block_paths=100)
    b = PathEnsemble(grid, n=2, count=100, seed=7, block_paths=7)
    full = a.increments(0, 100)
    parts = [b.increments(s, t) for s, t in b.block_ranges(7)]
    assert np.array_equal(full, np.concatenate(parts))
    # and any sub-range slices out of the same stream
    assert np.array_equal(full[13:20], a.increments(13, 20))


def fresh_stream(ens, i):
    """Path i as a freshly built Generator(Philox(key=[seed, i])) draws it.

    The key is built as uint64: numpy turns a plain list holding an int
    above 2**63 into float64, which rounds the seed.
    """
    key = np.array([ens.seed, i], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    dW = gen.standard_normal((ens.grid.steps, ens.n))
    return dW * math.sqrt(ens.grid.dt)


@pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
def test_increments_pin_the_philox_per_path_scheme(seed):
    ens = PathEnsemble(TimeGrid(1.0, 8), n=2, count=30, seed=seed,
                       block_paths=8)
    assert ens.scheme == "philox-per-path/1"
    for start, stop in ((0, 30), (5, 13), (19, 30), (29, 30)):
        got = ens.increments(start, stop)
        for i in range(start, stop):
            assert np.array_equal(got[i - start], fresh_stream(ens, i))


def test_no_buffered_values_leak_between_paths():
    # a one-draw path leaves part of the generator's output buffer unread;
    # the next path on the same thread must not start from it
    short = PathEnsemble(TimeGrid(1.0, 1), n=1, count=3, seed=5)
    long = PathEnsemble(TimeGrid(1.0, 64), n=2, count=3, seed=6)
    for i in range(3):
        assert np.array_equal(short.increments(i, i + 1)[0],
                              fresh_stream(short, i))
        assert np.array_equal(long.increments(i, i + 1)[0],
                              fresh_stream(long, i))


def test_interleaved_ensembles_on_two_threads():
    a = PathEnsemble(TimeGrid(1.0, 5), n=1, count=2000, seed=21,
                     block_paths=50)
    b = PathEnsemble(TimeGrid(2.0, 16), n=3, count=2000, seed=22,
                     block_paths=50)
    jobs = []
    for ra, rb in zip(a.block_ranges(50), b.block_ranges(50)):
        jobs += [(a, ra), (b, rb)]  # the two ensembles' blocks alternate
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between paths, not blocks
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(ens.increments, *r) for ens, r in jobs]
            pieces = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for ens in (a, b):
        threaded = np.concatenate([p for (e, _), p in zip(jobs, pieces)
                                   if e is ens])
        assert np.array_equal(threaded, ens.increments())


def test_seed_range():
    grid = TimeGrid(1.0, 4)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            PathEnsemble(grid, n=1, count=2, seed=bad)
    assert PathEnsemble(grid, n=1, count=2, seed=2**64 - 1).seed == 2**64 - 1


def test_default_blocks_fill_the_scratch_budget(monkeypatch, det2d_model,
                                                switch_model):
    # a block holds as many paths as fit one worker's whole scratch set in
    # 2 MiB: 2048 when the pass reads only increments (64 steps, n = 2,
    # 1 kB a path); 58 when it also builds paths and a mask and flag per
    # node for counted sums (36008 bytes a path of 2000 steps, n = 1); 40
    # when an ito sum reads the paths too, adding a weight per node and
    # two regimes' increment sums (52024 bytes); 1 when one path's
    # increments alone exceed the budget
    monkeypatch.setenv("PORTSENS_WORKERS", "1")
    budget = paths_mod._SCRATCH_BYTES
    sizes, held = [], []
    increments = PathEnsemble.increments

    def recorded(self, start=0, stop=None, out=None):
        if not sizes:
            held.append(tracemalloc.get_traced_memory()[0])
        sizes.append(stop - start)
        return increments(self, start, stop, out)

    monkeypatch.setattr(PathEnsemble, "increments", recorded)
    both, quad = ("S", "Q"), ("Q",)
    cases = [(det2d_model, 64, 2, 3000, both, [2048, 952]),
             (switch_model, 2000, 1, 100, both, [40, 40, 20]),
             (switch_model, 2000, 1, 100, quad, [58, 42]),
             (det2d_model, 2**17 + 1, 2, 3, both, [1, 1, 1])]
    for model, steps, n, M, names, blocks in cases:
        grid = TimeGrid(1.0, steps)
        ens = PathEnsemble(grid, n=n, count=M, seed=1)
        regimes, lam = market_lambda(model, grid)
        requests = {"S": ("ito", lam), "Q": ("quad", lam, lam)}
        sizes.clear()
        held.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path_sums(ens, regimes, {k: requests[k] for k in names})
        finally:
            tracemalloc.stop()
        assert sizes == blocks
        # where a path fits, the pass holds at its first draw the scratch
        # set within the budget plus under 64 kB of outputs, counts and
        # node tables; where it does not, one path's increments and the
        # price of risk, spread once for both requests that name it, as
        # (N, n) arrays
        scratch = budget if blocks[0] > 1 else 2 * 8 * steps * n
        assert held[0] - before <= scratch + 2**16


def test_block_paths_range():
    grid = TimeGrid(1.0, 4)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="block_paths"):
            PathEnsemble(grid, n=1, count=2, seed=1, block_paths=bad)
    ens = PathEnsemble(grid, n=1, count=5, seed=1, block_paths=2)
    assert list(ens.block_ranges(ens.block_paths)) == [(0, 2), (2, 4), (4, 5)]


def kernel_requests(grid, model):
    """One regime table and every request kind over adapted, spread and
    deterministic operands on it.

    ``model`` is "switch" (price of risk 1 on {W < 0}, two regimes) or
    "two-drivers" (a time break before the first step, whose segment
    holds t_0 alone, and indicators on both coordinates).
    """
    if model == "switch":
        regimes, lam, det, spread = on_table(
            grid, indicator(0, 0.0, [0.0], [1.0]), constant([0.5]),
            constant([-0.25]))
        return regimes, {"S": ("ito", lam), "Q": ("quad", lam, lam),
                         "X": ("quad", lam, det), "T": ("time", lam),
                         "C": ("ito", det), "CC": ("quad", det, det),
                         "Tc": ("time", spread)}
    pw = piecewise([0.5 * grid.dt, 0.6], [[0.5, -1.0], [2.0, 0.25],
                                          [-0.75, 1.5]])
    ind0 = indicator(0, -0.1, [0.1, 0.4], [-0.3, 1.1])
    ind1 = indicator(1, 0.2, [1.0, 0.0], [0.0, 2.0])
    const = constant([0.3, -0.6])
    joint = RegimeTable(grid, pw, ind0, ind1, const)
    # the tables are dense, as the market's tables are; a constant
    # member's broadcast view is copied; a and time_only are two objects
    # of the same time-only values, b, c and d read the paths
    a, b, c, k = (np.array(joint.values(p)) for p in (pw, ind0, ind1, const))
    d = joint.values(ind1) - joint.values(pw)
    time_only = joint.values(pw)
    # Ib, Ic and Id read the same per-regime increment sums, each with its
    # own table
    return joint, {"Ia": ("ito", a), "Ib": ("ito", b), "Ic": ("ito", c),
                   "Ik": ("ito", k), "Qab": ("quad", a, b),
                   "Qbc": ("quad", b, c), "Qkc": ("quad", k, c),
                   "Qtb": ("quad", time_only, b), "Tk": ("time", k),
                   "It": ("ito", time_only),
                   "Qtt": ("quad", time_only, time_only),
                   "Tc": ("time", c), "Qcd": ("quad", c, d),
                   "Id": ("ito", d)}


def direct_sums(ens, regimes, requests, absolute=False):
    """Each request reduced over the whole ensemble from node values
    looked up afresh for it by ``node_regimes`` (the reference for
    ``path_sums``); with ``absolute``, from |values| and |dW|."""
    dW = ens.increments()
    at = node_regimes(regimes, cumulative(dW))
    f = np.abs if absolute else np.asarray
    out = {}
    for name, (kind, *fs) in requests.items():
        v = [f(table)[at] for table in fs]
        if kind == "ito":
            r = ito_sum(v[0], f(dW))
        elif kind == "quad":
            r = np.multiply(np.einsum("...kj,...kj->...", v[0], v[1]),
                            ens.grid.dt)
        else:
            r = np.sum(v[0], axis=(-2, -1)) * ens.grid.dt
        out[name] = np.broadcast_to(r, (ens.count,))
    return out


def per_regime(regimes, requests):
    """Names of the requests that ``path_sums`` reads off per-regime
    counts or increment sums rather than summing node by node."""
    return {name for name, (kind, *fs) in requests.items()
            if any(map(regimes.reads_paths, fs))}


# a sum read off per-regime statistics adds the same terms in another
# order than the node-by-node reference; each order's rounding error is
# below (N + R + k + 2) ulps of the sum of absolute terms, sum_k |a_k| dt
# or sum_k |a_k||dW_k|, under 256 for the tables here (N <= 200 nodes,
# R <= 9 regimes, k <= 2 columns)
PER_REGIME_REL = 512 * np.finfo(float).eps


def assert_per_regime_close(got, want, ens, regimes, request):
    scale = direct_sums(ens, regimes, {"x": request}, absolute=True)["x"]
    assert np.all(np.abs(got - want) <= PER_REGIME_REL * scale)


@pytest.mark.parametrize("model", ["switch", "two-drivers"])
def test_path_sums_bitwise_across_workers_and_blocks(monkeypatch, model):
    # every block writes its own path range of the outputs from its own
    # scratch views, so neither the worker count nor the block size (100
    # paths in blocks of 1, 3 and 7 leave uneven last blocks) moves a bit
    for steps in (16, 200):
        grid = TimeGrid(1.0, steps)

        def sums(workers, block_paths):
            monkeypatch.setenv("PORTSENS_WORKERS", str(workers))
            ens = PathEnsemble(grid, n=2, count=100, seed=11,
                               block_paths=block_paths)
            return path_sums(ens, *kernel_requests(grid, model))

        base = sums(1, None)
        ens = PathEnsemble(grid, n=2, count=100, seed=11)
        regimes, requests = kernel_requests(grid, model)
        want = direct_sums(ens, regimes, requests)
        # the switch market's counted sums read the 0/1 price of risk and
        # 0.5 times it: exact counts times exact values, summed exactly;
        # its ito sum of the price of risk adds the increments of the
        # nodes in {W < 0} in another order
        loose = per_regime(regimes, requests)
        assert loose == ({"S", "Q", "X", "T"} if model == "switch" else
                         {"Ib", "Ic", "Id", "Qab", "Qbc", "Qkc", "Qtb",
                          "Tc", "Qcd"})
        for name in want:
            assert base[name].shape == (100,)
            if name not in loose or (model == "switch" and name != "S"):
                assert np.array_equal(base[name], want[name]), name
            else:
                assert_per_regime_close(base[name], want[name], ens,
                                        regimes, requests[name])
        for workers in (1, 2, 4):
            for block_paths in (None, 1, 3, 7):
                got = sums(workers, block_paths)
                for name in base:
                    assert np.array_equal(got[name], base[name]), \
                        (name, steps, workers, block_paths)


@pytest.mark.parametrize("model", ["switch", "two-drivers"])
def test_sums_that_read_no_paths_are_one_read_only_number(monkeypatch,
                                                          model):
    # a quad or time sum on tables that read no paths is the same number
    # on every path: path_sums returns it as a read-only (M,) view with
    # stride 0, bit for bit the reference for any worker count and block
    # size, so that writing into it, which would change every path, raises
    grid = TimeGrid(1.0, 16)
    regimes, requests = kernel_requests(grid, model)
    constant_sums = {name for name, (kind, *_) in requests.items()
                     if kind != "ito"} - per_regime(regimes, requests)
    assert constant_sums == ({"CC", "Tc"} if model == "switch"
                             else {"Qtt", "Tk"})
    want = direct_sums(PathEnsemble(grid, n=2, count=100, seed=11),
                       regimes, requests)
    for workers in (1, 2, 4):
        monkeypatch.setenv("PORTSENS_WORKERS", str(workers))
        for block_paths in (None, 1, 3, 7):
            got = path_sums(PathEnsemble(grid, n=2, count=100, seed=11,
                                         block_paths=block_paths),
                            regimes, requests)
            for name, s in got.items():
                assert s.shape == (100,)
                if name in constant_sums:
                    assert s.strides == (0,) and not s.flags.writeable
                    assert np.array_equal(s, want[name]), name
                else:
                    assert s.strides == (8,) and s.flags.writeable
    for name in constant_sums:
        with pytest.raises(ValueError, match="read-only"):
            got[name][0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            got[name] += 1.0


def test_counted_sums_of_zero_one_tables_are_exact():
    # on the sign-switching market every quad and time sum is counted, and
    # the price of risk is 0 or 1: each path's sum is its count of nodes
    # in {W < 0} times dt, as the node-by-node reference adds it, so the
    # benchmark's example1 bytes do not move
    grid = TimeGrid(1.0, 2000)
    ens = PathEnsemble(grid, n=1, count=60, seed=7)
    regimes, lam, one = on_table(grid, indicator(0, 0.0, [0.0], [1.0]),
                                 constant([1.0]))
    requests = {"Q": ("quad", lam, lam), "T": ("time", lam),
                "X": ("quad", lam, one)}
    assert per_regime(regimes, requests) == set(requests)
    got = path_sums(ens, regimes, requests)
    want = direct_sums(ens, regimes, requests)
    below = np.count_nonzero(cumulative(ens.increments())[:, :-1, 0] < 0,
                             axis=1)
    for name in requests:
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(got[name], below * grid.dt), name


@pytest.mark.parametrize("kind", ["ito", "quad", "time"])
def test_path_sums_ignore_table_strides(kind):
    # a table given as a broadcast view with stride 0 across regimes is
    # gathered as a dense copy is, so both sum the same bits
    grid = TimeGrid(1.0, 100)
    ens = PathEnsemble(grid, n=3, count=20, seed=4)
    regimes, table = on_table(grid, constant([0.1, -0.7, 1.3]))
    view = np.broadcast_to(table[0], table.shape)
    assert view.strides[0] == 0
    arity = 2 if kind == "quad" else 1
    sums = [path_sums(ens, regimes, {"x": (kind,) + (t,) * arity})["x"]
            for t in (view, table)]
    assert np.array_equal(sums[0], sums[1])


def test_path_sums_reuse_one_increment_buffer(monkeypatch):
    # one worker draws every block's increments into the same scratch, and
    # takes every mask, weight and increment sum in the buffers it
    # allocated once for the pass; the buffers are kept alive here, so a
    # fresh allocation could not reuse their address
    monkeypatch.setenv("PORTSENS_WORKERS", "1")
    seen, masks, products = [], [], []
    increments, mask, matmul = (PathEnsemble.increments, RegimeTable.mask,
                                np.matmul)

    def recorded(self, start=0, stop=None, out=None):
        dW = increments(self, start, stop, out)
        seen.append((dW.shape[0], dW.__array_interface__["data"][0]))
        return dW

    def masked(self, r, W, out):
        masks.append(out.base)
        return mask(self, r, W, out)

    def product(x, y, out):
        products.append((x.base, out.base))
        return matmul(x, y, out=out)

    monkeypatch.setattr(PathEnsemble, "increments", recorded)
    monkeypatch.setattr(RegimeTable, "mask", masked)
    monkeypatch.setattr(paths_mod.np, "matmul", product)
    grid = TimeGrid(1.0, 16)
    ens = PathEnsemble(grid, n=2, count=100, seed=11, block_paths=7)
    regimes, requests = kernel_requests(grid, "two-drivers")
    path_sums(ens, regimes, requests)
    assert [b for b, _ in seen] == [7] * 14 + [2]
    assert len({address for _, address in seen}) == 1
    assert len(masks) == len(products) == 15 * len(regimes)
    for buffers in [masks, *zip(*products)]:
        assert all(buf is buffers[0] for buf in buffers)


@pytest.mark.parametrize("breaks", [[], [0.4], [0.05], [0.4, 3.0]])
def test_regime_statistics_match_the_row_lookup(breaks):
    # in blocks of 16 paths, each regime's mask over its segment's nodes,
    # its node counts and its increment sums match the regimes that
    # node_regimes looks up row by row: with no break, a break inside the
    # grid, one before the first step (t_0 alone in its segment) and one
    # past the horizon (an empty segment)
    grid = TimeGrid(1.0, 12)
    procs = [indicator(0, -0.2, [0.0], [1.0]), indicator(0, 0.3, [1.0], [0.0]),
             indicator(1, 0.0, [0.5], [0.0])]
    if breaks:
        procs.append(piecewise(breaks, np.arange(len(breaks) + 1.0)[:, None]))
    regimes = RegimeTable(grid, *procs)
    R, N = len(regimes), grid.steps
    ens = PathEnsemble(grid, n=2, count=40, seed=15, block_paths=16)
    dW = ens.increments()
    W = cumulative(dW)
    at = node_regimes(regimes, W)
    buf = np.empty((2, 16, N), bool)
    for start, stop in ens.block_ranges(16):
        for r in range(R):
            nodes, mask = regimes.mask(r, W[start:stop],
                                       out=buf[:, :stop - start])
            inside = at[start:stop] == r
            assert np.array_equal(mask, inside[:, nodes])
            assert np.shares_memory(mask, buf)
            assert not np.any(np.delete(inside, np.arange(N)[nodes], 1))
    # one-hot tables: regime r's time sum is dt c_r, and its ito sum on
    # coordinate j the increment sum D_rj
    requests = {}
    for r in range(R):
        requests[f"c{r}"] = ("time", np.eye(R)[:, r:r + 1])
        for j in range(2):
            table = np.zeros((R, 2))
            table[r, j] = 1.0
            requests[f"D{r}{j}"] = ("ito", table)
    got = path_sums(ens, regimes, requests)
    for r in range(R):
        inside = at == r
        assert np.array_equal(got[f"c{r}"],
                              np.count_nonzero(inside, axis=1) * grid.dt)
        for j in range(2):
            terms = np.where(inside, dW[..., j], 0.0)
            # both orders of adding at most N terms: 2 N ulps of sum |dW|
            assert np.all(np.abs(got[f"D{r}{j}"] - np.sum(terms, axis=1))
                          <= 2 * N * np.finfo(float).eps
                          * np.sum(np.abs(terms), axis=1))


def test_cumulative_paths_only_for_tables_with_drivers(monkeypatch,
                                                      det2d_model,
                                                      switch_model):
    built = []
    real = paths_mod.cumulative

    def counted(dW, out=None):
        built.append(dW.shape[0])
        return real(dW, out)

    monkeypatch.setattr(paths_mod, "cumulative", counted)
    grid = TimeGrid(1.0, 16)
    cases = [(det2d_model, 2, []), (switch_model, 1, [20, 20, 10])]
    for model, n, blocks in cases:
        built.clear()
        ens = PathEnsemble(grid, n=n, count=50, seed=13, block_paths=20)
        regimes, lam = market_lambda(model, grid)
        path_sums(ens, regimes, {"S": ("ito", lam), "Q": ("quad", lam, lam)})
        assert built == blocks


def test_increment_moments(ens1d):
    dW = ens1d.increments(0, 4000)
    dt = ens1d.grid.dt
    assert float(np.mean(dW)) == pytest.approx(0.0, abs=4 * math.sqrt(dt / dW.size))
    assert float(np.var(dW)) == pytest.approx(dt, rel=0.05)


def test_ito_isometry(ens1d):
    # E[(int H dW)^2] = E[int H^2 dt] for the adapted sign integrand
    regimes, lam = on_table(ens1d.grid, indicator(0, 0.0, [0.0], [1.0]))
    s = path_sums(ens1d, regimes,
                  {"ito": ("ito", lam), "qv": ("quad", lam, lam)})
    vals, qv = s["ito"], s["qv"]
    lhs, rhs = float(np.mean(vals**2)), float(np.mean(qv))
    se = float(np.std(vals**2 - qv)) / math.sqrt(ens1d.count)
    assert abs(lhs - rhs) <= 3 * se + 1e-12


def test_kernels_agree_with_direct_sums(rng):
    dW = rng.normal(size=(5, 10, 3)) * 0.1
    H = rng.normal(size=(10, 3))
    expect = np.array([np.sum(H * dW[i]) for i in range(5)])
    assert np.allclose(ito_sum(H, dW), expect, atol=1e-15)


def test_path_sums_equal_sums_of_evaluated_coefficients():
    # per-regime tables looked up by node_regimes reproduce the evaluated
    # node arrays; every time-only sum matches the direct reduction of
    # them bit for bit, for any block size, and every sum read off
    # per-regime statistics matches it within a few ulps
    ens = PathEnsemble(TimeGrid(1.0, 24), n=2, count=300, seed=14,
                       block_paths=64)
    grid = ens.grid
    pw = piecewise([0.3, 0.55], [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
    ind = indicator(1, -0.2, [0.1, 0.4], [-0.3, 1.1])
    rate = constant([0.03])
    regimes, a, b, c = on_table(grid, pw, ind, rate)
    s = path_sums(ens, regimes, {"Ia": ("ito", a), "Ib": ("ito", b),
                                 "Qab": ("quad", a, b), "Qbb": ("quad", b, b),
                                 "R": ("time", c)})
    dW = ens.increments()
    W = cumulative(dW)
    pv, iv, rv = (p.evaluate(grid, W) for p in (pw, ind, rate))
    assert np.array_equal(s["Ia"], ito_sum(pv, dW))
    assert np.array_equal(s["R"], np.full(300, np.sum(rv) * grid.dt))
    # the indicator's non-integer values are read off regime counts and
    # increment sums
    assert_per_regime_close(s["Ib"], ito_sum(iv, dW), ens, regimes,
                            ("ito", b))
    for name, (x, y), (f, g) in (("Qab", (pv, iv), (a, b)),
                                 ("Qbb", (iv, iv), (b, b))):
        assert_per_regime_close(
            s[name], np.multiply(np.einsum("...kj,...kj->...", x, y),
                                 grid.dt), ens, regimes, ("quad", f, g))
    # a joint table looks up the same values as each member's own table
    joint = RegimeTable(grid, pw, ind)
    assert len(joint) == 3 * 2
    at = node_regimes(joint, W)
    assert np.array_equal(joint.values(ind)[at], iv)
    assert np.array_equal(joint.values(pw)[at], np.broadcast_to(pv, iv.shape))


def test_stochastic_exponential_is_positive_mean_one(ens1d):
    regimes, g = on_table(ens1d.grid, constant([1.0]))
    s = path_sums(ens1d, regimes, {"S": ("ito", g), "Q": ("quad", g, g)})
    se_vals = np.exp(s["S"] - 0.5 * s["Q"])
    assert np.all(se_vals > 0)
    est = se_vals.mean()
    tol = 3 * se_vals.std() / math.sqrt(ens1d.count)
    assert abs(est - 1.0) <= tol


def test_girsanov_weight_tilts_the_mean(ens1d):
    # E[G f(W_T)] equals E[f(W_T + c T)] for the constant shift c
    c = 0.7
    regimes, g = on_table(ens1d.grid, constant([c]))
    s = path_sums(ens1d, regimes, {"S": ("ito", g), "Q": ("quad", g, g)})
    G = np.exp(s["S"] - 0.5 * s["Q"])
    WT = np.sum(ens1d.increments(0, ens1d.count), axis=(1, 2))
    lhs = float(np.mean(G * WT))
    # per-path independent check, same paths: E[G W_T] = c T exactly in law
    se = float(np.std(G * WT)) / math.sqrt(ens1d.count)
    assert abs(lhs - c) <= 3 * se


def test_path_count_cap():
    # the cap bounds M, which sizes every per-path sum and influence
    # vector, whatever the grid: 10^7 paths of 2000 steps (80 MB a vector)
    # are admitted, 2^34 paths of one step (128 GiB a vector) are refused;
    # constructing an ensemble draws nothing
    PathEnsemble(grid=TimeGrid(1.0, 2000), n=1, count=10**7, seed=7)
    with pytest.raises(ConfigError,
                       match=rf"paths must be at most .*got {2**34}$"):
        PathEnsemble(grid=TimeGrid(1.0, 1), n=1, count=2**34, seed=0)
