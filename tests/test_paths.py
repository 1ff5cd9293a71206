"""Path engine: reproducibility, stochastic calculus kernels, serialization.

The load-bearing property is that every path owns its RNG stream, so any
partitioning of the ensemble (block size, worker count) produces identical
bits.
"""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from portsens import paths as paths_mod
from portsens.market import (RegimeTable, constant, indicator, integrand,
                             mpr_integrand, piecewise)
from portsens.paths import (PathEnsemble, ResourceLimitError, TimeGrid,
                            cumulative, dump_ensemble, ito_sum, load_ensemble,
                            map_blocks, path_sums, quad_sum, simulate)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.nodes.shape == (9,)
    assert g.left_nodes[-1] == pytest.approx(1.75)


def test_increments_independent_of_block_size():
    grid = TimeGrid(1.0, 16)
    a = simulate(grid, n=2, M=100, seed=7, block_paths=100)
    b = simulate(grid, n=2, M=100, seed=7, block_paths=7)
    full = a.increments(0, 100)
    parts = [b.increments(s, t) for s, t in b.block_ranges()]
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
    ens = simulate(TimeGrid(1.0, 8), n=2, M=30, seed=seed, block_paths=8)
    assert ens.scheme == "philox-per-path/1"
    for start, stop in ((0, 30), (5, 13), (19, 30), (29, 30)):
        got = ens.increments(start, stop)
        for i in range(start, stop):
            assert np.array_equal(got[i - start], fresh_stream(ens, i))


def test_no_buffered_values_leak_between_paths():
    # a one-draw path leaves part of the generator's output buffer unread;
    # the next path on the same thread must not start from it
    short = simulate(TimeGrid(1.0, 1), n=1, M=3, seed=5)
    long = simulate(TimeGrid(1.0, 64), n=2, M=3, seed=6)
    for i in range(3):
        assert np.array_equal(short.increments(i, i + 1)[0],
                              fresh_stream(short, i))
        assert np.array_equal(long.increments(i, i + 1)[0],
                              fresh_stream(long, i))


def test_interleaved_ensembles_on_two_threads():
    a = simulate(TimeGrid(1.0, 5), n=1, M=2000, seed=21, block_paths=50)
    b = simulate(TimeGrid(2.0, 16), n=3, M=2000, seed=22, block_paths=50)
    jobs = []
    for ra, rb in zip(a.block_ranges(), b.block_ranges()):
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
            simulate(grid, n=1, M=2, seed=bad)
    assert simulate(grid, n=1, M=2, seed=2**64 - 1).seed == 2**64 - 1


def test_default_blocks_fill_the_cell_budget():
    cells = paths_mod._BLOCK_CELLS
    for steps, n in ((64, 2), (2000, 1), (cells // 2 + 1, 3), (cells + 1, 1)):
        ens = simulate(TimeGrid(1.0, steps), n=n, M=300, seed=1)
        sizes = [stop - start for start, stop in ens.block_ranges()]
        assert sum(sizes) == 300
        # as many paths as the budget holds, and one when a path exceeds it
        assert sizes[0] == min(300, max(1, cells // (steps * n)))
        assert all(b * steps * n <= cells for b in sizes) or sizes[0] == 1


def test_block_paths_range():
    grid = TimeGrid(1.0, 4)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="block_paths"):
            simulate(grid, n=1, M=2, seed=1, block_paths=bad)
    ens = simulate(grid, n=1, M=5, seed=1, block_paths=2)
    assert list(ens.block_ranges()) == [(0, 2), (2, 4), (4, 5)]


def test_map_blocks_bitwise_across_workers(monkeypatch):
    ens = simulate(TimeGrid(1.0, 32), n=1, M=500, seed=11, block_paths=64)

    def block(start, stop, dW, W):
        return np.sum(W[:, -1, :], axis=1)

    base = map_blocks(ens, block, workers=1)
    monkeypatch.setenv("PORTSENS_WORKERS", "4")
    threaded = map_blocks(ens, block)
    assert np.array_equal(base, threaded)


def test_map_blocks_tuple_results():
    ens = simulate(TimeGrid(1.0, 8), n=1, M=50, seed=12, block_paths=16)

    def block(start, stop, dW, W):
        s = np.sum(dW[:, :, 0], axis=1)
        return s, s * s

    a, b = map_blocks(ens, block)
    assert a.shape == b.shape == (50,)
    assert np.array_equal(a * a, b)


def test_cumulative_paths_only_for_tables_with_drivers(monkeypatch,
                                                      det2d_model,
                                                      switch_model):
    built = []
    real = paths_mod.cumulative

    def counted(dW):
        built.append(dW.shape[0])
        return real(dW)

    monkeypatch.setattr(paths_mod, "cumulative", counted)
    grid = TimeGrid(1.0, 16)
    cases = [(det2d_model, 2, []), (switch_model, 1, [20, 20, 10])]
    for model, n, blocks in cases:
        built.clear()
        ens = simulate(grid, n=n, M=50, seed=13, block_paths=20)
        lam = mpr_integrand(model, grid)
        path_sums(ens, {"S": ("ito", lam), "Q": ("quad", lam, lam)})
        assert built == blocks


def test_increment_moments(ens1d):
    dW = ens1d.increments(0, 4000)
    dt = ens1d.grid.dt
    assert float(np.mean(dW)) == pytest.approx(0.0, abs=4 * math.sqrt(dt / dW.size))
    assert float(np.var(dW)) == pytest.approx(dt, rel=0.05)


def test_ito_isometry(ens1d):
    # E[(int H dW)^2] = E[int H^2 dt] for the adapted sign integrand
    lam = integrand(ens1d.grid, indicator(0, 0.0, [0.0], [1.0]))
    s = path_sums(ens1d, {"ito": ("ito", lam), "qv": ("quad", lam, lam)})
    vals, qv = s["ito"], s["qv"]
    lhs, rhs = float(np.mean(vals**2)), float(np.mean(qv))
    se = float(np.std(vals**2 - qv)) / math.sqrt(ens1d.count)
    assert abs(lhs - rhs) <= 3 * se + 1e-12


def test_kernels_agree_with_direct_sums(rng):
    dW = rng.normal(size=(5, 10, 3)) * 0.1
    H = rng.normal(size=(10, 3))
    expect = np.array([np.sum(H * dW[i]) for i in range(5)])
    assert np.allclose(ito_sum(H, dW), expect, atol=1e-15)
    G = rng.normal(size=(5, 10, 3))
    qs = quad_sum(G, G, 0.25)
    assert np.allclose(qs, np.sum(G * G, axis=(1, 2)) * 0.25, atol=1e-15)


def test_path_sums_equal_sums_of_evaluated_coefficients():
    # gathering per-regime tables by the regime index reproduces the
    # evaluated node arrays, so every sum matches the direct reduction
    # bit for bit, for any block size
    ens = simulate(TimeGrid(1.0, 24), n=2, M=300, seed=14, block_paths=64)
    grid = ens.grid
    pw = piecewise([0.3, 0.55], [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
    ind = indicator(1, -0.2, [0.1, 0.4], [-0.3, 1.1])
    rate = constant([0.03])
    a, b, c = integrand(grid, pw), integrand(grid, ind), integrand(grid, rate)
    s = path_sums(ens, {"Ia": ("ito", a), "Ib": ("ito", b),
                        "Qab": ("quad", a, b), "Qbb": ("quad", b, b),
                        "R": ("time", c)})
    dW = ens.increments()
    W = cumulative(dW)
    pv, iv, rv = (p.evaluate(grid, W) for p in (pw, ind, rate))
    assert np.array_equal(s["Ia"], ito_sum(pv, dW))
    assert np.array_equal(s["Ib"], ito_sum(iv, dW))
    assert np.array_equal(s["Qab"], quad_sum(pv, iv, grid.dt))
    assert np.array_equal(s["Qbb"], quad_sum(iv, iv, grid.dt))
    assert np.array_equal(s["R"], np.full(300, np.sum(rv) * grid.dt))
    # a joint table gathers the same values as each member's own table
    joint = RegimeTable(grid, pw, ind)
    assert len(joint) == 3 * 2
    assert np.array_equal(joint.values(ind)[joint.index(W)], iv)
    assert np.array_equal(joint.values(pw)[joint.index(W)],
                          np.broadcast_to(pv, iv.shape))


def test_stochastic_exponential_is_positive_mean_one(ens1d):
    g = integrand(ens1d.grid, constant([1.0]))
    s = path_sums(ens1d, {"S": ("ito", g), "Q": ("quad", g, g)})
    se_vals = np.exp(s["S"] - 0.5 * s["Q"])
    assert np.all(se_vals > 0)
    est = se_vals.mean()
    tol = 3 * se_vals.std() / math.sqrt(ens1d.count)
    assert abs(est - 1.0) <= tol


def test_girsanov_weight_tilts_the_mean(ens1d):
    # E[G f(W_T)] equals E[f(W_T + c T)] for the constant shift c
    c = 0.7
    g = integrand(ens1d.grid, constant([c]))
    s = path_sums(ens1d, {"S": ("ito", g), "Q": ("quad", g, g)})
    G = np.exp(s["S"] - 0.5 * s["Q"])
    WT = np.sum(ens1d.increments(0, ens1d.count), axis=(1, 2))
    lhs = float(np.mean(G * WT))
    # per-path independent check, same paths: E[G W_T] = c T exactly in law
    se = float(np.std(G * WT)) / math.sqrt(ens1d.count)
    assert abs(lhs - c) <= 3 * se


def test_resource_caps():
    with pytest.raises(ResourceLimitError):
        PathEnsemble(grid=TimeGrid(1.0, 10**6), n=64, count=10**7, seed=1)


def test_dump_load_round_trip(tmp_path):
    ens = simulate(TimeGrid(0.5, 12), n=2, M=30, seed=99, block_paths=7)
    file = tmp_path / "paths.bin"
    dump_ensemble(ens, str(file))
    back = load_ensemble(str(file), block_paths=11)
    assert back.seed == 99 and back.count == 30 and back.n == 2
    assert back.grid == ens.grid
    assert np.array_equal(back.increments(0, 30), ens.increments(0, 30))
    # stored ensembles still serve arbitrary ranges
    assert np.array_equal(back.increments(5, 9), ens.increments(5, 9))


def test_load_rejects_garbage(tmp_path):
    file = tmp_path / "bad.bin"
    file.write_bytes(b"not a path dump at all")
    with pytest.raises(ValueError):
        load_ensemble(str(file))
