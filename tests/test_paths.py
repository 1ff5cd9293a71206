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

from portsens.market import indicator
from portsens.paths import (PathEnsemble, ResourceLimitError, TimeGrid,
                            cumulative, dump_ensemble, girsanov_weight,
                            ito_integral, ito_sum, load_ensemble, log_doleans,
                            map_blocks, quad_sum, shift_increments,
                            shifted_brownian, simulate, stochastic_exponential)


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


def test_increment_moments(ens1d):
    dW = ens1d.increments(0, 4000)
    dt = ens1d.grid.dt
    assert float(np.mean(dW)) == pytest.approx(0.0, abs=4 * math.sqrt(dt / dW.size))
    assert float(np.var(dW)) == pytest.approx(dt, rel=0.05)


def test_ito_isometry(ens1d):
    # E[(int H dW)^2] = E[int H^2 dt] for the adapted sign integrand
    lam = indicator(0, 0.0, [0.0], [1.0])
    vals = ito_integral(lam, ens1d).values
    grid = ens1d.grid

    def block(start, stop, dW, W):
        H = lam.evaluate(grid, W)
        return quad_sum(H, H, grid.dt)

    qv = map_blocks(ens1d, block)
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
    ld = log_doleans(H, dW, 0.1)
    assert np.allclose(ld, ito_sum(H, dW) - 0.5 * np.sum(H * H) * 0.1)


def test_stochastic_exponential_is_positive_mean_one(ens1d):
    se_vals = stochastic_exponential(np.ones((64, 1)), ens1d).values
    assert np.all(se_vals > 0)
    est = se_vals.mean()
    tol = 3 * se_vals.std() / math.sqrt(ens1d.count)
    assert abs(est - 1.0) <= tol


def test_girsanov_weight_tilts_the_mean(ens1d):
    # E[G f(W_T)] equals E[f(W_T + c T)] for the constant shift c
    c = 0.7
    G = girsanov_weight(np.full((64, 1), c), np.zeros((64, 1)), ens1d).values
    WT = np.sum(ens1d.increments(0, ens1d.count), axis=(1, 2))
    lhs = float(np.mean(G * WT))
    # per-path independent check, same paths: E[G W_T] = c T exactly in law
    se = float(np.std(G * WT)) / math.sqrt(ens1d.count)
    assert abs(lhs - c) <= 3 * se


def test_shifted_brownian_matches_manual_shift():
    ens = simulate(TimeGrid(1.0, 16), n=1, M=20, seed=13, block_paths=8)
    drift = np.full((16, 1), 0.5)
    shifted = shifted_brownian(ens, drift)
    dW = ens.increments(0, 20)
    manual = cumulative(shift_increments(dW, drift, ens.grid.dt))
    assert np.array_equal(shifted, manual)
    assert shifted.shape == (20, 17, 1)
    # drift removal moves the endpoint by exactly -0.5 T
    assert np.allclose(shifted[:, -1, 0], cumulative(dW)[:, -1, 0] - 0.5)


def test_resource_caps():
    with pytest.raises(ResourceLimitError):
        PathEnsemble(grid=TimeGrid(1.0, 10**6), n=64, count=10**7, seed=1)
    big = simulate(TimeGrid(1.0, 2000), n=1, M=10**6, seed=1)
    with pytest.raises(ResourceLimitError):
        shifted_brownian(big, np.zeros((2000, 1)))


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
