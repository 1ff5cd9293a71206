import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from portsens.cli import main
from portsens.market import MarketModel, constant, indicator
from portsens.paths import PathEnsemble, TimeGrid


@pytest.fixture(scope="session")
def ens1d():
    """8000 one-dimensional paths on a 64-step unit-horizon grid."""
    return PathEnsemble(TimeGrid(1.0, 64), n=1, count=8000, seed=101)


@pytest.fixture(scope="session")
def ens2d():
    return PathEnsemble(TimeGrid(1.0, 64), n=2, count=8000, seed=102)


@pytest.fixture(scope="session")
def det2d_model():
    """Complete two-asset market with constant coefficients."""
    return MarketModel(d=2, n=2,
                       mu=constant([0.08, 0.05]),
                       sigma=constant([[0.2, 0.05], [0.0, 0.15]]),
                       rate=constant([0.01]))


@pytest.fixture(scope="session")
def switch_model():
    """Unit volatility, price of risk 1 on {W < 0} and 0 elsewhere."""
    return MarketModel(d=1, n=1,
                       mu=indicator(0, 0.0, [0.0], [1.0]),
                       sigma=constant([[1.0]]))


@pytest.fixture
def generated(monkeypatch):
    """Path count of every increment block generated during the test."""
    counts = []
    increments = PathEnsemble.increments

    def counted(self, start=0, stop=None, out=None):
        dW = increments(self, start, stop, out)
        counts.append(dW.shape[0])
        return dW

    monkeypatch.setattr(PathEnsemble, "increments", counted)
    return counts


def node_regimes(regimes, W):
    """Regime of every left node, (B, N), looked up row by row from its
    segment and driver intervals: the test-side reference for the regimes
    that ``path_sums`` reads off ``RegimeTable.mask``."""
    grid = regimes.grid
    row_of = {(s, *iv): r for r, (s, iv) in
              enumerate(zip(regimes.segment.tolist(),
                            regimes.intervals.tolist()))}
    seg = np.searchsorted(regimes.breaks, grid.left_nodes, side="right")
    digits = [np.searchsorted(c, W[:, :-1, j], side="right")
              for j, c in zip(regimes.drivers, regimes.cuts)]
    B, N = W.shape[0], grid.steps
    return np.array([[row_of[(seg[k], *(d[b, k] for d in digits))]
                      for k in range(N)] for b in range(B)], dtype=int)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _block_draws(self, start=0, stop=None, out=None):
    """Normal increments of a block from one generator for the whole block,
    into ``out``: the shape and buffer of ``PathEnsemble.increments``, not
    its values."""
    gen = np.random.default_rng([self.seed, start])
    gen.standard_normal(out=out[:stop - start])
    out *= np.sqrt(self.grid.dt)
    return out


def bytes_per_path(argv, m1, m2):
    """Bytes a path that ``main(argv + ["--paths", m])`` holds at its
    tracemalloc peak: the slope of that peak from ``m1`` to ``m2`` paths,
    after one warm-up run.  Both counts must exceed the paths of one block,
    whose scratch would otherwise grow with them.  Blocks draw from one
    generator each, not one Philox key a path: tracemalloc traces every
    object a re-key makes, which slows the draws tenfold, and no array's
    size depends on the values drawn."""
    peaks = []
    with mock.patch.object(PathEnsemble, "increments", _block_draws):
        for m in (m1, m1, m2):
            with tempfile.TemporaryDirectory() as out:
                tracemalloc.start()
                try:
                    main(argv + ["--paths", str(m), "--out", out])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
    return (peaks[2] - peaks[1]) / (m2 - m1)
