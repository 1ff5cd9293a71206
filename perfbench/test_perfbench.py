"""Self-tests of the benchmark; run with

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke tests run every workload at a tiny size, so they take about a
minute; they do not check timings, only that every metric is printed with
its unit and that the outputs pass their checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 3
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == run.units(trace == "1")
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())


def test_nonzero_exit_counts_as_failure(tmp_path):
    wl = WORKLOADS["sens-det2d"]
    good = run.Invocation(seed=1, kind="full", out=str(tmp_path))
    argv = ["sens", "--config", "no-such-file.ini", "--out", str(tmp_path)]
    bad = run.run_child(argv, str(tmp_path / "bad"), seed=1, kind="full")
    run.Checker(wl, {}, tiny=True)(bad)
    assert bad.returncode == 2 and bad.problems
    res = run.result([good, bad], {}, {})
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)


def test_corrupted_csv_counts_as_failure(tmp_path):
    wl = WORKLOADS["sens-det2d"]
    out = tmp_path / "inv"
    inv = run.run_child(wl.argv(wl.default_seed, str(out), tiny=True),
                        str(out), seed=wl.default_seed, kind="full")
    csv_path = out / wl.csv
    data = csv_path.read_bytes()
    reference = {"digests": {wl.name: hashlib.sha256(data).hexdigest()}}

    run.Checker(wl, reference, tiny=False)(inv)
    assert inv.problems == []

    csv_path.write_bytes(data.replace(b",11\r\n", b",12\r\n", 1))
    run.Checker(wl, reference, tiny=False)(inv)
    assert inv.problems == ["CSV differs from the recorded reference"]
    res = run.result([inv], {}, {})
    assert res["failed"] == 1 and not res["correct"]

    inv.problems = []
    csv_path.write_bytes(data.replace(b"true", b"false", 1))
    run.Checker(wl, reference, tiny=True)(inv)
    assert inv.problems == ["1 verdict(s) false"]


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1, 1],
             ["paths.map_blocks", 1.0, 9.0, 0, 1],
             ["paths.PathEnsemble.increments", 1.0, 4.0, 1, 1],
             ["valuation._surface_arrays.block", 4.0, 8.0, 1, 1],
             ["paths.ito_sum", 5.0, 6.0, 3, 1]]
    selfs = tracing.self_times(spans)
    assert selfs == {"cli.main": 2.0, "paths.map_blocks": 1.0,
                     "paths.PathEnsemble.increments": 3.0,
                     "valuation._surface_arrays.block": 3.0, "paths.ito_sum": 1.0}
    record = {"spans": spans, "counts": {"paths.paths_generated": 8},
              "maxima": {}}
    summary = tracing.summarize(record, paths_count=4)
    assert summary["paths.self_s"] == 5.0
    assert summary["paths.passes"] == 2.0
    assert summary["valuation.self_s"] == 3.0
