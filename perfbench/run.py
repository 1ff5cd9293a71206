"""End-to-end benchmark of the portsens command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, so nothing needs installing.  Workloads are
described in ``workloads.py``.  Each invocation is a fresh process started
through ``child.py``, single-threaded (``PORTSENS_WORKERS=1``, BLAS and
OpenMP pinned to one thread), in a closed loop with one client.

``--trace 0`` measures for S seconds.  The first invocation uses the
workload's default seed, whose CSV must match the digest recorded in
``reference.json``; it is checked but not timed, so that the file cache and
the machine are warm when timing starts.  Then it starts invocations on a
seed derived from N while the next one is expected to end within S, and
times at least three.  It prints:

    wall_s       median wall time of one invocation, process start to exit
    cpu_s        median user + system CPU time of one invocation
    setup_s      median time from process start to the first call into
                 ``paths`` (interpreter, imports, config and table load)
    peak_rss_mb  median peak resident memory of one invocation
    paths_per_s  path count M over the median wall time

``--trace 1`` makes one untraced and two traced invocations on the same
seed, prints the per-layer self times and counts of ``tracing.py`` (the
mean of the two traced invocations) and the tracing overhead, and fails if
the two traced invocations disagree on any count.

An invocation fails when its exit code is not 0, a verdict column reads
``false``, its CSV differs from the recorded digest (default seed) or from
an earlier invocation on the same seed, or, for the custom utility, a value
misses the closed-form ``sqrt`` value on the same paths by more than the
recorded tolerance.  ``failed`` / ``attempted`` on the last line is the
error rate; the lines before it give medians, ranges, sample counts and
the pinned environment.

``reference.json`` holds the digests, the tolerance and the baseline counts
recorded when the benchmark was added; a change to it is an edit of its own.
``--tiny`` shrinks every workload for the self-tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import SQRT_CONFIG, CUSTOM_CONFIG, WORKLOADS, \
    write_custom_inputs  # noqa: E402

PINNED_ENV = {"PORTSENS_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_FULL = 3
RUN_LIMIT_S = 150.0  # invocations are killed past this, so a run ends in time


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    seed: int
    kind: str                 # "full" or "traced"
    out: str
    returncode: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: float | None = None
    trace: dict | None = None
    problems: list = field(default_factory=list)


def _env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, out: str, *, seed: int, kind: str,
              invocation: int = 0, timeout: float = RUN_LIMIT_S) -> Invocation:
    """Start child.py on argv, wait for it and collect its resource use."""
    os.makedirs(out, exist_ok=True)
    mark = os.path.join(out, "setup.mark")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mark", mark]
    trace_file = None
    if kind == "traced":
        trace_file = os.path.join(out, "trace.json")
        cmd += ["--trace", trace_file, "--invocation", str(invocation)]
    cmd += ["--", *argv]
    inv = Invocation(seed=seed, kind=kind, out=out)
    with open(os.path.join(out, "stdout.txt"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            inv.wall_s = time.monotonic() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = inv.returncode = os.waitstatus_to_exitcode(status)
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    try:
        with open(mark) as fh:
            inv.setup_s = float(fh.read()) - t0
    except (FileNotFoundError, ValueError):
        inv.problems.append("no call into paths")
    if inv.returncode != 0:
        inv.problems.append(f"exit code {inv.returncode}")
    if trace_file is not None and inv.returncode == 0:
        with open(trace_file) as fh:
            inv.trace = json.load(fh)
    return inv


# ---------------------------------------------------------------------------
# output checks

def read_rows(data: bytes) -> list:
    return list(csv.DictReader(data.decode().splitlines()))


def check_csv(inv: Invocation, data: bytes | None, *, digest: str | None,
              same_seed: bytes | None) -> None:
    """Append to inv.problems what is wrong with the CSV it wrote."""
    if data is None:
        inv.problems.append("no CSV written")
        return
    false = [r for r in read_rows(data) if r.get("verdict") == "false"]
    if false:
        inv.problems.append(f"{len(false)} verdict(s) false")
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        inv.problems.append("CSV differs from the recorded reference")
    if same_seed is not None and data != same_seed:
        inv.problems.append("CSV differs from an earlier run on the seed")


def sqrt_deviation(data: bytes, ref: bytes) -> float:
    """Largest relative gap of custom-utility values to the sqrt values."""
    got, want = read_rows(data), read_rows(ref)
    if [r["tau"] for r in got] != [r["tau"] for r in want]:
        return float("inf")
    return max(abs(float(g[col]) - float(w[col])) / abs(float(w[col]))
               for g, w in zip(got, want) for col in ("u_weak", "u_strong"))


class Checker:
    """Checks every invocation of one run; remembers per-seed outputs."""

    def __init__(self, wl, reference: dict, tiny: bool):
        self.wl, self.ref, self.tiny = wl, reference, tiny
        self.by_seed: dict = {}
        self.sqrt_by_seed: dict = {}

    def __call__(self, inv: Invocation) -> None:
        try:
            with open(os.path.join(inv.out, self.wl.csv), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = None
        digest = None
        if (self.wl.check == "digest" and not self.tiny
                and inv.seed == self.wl.default_seed):
            digest = self.ref["digests"][self.wl.name]
        check_csv(inv, data, digest=digest,
                  same_seed=self.by_seed.get(inv.seed))
        if data is None:
            return
        self.by_seed.setdefault(inv.seed, data)
        if self.wl.check == "sqrt":
            dev = sqrt_deviation(data, self.sqrt_reference(inv.seed))
            tol = self.ref["custom_sqrt_rel_tol"]
            if not dev <= tol:
                inv.problems.append(f"custom misses sqrt by {dev:.3g} "
                                    f"relative (tolerance {tol:g})")

    def sqrt_reference(self, seed: int) -> bytes:
        if seed not in self.sqrt_by_seed:
            out = os.path.join(WORK, self.wl.name, f"sqrt-{seed}")
            argv = [SQRT_CONFIG if a == CUSTOM_CONFIG else a
                    for a in self.wl.argv(seed, out, self.tiny)]
            inv = run_child(argv, out, seed=seed, kind="full")
            path = os.path.join(out, self.wl.csv)
            if inv.problems or not os.path.exists(path):
                raise BenchError(f"sqrt reference failed: {inv.problems}")
            with open(path, "rb") as fh:
                self.sqrt_by_seed[seed] = fh.read()
        return self.sqrt_by_seed[seed]


# ---------------------------------------------------------------------------
# runs

def _prepare(workload: str) -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "portsens", "cli.py")):
        raise BenchError(f"no portsens sources under {ROOT}/src")
    shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    write_custom_inputs(ROOT)


def environment() -> dict:
    """Pinned settings and machine facts; also compiles and warms imports."""
    probe = ("import json, sys, dataclasses, numpy, scipy, portsens.cli\n"
             "from portsens.paths import PathEnsemble\n"
             "f = {x.name: x.default for x in "
             "dataclasses.fields(PathEnsemble)}\n"
             "print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'scheme': f['scheme'], 'block_paths': f['block_paths']}))")
    res = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=_env(),
                         capture_output=True, text=True, timeout=20)
    if res.returncode != 0:
        raise BenchError(f"cannot import portsens: {res.stderr.strip()}")
    env = json.loads(res.stdout)
    env.update(PINNED_ENV)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = _cpuinfo("model name")
    env["l3"] = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    env["loadavg_start"] = os.getloadavg()
    return env


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _cpuinfo(key: str) -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return "unknown"


def measure(wl, run_seed: int, seconds: float, tiny: bool,
            check: Checker) -> tuple[list, dict]:
    """Untraced closed loop of full invocations."""
    work = os.path.join(WORK, wl.name)
    seed = wl.seed_for(run_seed)
    start = time.monotonic()
    out = os.path.join(work, "warmup")
    warmup = run_child(wl.argv(wl.default_seed, out, tiny), out,
                       seed=wl.default_seed, kind="full")
    check(warmup)
    full = []
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= RUN_LIMIT_S or len(full) >= MIN_FULL and (
                elapsed + statistics.median(i.wall_s for i in full)
                > seconds):
            break
        out = os.path.join(work, f"inv{len(full)}")
        inv = run_child(wl.argv(seed, out, tiny), out, seed=seed,
                        kind="full", timeout=RUN_LIMIT_S - elapsed)
        check(inv)
        full.append(inv)
    wall = statistics.median(i.wall_s for i in full)
    setups = [i.setup_s for i in full if i.setup_s is not None]
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(i.cpu_s for i in full),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(i.rss_mb for i in full),
        "paths_per_s": wl.paths_for(tiny) / wall,
    }
    for name, values in (("wall_s", [i.wall_s for i in full]),
                         ("cpu_s", [i.cpu_s for i in full]),
                         ("setup_s", setups),
                         ("peak_rss_mb", [i.rss_mb for i in full])):
        print(f"# {name}: median {statistics.median(values):.4f} "
              f"min {min(values):.4f} max {max(values):.4f} "
              f"(n={len(values)})")
    print(f"# seeds: default {wl.default_seed} x1 (warm-up, not timed), "
          f"{seed} x{len(full)}")
    return [warmup] + full, metrics


def trace_run(wl, run_seed: int, tiny: bool, check: Checker,
              reference: dict) -> tuple[list, dict]:
    """One untraced and two traced invocations on one seed."""
    work = os.path.join(WORK, wl.name)
    seed = wl.seed_for(run_seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    out = os.path.join(work, "untraced")
    plain = run_child(wl.argv(seed, out, tiny), out, seed=seed, kind="full",
                      timeout=deadline - time.monotonic())
    check(plain)
    traced = []
    for k in (1, 2):
        out = os.path.join(work, f"traced{k}")
        inv = run_child(wl.argv(seed, out, tiny), out, seed=seed,
                        kind="traced", invocation=k,
                        timeout=deadline - time.monotonic())
        check(inv)
        traced.append(inv)
    invocations = [plain] + traced
    if any(inv.trace is None for inv in traced):
        return invocations, {}

    first, second = (tracing.exact_counts(i.trace) for i in traced)
    if first != second:
        diff = sorted(k for k in set(first) | set(second)
                      if first.get(k) != second.get(k))
        traced[1].problems.append(f"counts differ between traced runs: "
                                  f"{diff}")
    per = [tracing.summarize(i.trace, wl.paths_for(tiny)) for i in traced]
    metrics = {k: statistics.mean(p[k] for p in per) for k in per[0]}
    metrics["trace.overhead_s"] = (statistics.mean(i.wall_s for i in traced)
                                   - plain.wall_s)
    if not tiny:
        base = reference["baseline_counts"][wl.name]
        moved = {k: (v, metrics[k]) for k, v in base.items()
                 if metrics[k] != v}
        print(f"# counts vs recorded baseline: "
              f"{'unchanged' if not moved else moved}")
    top = sorted(((v, k) for k, v in metrics.items()
                  if k.endswith("_s") and not k.endswith("self_s")
                  and k.startswith(tuple(tracing.LAYERS))), reverse=True)
    print(f"# largest self times: "
          f"{', '.join(f'{k} {v:.3f}' for v, k in top[:4])}")
    print(f"# untraced wall {plain.wall_s:.3f} s, traced "
          f"{[round(i.wall_s, 3) for i in traced]} s")
    return invocations, metrics


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    wl = WORKLOADS[workload]
    _prepare(workload)
    reference = load_reference()
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    check = Checker(wl, reference, tiny)
    if trace:
        invocations, metrics = trace_run(wl, seed, tiny, check, reference)
    else:
        invocations, metrics = measure(wl, seed, seconds, tiny, check)
    return result(invocations, metrics, units(trace))


def result(invocations: list, metrics: dict, names: dict) -> dict:
    """The last output line; every failed invocation counts in failed."""
    failed = [i for i in invocations if i.problems]
    for inv in failed:
        print(f"# FAILED {inv.kind} seed {inv.seed} in {inv.out}: "
              f"{'; '.join(inv.problems)}")
    print(f"# error_rate {len(failed)}/{len(invocations)} = "
          f"{len(failed) / len(invocations):g}")
    return {"correct": not failed and set(metrics) >= set(names),
            "attempted": len(invocations), "failed": len(failed),
            "metrics": {k: {"value": metrics.get(k, float("nan")), "unit": u}
                        for k, u in names.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    opts = ap.parse_args(argv)
    # a terminated run still kills and reaps its current invocation
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        line = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace),
                   opts.tiny)
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
