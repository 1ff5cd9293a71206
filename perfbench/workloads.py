"""The benchmark workloads and why each was chosen.

Every workload runs one ``portsens`` command as a fresh process, in a
closed loop with one client: the next invocation starts when the previous
one exits.  Shares are self-time shares of one traced invocation
(``--trace 1``) on a 2-vCPU x86 VM, Python 3.11, numpy 2.4, one thread.
Layers are the portsens modules; ``danskin`` is left out (milliseconds, no
roadmap item targets it).

Invocations are sized to take 3 to 5 s, so the medians of a 40 s run are
taken over about ten of them, not three or four.  Setup (about 1 s) is
therefore a quarter of each wall time.  The first invocation of a run is a
warm-up on the default seed, checked against the recorded digest and not
timed.

On a shared 2-vCPU machine the speed swings by about 20% in phases of 20 s
to several minutes, so the median of one run still moves by 10 to 20%
between runs whatever its length: over ten seeds, 60 s runs spread no less
than 40 s runs.  BENCHMARK.json lists three workloads at 40 s, which fits
its one-hour run budget; a fourth would cut every run to 30 s, so
sens-det2d runs by name only.

switch-adapted  ``portsens example1``: the paper's sign-switching market,
    N=2000, n=1, log utility, adapted indicator drift; 20k paths instead of
    the publication 200k.  Few long paths in one pass: increments 49%
    (long streams, not generator set-up), per-(path, node) market work 37%
    (``mpr_from_values`` 21%, coefficient ``evaluate`` 11%,
    ``dlambda_direction`` 4%), ``cumulative`` 8%, reductions 6%.  Moves
    with RNG and regime-table changes; the only workload with 850 MB
    blocks (8192 x 2000), so it carries the memory metric.  Bypasses
    ``utility`` root finding, ``solver`` and ``modular``.

custom-utility  ``portsens value`` on the deterministic2d market with
    ``custom:file=`` pointing at a generated table of 2 sqrt(x), 30 paths.
    ``inverse_marginal`` (per-path ``brentq``, 7920 root solves over 258
    budget evaluations in 6 bisections) is 98% of the time and
    ``bisect_budget`` 1%; paths and market work are under 0.1%.  Moves only
    with ``utility``/``solver`` changes.  Checked against the closed-form
    ``sqrt`` utility on the same paths, not against bytes, because the
    interpolant is expected to change.

norms-incomplete  ``portsens norms`` on configs/norms.ini with M=15k (40k
    as shipped): d=1, n=2, a 3-member null-space family.  ``density_logs``
    reruns for every norm call, so the command makes 7 path passes and
    increments are 93% of the time; ``modular`` itself is 1%.  The only
    workload that exercises ``modular``; moves with RNG, pass-count and
    precomputed-density changes, not with market or root-finding work.

sens-det2d  ``portsens sens`` on configs/deterministic2d.ini as shipped:
    M=40k short paths (N=64, n=2), power p=3, constant coefficients.
    Increments 92% (a Philox generator built per path) over 4 path passes;
    market work runs once per block (0.7%).  Not listed (see above):
    norms-incomplete shows the same RNG and pass-count gains.  Run it by
    name for pass-fusion and finite-difference work.
"""

from __future__ import annotations

import configparser
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple      # portsens argv; {seed} and {out} are filled in
    csv: str            # the CSV the command writes into {out}
    default_seed: int   # seed of the recorded reference output
    tiny: tuple         # extra argv for the self-test size
    check: str          # "digest": bytes at the default seed; "sqrt"

    def argv(self, seed: int, out: str, tiny: bool = False) -> list:
        args = [a.format(seed=seed, out=out) for a in self.command]
        return args + list(self.tiny) if tiny else args

    def paths_for(self, tiny: bool) -> int:
        """Path count M of one invocation (the last --paths wins)."""
        args = self.argv(0, "", tiny)
        return int(args[len(args) - 1 - args[::-1].index("--paths") + 1])

    def seed_for(self, run_seed: int) -> int:
        """Program seed of the invocations after the first in a run."""
        return random.Random(f"{self.name}:{run_seed}").randrange(1, 2**31)


CUSTOM_CONFIG = os.path.join(".bench_work", "custom", "custom.ini")
SQRT_CONFIG = os.path.join(".bench_work", "custom", "sqrt.ini")
_CUSTOM_TABLE = os.path.join(".bench_work", "custom", "sqrt_table.txt")

WORKLOADS = {w.name: w for w in (
    Workload("sens-det2d",
             ("sens", "--config", "configs/deterministic2d.ini",
              "--paths", "40000", "--seed", "{seed}", "--out", "{out}"),
             "sens.csv", 11, ("--paths", "2000"), "digest"),
    Workload("switch-adapted",
             ("example1", "--paths", "20000", "--seed", "{seed}",
              "--out", "{out}"),
             "example1.csv", 7, ("--paths", "20000", "--steps", "200"),
             "digest"),
    Workload("custom-utility",
             ("value", "--config", CUSTOM_CONFIG, "--paths", "30",
              "--seed", "{seed}", "--out", "{out}"),
             "surface.csv", 11, ("--paths", "4"), "sqrt"),
    Workload("norms-incomplete",
             ("norms", "--config", "configs/norms.ini",
              "--paths", "15000", "--seed", "{seed}", "--out", "{out}"),
             "norms.csv", 13, ("--paths", "2000"), "digest"),
)}


def write_custom_inputs(root: str) -> None:
    """Tabulate U(x) = 2 sqrt(x) and write the custom and sqrt configs.

    Both configs are configs/deterministic2d.ini with the utility replaced;
    the table is log-spaced over [1e-4, 1e4], wider than any optimal wealth
    of the workload.
    """
    os.makedirs(os.path.join(root, os.path.dirname(_CUSTOM_TABLE)),
                exist_ok=True)
    rows = 801
    with open(os.path.join(root, _CUSTOM_TABLE), "w") as fh:
        for i in range(rows):
            x = 10.0 ** (-4.0 + 8.0 * i / (rows - 1))
            fh.write(f"{x!r} {2.0 * math.sqrt(x)!r}\n")
    for path, spec in ((CUSTOM_CONFIG, f"custom:file={_CUSTOM_TABLE}"),
                       (SQRT_CONFIG, "sqrt")):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(os.path.join(root, "configs", "deterministic2d.ini"))
        cp["utility"]["spec"] = spec
        with open(os.path.join(root, path), "w") as fh:
            cp.write(fh)
