"""Spans and counts around the calls into each portsens module.

The tracer replaces every public function of a traced module (plus the few
private ones a per-layer metric names) by a wrapper that records a span
``[name, start, end, parent, invocation]`` and, for some functions, a count.
Several modules bind names such as ``ito_sum`` or ``bisect_budget`` at
import, so a wrapper is installed under every name in every portsens module
that refers to the original function; otherwise calls through those names
would go unrecorded.

Spans stay in memory and are written out once, when the process ends.
Self time of a span is its duration minus the time its direct children
cover.  The tracer assumes one thread (the benchmark pins
``PORTSENS_WORKERS=1``): it keeps a single span stack.

``danskin`` is not traced: it runs in milliseconds and no workload uses it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("paths", "market", "utility", "solver", "modular", "valuation",
          "sensitivity", "estimate", "cli")

# private functions that a per-layer metric names
_PRIVATE = {
    "valuation": {"_estimate_value"},
    "cli": {"_write_csv", "_emit_summary"},
}

# methods that carry most of a layer's work; plain functions are found by
# scanning the module
_METHODS = (("paths", "PathEnsemble", "increments"),
            ("market", "CoefficientProcess", "evaluate"))


class Tracer:
    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.invocation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def record(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": self.maxima}


# ---------------------------------------------------------------------------
# count hooks; each runs after the wrapped call returns

def _count_increments(tr, args, kwargs, result):
    tr.counts["paths.paths_generated"] += result.shape[0]
    _, N, n = result.shape
    # dW block plus the cumulative W block the pass builds from it
    nbytes = 8 * result.shape[0] * (N + (N + 1)) * n
    tr.maxima["paths.block_bytes"] = max(tr.maxima.get("paths.block_bytes", 0),
                                         nbytes)


def _count_mpr(tr, args, kwargs, result):
    tr.counts["market.mpr_nodes"] += result.size // result.shape[-1]


def _count_inverse_marginal(tr, args, kwargs, result):
    u = args[0] if args else kwargs["u"]
    if u.kind == "custom":
        tr.counts["utility.root_solves"] += result.size
    if tr.parent_name() == "solver.bisect_budget":
        tr.counts["solver.budget_evals"] += 1


def _count_modular_evals(tr, args, kwargs):
    """Wrap the modular F handed to a norm so that each evaluation counts."""
    F, *rest = args
    counts = tr.counts

    def counted(z):
        counts["modular.modular_evals"] += 1
        return F(z)

    return (counted, *rest), kwargs


def _trace_block_fn(tr, args, kwargs):
    """Give map_blocks' block function a span named after its definer.

    The block closures live in valuation, sensitivity, solver and modular;
    without this their arithmetic would count as self time of paths.  The
    span of the closure defined in ``modular.density_logs`` is named
    ``modular.density_logs.block``.
    """
    ensemble, fn, *rest = args
    layer = fn.__module__.rsplit(".", 1)[-1]
    owner = fn.__qualname__.split(".<locals>", 1)[0]
    return (ensemble, tr.wrap(f"{layer}.{owner}.block", fn), *rest), kwargs


_AFTER = {
    "paths.PathEnsemble.increments": _count_increments,
    "market.mpr_from_values": _count_mpr,
    "utility.inverse_marginal": _count_inverse_marginal,
}
_BEFORE = {
    "modular.luxemburg_norm": _count_modular_evals,
    "modular.amemiya_norm": _count_modular_evals,
    "paths.map_blocks": _trace_block_fn,
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions under every name that refers to them."""
    importlib.import_module("portsens.cli")  # imports every layer
    modules = [m for name, m in sys.modules.items()
               if name == "portsens" or name.startswith("portsens.")]
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"portsens.{layer}"]
        for attr, obj in vars(mod).items():
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            replacements[id(obj)] = (obj, tracer.wrap(
                name, obj, _BEFORE.get(name), _AFTER.get(name)))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements and replacements[id(obj)][0] is obj:
                setattr(mod, attr, replacements[id(obj)][1])
    for layer, cls_name, meth in _METHODS:
        cls = getattr(sys.modules[f"portsens.{layer}"], cls_name)
        name = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth),
                                       _BEFORE.get(name), _AFTER.get(name)))


# ---------------------------------------------------------------------------
# analysis, run in the benchmark process on the written records

def self_times(spans) -> dict:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def span_counts(spans) -> Counter:
    return Counter(s[0] for s in spans)


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# per-layer time metrics: (metric, span names whose self times add up); a
# function's block closure counts with the function that streams it
SELF_TIME_GROUPS = (
    ("paths.increments_s", ("paths.PathEnsemble.increments",)),
    ("paths.cumulative_s", ("paths.cumulative",)),
    ("paths.reduce_s", ("paths.ito_sum", "paths.quad_sum",
                        "paths.log_doleans")),
    ("market.evaluate_s", ("market.CoefficientProcess.evaluate",)),
    ("market.mpr_s", ("market.mpr_from_values",)),
    ("market.dlambda_s", ("market.dlambda_direction",)),
    ("market.h1_s", ("market.h1_from_values", "market.check_h1")),
    ("utility.inverse_marginal_s", ("utility.inverse_marginal",)),
    ("utility.evaluate_s", ("utility.evaluate",)),
    ("utility.inverse_s", ("utility.inverse",)),
    ("utility.conjugate_s", ("utility.conjugate",)),
    ("solver.bisect_budget_s", ("solver.bisect_budget",)),
    ("solver.optimal_wealth_s", ("solver.optimal_terminal_wealth",)),
    ("modular.density_logs_s", ("modular.density_logs",
                                "modular.density_logs.block")),
    ("modular.norms_s", ("modular.norm_I", "modular.norm_J",
                         "modular.holder_check")),
    ("modular.luxemburg_amemiya_s", ("modular.luxemburg_norm",
                                     "modular.amemiya_norm")),
    ("valuation.estimate_s", ("valuation._estimate_value",)),
    ("sensitivity.pair_s", ("sensitivity.sensitivity_pair",
                            "sensitivity._sens_arrays.block")),
    ("sensitivity.fd_s", ("sensitivity.fd_sensitivity",)),
    ("cli.load_config_s", ("cli.load_config",)),
    ("cli.write_s", ("cli._write_csv", "cli._emit_summary")),
)


def summarize(record: dict, paths_count: int) -> dict:
    """Per-layer metrics of one traced invocation (seconds and counts)."""
    spans = record["spans"]
    selfs = self_times(spans)
    calls = span_counts(spans)
    counts = record["counts"]
    out = {}
    for layer in LAYERS:
        key = "estimate.s" if layer == "estimate" else f"{layer}.self_s"
        out[key] = sum(v for k, v in selfs.items() if _layer_of(k) == layer)
    for metric, names in SELF_TIME_GROUPS:
        out[metric] = sum(selfs.get(n, 0.0) for n in names)
    generated = counts.get("paths.paths_generated", 0)
    out["paths.paths_generated"] = generated
    out["paths.passes"] = generated / paths_count
    out["paths.block_bytes"] = record["maxima"].get("paths.block_bytes", 0)
    out["market.evaluate_calls"] = calls["market.CoefficientProcess.evaluate"]
    out["market.mpr_nodes"] = counts.get("market.mpr_nodes", 0)
    out["utility.root_solves"] = counts.get("utility.root_solves", 0)
    out["solver.bisections"] = calls["solver.bisect_budget"]
    out["solver.budget_evals"] = counts.get("solver.budget_evals", 0)
    out["modular.density_passes"] = calls["modular.density_logs"]
    out["modular.modular_evals"] = counts.get("modular.modular_evals", 0)
    out["estimate.calls"] = sum(v for k, v in calls.items()
                                if _layer_of(k) == "estimate")
    out["trace.spans"] = len(spans)
    return out


def exact_counts(record: dict) -> dict:
    """Everything in a record that must repeat exactly between runs."""
    out = {f"calls:{k}": v for k, v in span_counts(record["spans"]).items()}
    out.update(record["counts"])
    out.update(record["maxima"])
    return out
