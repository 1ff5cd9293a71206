"""Configuration-driven command line for the experiments in this package.

Commands
--------
value        weak and strong value surface over a tau grid
sens         closed-form sensitivities against Richardson differences, and
             weak against strong where market and direction are
             deterministic
example1     sign-switching market, unit drift direction: weak vs strong
example2     discrepancy functional: deterministic vs adapted price of risk
h1check      kernel stability of a volatility perturbation
norms        modular functionals and norms at the optimal payoff
danskin      support function of a point cloud: value, ties, derivative
secondorder  decay of the below-tangent residual of the weak value curve

Each command returns its verdicts as ``estimate.Check`` records; ``main``
writes one CSV with a fixed schema plus a plain-text summary recording
seeds and tolerances, with one line per check last, and prints the summary
to stdout.  Exit codes: 0 every check passed, 1 usage error, 2 invalid
configuration or input file, or a refusal before any path is drawn, 3 a
failed check or a numerical failure after it.  Identical configuration
and seed give byte-identical CSVs for any worker count; set
PORTSENS_WORKERS to use threads.

The model lives in a line-oriented ``key = value`` config with sections;
flags only override scale and seed.  Coefficient processes use the
mini-language of :func:`portsens.market.parse_coefficient` (``const:[...]``,
``pw:t=[...];v=[...]``, ``ind:j=<driver>;c=<threshold>;lo=[...];hi=[...]``
with a 0-based Brownian component index) and utilities the syntax of
:func:`portsens.utility.parse_utility`.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import utility as ut
from .estimate import Check, combine_linear
from .market import (CoefficientError, KernelStabilityError, MarketModel,
                     check_drivers, check_h1_direction, constant,
                     deterministic, parse_coefficient)
from .modular import (amemiya_norm, density_logs, holder_check, j_evaluator,
                      j_functional, luxemburg_norm)
from .paths import PathEnsemble, ResourceLimitError, TimeGrid, check_seed
from .sensitivity import (DIFFERENCE_STEPS, EXPANSION_STEPS, check_steps,
                          example1_report, example2_reports,
                          second_order_check, sensitivity_reports)
from .solver import (IncompleteMarketError, check_dual_optimizer,
                     optimal_terminal_wealth)
from .valuation import PerturbationSpec, value_surface


class ConfigError(ValueError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _r(x) -> str:
    return repr(float(x))


def _flag(b) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# configuration

@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parsed experiment file; commands check the sections they need."""

    model: MarketModel | None
    utility: ut.UtilitySpec | None
    pert: PerturbationSpec | None
    taus: tuple | None
    paths: int | None
    steps: int | None
    horizon: float | None
    seed: int | None
    nu_family: tuple
    outdir: str


_KEYS = {
    "market": {"d", "n", "mu", "sigma", "r", "x0"},
    "utility": {"spec"},
    "perturbation": {"dmu", "dsigma", "dr", "dlambda", "taus", "label"},
    "mc": {"paths", "steps", "horizon", "seed"},
    "norms": None,  # any nu* keys
    "output": {"directory"},
}


def _floats(text: str) -> tuple:
    """The finite numbers of a comma- or space-separated list."""
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        vals = tuple(float(p) for p in parts if p)
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"non-finite number in list {text!r}")
    return vals


def _steps(text: str) -> tuple:
    """The --eps step sizes, checked and in increasing order."""
    try:
        return check_steps(_floats(text))
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=None)
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _KEYS[section]
        for key in cp[section]:
            if allowed is not None and key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if section == "norms" and not key.startswith("nu"):
                raise ConfigError(f"[norms] keys must start with 'nu', "
                                  f"got {key!r}")
    try:
        return _build_config(cp)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(cp: configparser.ConfigParser) -> ExperimentConfig:
    model = None
    if cp.has_section("market"):
        m = cp["market"]
        d, n = int(m["d"]), int(m["n"])
        rate = (parse_coefficient(m["r"], (1,)) if "r" in m
                else constant([0.0]))
        model = MarketModel(d=d, n=n,
                            mu=parse_coefficient(m["mu"], (d,)),
                            sigma=parse_coefficient(m["sigma"], (d, n)),
                            rate=rate,
                            x0=float(m.get("x0", "1.0")))

    utility = None
    if cp.has_section("utility"):
        utility = ut.parse_utility(cp["utility"]["spec"])

    pert, taus = None, None
    if cp.has_section("perturbation"):
        if model is None:
            raise ConfigError("[perturbation] needs a [market] section")
        s = cp["perturbation"]

        def coeff(key, shape):
            return parse_coefficient(s[key], shape) if key in s else None

        directions = dict(
            dmu=coeff("dmu", (model.d,)),
            dsigma=coeff("dsigma", (model.d, model.n)),
            drate=coeff("dr", (1,)),
            dlambda=coeff("dlambda", (model.n,)))
        pert = PerturbationSpec(label=s.get("label", ""), **directions)
        pert.validate_for(model)
        if "taus" in s:
            taus = _floats(s["taus"])
            if not taus:
                raise ConfigError("taus must list at least one value")

    paths = steps = horizon = seed = None
    if cp.has_section("mc"):
        mc = cp["mc"]
        if "seed" not in mc:
            raise ConfigError("[mc] requires an explicit seed")
        paths, steps = int(mc["paths"]), int(mc["steps"])
        horizon, seed = float(mc["horizon"]), check_seed(int(mc["seed"]))
        if paths < 2 or steps <= 0 or not 0 < horizon < math.inf:
            raise ConfigError("paths must be at least 2 (a standard error "
                              "needs two), steps and horizon positive, and "
                              "horizon finite")

    nu_family = ()
    if cp.has_section("norms"):
        if model is None:
            raise ConfigError("[norms] needs a [market] section")
        items = sorted(cp["norms"].items())
        nu_family = tuple(parse_coefficient(v, (model.n,)) for _, v in items)
        check_drivers(model.n, *nu_family)

    outdir = "."
    if cp.has_section("output"):
        outdir = cp["output"].get("directory", ".").strip() or "."

    return ExperimentConfig(model=model, utility=utility, pert=pert,
                            taus=taus, paths=paths, steps=steps,
                            horizon=horizon, seed=seed, nu_family=nu_family,
                            outdir=outdir)


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    repl = {}
    for field in ("seed", "paths", "steps", "horizon"):
        val = getattr(args, field, None)
        if val is not None:
            repl[field] = val
    if getattr(args, "out", None):
        repl["outdir"] = args.out
    return dataclasses.replace(cfg, **repl) if repl else cfg


def _need(cfg: ExperimentConfig, what: str):
    name = {"model": "[market]", "utility": "[utility]",
            "pert": "[perturbation]", "seed": "[mc]"}[what]
    val = getattr(cfg, what)
    if val is None:
        raise ConfigError(f"this command needs a {name} section")
    return val


def _make_ensemble(cfg: ExperimentConfig):
    _need(cfg, "seed")
    return PathEnsemble(TimeGrid(cfg.horizon, cfg.steps), n=cfg.model.n,
                        count=cfg.paths, seed=cfg.seed)


def _perturbed(args, title: str):
    """What ``value``, ``sens`` and ``secondorder`` read: the config, its
    model, utility and direction, the ensemble, and the summary heading."""
    cfg = _load(args)
    model, u, pert = (_need(cfg, w) for w in ("model", "utility", "pert"))
    heading = (f"{title}: utility={u.label} direction={pert.label} "
               f"paths={cfg.paths} steps={cfg.steps} "
               f"horizon={cfg.horizon:g} seed={cfg.seed}")
    return cfg, model, u, pert, _make_ensemble(cfg), heading


# ---------------------------------------------------------------------------
# artifact emission

@dataclasses.dataclass(frozen=True, eq=False)
class _Result:
    """What a command computed: ``main`` writes ``rows`` under ``header``
    to ``<stem>.csv``, and ``lines`` followed by the line of each of
    ``checks`` to ``<stem>_summary.txt``, in ``outdir``; it exits 3 if a
    check failed, else 0."""

    outdir: str
    stem: str
    header: list
    rows: list
    lines: list
    checks: list


def _write_csv(outdir: str, name: str, header: list, rows: list) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return path


def _emit_summary(outdir: str, name: str, lines: list) -> None:
    text = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, f"{name}_summary.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

SURFACE_HEADER = ["tau", "u_weak", "se_weak", "u_strong", "se_strong",
                  "weight_mean", "seed"]


def cmd_value(args) -> _Result:
    cfg, model, u, pert, ens, heading = _perturbed(args, "value surface")
    if cfg.taus is None:
        raise ConfigError("value needs taus in [perturbation]")
    rows = value_surface(model, u, pert, cfg.taus, ens)
    lines = [heading] + [f"  tau={r.tau:g}: weak={r.weak.mean:.6g} "
                         f"(se {r.weak.se:.2g})  strong={r.strong.mean:.6g} "
                         f"(se {r.strong.se:.2g})" for r in rows]
    return _Result(cfg.outdir, "surface", SURFACE_HEADER,
                   [[_r(r.tau), _r(r.weak.mean), _r(r.weak.se),
                     _r(r.strong.mean), _r(r.strong.se), _r(r.weight_mean),
                     cfg.seed] for r in rows], lines, [])


SENS_HEADER = ["direction", "side", "formula", "se_formula", "fd", "se_fd",
               "gap", "tolerance", "verdict", "seed"]


def cmd_sens(args) -> _Result:
    cfg, model, u, pert, ens, heading = _perturbed(args, "sensitivities")
    eps = _steps(args.eps)
    reports = sensitivity_reports(model, u, pert, ens, eps=eps)
    checks = [rep.check for rep in reports]
    rows = [[rep.direction, rep.side, _r(rep.formula.mean),
             _r(rep.formula.se), _r(rep.fd.mean), _r(rep.fd.se),
             _r(c.error), _r(c.bound), _flag(c.passed), cfg.seed]
            for rep, c in zip(reports, checks)]
    lines = [heading,
             f"  difference steps: {', '.join(f'{e:g}' for e in eps)}; "
             "each formula against its difference, tolerance = 3 se of the "
             "paired contrast plus the extrapolation correction"]
    # deterministic coefficients and directions make the two derivatives
    # equal, so their paired difference must be Monte Carlo noise
    if deterministic(model.mu, model.sigma, model.rate, *pert.directions):
        gap = combine_linear([rep.formula for rep in reports], [1.0, -1.0],
                             f"weak-minus-strong[{pert.label}]")
        lines.append("  deterministic market and direction, so weak = "
                     "strong")
        checks.append(Check("weak - strong", "sigmas", gap.mean, 0.0, 3.0,
                            gap.se))
    return _Result(cfg.outdir, "sens", SENS_HEADER, rows, lines, checks)


EXAMPLE1_HEADER = ["horizon", "side", "estimate", "se", "expected",
                   "abs_error", "tolerance", "verdict", "seed"]


def cmd_example1(args) -> _Result:
    rep = example1_report(T=args.T, M=args.paths, N=args.steps,
                          seed=args.seed)
    gap = rep.gap
    # fixed tolerances on each side; the gap must be negative and clearly
    # resolved
    checks = [Check("strong", "within", rep.strong.mean, rep.expected_strong,
                    0.01, rep.strong.se),
              Check("weak", "within", rep.weak.mean, rep.expected_weak,
                    0.015, rep.weak.se),
              Check("weak - strong", "below", gap.mean, 0.0, 5.0, gap.se)]
    rows = [[_r(args.T), side, _r(c.value), _r(c.se), _r(c.reference),
             _r(c.error), _r(c.bound), _flag(c.passed), args.seed]
            for side, c in zip(("strong", "weak"), checks)]
    rows.append([_r(args.T), "gap", _r(gap.mean), _r(gap.se),
                 _r(rep.expected_gap), _r(abs(gap.mean - rep.expected_gap)),
                 _r(5.0 * gap.se), _flag(checks[2].passed), args.seed])
    lines = [f"sign-switching market, unit drift direction: T={args.T:g} "
             f"paths={args.paths} steps={args.steps} seed={args.seed}",
             f"  expected weak - strong = {rep.expected_gap:.6g}"]
    return _Result(args.out, "example1", EXAMPLE1_HEADER, rows, lines,
                   checks)


EXAMPLE2_HEADER = ["case", "value", "se", "sigmas", "verdict", "seed"]


def cmd_example2(args) -> _Result:
    det, adapted = example2_reports(T=args.T, M=args.paths, N=args.steps,
                                    seed=args.seed)
    checks = [Check("deterministic price of risk", "sigmas", det.mean, 0.0,
                    3.0, det.se),
              Check("adapted price of risk", "above", adapted.mean, 0.0,
                    3.0, adapted.se)]
    rows = [[case, _r(c.value), _r(c.se), _r(c.sigmas), _flag(c.passed),
             args.seed]
            for case, c in zip(("deterministic", "adapted"), checks)]
    lines = [f"discrepancy functional: T={args.T:g} paths={args.paths} "
             f"steps={args.steps} seed={args.seed}"]
    return _Result(args.out, "example2", EXAMPLE2_HEADER, rows, lines,
                   checks)


H1_HEADER = ["tau", "full_rank", "kernel_equal", "ok"]


def cmd_h1check(args) -> _Result:
    cfg = _load(args)
    model, pert = _need(cfg, "model"), _need(cfg, "pert")
    if pert.dsigma is None:
        raise ConfigError("h1check needs a dsigma direction")
    _need(cfg, "seed")
    taus = [t for t in (cfg.taus or (1.0,)) if t != 0.0]
    if not taus:
        raise ConfigError("h1check needs a nonzero tau")
    regimes, reports = check_h1_direction(model.sigma, pert.dsigma, taus,
                                          TimeGrid(cfg.horizon, cfg.steps))
    rows = [[_r(tau), _flag(rep.full_rank), _flag(rep.kernel_equal),
             _flag(rep.check.passed)] for tau, rep in zip(taus, reports)]
    lines = [f"kernel stability of sigma + tau dsigma, exact over "
             f"{len(regimes)} reachable regimes: steps={cfg.steps} "
             f"horizon={cfg.horizon:g}"]
    lines += [f"  tau={tau:g}: full rank {_flag(rep.full_rank)}, kernel "
              f"preserved {_flag(rep.kernel_equal)}, first broken on "
              f"{regimes.describe(rep.worst_regime)}"
              for tau, rep in zip(taus, reports) if not rep.check.passed]
    return _Result(cfg.outdir, "h1", H1_HEADER, rows, lines,
                   [rep.check for rep in reports])


NORMS_HEADER = ["quantity", "value", "se", "verdict", "seed"]


def cmd_norms(args) -> _Result:
    cfg = _load(args)
    model, u = _need(cfg, "model"), _need(cfg, "utility")
    if u.kind != "power":
        raise ConfigError(f"norms needs a power utility, got {u.label}: "
                          "U^{-1}(|Z|) is the optimal wealth only where "
                          "U >= 0, and in closed form only for power "
                          "utility")
    check_dual_optimizer(model)
    family = (constant(np.zeros(model.n)),) + cfg.nu_family
    logs = density_logs(model, family, _make_ensemble(cfg))
    xstar = optimal_terminal_wealth(model, u, logs[0])
    payoff = np.asarray(ut.evaluate(u, xstar))

    j = j_functional(payoff, u.p, logs)
    j_tol = 3.0 * j.se + 1e-9 * (1.0 + model.x0)
    F = j_evaluator(u.p, logs)
    am = amemiya_norm(F, payoff)
    lux = luxemburg_norm(F, payoff)
    bound = 1.0 + model.x0
    hold = holder_check(np.exp(logs[0]), xstar, u.p, logs)
    checks = [Check("j(optimal payoff)", "within", j.mean, model.x0, j_tol,
                    j.se),
              Check("amemiya norm", "at most", am, bound, j_tol, None),
              hold.check]
    j_ok, am_ok, hold_ok = (_flag(c.passed) for c in checks)

    rows = [
        ["j_at_optimal_payoff", _r(j.mean), _r(j.se), j_ok, cfg.seed],
        ["budget_x0", _r(model.x0), "", "", cfg.seed],
        ["amemiya_norm", _r(am), "", am_ok, cfg.seed],
        ["luxemburg_norm", _r(lux), "", "", cfg.seed],
        ["amemiya_bound", _r(bound), "", "", cfg.seed],
        ["norm_I_pricing_density", _r(hold.norm_i), "", "", cfg.seed],
        ["norm_J_optimal_wealth", _r(hold.norm_j), "", "", cfg.seed],
        ["holder_lhs", _r(hold.lhs), "", hold_ok, cfg.seed],
        ["holder_rhs", _r(hold.rhs), "", "", cfg.seed],
    ]
    lines = [f"modular norms: utility={u.label} family size {len(family)} "
             f"paths={cfg.paths} steps={cfg.steps} horizon={cfg.horizon:g} "
             f"seed={cfg.seed}",
             f"  budget x0 = {model.x0:g}, luxemburg = {lux:.6g}, "
             f"norm_I(density) = {hold.norm_i:.6g}, norm_J(wealth) = "
             f"{hold.norm_j:.6g}",
             "  amemiya <= 1 + j (Young's inequality), so its bound follows "
             "from the j check; the holder pairing is an identity check"]
    return _Result(cfg.outdir, "norms", NORMS_HEADER, rows, lines, checks)


DANSKIN_HEADER = ["value", "argmax", "radius", "derivative", "probe_gap",
                  "probe_tolerance", "probe_ok"]


def cmd_danskin(args) -> _Result:
    from .danskin import (TIE_TOL, CloudError, hadamard_probe, load_cloud,
                          support_value)
    try:
        K = load_cloud(args.cloud)
        d = _floats(args.direction)
        res = support_value(d, K)
        if args.delta is not None:
            probe = hadamard_probe(d, _floats(args.delta), K)
    except CloudError as exc:
        raise ConfigError(str(exc)) from None
    arg_text = ";".join(str(i) for i in res.argmax)
    lines = [f"support function of {args.cloud} ({K.count} points in "
             f"R^{K.m}), tie tolerance {TIE_TOL:g}",
             f"  v({args.direction}) = {res.value:.12g}",
             f"  argmax point indices: {arg_text}",
             f"  radius max|z| = {res.radius:.6g}"]
    deriv_cols, checks = ["", "", "", ""], []
    if args.delta is not None:
        checks = [probe.check]
        deriv_cols = [_r(probe.derivative), _r(probe.max_gap),
                      _r(probe.check.bound), _flag(probe.check.passed)]
        lines.append(f"  derivative toward {args.delta}: "
                     f"{probe.derivative:.12g}")
    row = [_r(res.value), arg_text, _r(res.radius)] + deriv_cols
    return _Result(args.out, "danskin", DANSKIN_HEADER, [row], lines, checks)


SECOND_HEADER = ["eps", "residual", "negative_part", "floor", "slope",
                 "vacuous", "passed", "seed"]


def cmd_secondorder(args) -> _Result:
    cfg, model, u, pert, ens, heading = _perturbed(
        args, "first-order residual decay")
    rep = second_order_check(model, u, pert, ens, eps=_steps(args.eps))
    steps = list(zip(rep.eps, rep.residuals, rep.negative_parts))
    rows = [[_r(e), _r(res), _r(neg), _r(rep.floor), _r(rep.slope),
             _flag(rep.vacuous), _flag(rep.check.passed), cfg.seed]
            for e, res, neg in steps]
    lines = [heading] + [f"  eps={e:g}: residual {res:.4g}, below-tangent "
                         f"part {neg:.4g}" for e, res, neg in steps]
    if rep.vacuous:
        lines.append(f"  fewer than two residuals above the floor "
                     f"{rep.floor:.2g}: the decay check is vacuous")
    return _Result(cfg.outdir, "secondorder", SECOND_HEADER, rows, lines,
                   [rep.check])


# ---------------------------------------------------------------------------
# parser and dispatch

def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**64)."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(cast, least=0):
    """argparse type: a finite number of type ``cast`` above zero and at
    least ``least``."""
    def parse(text: str):
        if not 0 < (value := cast(text)) < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value: ..."
    return parse


# a standard error needs at least two paths
_PATHS = _positive(int, least=2)

# each flag is (name, add_argument keywords)
_CONFIG_FLAGS = (
    ("--config", dict(required=True, help="experiment file")),
    ("--seed", dict(type=_seed, help="override [mc] seed")),
    ("--paths", dict(type=_PATHS, help="override [mc] paths")),
    ("--steps", dict(type=_positive(int), help="override [mc] steps")),
    ("--horizon", dict(type=_positive(float), help="override [mc] horizon")),
    ("--out", dict(help="override [output] directory")))


def _eps_flag(steps: tuple, text: str) -> tuple:
    return (("--eps", dict(default=",".join(map(repr, steps)), help=text)),)


def _scale_flags(paths: int, steps: int, seed: int) -> tuple:
    return (("--T", dict(type=_positive(float), default=1.0, help="horizon")),
            ("--paths", dict(type=_PATHS, default=paths)),
            ("--steps", dict(type=_positive(int), default=steps)),
            ("--seed", dict(type=_seed, default=seed)),
            ("--out", dict(default=".", help="output directory")))


# (name, handler, help, flags) of every command
_COMMANDS = (
    ("value", cmd_value, "weak/strong value surface", _CONFIG_FLAGS),
    ("sens", cmd_sens, "sensitivities vs differences",
     _CONFIG_FLAGS + _eps_flag(DIFFERENCE_STEPS,
                               "difference step sizes; each is read")),
    ("example1", cmd_example1, "sign-switching market, drift direction",
     _scale_flags(paths=200_000, steps=2000, seed=7)),
    ("example2", cmd_example2, "discrepancy functional",
     _scale_flags(paths=50_000, steps=500, seed=9)),
    ("h1check", cmd_h1check, "kernel stability of dsigma", _CONFIG_FLAGS),
    ("norms", cmd_norms, "modular functionals and norms", _CONFIG_FLAGS),
    ("danskin", cmd_danskin, "support function of a point cloud",
     (("--cloud", dict(required=True, help="CSV, one point per row")),
      ("--direction", dict(required=True, help="e.g. '2,1'")),
      ("--delta", dict(help="direction of differentiation")),
      ("--out", dict(default=".", help="output directory")))),
    ("secondorder", cmd_secondorder, "residual decay of the tangent",
     _CONFIG_FLAGS + _eps_flag(EXPANSION_STEPS,
                               "expansion step sizes; each is read")),
)


def _build_parser() -> _Parser:
    p = _Parser(prog="portsens",
                description="perturbation experiments for optimal "
                            "investment in Brownian markets",
                epilog="PORTSENS_WORKERS sets the thread count; results "
                       "are bit-identical for any value.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=text)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    try:
        res = args.func(args)
        path = _write_csv(res.outdir, f"{res.stem}.csv", res.header,
                          res.rows)
        _emit_summary(res.outdir, res.stem, res.lines
                      + [c.line() for c in res.checks] + [f"wrote {path}"])
        return 0 if all(c.passed for c in res.checks) else 3
    except (ConfigError, CoefficientError, KernelStabilityError,
            IncompleteMarketError, ResourceLimitError, OSError,
            configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
