"""Configuration-driven command line for the experiments in this package.

Commands
--------
value        weak and strong value surface over a tau grid
sens         closed-form sensitivities against Richardson differences,
             second-order decay of each value curve's residual, and weak
             against strong where market and direction are deterministic
example1     sign-switching market, unit drift direction: weak vs strong
example2     discrepancy functional: deterministic vs adapted price of risk
h1check      kernel stability of a volatility perturbation
norms        modular functionals and norms at the optimal payoff
danskin      support function of a point cloud: value, ties, derivative

Each command returns its verdicts as ``estimate.Check`` records; ``main``
writes one CSV with a fixed schema plus a plain-text summary recording
seeds and tolerances, with one line per check last, and prints the summary
to stdout.  Exit codes: 0 every check passed, 1 argv that argparse cannot
parse, 2 every refused value, whether a flag or the file gives it (an
``estimate.ConfigError`` or an unreadable file, refused before any path is
drawn), 3 a failed check or a failure after the pass.  Identical
configuration and seed give byte-identical CSVs for any worker count; set
PORTSENS_WORKERS to use threads.

The model lives in a line-oriented ``key = value`` config with sections;
the scale and output flags are written over its ``[mc]`` and ``[output]``
keys before anything is built.  Coefficient processes use the
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
from .estimate import Check, ConfigError, combine_linear
from .market import (MarketModel, check_drivers, check_h1_direction,
                     constant, deterministic, parse_coefficient)
from .modular import (amemiya_norm, density_logs, holder_check, j_evaluator,
                      j_functional, luxemburg_norm)
from .paths import PathEnsemble, TimeGrid
from .sensitivity import (DIFFERENCE_STEPS, check_steps, example1_report,
                          example2_reports, sensitivity_reports)
from .solver import check_dual_optimizer, optimal_terminal_wealth
from .valuation import PerturbationSpec, value_surface


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
    # the [mc] ensemble, or its grid alone for h1check, which draws no path
    ensemble: PathEnsemble | TimeGrid | None
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

# flag -> the (section, key) it is written over
_FLAG_KEYS = {"out": ("output", "directory"),
              **{key: ("mc", key) for key in _KEYS["mc"]}}


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
    except ConfigError as exc:
        raise ConfigError(f"--eps: {exc}") from None


def load_config(path: str, flags: dict) -> ExperimentConfig:
    """The config at ``path`` with every ``flags`` value not None written
    over the entry of ``_FLAG_KEYS`` it names, to meet the same checks."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for flag, (section, key) in _FLAG_KEYS.items():
        if flags.get(flag) is not None:
            cp.read_dict({section: {key: str(flags[flag])}})
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
        return _build_config(cp, flags.get("command"))
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(cp: configparser.ConfigParser,
                  command: str | None) -> ExperimentConfig:
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
    for section in ("perturbation", "mc", "norms"):
        if cp.has_section(section) and model is None:
            raise ConfigError(f"[{section}] needs a [market] section")

    pert, taus = None, None
    if cp.has_section("perturbation"):
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

    ensemble = None
    if cp.has_section("mc"):
        mc = cp["mc"]
        # h1check draws no path: without paths or seed it reads the grid
        need = {"steps", "horizon"} if command == "h1check" else _KEYS["mc"]
        if missing := sorted(need - set(mc)):
            raise ConfigError(f"[mc] needs {', '.join(missing)}")
        ensemble = TimeGrid(float(mc["horizon"]), int(mc["steps"]))
        if {"paths", "seed"} <= set(mc):
            ensemble = PathEnsemble(ensemble, n=model.n,
                                    count=int(mc["paths"]),
                                    seed=int(mc["seed"]))

    nu_family = ()
    if cp.has_section("norms"):
        items = sorted(cp["norms"].items())
        nu_family = tuple(parse_coefficient(v, (model.n,)) for _, v in items)
        check_drivers(model.n, *nu_family)

    return ExperimentConfig(
        model=model, utility=utility, pert=pert, taus=taus, ensemble=ensemble,
        nu_family=nu_family,
        outdir=_writable(cp.get("output", "directory", fallback="")))


def _writable(outdir: str) -> str:
    """``outdir`` stripped, or ``.`` if that is empty, if it is, or can be
    made, a writable directory."""
    outdir = outdir.strip() or "."
    path = os.path.abspath(outdir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {outdir!r}: {path!r} is not a "
                          "writable directory")
    return outdir


def _need(cfg: ExperimentConfig, what: str):
    name = {"model": "[market]", "utility": "[utility]",
            "pert": "[perturbation]", "ensemble": "[mc]"}[what]
    val = getattr(cfg, what)
    if val is None:
        raise ConfigError(f"this command needs a {name} section")
    return val


def _perturbed(args, title: str):
    """What ``value`` and ``sens`` read: the config, its model, utility and
    direction, the ensemble, and the summary heading."""
    cfg = load_config(args.config, vars(args))
    model, u, pert, ens = (_need(cfg, w)
                           for w in ("model", "utility", "pert", "ensemble"))
    heading = (f"{title}: utility={u.label} direction={pert.label} "
               f"paths={ens.count} steps={ens.grid.steps} "
               f"horizon={ens.grid.horizon:g} seed={ens.seed}")
    return cfg, model, u, pert, ens, heading


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
        csv.writer(fh).writerows([header, *rows])
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
                     ens.seed] for r in rows], lines, [])


SENS_HEADER = ["direction", "side", "formula", "se_formula", "fd", "se_fd",
               "gap", "tolerance", "verdict", "seed"]


def cmd_sens(args) -> _Result:
    cfg, model, u, pert, ens, heading = _perturbed(args, "sensitivities")
    eps = _steps(args.eps)
    reports, decays = sensitivity_reports(model, u, pert, ens, eps=eps)
    checks = [rep.check for rep in reports]
    rows = [[rep.direction, rep.side, _r(rep.formula.mean),
             _r(rep.formula.se), _r(rep.fd.mean), _r(rep.fd.se),
             _r(c.error), _r(c.bound), _flag(c.passed), ens.seed]
            for rep, c in zip(reports, checks)]
    lines = [heading,
             f"  difference steps: {', '.join(f'{e:g}' for e in eps)}; "
             "each formula against its difference, tolerance = 3 se of the "
             "paired contrast plus the extrapolation correction",
             "  residual u(tau) - u(0) - tau D of each value curve at tau = "
             "+-each step, D its formula: its log-log slope in the step, inf "
             "if fewer than two residuals clear the rounding floor"]
    # deterministic coefficients and directions make the two derivatives
    # equal, so their paired difference must be Monte Carlo noise
    if deterministic(model.mu, model.sigma, model.rate, *pert.directions):
        gap = combine_linear([rep.formula for rep in reports], [1.0, -1.0],
                             f"weak-minus-strong[{pert.label}]")
        lines.append("  deterministic market and direction, so weak = "
                     "strong")
        checks.append(Check("weak - strong", "sigmas", gap.mean, 0.0, 3.0,
                            gap.se))
    checks += [rep.check for rep in decays]
    return _Result(cfg.outdir, "sens", SENS_HEADER, rows, lines, checks)


EXAMPLE1_HEADER = ["horizon", "side", "estimate", "se", "expected",
                   "abs_error", "tolerance", "verdict", "seed"]


def cmd_example1(args) -> _Result:
    outdir = _writable(args.out)
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
    return _Result(outdir, "example1", EXAMPLE1_HEADER, rows, lines, checks)


EXAMPLE2_HEADER = ["case", "value", "se", "sigmas", "verdict", "seed"]


def cmd_example2(args) -> _Result:
    outdir = _writable(args.out)
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
    return _Result(outdir, "example2", EXAMPLE2_HEADER, rows, lines, checks)


H1_HEADER = ["tau", "full_rank", "kernel_equal", "ok"]


def cmd_h1check(args) -> _Result:
    cfg = load_config(args.config, vars(args))
    model, pert = _need(cfg, "model"), _need(cfg, "pert")
    if pert.dsigma is None:
        raise ConfigError("h1check needs a dsigma direction")
    grid = _need(cfg, "ensemble")
    grid = grid if isinstance(grid, TimeGrid) else grid.grid
    taus = [t for t in (cfg.taus or (1.0,)) if t != 0.0]
    if not taus:
        raise ConfigError("h1check needs a nonzero tau")
    regimes, reports = check_h1_direction(model.sigma, pert.dsigma, taus, grid)
    rows = [[_r(tau), _flag(rep.full_rank), _flag(rep.kernel_equal),
             _flag(rep.check.passed)] for tau, rep in zip(taus, reports)]
    lines = [f"kernel stability of sigma + tau dsigma, exact over "
             f"{len(regimes)} reachable regimes: steps={grid.steps} "
             f"horizon={grid.horizon:g}"]
    lines += [f"  tau={tau:g}: full rank {_flag(rep.full_rank)}, kernel "
              f"preserved {_flag(rep.kernel_equal)}, first broken on "
              f"{regimes.describe(rep.worst_regime)}"
              for tau, rep in zip(taus, reports) if not rep.check.passed]
    return _Result(cfg.outdir, "h1", H1_HEADER, rows, lines,
                   [rep.check for rep in reports])


NORMS_HEADER = ["quantity", "value", "se", "verdict", "seed"]


def cmd_norms(args) -> _Result:
    cfg = load_config(args.config, vars(args))
    model, u, ens = (_need(cfg, w) for w in ("model", "utility", "ensemble"))
    if u.kind != "power":
        raise ConfigError(f"norms needs a power utility, got {u.label}: "
                          "U^{-1}(|Z|) is the optimal wealth only where "
                          "U >= 0, and in closed form only for power "
                          "utility")
    check_dual_optimizer(model)
    family = (constant(np.zeros(model.n)),) + cfg.nu_family
    logs = density_logs(model, family, ens)
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
        ["j_at_optimal_payoff", _r(j.mean), _r(j.se), j_ok, ens.seed],
        ["budget_x0", _r(model.x0), "", "", ens.seed],
        ["amemiya_norm", _r(am), "", am_ok, ens.seed],
        ["luxemburg_norm", _r(lux), "", "", ens.seed],
        ["amemiya_bound", _r(bound), "", "", ens.seed],
        ["norm_I_pricing_density", _r(hold.norm_i), "", "", ens.seed],
        ["norm_J_optimal_wealth", _r(hold.norm_j), "", "", ens.seed],
        ["holder_lhs", _r(hold.lhs), "", hold_ok, ens.seed],
        ["holder_rhs", _r(hold.rhs), "", "", ens.seed],
    ]
    lines = [f"modular norms: utility={u.label} family size {len(family)} "
             f"paths={ens.count} steps={ens.grid.steps} "
             f"horizon={ens.grid.horizon:g} seed={ens.seed}",
             f"  budget x0 = {model.x0:g}, luxemburg = {lux:.6g}, "
             f"norm_I(density) = {hold.norm_i:.6g}, norm_J(wealth) = "
             f"{hold.norm_j:.6g}",
             "  amemiya <= 1 + j (Young's inequality), so its bound follows "
             "from the j check; the holder pairing is an identity check"]
    return _Result(cfg.outdir, "norms", NORMS_HEADER, rows, lines, checks)


DANSKIN_HEADER = ["value", "argmax", "radius", "derivative", "probe_gap",
                  "probe_tolerance", "probe_ok"]


def cmd_danskin(args) -> _Result:
    from .danskin import TIE_TOL, hadamard_probe, load_cloud, support_value
    outdir = _writable(args.out)
    K = load_cloud(args.cloud)
    d = _floats(args.direction)
    res = support_value(d, K)
    arg_text = ";".join(str(i) for i in res.argmax)
    lines = [f"support function of {args.cloud} ({K.count} points in "
             f"R^{K.m}), tie tolerance {TIE_TOL:g}",
             f"  v({args.direction}) = {res.value:.12g}",
             f"  argmax point indices: {arg_text}",
             f"  radius max|z| = {res.radius:.6g}"]
    deriv_cols, checks = ["", "", "", ""], []
    if args.delta is not None:
        probe = hadamard_probe(d, _floats(args.delta), K)
        checks = [probe.check]
        deriv_cols = [_r(probe.derivative), _r(probe.max_gap),
                      _r(probe.check.bound), _flag(probe.check.passed)]
        lines.append(f"  derivative toward {args.delta}: "
                     f"{probe.derivative:.12g}")
    row = [_r(res.value), arg_text, _r(res.radius)] + deriv_cols
    return _Result(outdir, "danskin", DANSKIN_HEADER, [row], lines, checks)


# ---------------------------------------------------------------------------
# parser and dispatch

# each flag is (name, add_argument keywords)
_CONFIG_FLAGS = (
    ("--config", dict(required=True, help="experiment file")),
    ("--seed", dict(type=int, help="override [mc] seed")),
    ("--paths", dict(type=int, help="override [mc] paths")),
    ("--steps", dict(type=int, help="override [mc] steps")),
    ("--horizon", dict(type=float, help="override [mc] horizon")),
    ("--out", dict(help="override [output] directory")))


def _scale_flags(paths: int, steps: int, seed: int) -> tuple:
    return (("--T", dict(type=float, default=1.0, help="horizon")),
            ("--paths", dict(type=int, default=paths)),
            ("--steps", dict(type=int, default=steps)),
            ("--seed", dict(type=int, default=seed)),
            ("--out", dict(default=".", help="output directory")))


# (name, handler, help, flags) of every command
_COMMANDS = (
    ("value", cmd_value, "weak/strong value surface", _CONFIG_FLAGS),
    ("sens", cmd_sens, "sensitivities vs differences",
     _CONFIG_FLAGS + (("--eps", dict(
         default=",".join(map(repr, DIFFERENCE_STEPS)),
         help="difference step sizes; each is read")),)),
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
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="portsens",
        description="perturbation experiments for optimal investment in "
                    "Brownian markets",
        epilog="PORTSENS_WORKERS sets the thread count; results are "
               "bit-identical for any value.")
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
    except SystemExit as exc:  # argparse printed the usage or the help
        return 0 if exc.code == 0 else 1
    try:
        res = args.func(args)
        path = _write_csv(res.outdir, f"{res.stem}.csv", res.header,
                          res.rows)
        _emit_summary(res.outdir, res.stem, res.lines
                      + [c.line() for c in res.checks] + [f"wrote {path}"])
        return 0 if all(c.passed for c in res.checks) else 3
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
