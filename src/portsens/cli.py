"""Configuration-driven command line for the experiments in this package.

Commands
--------
value        weak and strong value surface over a tau grid
sens         closed-form sensitivities against Richardson differences
example1     sign-switching market, unit drift direction: weak vs strong
example2     discrepancy functional: deterministic vs adapted price of risk
h1check      kernel stability of a volatility perturbation
norms        modular functionals and norms at the optimal payoff
danskin      support function of a point cloud: value, ties, derivative
secondorder  decay of the below-tangent residual of the weak value curve

Each command writes one CSV with a fixed schema plus a plain-text summary
recording seeds and tolerances, and prints the summary to stdout.  Exit
codes: 0 success, 1 usage error, 2 invalid configuration or input file,
3 numerical failure or a failed verdict.  Identical configuration and seed
give byte-identical CSVs for any worker count; set PORTSENS_WORKERS to use
threads.

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
import os
import sys

import numpy as np

from . import utility as ut
from .danskin import (CloudError, directional_derivative, hadamard_probe,
                      load_cloud, support_value)
from .market import (MarketModel, check_h1_direction, format_coefficient,
                     parse_coefficient, scalar_constant, zeros)
from .modular import (ModularFunctional, amemiya_norm, density_logs,
                      holder_check, j_evaluator, j_functional,
                      luxemburg_norm, norm_I, norm_J)
from .paths import PathEnsemble, TimeGrid, check_seed
from .sensitivity import (DEFAULT_STEPS, check_steps, example1_report,
                          example2_reports, second_order_check,
                          sensitivity_reports)
from .solver import optimal_terminal_wealth
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

    model: MarketModel | None = None
    utility: ut.UtilitySpec | None = None
    utility_text: str | None = None
    pert: PerturbationSpec | None = None
    taus: tuple | None = None
    paths: int | None = None
    steps: int | None = None
    horizon: float | None = None
    seed: int | None = None
    nu_family: tuple = ()
    outdir: str = "."


_KEYS = {
    "market": {"d", "n", "mu", "sigma", "r", "x0"},
    "utility": {"spec"},
    "perturbation": {"dmu", "dsigma", "dr", "dlambda", "taus", "label"},
    "mc": {"paths", "steps", "horizon", "seed"},
    "norms": None,  # any nu* keys
    "output": {"directory"},
}


def _floats(text: str) -> tuple:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts if p)
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None


def _steps(text: str) -> tuple:
    """The --eps step sizes, in the order given, once they are checked."""
    eps = _floats(text)
    try:
        check_steps(eps)
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from None
    return eps


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
                else scalar_constant(0.0))
        model = MarketModel(d=d, n=n,
                            mu=parse_coefficient(m["mu"], (d,)),
                            sigma=parse_coefficient(m["sigma"], (d, n)),
                            rate=rate,
                            x0=float(m.get("x0", "1.0")))

    utility = utility_text = None
    if cp.has_section("utility"):
        utility_text = cp["utility"]["spec"].strip()
        utility = ut.parse_utility(utility_text)

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
        if paths <= 0 or steps <= 0 or horizon <= 0:
            raise ConfigError("paths, steps and horizon must be positive")

    nu_family = ()
    if cp.has_section("norms"):
        if model is None:
            raise ConfigError("[norms] needs a [market] section")
        items = sorted(cp["norms"].items())
        nu_family = tuple(parse_coefficient(v, (model.n,)) for _, v in items)

    outdir = "."
    if cp.has_section("output"):
        outdir = cp["output"].get("directory", ".").strip() or "."

    return ExperimentConfig(model=model, utility=utility,
                            utility_text=utility_text, pert=pert, taus=taus,
                            paths=paths, steps=steps, horizon=horizon,
                            seed=seed, nu_family=nu_family, outdir=outdir)


def _format_utility(cfg: ExperimentConfig) -> str:
    u = cfg.utility
    if u.kind == "log":
        return "log"
    if u.kind == "power":
        return f"power:p={u.p!r}"
    return cfg.utility_text  # custom keeps its file reference


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; loading it back reproduces the config."""
    lines = []
    if cfg.model is not None:
        m = cfg.model
        lines += ["[market]", f"d = {m.d}", f"n = {m.n}",
                  f"mu = {format_coefficient(m.mu)}",
                  f"sigma = {format_coefficient(m.sigma)}",
                  f"r = {format_coefficient(m.rate)}",
                  f"x0 = {m.x0!r}", ""]
    if cfg.utility is not None:
        lines += ["[utility]", f"spec = {_format_utility(cfg)}", ""]
    if cfg.pert is not None:
        lines.append("[perturbation]")
        for key, proc in [("dmu", cfg.pert.dmu), ("dsigma", cfg.pert.dsigma),
                          ("dr", cfg.pert.drate),
                          ("dlambda", cfg.pert.dlambda)]:
            if proc is not None:
                lines.append(f"{key} = {format_coefficient(proc)}")
        lines.append(f"label = {cfg.pert.label}")
        if cfg.taus is not None:
            lines.append("taus = " + ",".join(repr(t) for t in cfg.taus))
        lines.append("")
    if cfg.seed is not None:
        lines += ["[mc]", f"paths = {cfg.paths}", f"steps = {cfg.steps}",
                  f"horizon = {cfg.horizon!r}", f"seed = {cfg.seed}", ""]
    if cfg.nu_family:
        lines.append("[norms]")
        lines += [f"nu{i} = {format_coefficient(nu)}"
                  for i, nu in enumerate(cfg.nu_family)]
        lines.append("")
    lines += ["[output]", f"directory = {cfg.outdir}", ""]
    return "\n".join(lines)


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


# ---------------------------------------------------------------------------
# artifact emission

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
    os.makedirs(outdir, exist_ok=True)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, f"{name}_summary.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

SURFACE_HEADER = ["tau", "u_weak", "se_weak", "u_strong", "se_strong",
                  "weight_mean", "seed"]


def cmd_value(args) -> int:
    cfg = _load(args)
    model, u, pert = _need(cfg, "model"), _need(cfg, "utility"), \
        _need(cfg, "pert")
    if cfg.taus is None:
        raise ConfigError("value needs taus in [perturbation]")
    ens = _make_ensemble(cfg)
    rows = value_surface(model, u, pert, cfg.taus, ens)
    path = _write_csv(cfg.outdir, "surface.csv", SURFACE_HEADER,
                      [[_r(r.tau), _r(r.weak.mean), _r(r.weak.se),
                        _r(r.strong.mean), _r(r.strong.se),
                        _r(r.weight_mean), cfg.seed] for r in rows])
    lines = [f"value surface: utility={u.label} direction={pert.label} "
             f"paths={cfg.paths} steps={cfg.steps} horizon={cfg.horizon:g} "
             f"seed={cfg.seed}"]
    for r in rows:
        lines.append(f"  tau={r.tau:g}: weak={r.weak.mean:.6g} "
                     f"(se {r.weak.se:.2g})  strong={r.strong.mean:.6g} "
                     f"(se {r.strong.se:.2g})")
    lines.append(f"wrote {path}")
    _emit_summary(cfg.outdir, "surface", lines)
    return 0


SENS_HEADER = ["direction", "side", "formula", "se_formula", "fd", "se_fd",
               "gap", "tolerance", "verdict", "seed"]


def cmd_sens(args) -> int:
    cfg = _load(args)
    model, u, pert = _need(cfg, "model"), _need(cfg, "utility"), \
        _need(cfg, "pert")
    eps = _steps(args.eps)
    ens = _make_ensemble(cfg)
    reports = sensitivity_reports(model, u, pert, ens, eps=eps)
    rows = [[rep.direction, rep.side, _r(rep.formula.mean),
             _r(rep.formula.se), _r(rep.fd.mean), _r(rep.fd.se), _r(rep.gap),
             _r(rep.tolerance), _flag(rep.verdict), cfg.seed]
            for rep in reports]
    path = _write_csv(cfg.outdir, "sens.csv", SENS_HEADER, rows)
    lines = [f"sensitivities: utility={u.label} direction={pert.label} "
             f"paths={cfg.paths} steps={cfg.steps} horizon={cfg.horizon:g} "
             f"seed={cfg.seed}",
             f"  difference steps: {', '.join(f'{e:g}' for e in eps)}; "
             "tolerance = 3 se of the paired contrast plus the "
             "extrapolation correction"]
    lines += ["  " + rep.line() for rep in reports]
    lines.append(f"wrote {path}")
    _emit_summary(cfg.outdir, "sens", lines)
    return 0 if all(rep.verdict for rep in reports) else 3


EXAMPLE1_HEADER = ["horizon", "side", "estimate", "se", "expected",
                   "abs_error", "tolerance", "verdict", "seed"]


def cmd_example1(args) -> int:
    rep = example1_report(T=args.T, M=args.paths, N=args.steps,
                          seed=args.seed)
    checks = [
        ("strong", rep.strong, rep.expected_strong, args.tol_strong,
         abs(rep.strong.mean - rep.expected_strong) <= args.tol_strong),
        ("weak", rep.weak, rep.expected_weak, args.tol_weak,
         abs(rep.weak.mean - rep.expected_weak) <= args.tol_weak),
    ]
    rows = [[_r(args.T), side, _r(est.mean), _r(est.se), _r(expected),
             _r(abs(est.mean - expected)), _r(tol), _flag(ok), args.seed]
            for side, est, expected, tol, ok in checks]
    # the weak-minus-strong gap must be negative and clearly resolved
    gap_ok = rep.gap < 0 and rep.gap_sigmas > 5.0
    rows.append([_r(args.T), "gap", _r(rep.gap), _r(rep.gap_se),
                 _r(rep.expected_gap), _r(abs(rep.gap - rep.expected_gap)),
                 _r(5.0 * rep.gap_se), _flag(gap_ok), args.seed])
    path = _write_csv(args.out, "example1.csv", EXAMPLE1_HEADER, rows)
    lines = [f"sign-switching market, unit drift direction: T={args.T:g} "
             f"paths={args.paths} steps={args.steps} seed={args.seed}"]
    for side, est, expected, tol, ok in checks:
        lines.append(f"  {side}: {est.mean:.6g} (se {est.se:.2g}), expected "
                     f"{expected:.6g}, |error| <= {tol:g}: "
                     f"{'ok' if ok else 'FAIL'}")
    lines.append(f"  weak - strong = {rep.gap:.6g} (se {rep.gap_se:.2g}, "
                 f"{rep.gap_sigmas:.1f} sigma), expected "
                 f"{rep.expected_gap:.6g}, negative and > 5 sigma: "
                 f"{'ok' if gap_ok else 'FAIL'}")
    lines.append(f"wrote {path}")
    _emit_summary(args.out, "example1", lines)
    return 0 if gap_ok and all(c[-1] for c in checks) else 3


EXAMPLE2_HEADER = ["case", "value", "se", "sigmas", "verdict", "seed"]


def cmd_example2(args) -> int:
    det, adapted = example2_reports(T=args.T, M=args.paths, N=args.steps,
                                    seed=args.seed)
    det_ok = det.sigmas_from_zero <= 3.0
    ad_ok = adapted.value.mean > 0 and adapted.sigmas_from_zero > 3.0
    rows = [
        ["deterministic", _r(det.value.mean), _r(det.value.se),
         _r(det.sigmas_from_zero), _flag(det_ok), args.seed],
        ["adapted", _r(adapted.value.mean), _r(adapted.value.se),
         _r(adapted.sigmas_from_zero), _flag(ad_ok), args.seed],
    ]
    path = _write_csv(args.out, "example2.csv", EXAMPLE2_HEADER, rows)
    lines = [f"discrepancy functional: T={args.T:g} paths={args.paths} "
             f"steps={args.steps} seed={args.seed}",
             f"  deterministic price of risk: {det.value.mean:.4g} "
             f"(se {det.value.se:.2g}, {det.sigmas_from_zero:.2f} sigma); "
             f"within 3 sigma of 0: {'ok' if det_ok else 'FAIL'}",
             f"  adapted price of risk: {adapted.value.mean:.4g} "
             f"(se {adapted.value.se:.2g}, "
             f"{adapted.sigmas_from_zero:.1f} sigma); positive beyond "
             f"3 sigma: {'ok' if ad_ok else 'FAIL'}",
             f"wrote {path}"]
    _emit_summary(args.out, "example2", lines)
    return 0 if det_ok and ad_ok else 3


H1_HEADER = ["tau", "full_rank", "kernel_equal", "ok"]


def cmd_h1check(args) -> int:
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
    rows, lines_mid, all_ok = [], [], True
    for tau, rep in zip(taus, reports):
        all_ok = all_ok and rep.ok
        rows.append([_r(tau), _flag(rep.full_rank), _flag(rep.kernel_equal),
                     _flag(rep.ok)])
        lines_mid.append(f"  tau={tau:g}: full rank "
                         f"{'yes' if rep.full_rank else 'NO'}, kernel "
                         f"preserved {'yes' if rep.kernel_equal else 'NO'}"
                         + ("" if rep.ok else " on "
                            + regimes.describe(rep.worst_regime)))
    path = _write_csv(cfg.outdir, "h1.csv", H1_HEADER, rows)
    lines = [f"kernel stability of sigma + tau dsigma, exact over "
             f"{len(regimes)} reachable regimes: steps={cfg.steps} "
             f"horizon={cfg.horizon:g}"]
    lines += lines_mid
    lines.append(f"verdict: {'stable' if all_ok else 'VIOLATED'}")
    lines.append(f"wrote {path}")
    _emit_summary(cfg.outdir, "h1", lines)
    return 0 if all_ok else 3


NORMS_HEADER = ["quantity", "value", "se", "verdict", "seed"]


def cmd_norms(args) -> int:
    cfg = _load(args)
    model, u = _need(cfg, "model"), _need(cfg, "utility")
    if ut.infimum(u) < 0:
        # U^{-1}(|Z|) is the optimal wealth only where U(X*) >= 0
        raise ConfigError(f"norms needs a utility with U >= 0; "
                          f"{u.label} takes negative values")
    if u.kind == "custom":
        raise ConfigError("norms needs a power utility; a custom utility "
                          "table cannot be inverted over the Amemiya scan")
    family = (zeros((model.n,)),) + cfg.nu_family
    mf = ModularFunctional(model=model, utility=u, nu_family=family)
    ens = _make_ensemble(cfg)
    logs = density_logs(mf, ens)
    opt = optimal_terminal_wealth(model, u, logs[0])
    payoff = np.asarray(ut.evaluate(u, opt.xstar))

    j = j_functional(payoff, mf, logs)
    j_tol = 3.0 * j.se + 1e-9 * (1.0 + model.x0)
    j_ok = abs(j.mean - model.x0) <= j_tol
    F = j_evaluator(mf, logs)
    am = amemiya_norm(F, payoff)
    lux = luxemburg_norm(F, payoff)
    bound = 1.0 + model.x0
    am_ok = am <= bound + j_tol

    rows = [
        ["j_at_optimal_payoff", _r(j.mean), _r(j.se), _flag(j_ok), cfg.seed],
        ["budget_x0", _r(model.x0), "", "", cfg.seed],
        ["amemiya_norm", _r(am), "", _flag(am_ok), cfg.seed],
        ["luxemburg_norm", _r(lux), "", "", cfg.seed],
        ["amemiya_bound", _r(bound), "", "", cfg.seed],
    ]
    lines = [f"modular norms: utility={u.label} family size {len(family)} "
             f"paths={cfg.paths} steps={cfg.steps} horizon={cfg.horizon:g} "
             f"seed={cfg.seed}",
             f"  j(optimal payoff) = {j.mean:.6g} (se {j.se:.2g}), budget "
             f"x0 = {model.x0:g}, |gap| <= {j_tol:.2g}: "
             f"{'ok' if j_ok else 'FAIL'}",
             f"  amemiya = {am:.6g} <= 1 + x0 = {bound:g}: "
             f"{'ok' if am_ok else 'FAIL'};  luxemburg = {lux:.6g}"]

    # the refusals above leave only power utilities
    ni = norm_I(opt.z, mf, logs)
    nj = norm_J(opt.xstar, mf, logs)
    hold = holder_check(opt.z, opt.xstar, mf, logs)
    rows += [
        ["norm_I_pricing_density", _r(ni), "", "", cfg.seed],
        ["norm_J_optimal_wealth", _r(nj), "", "", cfg.seed],
        ["holder_lhs", _r(hold.lhs), "", _flag(hold.passed), cfg.seed],
        ["holder_rhs", _r(hold.rhs), "", "", cfg.seed],
    ]
    lines.append(f"  norm_I(density) = {ni:.6g}, norm_J(wealth) = "
                 f"{nj:.6g}, pairing {hold.lhs:.6g} <= {hold.rhs:.6g}: "
                 f"{'ok' if hold.passed else 'FAIL'}")
    path = _write_csv(cfg.outdir, "norms.csv", NORMS_HEADER, rows)
    lines.append(f"wrote {path}")
    _emit_summary(cfg.outdir, "norms", lines)
    return 0 if j_ok and am_ok and hold.passed else 3


DANSKIN_HEADER = ["value", "argmax", "radius", "derivative", "probe_gap",
                  "probe_tolerance", "probe_ok"]


def cmd_danskin(args) -> int:
    K = load_cloud(args.cloud)
    d = _floats(args.direction)
    res = support_value(d, K, args.tie_tol)
    arg_text = ";".join(str(i) for i in res.argmax)
    lines = [f"support function of {args.cloud} ({K.count} points in "
             f"R^{K.m}), tie tolerance {args.tie_tol:g}",
             f"  v({args.direction}) = {res.value:.12g}",
             f"  argmax point indices: {arg_text}",
             f"  radius max|z| = {res.radius:.6g}"]
    deriv_cols, probe_ok = ["", "", "", ""], True
    if args.delta is not None:
        delta = _floats(args.delta)
        dv = directional_derivative(d, delta, K, args.tie_tol)
        probe = hadamard_probe(d, delta, K, tie_tol=args.tie_tol)
        probe_ok = probe.passed
        deriv_cols = [_r(dv), _r(probe.max_gap), _r(probe.tolerance),
                      _flag(probe.passed)]
        lines.append(f"  derivative toward {args.delta}: {dv:.12g}; "
                     f"difference-quotient probe "
                     f"{'converged' if probe.passed else 'FAILED'} "
                     f"(last gap {abs(probe.quotients[-1] - dv):.2g}, "
                     f"tolerance {probe.tolerance:.2g})")
    row = [_r(res.value), arg_text, _r(res.radius)] + deriv_cols
    path = _write_csv(args.out, "danskin.csv", DANSKIN_HEADER, [row])
    lines.append(f"wrote {path}")
    _emit_summary(args.out, "danskin", lines)
    return 0 if probe_ok else 3


SECOND_HEADER = ["eps", "residual", "negative_part", "floor", "slope",
                 "vacuous", "passed", "seed"]


def cmd_secondorder(args) -> int:
    cfg = _load(args)
    model, u, pert = _need(cfg, "model"), _need(cfg, "utility"), \
        _need(cfg, "pert")
    eps = _steps(args.eps)
    ens = _make_ensemble(cfg)
    rep = second_order_check(model, u, pert, ens, eps=eps)
    rows = [[_r(e), _r(res), _r(neg), _r(rep.floor), _r(rep.slope),
             _flag(rep.vacuous), _flag(rep.passed), cfg.seed]
            for e, res, neg in zip(rep.eps, rep.residuals,
                                   rep.negative_parts)]
    path = _write_csv(cfg.outdir, "secondorder.csv", SECOND_HEADER, rows)
    lines = [f"first-order residual decay: utility={u.label} "
             f"direction={pert.label} paths={cfg.paths} steps={cfg.steps} "
             f"horizon={cfg.horizon:g} seed={cfg.seed}"]
    for e, res, neg in zip(rep.eps, rep.residuals, rep.negative_parts):
        lines.append(f"  eps={e:g}: residual {res:.4g}, below-tangent part "
                     f"{neg:.4g}")
    if rep.vacuous:
        lines.append(f"  fewer than two residuals above the floor "
                     f"{rep.floor:.2g}; decay check vacuous: ok")
    else:
        lines.append(f"  log-log slope of |residual| {rep.slope:.3f} "
                     f"(need >= 1.8): {'ok' if rep.passed else 'FAIL'}")
    lines.append(f"wrote {path}")
    _emit_summary(cfg.outdir, "secondorder", lines)
    return 0 if rep.passed else 3


# ---------------------------------------------------------------------------
# parser and dispatch

def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**64)."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(sp) -> None:
    sp.add_argument("--config", required=True, help="experiment file")
    sp.add_argument("--seed", type=_seed, help="override [mc] seed")
    sp.add_argument("--paths", type=int, help="override [mc] paths")
    sp.add_argument("--steps", type=int, help="override [mc] steps")
    sp.add_argument("--horizon", type=float, help="override [mc] horizon")
    sp.add_argument("--out", help="override [output] directory")


def _add_scale_flags(sp, paths: int, steps: int, seed: int) -> None:
    sp.add_argument("--T", type=float, default=1.0, help="horizon")
    sp.add_argument("--paths", type=int, default=paths)
    sp.add_argument("--steps", type=int, default=steps)
    sp.add_argument("--seed", type=_seed, default=seed)
    sp.add_argument("--out", default=".", help="output directory")


_DEFAULT_EPS = ",".join(map(repr, DEFAULT_STEPS))


def _build_parser() -> _Parser:
    p = _Parser(prog="portsens",
                description="perturbation experiments for optimal "
                            "investment in Brownian markets",
                epilog="PORTSENS_WORKERS sets the thread count; results "
                       "are bit-identical for any value.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("value", help="weak/strong value surface")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_value)

    sp = sub.add_parser("sens", help="sensitivities vs differences")
    _add_config_flags(sp)
    sp.add_argument("--eps", default=_DEFAULT_EPS,
                    help="difference step sizes")
    sp.set_defaults(func=cmd_sens)

    sp = sub.add_parser("example1",
                        help="sign-switching market, drift direction")
    _add_scale_flags(sp, paths=200_000, steps=2000, seed=7)
    sp.add_argument("--tol-strong", type=float, default=0.01,
                    dest="tol_strong")
    sp.add_argument("--tol-weak", type=float, default=0.015, dest="tol_weak")
    sp.set_defaults(func=cmd_example1)

    sp = sub.add_parser("example2", help="discrepancy functional")
    _add_scale_flags(sp, paths=50_000, steps=500, seed=9)
    sp.set_defaults(func=cmd_example2)

    sp = sub.add_parser("h1check", help="kernel stability of dsigma")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_h1check)

    sp = sub.add_parser("norms", help="modular functionals and norms")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_norms)

    sp = sub.add_parser("danskin", help="support function of a point cloud")
    sp.add_argument("--cloud", required=True, help="CSV, one point per row")
    sp.add_argument("--direction", required=True, help="e.g. '2,1'")
    sp.add_argument("--delta", help="direction of differentiation")
    sp.add_argument("--tie-tol", type=float, default=1e-12, dest="tie_tol")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=cmd_danskin)

    sp = sub.add_parser("secondorder", help="residual decay of the tangent")
    _add_config_flags(sp)
    sp.add_argument("--eps", default=_DEFAULT_EPS,
                    help="expansion step sizes")
    sp.set_defaults(func=cmd_secondorder)
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
        return args.func(args)
    except (ConfigError, CloudError, OSError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
