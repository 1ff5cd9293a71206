"""End-to-end command tests: artifacts, exit codes, reproducibility."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import portsens

from portsens import cli, modular, paths, sensitivity
from portsens.cli import (DANSKIN_HEADER, EXAMPLE1_HEADER, EXAMPLE2_HEADER,
                          H1_HEADER, NORMS_HEADER, SENS_HEADER, SURFACE_HEADER,
                          main)
from portsens.market import RegimeTable
from portsens.modular import luxemburg_norm
from portsens.paths import path_sums

from conftest import bytes_per_path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_records(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_value_command(tmp_path):
    out = str(tmp_path / "v")
    code = main(["value", "--config", "configs/example1.ini",
                 "--paths", "2000", "--steps", "100", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/surface.csv")
    assert rows[0] == SURFACE_HEADER
    recs = read_records(f"{out}/surface.csv")
    assert [float(r["tau"]) for r in recs] == [0.0, 0.05, 0.1, 0.2]
    assert all(int(r["seed"]) == 7 for r in recs)
    summary = (tmp_path / "v" / "surface_summary.txt").read_text()
    assert "tau=0.2" in summary


def test_value_bitwise_reproducible_across_workers(tmp_path, monkeypatch):
    outs = []
    for i, workers in enumerate(("1", "4")):
        monkeypatch.setenv("PORTSENS_WORKERS", workers)
        out = str(tmp_path / f"w{i}")
        assert main(["value", "--config", "configs/example1.ini",
                     "--paths", "3000", "--steps", "64", "--out", out]) == 0
        outs.append((tmp_path / f"w{i}" / "surface.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sens_command(tmp_path):
    out = str(tmp_path / "s")
    code = main(["sens", "--config", "configs/deterministic2d.ini",
                 "--paths", "8000", "--steps", "16", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/sens.csv")
    assert rows[0] == SENS_HEADER
    assert [r[1] for r in rows[1:]] == ["weak", "strong"]
    assert all(r[8] == "true" for r in rows[1:])


def contrast_lines(summary):
    return [line for line in summary.splitlines()
            if line.startswith("  weak - strong = ")]


def test_sens_contrasts_weak_and_strong_where_deterministic(tmp_path,
                                                           capsys):
    # a deterministic market and direction make the two derivatives equal:
    # sens states their paired difference, 2.35 se from zero here, and
    # passes it within 3; the adapted example1.ini market states none
    assert main(["sens", "--config", "configs/deterministic2d.ini",
                 "--paths", "2000", "--steps", "16",
                 "--out", str(tmp_path / "det")]) == 0
    (line,) = contrast_lines(capsys.readouterr().out)
    assert "2.35 sigma" in line and line.endswith(": ok")
    assert main(["sens", "--config", "configs/example1.ini", "--paths",
                 "500", "--steps", "16", "--out", str(tmp_path / "ad")]) == 0
    assert contrast_lines(capsys.readouterr().out) == []


def test_sens_fails_a_weak_strong_gap_beyond_three_se(tmp_path, capsys,
                                                      monkeypatch):
    # weak sits 2.35 se below strong on these paths; the strong formula
    # moved up by 4 of its standard errors, with its difference moved
    # alike so that each side still matches, puts the gap 4.5 se below
    # zero: every sens.csv verdict holds and the contrast fails, as do the
    # strong curve's decay checks, whose tangent the moved formula tilts
    formulas, fds, shift = sensitivity._sens_estimates, \
        sensitivity.fd_sensitivity, []

    def moved(est):
        return dataclasses.replace(est, mean=est.mean + shift[0])

    def shifted_formulas(*args):
        base, weak, strong = formulas(*args)
        shift.append(4.0 * strong.se)
        return base, weak, moved(strong)

    def shifted_fds(*args):
        weak, (strong, correction) = fds(*args)
        return weak, (moved(strong), correction)

    monkeypatch.setattr(sensitivity, "_sens_estimates", shifted_formulas)
    monkeypatch.setattr(sensitivity, "fd_sensitivity", shifted_fds)
    out = tmp_path / "s"
    assert main(["sens", "--config", "configs/deterministic2d.ini",
                 "--paths", "2000", "--steps", "16", "--out", str(out)]) == 3
    summary = capsys.readouterr().out
    (line,) = contrast_lines(summary)
    assert "4.49 sigma" in line and line.endswith(": FAIL")
    assert [r["verdict"] for r in read_records(out / "sens.csv")] \
        == ["true", "true"]
    assert [line.endswith(": ok") for line in summary.splitlines()
            if line.startswith("  log-log slope")] == [True, True, False,
                                                         False]


def test_example1_command(tmp_path):
    out = str(tmp_path / "e1")
    code = main(["example1", "--paths", "20000", "--steps", "200",
                 "--seed", "71", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/example1.csv")
    assert rows[0] == EXAMPLE1_HEADER
    assert [r[1] for r in rows[1:]] == ["strong", "weak", "gap"]
    assert all(r[7] == "true" for r in rows[1:])
    assert float(rows[3][2]) < 0  # the gap itself


def test_example1_market_is_its_config(tmp_path):
    # example1 builds the sign-switching market by hand; sens on
    # configs/example1.ini must read the same market, direction and paths,
    # so both print the same bits on each side (the path-sum kernel does
    # not depend on which other sums a pass requests)
    assert main(["example1", "--paths", "2000", "--steps", "200",
                 "--seed", "7", "--out", str(tmp_path / "e1")]) == 0
    assert main(["sens", "--config", "configs/example1.ini", "--paths",
                 "2000", "--steps", "200", "--seed", "7",
                 "--out", str(tmp_path / "s")]) == 0
    hand = {r["side"]: r for r in read_records(tmp_path / "e1/example1.csv")}
    config = read_records(tmp_path / "s/sens.csv")
    assert [r["side"] for r in config] == ["weak", "strong"]
    for rec in config:
        assert (rec["formula"], rec["se_formula"]) == \
            (hand[rec["side"]]["estimate"], hand[rec["side"]]["se"])


def test_example2_command(tmp_path):
    out = str(tmp_path / "e2")
    code = main(["example2", "--paths", "20000", "--steps", "300",
                 "--seed", "91", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/example2.csv")
    assert rows[0] == EXAMPLE2_HEADER
    assert [r[0] for r in rows[1:]] == ["deterministic", "adapted"]
    assert all(r[4] == "true" for r in rows[1:])


def test_h1check_stable_and_violated(tmp_path):
    out = str(tmp_path / "h1")
    code = main(["h1check", "--config", "configs/h1_kernel.ini",
                 "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/h1.csv")
    assert rows[0] == H1_HEADER
    assert [r[0] for r in rows[1:]] == ["0.25", "0.5", "1.0"]
    assert all(r[3] == "true" for r in rows[1:])

    bad = tmp_path / "rotate.ini"
    bad.write_text(load_text("configs/h1_kernel.ini").replace(
        "dsigma = const:[0.5,0.0]", "dsigma = const:[0.0,1.0]"))
    out2 = str(tmp_path / "h1bad")
    assert main(["h1check", "--config", str(bad), "--out", out2]) == 3
    rows = read_rows(f"{out2}/h1.csv")
    assert all(r[3] == "false" for r in rows[1:])


def test_h1check_reads_a_grid_without_paths_or_seed(tmp_path, capsys,
                                                    generated):
    # h1check draws no path, so an [mc] section of steps and horizon is
    # enough for it; every command that draws paths still refuses it
    text = load_text("configs/h1_kernel.ini")
    cfg = norm_write(tmp_path / "grid.ini", text.replace(
        "paths = 1000\n", "").replace("seed = 17\n", ""))
    for name, config in (("grid", cfg), ("shipped", "configs/h1_kernel.ini")):
        assert main(["h1check", "--config", str(config),
                     "--out", str(tmp_path / name)]) == 0
    assert read_rows(tmp_path / "grid" / "h1.csv") == read_rows(
        tmp_path / "shipped" / "h1.csv")
    for command in ("value", "sens", "norms"):
        assert_refused([command, "--config", str(cfg)],
                       "[mc] needs paths, seed", tmp_path / "out", capsys,
                       generated)


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_h1check_finds_a_rare_regime(tmp_path, capsys, seed):
    # the direction rotates the row of sigma on {W < -3} only, which few
    # sampled paths reach; the check covers every regime without paths
    cfg = tmp_path / "rare.ini"
    cfg.write_text(load_text("configs/h1_kernel.ini").replace(
        "dsigma = const:[0.5,0.0]",
        "dsigma = ind:j=0;c=-3.0;lo=[0.5,0.0];hi=[0.0,1.0]"))
    out = tmp_path / "h1"
    assert main(["h1check", "--config", str(cfg), "--seed", seed,
                 "--out", str(out)]) == 3
    checks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("  regimes breaking kernel stability")]
    assert checks and all(line.endswith(": FAIL") for line in checks)
    assert all(r[3] == "false" for r in read_rows(out / "h1.csv")[1:])


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_value_refuses_a_rare_rank_loss(tmp_path, capsys, seed):
    # sigma + 0.1 dsigma vanishes on {W < -3}: no 20-path sample gets
    # there, but the regime is reachable, so the surface is refused before
    # any path is drawn
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[market]\nd = 1\nn = 1\nmu = const:[0.05]\n"
                   "sigma = const:[1.0]\n\n[utility]\nspec = log\n\n"
                   "[perturbation]\n"
                   "dsigma = ind:j=0;c=-3.0;lo=[0.0];hi=[-10.0]\n"
                   "taus = 0.0,0.1\n\n[mc]\npaths = 20\nsteps = 32\n"
                   "horizon = 1.0\nseed = 5\n")
    assert main(["value", "--config", str(cfg), "--paths", "20",
                 "--seed", seed, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "kernel stability at tau=0.1" in err
    assert "W^0 in [-inf, -3)" in err


def load_text(path):
    with open(path) as fh:
        return fh.read()


def test_norms_command(tmp_path):
    out = str(tmp_path / "n")
    code = main(["norms", "--config", "configs/norms.ini",
                 "--paths", "4000", "--steps", "32", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/norms.csv")
    assert rows[0] == NORMS_HEADER
    names = [r[0] for r in rows[1:]]
    assert names[:5] == ["j_at_optimal_payoff", "budget_x0", "amemiya_norm",
                         "luxemburg_norm", "amemiya_bound"]
    assert {"norm_I_pricing_density", "norm_J_optimal_wealth",
            "holder_lhs", "holder_rhs"} <= set(names)
    verdicts = {r[0]: r[3] for r in rows[1:]}
    assert verdicts["j_at_optimal_payoff"] == "true"
    assert verdicts["amemiya_norm"] == "true"
    assert verdicts["holder_lhs"] == "true"


@pytest.mark.parametrize("shift", [None, 1.0, 0.0],
                         ids=["log", "custom-negative", "custom-positive"])
def test_norms_refuses_utilities_with_negative_values(shift, tmp_path,
                                                      capsys):
    # the J functional prices U^{-1}(|Z|), the optimal wealth only where
    # U(X*) >= 0, and norms reads that wealth in closed form, which power
    # utility alone has: log utility and tables below or above zero are
    # refused by one rule with one message before any path is drawn
    if shift is None:
        cfg = "configs/example1.ini"
    else:
        x = 10.0 ** (-4.0 + 8.0 * np.arange(801) / 800)
        table = tmp_path / "table.txt"
        np.savetxt(table, np.column_stack([x, 2.0 * np.sqrt(x) - shift]),
                   fmt="%.17g")
        cfg = tmp_path / "custom.ini"
        cfg.write_text(load_text("configs/norms.ini").replace(
            "spec = power:p=3", f"spec = custom:file={table}"))
    out = tmp_path / "out"
    code = main(["norms", "--config", str(cfg), "--paths", "200",
                 "--steps", "16", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "norms needs a power utility" in err
    assert "only where U >= 0, and in closed form only for power" in err


def test_norms_makes_one_path_pass(tmp_path, generated):
    # one pass yields the density samples; the zero member's row solves for
    # the optimal wealth, and every functional, norm and pairing reads them
    code = main(["norms", "--config", "configs/norms.ini", "--paths", "500",
                 "--out", str(tmp_path / "n")])
    assert code == 0
    assert sum(generated) == 500


def test_norms_luxemburg_bracket_evaluates_no_scale_twice(tmp_path,
                                                          monkeypatch):
    # on the benchmark's norms run the modular exceeds 1 at scale 1, so
    # the bracket doubles once; bracket and bisection then take 42
    # evaluations, each at its own scale
    seen = []

    def counted(F, Z):
        def G(z):
            seen.append(z.tobytes())
            return F(z)

        return luxemburg_norm(G, Z)

    monkeypatch.setattr(modular, "luxemburg_norm", counted)
    out = tmp_path / "n"
    assert main(["norms", "--config", "configs/norms.ini", "--paths", "15000",
                 "--seed", "13", "--out", str(out)]) == 0
    assert len(seen) == 42 and len(set(seen)) == 42
    values = {r["quantity"]: r["value"]
              for r in read_records(out / "norms.csv")}
    assert values["luxemburg_norm"] == "1.0003926898323896"


def test_sens_makes_one_path_pass(tmp_path, generated):
    # both closed-form sensitivities and the value curves that both finite
    # differences read come from one pass
    code = main(["sens", "--config", "configs/deterministic2d.ini",
                 "--paths", "500", "--steps", "16",
                 "--out", str(tmp_path / "s")])
    assert code == 0
    assert sum(generated) == 500


@pytest.mark.parametrize("command", ["sens"])
def test_example1_config_indexes_each_block_once(tmp_path, monkeypatch,
                                                 generated, command):
    # every coefficient the fused pass reads lies on one regime table, so
    # a block takes one mask per regime of that table however many tables
    # it reads off them; a 3.5 kB scratch budget makes 8-path blocks
    monkeypatch.setenv("PORTSENS_WORKERS", "1")
    monkeypatch.setattr(paths, "_SCRATCH_BYTES", 7 * 512)
    masked = []
    mask = RegimeTable.mask

    def counted(self, r, W, out):
        masked.append((self, r))
        return mask(self, r, W, out)

    monkeypatch.setattr(RegimeTable, "mask", counted)
    code = main([command, "--config", "configs/example1.ini",
                 "--paths", "100", "--steps", "16",
                 "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    table = masked[0][0]
    assert all(t is table for t, _ in masked)
    assert [r for _, r in masked] == list(range(len(table))) * len(generated)
    assert generated == [8] * 12 + [4]


EXAMPLE1_PASSES = pytest.mark.parametrize("command", [
    ["example1"], ["value", "--config", "configs/example1.ini"],
    ["sens", "--config", "configs/example1.ini"]],
    ids=["example1", "value", "sens"])


@EXAMPLE1_PASSES
def test_example1_passes_hold_forty_paths_of_2000_steps(tmp_path,
                                                        monkeypatch,
                                                        generated, command):
    # each pass holds increments, paths and a mask and flag per node:
    # 36008 bytes a path of 2000 steps, 58 paths a block for example1,
    # whose adapted sums are all counted; value and sens add a weight per
    # node and two regimes' increment sums for their ito sums, 52024 bytes
    # a path and 40 paths a block
    monkeypatch.setenv("PORTSENS_WORKERS", "1")
    code = main(command + ["--paths", "100", "--steps", "2000",
                           "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    assert generated == ([58, 42] if command == ["example1"]
                         else [40, 40, 20])


@EXAMPLE1_PASSES
def test_example1_passes_gather_only_for_ito_sums(tmp_path, monkeypatch,
                                                  generated, command):
    # quad and time sums are read off regime counts and ito sums off
    # per-regime increment sums, so no pass gathers a table over nodes:
    # not example1 (log utility reads no int lambda dW, and Dlambda is
    # constant), nor the tilt direction of each nonzero tau in value (3
    # taus) or sens (+-h of two steps)
    monkeypatch.setenv("PORTSENS_WORKERS", "1")
    gathers = []
    take = np.take

    def counted(a, indices, axis=None, out=None, mode="raise"):
        gathers.append(axis)
        return take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(paths.np, "take", counted)
    code = main(command + ["--paths", "400", "--steps", "200",
                           "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    assert generated == [400]
    assert gathers == []


def test_example2_makes_one_path_pass(tmp_path, generated):
    # both discrepancy cases read the same paths in one pass
    code = main(["example2", "--paths", "500", "--steps", "20",
                 "--out", str(tmp_path / "e2")])
    assert code == 0
    assert sum(generated) == 500


def test_sens_requests_only_the_combined_steps(tmp_path, monkeypatch):
    # the Richardson tableau reads +-h of every step: the two default steps
    # make 4 taus of 6 surface sums and the 6 sensitivity sums (the rate
    # direction's included); log utility reads neither int lambda^T dW nor
    # the tilt cross term, so example1.ini makes 4 taus of 4 and 4
    # sensitivity sums.  Three steps make 6 taus, all of them read.
    requests = []

    def counted(ensemble, regimes, sums):
        requests.append(len(sums))
        return path_sums(ensemble, regimes, sums)

    monkeypatch.setattr(sensitivity, "path_sums", counted)
    runs = (("configs/deterministic2d.ini", []),
            ("configs/example1.ini", []),
            ("configs/deterministic2d.ini", ["--eps=0.05,0.025"]),
            ("configs/deterministic2d.ini", ["--eps=0.1,0.05,0.025"]))
    for i, (config, eps) in enumerate(runs):
        code = main(["sens", "--config", config, "--paths", "500",
                     "--steps", "16", "--out", str(tmp_path / f"s{i}")]
                    + eps)
        assert code == 0
    assert requests == [30, 20, 30, 42]
    # the default is the two steps it names
    assert (tmp_path / "s2" / "sens.csv").read_bytes() \
        == (tmp_path / "s0" / "sens.csv").read_bytes()
    summary = (tmp_path / "s3" / "sens_summary.txt").read_text()
    assert "difference steps: 0.025, 0.05, 0.1;" in summary
    for rec in read_records(tmp_path / "s3" / "sens.csv"):
        assert float(rec["gap"]) <= float(rec["tolerance"])
        assert rec["verdict"] == "true"


def custom_sqrt_config(tmp_path):
    """configs/deterministic2d.ini with U(x) = 2 sqrt(x) tabulated on 801
    log-spaced rows over [1e-4, 1e4] as its custom utility."""
    x = 10.0 ** (-4.0 + 8.0 * np.arange(801) / 800)
    table = tmp_path / "sqrt_table.txt"
    np.savetxt(table, np.column_stack([x, 2.0 * np.sqrt(x)]), fmt="%.17g")
    cfg = tmp_path / "custom.ini"
    cfg.write_text(load_text("configs/deterministic2d.ini").replace(
        "spec = power:p=3", f"spec = custom:file={table}"))
    return str(cfg)


@pytest.mark.parametrize("command, bad", [
    ("value", "x0"), ("sens", "x0"), ("sens", "dr"), ("value", "convex"),
    ("sens", "convex"), ("value", "inf-row"), ("value", "repeated-value")],
    ids=["value-x0", "sens-x0", "sens-dr", "value-convex", "sens-convex",
         "value-inf-row", "value-repeated-value"])
def test_custom_utility_inputs_refused_before_the_pass(
        command, bad, tmp_path, capsys, generated):
    # an x0 outside the table, a rate direction that the closed-form
    # sensitivities of a table cannot take, a convex table, whose U' has
    # no inverse for the multiplier search, or a table that is not finite
    # and strictly increasing is a bad input: exit 2 with no path drawn and
    # nothing written
    cfg = custom_sqrt_config(tmp_path)
    if bad != "dr":  # without the rate direction, refused as well
        text = load_text(cfg).replace("dr = const:[0.01]\n", "")
        if bad == "x0":
            text = text.replace("x0 = 1.0", "x0 = 20000.0")
        norm_write(tmp_path / "custom.ini", text)
    table = np.loadtxt(tmp_path / "sqrt_table.txt")
    x, u = table[:, 0], table[:, 1]
    if bad == "convex":  # U(x) = x^2 + x over the same rows
        u = x * x + x
    elif bad == "inf-row":
        x[-1] = u[-1] = np.inf
    elif bad == "repeated-value":
        u[500] = u[499]
    np.savetxt(tmp_path / "sqrt_table.txt", np.column_stack([x, u]),
               fmt="%.17g")
    unordered = ("config error: custom table must be finite and increase "
                 "strictly in both columns")
    message = {"x0": "x0 = 20000: x outside the table range",
               "dr": "rate directions",
               "convex": "config error: custom utility 'custom': node "
                         "slopes of U' do not decrease strictly",
               "inf-row": unordered, "repeated-value": unordered}[bad]
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--paths", "30",
                 "--steps", "16", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error" in err and message in err
    # only the x0 refusal names x0
    assert ("x0 =" in err) == (bad == "x0")
    assert not out.exists() and sum(generated) == 0


ONE_PATH = "paths must be at least 2 (a standard error needs two), got 1"
HORIZON = "horizon must be positive and finite"

# rule -> (the [mc] key, its bad value, the refusal of the one object that
# holds the value: TimeGrid, PathEnsemble or paths.check_seed)
SCALE_RULES = {
    "paths-1": ("paths", "1", ONE_PATH),
    "paths-0": ("paths", "0", ONE_PATH.replace("got 1", "got 0")),
    "paths-neg": ("paths", "-5", ONE_PATH.replace("got 1", "got -5")),
    "steps-0": ("steps", "0", "need at least one step"),
    "horizon-0": ("horizon", "0", HORIZON),
    "horizon-neg": ("horizon", "-1", HORIZON),
    "horizon-inf": ("horizon", "inf", HORIZON),
    "seed-neg": ("seed", "-1", "seed -1 is outside [0, 2**64)"),
    "seed-2^64": ("seed", str(2**64), f"seed {2**64} is outside [0, 2**64)"),
}


def assert_refused(argv, message, out, capsys, generated):
    """``main`` exits 2 on ``argv`` with ``message`` alone on stderr,
    having drawn no path and written nothing to ``out``."""
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() and sum(generated) == 0


# command with config flags -> its config
FLAG_SOURCES = {"flag": "deterministic2d", "sens": "deterministic2d",
                "norms": "norms"}


@pytest.mark.parametrize("source", [*FLAG_SOURCES, "mc-key", "example1",
                                    "example2"])
@pytest.mark.parametrize("rule", list(SCALE_RULES))
def test_scale_rule_is_refused_alike_from_flag_and_config(
        rule, source, tmp_path, capsys, generated):
    # a flag is written over its [mc] key before anything is built, so
    # both meet the one owner of the rule: exit 2 and the same message,
    # from every command; source "flag" is the value command's flag
    key, value, message = SCALE_RULES[rule]
    config = "configs/deterministic2d.ini"
    if source in FLAG_SOURCES:
        command = "value" if source == "flag" else source
        argv = [command, "--config", f"configs/{FLAG_SOURCES[source]}.ini",
                f"--{key}", value]
    elif source == "mc-key":
        text = load_text(config)
        line = next(line for line in text.splitlines()
                    if line.startswith(f"{key} = "))
        cfg = norm_write(tmp_path / "bad.ini",
                         text.replace(line, f"{key} = {value}"))
        argv = ["value", "--config", str(cfg)]
    else:
        argv = [source, "--T" if key == "horizon" else f"--{key}", value]
    assert_refused(argv, message, tmp_path / "out", capsys, generated)


@pytest.mark.parametrize("argv", [
    ["value", "--config", "configs/deterministic2d.ini"],
    ["sens", "--config", "configs/deterministic2d.ini"],
    ["norms", "--config", "configs/norms.ini"],
    ["example1", "--steps", "50"],
    ["example2", "--steps", "50"]],
    ids=["value", "sens", "norms", "example1", "example2"])
def test_one_path_is_a_usage_error(argv, tmp_path, capsys, generated):
    # named when argparse refused it with exit 1: every command now
    # refuses one path through PathEnsemble, with exit 2
    assert_refused(argv + ["--paths", "1"], ONE_PATH, tmp_path / "out",
                   capsys, generated)


@pytest.mark.parametrize("command, config", [
    ("value", "deterministic2d"), ("norms", "norms")])
def test_market_without_assets_is_a_config_error(command, config, tmp_path,
                                                 capsys, generated):
    # d = 0 leaves nothing to trade: refused when the config is read, exit
    # 2, with no path drawn and nothing written
    text = load_text(f"configs/{config}.ini").splitlines()
    for key, value in (("d", "0"), ("mu", "const:[]"),
                       ("sigma", "const:[]")):
        text = [f"{key} = {value}" if line.startswith(f"{key} = ")
                else line for line in text]
    cfg = norm_write(tmp_path / "empty.ini", "\n".join(text) + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--paths", "200",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error: need 1 <= d <= n" in err
    assert not out.exists() and sum(generated) == 0


def test_scale_flags_stand_in_for_a_missing_mc_section(tmp_path, capsys,
                                                      generated):
    # the flags are written into an [mc] section the file lacks: a seed
    # alone leaves the other three keys missing, a refusal rather than a
    # crash, and all four scale flags make a runnable config
    text = load_text("configs/deterministic2d.ini")
    mc = text[text.index("[mc]"):text.index("[output]")]
    cfg = norm_write(tmp_path / "nomc.ini", text.replace(mc, ""))
    out = tmp_path / "out"
    assert_refused(["value", "--config", str(cfg), "--seed", "3"],
                   "[mc] needs horizon, paths, steps",
                   out, capsys, generated)
    assert main(["value", "--config", str(cfg), "--seed", "3", "--paths",
                 "200", "--steps", "16", "--horizon", "1.0",
                 "--out", str(out)]) == 0
    assert len(read_rows(out / "surface.csv")) == 4


@pytest.mark.parametrize("source", ["flag", "output-key", "example1",
                                    "example2", "danskin"])
def test_unwritable_output_directory_is_refused_before_the_pass(
        source, tmp_path, capsys, generated):
    # an output directory below a regular file cannot be made: refused
    # with exit 2 before any path is drawn, and the check creates nothing
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    config = "configs/deterministic2d.ini"
    if source == "output-key":
        cfg = norm_write(tmp_path / "out.ini", load_text(config).replace(
            "directory = out/det2d", f"directory = {out}"))
        argv = ["value", "--config", str(cfg), "--paths", "2000"]
    elif source == "danskin":
        argv = ["danskin", "--cloud", "configs/cloud.csv", "--direction",
                "2,1", "--out", str(out)]
    else:
        argv = (["value", "--config", config] if source == "flag"
                else [source]) + ["--paths", "2000", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: output directory {str(out)!r}: {str(blocker)!r} is "
        "not a writable directory\n")
    assert not out.exists() and sum(generated) == 0


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("argv, stem", [
    (["value", "--config", os.path.join(CONFIGS, "deterministic2d.ini"),
      "--paths", "200", "--steps", "16"], "surface"),
    (["example1", "--paths", "2000", "--steps", "200"], "example1"),
    (["example2", "--paths", "200", "--steps", "20"], "example2"),
    (["danskin", "--cloud", os.path.join(CONFIGS, "cloud.csv"),
      "--direction", "2,1"], "danskin")],
    ids=["value", "example1", "example2", "danskin"])
def test_empty_output_directory_is_the_working_directory(
        argv, stem, tmp_path, monkeypatch):
    # every command reads an empty --out as ".", as an empty [output]
    # directory, before any work
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", ""]) == 0
    assert sorted(os.listdir(tmp_path)) == [f"{stem}.csv",
                                            f"{stem}_summary.txt"]


def test_readme_configuration_reference_loads_and_runs(tmp_path):
    readme = load_text("README.md")
    block = readme.split("## Configuration reference")[1]
    block = block.split("```ini\n")[1].split("```")[0]
    cfg = norm_write(tmp_path / "reference.ini", block)
    assert cli.load_config(str(cfg), {}).utility.label == "power:p=3"
    out = tmp_path / "out"
    assert main(["value", "--config", str(cfg), "--paths", "200",
                 "--steps", "16", "--out", str(out)]) == 0
    assert len(read_rows(out / "surface.csv")) == 4


@pytest.mark.parametrize("command, config, good, bad", [
    ("value", "example1", "mu = ind:j=0;", "mu = ind:j=3;"),
    ("norms", "norms", "nu1 = const:[0.0,0.3]",
     "nu1 = ind:j=5;c=0.0;lo=[0.0,0.3];hi=[0.0,-0.3]"),
    ("h1check", "h1_kernel", "dsigma = const:[0.5,0.0]",
     "dsigma = ind:j=4;c=0.0;lo=[0.5,0.0];hi=[1.0,0.0]")],
    ids=["value-market", "norms-member", "h1check-direction"])
def test_driver_out_of_range_refused_with_the_config(
        command, config, good, bad, tmp_path, capsys, generated):
    # an indicator on a Brownian coordinate the market does not have, in
    # the market, a direction or a [norms] member, is a config error: exit
    # 2 with no path drawn and nothing written
    text = load_text(f"configs/{config}.ini")
    assert good in text
    cfg = norm_write(tmp_path / "bad.ini", text.replace(good, bad))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--paths", "200",
                 "--steps", "16", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error" in err and "driver index" in err
    assert not out.exists() and sum(generated) == 0


@pytest.mark.parametrize("command, adapted", [
    ("norms", "mu"), ("value", "mu"), ("sens", "mu"), ("value", "dmu")],
    ids=["norms", "value", "sens", "value-direction"])
def test_incomplete_adapted_market_refused_before_the_pass(
        command, adapted, tmp_path, capsys, generated):
    # an adapted drift, or an adapted drift direction, in the incomplete
    # market of configs/norms.ini has no closed-form dual optimizer: every
    # command that needs one refuses it with the same message, exit 2,
    # no path drawn and nothing written
    text = load_text("configs/norms.ini")
    assert "mu = const:[0.06]" in text and "[perturbation]" not in text
    dmu = "const:[0.01]"
    if adapted == "mu":
        text = text.replace("mu = const:[0.06]",
                            "mu = ind:j=0;c=0.0;lo=[0.06];hi=[0.1]")
    else:
        dmu = "ind:j=1;c=0.0;lo=[0.01];hi=[0.02]"
    if command != "norms":
        text += f"\n[perturbation]\ndmu = {dmu}\ntaus = 0.0,0.1\n"
    cfg = norm_write(tmp_path / "adapted.ini", text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--paths", "3000",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error" in err
    assert ("incomplete market with stochastic coefficients: no "
            "closed-form dual optimizer") in err
    assert not out.exists() and sum(generated) == 0


SINGULAR = ("deterministic2d", "sigma = const:[0.2,0.05,0.0,0.15]",
            "sigma = const:[0.2,0.05,0.4,0.1]",
            "sigma sigma^T condition inf exceeds cap")


@pytest.mark.parametrize("command, config, good, bad, message", [
    ("value", *SINGULAR), ("sens", *SINGULAR),
    ("norms", "norms", "nu1 = const:[0.0,0.3]", "nu1 = const:[0.1,0.3]",
     "family member 1 leaves the volatility null space")],
    ids=["value-singular", "sens-singular", "norms-off-kernel"])
def test_coefficient_refusals_exit_two_before_the_pass(
        command, config, good, bad, message, tmp_path, capsys, generated):
    # a singular sigma sigma^T, or a [norms] member outside the volatility
    # null space, is found on the regime table before the pass: a refusal,
    # exit 2 with no path drawn and nothing written
    text = load_text(f"configs/{config}.ini")
    assert good in text
    cfg = norm_write(tmp_path / "bad.ini", text.replace(good, bad))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--paths", "200",
                 "--steps", "16", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "config error" in err and message in err
    assert not out.exists() and sum(generated) == 0


@pytest.mark.parametrize("argv, message", [
    (["value", "--config", "configs/example1.ini", "--paths", "0"],
     ONE_PATH.replace("got 1", "got 0")),
    (["value", "--config", "configs/example1.ini", "--steps", "0"],
     "need at least one step"),
    (["norms", "--config", "configs/norms.ini", "--horizon", "-1"], HORIZON),
    (["value", "--config", "configs/example1.ini", "--horizon", "inf"],
     HORIZON),
    (["example1", "--paths", "0", "--steps", "20"],
     ONE_PATH.replace("got 1", "got 0")),
    (["example1", "--steps", "0", "--paths", "200"],
     "need at least one step"),
    (["example1", "--T", "-1", "--paths", "200", "--steps", "20"], HORIZON),
    (["example1", "--T", "inf", "--paths", "200", "--steps", "20"], HORIZON),
    (["example2", "--paths", "-5", "--steps", "20"],
     ONE_PATH.replace("got 1", "got -5")),
    (["example2", "--T", "0", "--paths", "200", "--steps", "20"], HORIZON)],
    ids=["value-paths", "value-steps", "norms-horizon", "value-horizon-inf",
         "example1-paths", "example1-steps", "example1-T", "example1-T-inf",
         "example2-paths", "example2-T"])
def test_non_positive_scale_flag_exits_one(argv, message, tmp_path, capsys,
                                           generated):
    # named when argparse refused it with exit 1: TimeGrid and
    # PathEnsemble now refuse it with exit 2, as they refuse an [mc] key
    assert_refused(argv, message, tmp_path / "out", capsys, generated)


def test_custom_value_standard_errors_match_sqrt(tmp_path):
    # the multiplier is solved on the same paths, and its noise enters the
    # table's standard errors as it enters the sqrt delta method
    sqrt_cfg = tmp_path / "sqrt.ini"
    sqrt_cfg.write_text(load_text("configs/deterministic2d.ini").replace(
        "spec = power:p=3", "spec = sqrt"))
    surfaces = []
    for i, cfg in enumerate((custom_sqrt_config(tmp_path), str(sqrt_cfg))):
        out = tmp_path / f"v{i}"
        assert main(["value", "--config", cfg, "--paths", "200",
                     "--out", str(out)]) == 0
        surfaces.append(read_records(out / "surface.csv"))
    custom, exact = surfaces
    assert [float(r["tau"]) for r in custom] == [0.0, 0.1, 0.2]
    for got, want in zip(custom, exact):
        for col in ("u_weak", "se_weak", "u_strong", "se_strong"):
            assert float(got[col]) == pytest.approx(float(want[col]),
                                                    rel=1.26e-5)


def test_custom_sens_standard_errors_match_sqrt(tmp_path):
    # the sensitivities of the table read the multiplier solved on the
    # same paths, and its noise enters their standard errors as it enters
    # the sqrt delta method; without the rate direction, which a table
    # refuses.  Over seeds 1-8 at 200 and 2000 paths the largest relative
    # gap was 2.4e-6 in formula and 1.7e-4 in se_formula; without the
    # multiplier's noise the se_formula gap was up to 0.14
    tables = []
    for i, cfg in enumerate((custom_sqrt_config(tmp_path),
                             "configs/deterministic2d.ini")):
        text = load_text(cfg).replace("dr = const:[0.01]\n", "")
        cfg = norm_write(tmp_path / f"s{i}.ini",
                         text.replace("spec = power:p=3", "spec = sqrt"))
        out = tmp_path / f"s{i}"
        assert main(["sens", "--config", str(cfg), "--paths", "200",
                     "--out", str(out)]) == 0
        tables.append(read_records(out / "sens.csv"))
    custom, exact = tables
    assert [r["side"] for r in custom] == ["weak", "strong"]
    for got, want in zip(custom, exact):
        for col in ("formula", "se_formula"):
            assert float(got[col]) == pytest.approx(float(want[col]),
                                                    rel=2e-4)


@pytest.mark.parametrize("table", ["sqrt-mid", "quadratic-from-0"])
def test_custom_sens_standard_errors_where_the_optimum_saturates(
        table, tmp_path):
    # on a narrow table many optimal wealths sit on an end node, where they
    # do not move with the multiplier; the table from 0 puts some on x = 0.
    # The formula's standard error then matches the difference quotient's:
    # over seeds 1-8 at 2000 paths the largest relative gap was 4.9e-4,
    # where taking dX/dy = zhat / U''(X) on every path gave up to 0.12
    if table == "sqrt-mid":
        x = np.geomspace(0.5, 2.0, 201)
        ux = 2.0 * np.sqrt(x)
    else:
        x = np.linspace(0.0, 2.0, 201)
        ux = x - x * x / 8.0
    np.savetxt(tmp_path / "table.txt", np.column_stack([x, ux]),
               fmt="%.17g")
    text = load_text("configs/deterministic2d.ini").replace(
        "dr = const:[0.01]\n", "").replace(
        "spec = power:p=3", f"spec = custom:file={tmp_path / 'table.txt'}")
    cfg = norm_write(tmp_path / "c.ini", text)
    out = tmp_path / "s"
    assert main(["sens", "--config", str(cfg), "--paths", "2000",
                 "--out", str(out)]) == 0
    rows = read_records(out / "sens.csv")
    assert [r["side"] for r in rows] == ["weak", "strong"]
    for r in rows:
        assert float(r["se_formula"]) == pytest.approx(float(r["se_fd"]),
                                                       rel=1e-3)


@pytest.mark.parametrize("utility", ["power", "custom"])
def test_value_command_imports_no_scipy(tmp_path, utility):
    cfg = ("configs/deterministic2d.ini" if utility == "power"
           else custom_sqrt_config(tmp_path))
    argv = ["value", "--config", cfg, "--paths", "200",
            "--out", str(tmp_path / "v")]
    assert imported_modules(argv, "scipy") == [0, []]


def run_python(script):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(portsens.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def imported_modules(argv, prefix):
    """Exit code of ``main(argv)`` in a fresh interpreter and the modules
    under ``prefix`` it has imported by then."""
    script = ("import json, sys\n"
              "from portsens.cli import main\n"
              f"code = main({argv!r})\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              f"    if (m + '.').startswith({prefix + '.'!r}))]))")
    return run_python(script)


def test_cli_imports_the_traced_layers_but_no_danskin_or_pool():
    # the benchmark tracer wraps every LAYERS module after importing only
    # portsens.cli; danskin and the thread pool load when a run needs them
    perfbench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    loaded, layers = run_python(
        "import json, sys\n"
        "import portsens.cli\n"
        "loaded = sorted(sys.modules)\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import tracing\n"
        "print(json.dumps([loaded, tracing.LAYERS]))")
    assert {f"portsens.{layer}" for layer in layers} <= set(loaded)
    assert "portsens.danskin" not in loaded
    assert "concurrent.futures" not in loaded


def test_benchmark_tracer_spans_the_path_kernel(tmp_path):
    # the tracer wraps functions by name, and a renamed kernel would drop
    # out of every per-layer metric without an error; the child runs in
    # its own interpreter, since installing the tracer here would leave
    # its wrappers on the module globals of every later test
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(portsens.__file__))
    env = dict(os.environ, PORTSENS_WORKERS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "child.py"),
         "--mark", str(tmp_path / "mark"), "--trace", str(trace), "--",
         "example1", "--paths", "200", "--steps", "50",
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True)
    assert proc.returncode in (0, 3), proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    names = [s[0] for s in spans]
    assert names.count("paths.path_sums") == 1
    draws = [s for s in spans if s[0] == "paths.PathEnsemble.increments"]
    assert draws and all(spans[s[3]][0] == "paths.path_sums" for s in draws)


@pytest.mark.parametrize("command, code", [
    (["value", "--config", "configs/deterministic2d.ini",
      "--paths", "200"], 0),
    (["norms", "--config", "configs/norms.ini", "--paths", "200"], 0),
    # 200 paths cannot resolve the weak-strong gap: verdict exit 3
    (["example1", "--paths", "200", "--steps", "32"], 3)],
    ids=["value", "norms", "example1"])
def test_commands_import_no_numpy_ma(tmp_path, command, code):
    # numpy.ma costs every process about 12 ms and 1.3 MB at import
    argv = command + ["--out", str(tmp_path / "o")]
    assert imported_modules(argv, "numpy.ma") == [code, []]


def test_danskin_command(tmp_path):
    out = str(tmp_path / "d")
    code = main(["danskin", "--cloud", "configs/cloud.csv",
                 "--direction", "2,1", "--delta", "0,1", "--out", out])
    assert code == 0
    rows = read_rows(f"{out}/danskin.csv")
    assert rows[0] == DANSKIN_HEADER
    assert float(rows[1][0]) == 2.0
    assert rows[1][6] == "true"

    out2 = str(tmp_path / "d2")
    assert main(["danskin", "--cloud", "configs/cloud.csv",
                 "--direction", "2,1", "--out", out2]) == 0
    rows = read_rows(f"{out2}/danskin.csv")
    assert rows[1][3] == ""  # no delta, no derivative columns


@pytest.mark.parametrize("cloud, direction", [
    ("1.0,0.0\n0.0,oops\n", "2,1"), ("1.0,0.0\n0.0,1.0\n", "2,1,0")],
    ids=["malformed-cloud", "wrong-dimension"])
def test_danskin_input_errors_exit_two(cloud, direction, tmp_path, capsys):
    path = tmp_path / "cloud.csv"
    path.write_text(cloud)
    out = tmp_path / "out"
    assert main(["danskin", "--cloud", str(path), "--direction", direction,
                 "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_danskin_names_the_delta_in_its_dimension_error(tmp_path, capsys):
    # a delta of the wrong dimension is refused as the delta, not as the
    # direction, which has the cloud's dimension
    out = tmp_path / "out"
    assert main(["danskin", "--cloud", "configs/cloud.csv", "--direction",
                 "2,1", "--delta", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "delta must have dimension 2" in err
    assert "direction" not in err
    assert not out.exists()


def test_secondorder_command(tmp_path, capsys):
    # the residual decay checks of the former secondorder command are
    # sens's: argparse no longer knows the command, and sens states the
    # decay of both value curves on both sides of tau = 0, at order 2
    argv = ["--config", "configs/deterministic2d.ini", "--paths", "8000",
            "--steps", "16", "--out", str(tmp_path / "s")]
    assert main(["secondorder", *argv]) == 1
    assert not (tmp_path / "s").exists()
    capsys.readouterr()
    assert main(["sens", *argv]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  log-log slope of |residual|")]
    assert [line.split(" = ")[0].split("| ")[1] for line in lines] == [
        "[weak, +eps]", "[weak, -eps]", "[strong, +eps]", "[strong, -eps]"]
    for line in lines:
        assert 1.9 < float(line.split(" = ")[1].split(",")[0]) < 2.1
        assert line.endswith("at least 1.8: ok")


def test_docs_list_exactly_the_commands():
    # the README's command table and the cli module docstring name each
    # command that main dispatches, once, in its order, and nothing else
    names = [name for name, *_ in cli._COMMANDS]
    with open(os.path.join(os.path.dirname(__file__), "..",
                           "README.md")) as fh:
        readme = fh.read()
    table = readme.split("\n## Commands\n\n", 1)[1].split("\n\n", 1)[0]
    assert [row.split("`")[1] for row in table.splitlines()
            if row.startswith("| `")] == names
    listing = cli.__doc__.split("Commands\n--------\n", 1)[1]
    listing = listing.split("\n\n", 1)[0]
    assert [line.split()[0] for line in listing.splitlines()
            if not line.startswith(" ")] == names


def test_readme_python_examples_run():
    # every fenced python block of the README runs as written
    blocks = [block.split("\n```", 1)[0]
              for block in load_text("README.md").split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["value"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_flag_exits_one(seed, tmp_path, capsys,
                                          generated):
    # named when argparse refused it with exit 1: check_seed now refuses
    # it with exit 2, as it refuses an [mc] seed
    for argv in (["value", "--config", "configs/example1.ini"],
                 ["example1"], ["example2"]):
        assert_refused(argv + ["--seed", seed],
                       f"seed {seed} is outside [0, 2**64)",
                       tmp_path / "out", capsys, generated)


@pytest.mark.parametrize("eps", ["-0.1,0.2", "0,0.1", "0.1", "0.1,0.1",
                                 "0.05,inf"])
@pytest.mark.parametrize("command", ["sens"])
def test_bad_eps_flag_exits_two(command, eps, tmp_path, capsys):
    # a non-positive, non-finite or repeated step, or a single one, is a
    # usage error of the flag, refused before the path pass, not a
    # numerical failure or a row
    out = tmp_path / "out"
    assert main([command, "--config", "configs/deterministic2d.ini",
                 "--paths", "500", "--steps", "16", f"--eps={eps}",
                 "--out", str(out)]) == 2
    assert "--eps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("good, bad", [
    ("horizon = 1.0", "horizon = inf"), ("horizon = 1.0", "horizon = nan"),
    ("x0 = 1.0", "x0 = inf"), ("taus = 0.0,0.1,0.2", "taus = 0.0,nan"),
    (None, "nan,1")],
    ids=["horizon-inf", "horizon-nan", "x0-inf", "taus-nan",
         "danskin-direction"])
def test_non_finite_input_exits_two(good, bad, tmp_path, capsys, generated):
    # a non-finite number in a config or a number-list flag is refused
    # while the input is read: exit 2, nothing written and no path drawn
    if good is None:
        argv = ["danskin", "--cloud", "configs/cloud.csv", "--direction", bad]
    else:
        text = load_text("configs/deterministic2d.ini")
        assert good in text
        cfg = norm_write(tmp_path / "bad.ini", text.replace(good, bad))
        argv = ["value", "--config", str(cfg), "--paths", "200"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and sum(generated) == 0


@pytest.mark.parametrize("block", ["0", "-3", "7"])
def test_block_paths_flag_is_unknown(block, tmp_path, capsys):
    # the block size is computed; no flag sets it
    for command in ("example1", "example2"):
        assert main([command, "--paths", "200", "--steps", "20",
                     "--block-paths", block, "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --block-paths" \
            in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["example1", "--tol-strong", "0.03"],
    ["example1", "--tol-weak", "0.04"],
    ["danskin", "--cloud", "configs/cloud.csv", "--direction", "2,1",
     "--tie-tol", "1e-9"]], ids=["tol-strong", "tol-weak", "tie-tol"])
def test_tolerance_flags_are_unknown(argv, tmp_path, capsys):
    # the tolerances are fixed; no flag sets them
    assert main(argv + ["--out", str(tmp_path)]) == 1
    flag = next(a for a in argv if a.startswith("--t"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("block", ["0", "-3", "7"])
def test_block_paths_key_is_unknown(block, tmp_path, capsys):
    cfg = tmp_path / "block.ini"
    cfg.write_text(load_text("configs/example1.ini").replace(
        "seed = 7\n", f"seed = 7\nblock_paths = {block}\n"))
    out = tmp_path / "out"
    assert main(["value", "--config", str(cfg), "--paths", "200",
                 "--steps", "20", "--out", str(out)]) == 2
    assert "unknown key 'block_paths'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["two", "1.5", "0", "-3", ""])
def test_workers_variable_is_a_whole_number(workers, tmp_path, monkeypatch,
                                            capsys, generated):
    # PORTSENS_WORKERS is a thread count of at least 1, or unset or empty
    # for one: any other value is refused with exit 2 and one message that
    # names it, before any path is drawn and before anything is written
    monkeypatch.setenv("PORTSENS_WORKERS", workers)
    out = tmp_path / "out"
    code = main(["value", "--config", "configs/example1.ini", "--paths",
                 "200", "--steps", "16", "--out", str(out)])
    err = capsys.readouterr().err
    if workers == "":
        assert code == 0 and (out / "surface.csv").exists()
        return
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("config error: PORTSENS_WORKERS must be a whole "
                          f"number of at least 1, got {workers!r}")
    assert not out.exists() and sum(generated) == 0


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "PORTSENS_WORKERS" in capsys.readouterr().out


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["value", "--config", "does/not/exist.ini"]) == 2

    bogus = tmp_path / "bogus.ini"
    bogus.write_text(load_text("configs/example1.ini").replace(
        "seed = 7", "seed = 7\nunknown_knob = 1"))
    assert main(["value", "--config", str(bogus)]) == 2

    headless = norm_write(tmp_path / "headless.ini", "d = 1\n[market]\n")
    assert main(["value", "--config", str(headless)]) == 2
    assert "no section headers" in capsys.readouterr().err
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"[market]\nd = \xff\xfe\n")
    assert main(["value", "--config", str(binary)]) == 2

    nosec = tmp_path / "nopert.ini"
    text = load_text("configs/norms.ini")
    assert main(["sens", "--config", str(norm_write(nosec, text))]) == 2

    noseed = tmp_path / "noseed.ini"
    noseed.write_text(load_text("configs/example1.ini").replace(
        "seed = 7\n", ""))
    assert main(["value", "--config", str(noseed)]) == 2

    for seed in (-1, 2**64):
        badseed = tmp_path / "badseed.ini"
        badseed.write_text(load_text("configs/example1.ini").replace(
            "seed = 7\n", f"seed = {seed}\n"))
        assert main(["value", "--config", str(badseed)]) == 2
        assert "seed" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("breaks", ["[nan]", "[0.5,nan]", "[inf]"])
def test_non_finite_breakpoints_exit_two(tmp_path, capsys, breaks):
    # a nan breakpoint passes every comparison-based check, and a row past
    # an infinite one is never read; both are refused before any pass
    rows = ",".join(["0.01"] * (breaks.count(",") + 2))
    config = tmp_path / "nanbreak.ini"
    config.write_text(load_text("configs/deterministic2d.ini").replace(
        "dr = const:[0.01]", f"dr = pw:t={breaks};v=[{rows}]"))
    out = tmp_path / "o"
    assert main(["value", "--config", str(config), "--out", str(out)]) == 2
    assert "breakpoints must be finite" in capsys.readouterr().err
    assert not out.exists()


def norm_write(path, text):
    path.write_text(text)
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failures_exit_three(tmp_path, capsys):
    # a kernel-breaking direction is refused before the pass (exit 2); a
    # price of risk of 1e6 overflows the power-utility value after it, a
    # non-finite estimate (exit 3); neither writes anything
    rotate = tmp_path / "rotate_value.ini"
    rotate.write_text(load_text("configs/h1_kernel.ini").replace(
        "dsigma = const:[0.5,0.0]", "dsigma = const:[0.0,1.0]")
        + "\n[utility]\nspec = log\n")
    out = tmp_path / "rv"
    assert main(["value", "--config", str(rotate), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    huge = norm_write(tmp_path / "huge.ini", load_text(
        "configs/deterministic2d.ini").replace(
        "mu = const:[0.08,0.05]", "mu = const:[1e5,0.05]"))
    assert main(["value", "--config", str(huge), "--paths", "20",
                 "--out", str(out)]) == 3
    assert "failure: non-finite estimate" in capsys.readouterr().err
    assert not out.exists()


def test_path_count_cap_exits_two(tmp_path, capsys, generated,
                                  monkeypatch):
    # the cap bounds the path count, which sizes every per-path sum, and
    # not the step count: with the cap lowered to 1000 paths, 1001 paths of
    # one step are refused before any path is drawn
    monkeypatch.setattr(paths, "_MAX_PATHS", 1000)
    out = tmp_path / "big"
    assert main(["example1", "--paths", "1001", "--steps", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: paths must be at most 1000 (each per-path sum holds "
        "8 bytes a path), got 1001\n")
    assert not out.exists() and sum(generated) == 0


# bytes a path at the peak, a slope from m1 to m2 paths above one block
# (65536 paths of 2 steps with n = 2, 32768 of 4 steps, 3855 of 20 steps
# with n = 1): a sum that reads no paths is one number for all of them,
# and the J modular of norms forms one member's products at a time
DET2D = ["--config", "configs/deterministic2d.ini", "--steps", "2"]


@pytest.mark.parametrize("argv, m1, m2, bound", [
    (["value", *DET2D], 70_000, 140_000, 168),
    (["sens", *DET2D], 70_000, 140_000, 232),
    (["example1", "--steps", "20"], 100_000, 200_000, 68),
    (["norms", "--config", "configs/norms.ini", "--steps", "4"],
     40_000, 80_000, 108)],
    ids=["value", "sens", "example1", "norms"])
def test_bytes_a_path(argv, m1, m2, bound):
    assert bytes_per_path(argv, m1, m2) <= bound
