"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every test computes its criterion at the stated sizes and tolerances,
prints `[criterion k] name: PASS/FAIL (details)` past the capture plugin,
then asserts.
"""

import math

import numpy as np
import pytest

from portsens import utility as ut
from portsens.cli import main
from portsens.danskin import (CompactSet, directional_derivative,
                              hadamard_probe, support_value)
from portsens.estimate import Check, combine_linear
from portsens.market import (MarketModel, check_h1_direction, constant,
                             dlambda_direction, indicator)
from portsens.modular import (density_logs, holder_check, norm_I, norm_J,
                              norms_report)
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import (example1_report, example2_reports,
                                  sensitivity_pair, sensitivity_reports)
from portsens.solver import optimal_terminal_wealth, value_closed_form
from portsens.valuation import PerturbationSpec, value_surface


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def switch_report():
    """The strong, weak and gap checks of the sign-switching market at the
    pinned sizes; shared by criteria 1-2."""
    return example1_report(T=1.0, M=200_000, N=2000, seed=1001)


@pytest.fixture(scope="module")
def det2d():
    return MarketModel(d=2, n=2,
                       mu=constant([0.08, 0.05]),
                       sigma=constant([[0.2, 0.05], [0.0, 0.15]]),
                       rate=constant([0.01]))


@pytest.fixture(scope="module")
def ens2d():
    return PathEnsemble(TimeGrid(1.0, 32), n=2, count=40_000, seed=1003)


def test_criterion_1_strong_sensitivity(switch_report, capsys):
    strong, _, _ = switch_report
    verdict(capsys, 1, "strong drift sensitivity, switching market",
            strong.passed,
            f"estimate {strong.value:.5f} se {strong.se:.2g}, "
            f"target {strong.reference} +- {strong.bound:g}")


def test_criterion_2_weak_sensitivity_and_gap(switch_report, capsys):
    # the gap must be negative and resolved from zero, as example1 checks it
    _, weak, gap = switch_report
    _, _, t4_gap = example1_report(T=4.0, M=50_000, N=1000, seed=1002)
    verdict(capsys, 2, "weak drift sensitivity and weak-strong gap",
            weak.passed and gap.passed and t4_gap.passed,
            f"estimate {weak.value:.5f} vs {weak.reference:.5f} "
            f"+- {weak.bound:g}; gap {gap.value:.4f} at {gap.sigmas:.0f} "
            f"sigma; T=4 gap {t4_gap.value:.3f} at {t4_gap.sigmas:.0f} "
            "sigma")


def test_criterion_3_deterministic_coincidence(det2d, ens2d, capsys):
    pert = PerturbationSpec(dmu=constant([0.04, 0.02]))
    rows = value_surface(det2d, ut.power_utility(3.0), pert,
                         [0.0, 0.1, 0.2], ens2d)
    worst = 0.0
    for row in rows:
        gap = combine_linear([row.weak, row.strong], [1.0, -1.0], "gap")
        worst = max(worst, Check("gap", "sigmas", gap.mean, 0.0, 3.0,
                                 gap.se).sigmas)
    verdict(capsys, 3, "weak equals strong for deterministic coefficients",
            worst <= 3.0,
            f"largest |u_w - u_s| over taus {{0, 0.1, 0.2}} is "
            f"{worst:.2f} combined se, power p=3")


def test_criterion_4_formula_oracle_fd_chain(det2d, ens2d, capsys):
    model, grid, T = det2d, ens2d.grid, ens2d.grid.horizon
    dmu = constant([0.04, 0.02])
    sigma_v = model.sigma.values[0]
    lam = np.linalg.solve(sigma_v, model.mu.values[0] - model.rate.values[0])
    dlam = np.linalg.solve(sigma_v, dmu.values[0])
    details, ok = [], True
    for p in (2.0, 3.0):
        u = ut.power_utility(p)
        q = p / (p - 1.0)
        base = value_closed_form(model, u, grid)
        expected = float(base * (q - 1.0) * (lam @ dlam) * T)
        for pert in (PerturbationSpec(dmu=dmu),
                     PerturbationSpec(dlambda=constant(dlam))):
            est, _ = sensitivity_pair(model, u, pert, ens2d)
            sigmas = abs(est.mean - expected) / est.se
            ok = ok and sigmas <= 3.0
            details.append(f"p={p:g} {pert.label} {sigmas:.2f} sigma")
        (rep, _), _, _ = sensitivity_reports(model, u,
                                             PerturbationSpec(dmu=dmu),
                                             ens2d)
        ok = ok and rep.check.passed
        details.append(f"p={p:g} fd gap {rep.check.error:.2g} "
                       f"tol {rep.check.bound:.2g}")
    pert = PerturbationSpec(dmu=dmu,
                            dsigma=constant([[0.02, 0.01], [0.0, 0.03]]))
    vals = dlambda_direction(model, pert.dmu, pert.dsigma,
                             pert.regimes(model, grid))
    direct = PerturbationSpec(dlambda=constant(vals[0]))
    for u in (ut.power_utility(2.0), ut.power_utility(3.0)):
        wa, sa = sensitivity_pair(model, u, pert, ens2d)
        wb, sb = sensitivity_pair(model, u, direct, ens2d)
        chain = (wa.mean == wb.mean and sa.mean == sb.mean
                 and np.array_equal(wa.influence, wb.influence)
                 and np.array_equal(sa.influence, sb.influence))
        ok = ok and chain
    details.append("chain rule per path exact")
    verdict(capsys, 4, "derivative formula vs oracle, differences, chain",
            ok, "; ".join(details))


def test_criterion_5_discrepancy_functional(capsys):
    det, adapted = example2_reports(T=1.0, M=50_000, N=500, seed=1005)
    verdict(capsys, 5, "discrepancy functional, deterministic vs adapted",
            det.passed and adapted.passed,
            f"deterministic {det.value:.2g} at {det.sigmas:.2f} sigma; "
            f"adapted {adapted.value:.4f} at {adapted.sigmas:.0f} sigma "
            f"above zero")


def test_criterion_6_second_order_residual(det2d, ens2d, capsys):
    # each case reads the four decay checks of sens: the weak and the
    # strong curve, each at +eps and at -eps
    steps = (0.2, 0.1, 0.05, 0.025)
    _, det, _ = sensitivity_reports(
        det2d, ut.power_utility(3.0),
        PerturbationSpec(dmu=constant([0.04, 0.02])), ens2d, eps=steps)
    switch = MarketModel(d=1, n=1, mu=indicator(0, 0.0, [0.0], [1.0]),
                         sigma=constant([[1.0]]))
    unit = PerturbationSpec(dmu=constant([1.0]))
    sw_ens = PathEnsemble(TimeGrid(1.0, 400), n=1, count=30_000, seed=1006)
    _, sw, _ = sensitivity_reports(switch, ut.log_utility(), unit, sw_ens,
                                   eps=steps)
    # at T = 4 the weak curve bends below its tangent, u_w''(0) = -0.255
    # (scripts/derive_oracles.py); its third-order term takes over beyond
    # steps of about 0.1, so the steps stay below that
    t4_ens = PathEnsemble(TimeGrid(4.0, 400), n=1, count=30_000, seed=1010)
    _, t4, _ = sensitivity_reports(switch, ut.log_utility(), unit, t4_ens,
                                   eps=(0.05, 0.025, 0.0125, 0.00625))

    def text(decays):
        # a vacuous check's slope is infinite
        return "slopes " + ", ".join("inf (vacuous)" if math.isinf(c.value)
                                     else f"{c.value:.2f}" for c in decays)

    verdict(capsys, 6, "first-order residual decays at second order",
            all(c.passed for c in det + sw + t4)
            and not any(math.isinf(c.value) for c in t4),
            f"deterministic: {text(det)}; switching: {text(sw)}; "
            f"switching T=4: {text(t4)}")


def test_criterion_7_solver_closed_form(capsys):
    model = MarketModel(d=1, n=1, mu=constant([1.0]),
                        sigma=constant([[1.0]]))
    ens = PathEnsemble(TimeGrid(1.0, 64), n=1, count=40_000, seed=1004)
    u = ut.power_utility(2.0)
    row, = value_surface(model, u, PerturbationSpec(dmu=constant([0.0])),
                         [0.0], ens)
    logz = density_logs(model, (constant([0.0]),), ens)[0]
    xstar = optimal_terminal_wealth(model, u, logz)
    expected = 2.0 * math.exp(0.5)
    v_sigmas = abs(row.strong.mean - expected) / row.strong.se
    priced = np.exp(logz) * xstar
    budget_se = float(np.std(priced, ddof=1) / math.sqrt(priced.size))
    b_sigmas = abs(float(np.mean(priced)) - model.x0) / budget_se
    verdict(capsys, 7, "optimal wealth value and budget",
            v_sigmas <= 3.0 and b_sigmas <= 3.0,
            f"value {row.strong.mean:.5f} vs 2 sqrt(e) = {expected:.5f} "
            f"({v_sigmas:.2f} sigma); budget {b_sigmas:.2f} sigma from x0")


def test_criterion_8_support_function(capsys):
    rng = np.random.default_rng(1008)
    ok, checked = True, 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        count = int(rng.integers(1, 21))
        pts = rng.normal(size=(count, m)) * 3.0
        if count > 2 and rng.random() < 0.3:
            pts[count // 2] = pts[0]  # force a tie
        K = CompactSet(pts)
        d = rng.normal(size=m)
        res = support_value(d, K)
        inner = [float(p @ d) for p in K.points]
        ref = max(inner)
        tol = 1e-12 * (1.0 + abs(ref))
        ok = ok and abs(res.value - ref) <= tol
        ok = ok and inner.index(ref) in res.argmax
        delta = rng.normal(size=m)
        dref = max(float(K.points[i] @ delta) for i in res.argmax)
        ok = ok and abs(directional_derivative(d, delta, K) - dref) <= \
            1e-12 * (1.0 + abs(dref))
        checked += 1
    # integer coordinates make every inner product exact, so ties and
    # values must match the enumeration bit for bit
    exact = 0
    for _ in range(30):
        m = int(rng.integers(1, 4))
        pts = rng.integers(-3, 4, size=(int(rng.integers(2, 13)), m))
        pts[-1] = pts[0]
        K = CompactSet(pts.astype(float))
        d = rng.integers(-2, 3, size=m).astype(float)
        res = support_value(d, K)
        inner = [float(p @ d) for p in K.points]
        ref = max(inner)
        ok = ok and res.value == ref
        ok = ok and set(res.argmax) == {i for i, v in enumerate(inner)
                                        if v == ref}
        exact += 1

    K = CompactSet(rng.normal(size=(12, 3)))
    d, delta = rng.normal(size=3), rng.normal(size=3)
    deriv = directional_derivative(d, delta, K)
    taus = tuple(0.5 ** k for k in range(4, 14))
    seqs = [None,
            [delta for _ in taus],
            [delta + np.array([0.0, (-1.0) ** k / (k + 2.0) ** 2, 0.0])
             for k in range(len(taus))]]
    for seq in seqs:
        probe = hadamard_probe(d, delta, K, directions=seq, taus=taus)
        ok = ok and probe.check.passed and probe.check.reference == deriv
    verdict(capsys, 8, "support function enumeration and Hadamard probes",
            ok,
            f"{checked} random clouds, {exact} integer clouds exact with "
            f"ties, 3 approach sequences share derivative {deriv:.4f}")


def test_criterion_9_modular_norms(capsys):
    model = MarketModel(d=1, n=2, mu=constant([0.06]),
                        sigma=constant([[0.2, 0.0]]))
    u = ut.power_utility(3.0)
    nu_family = (constant([0.0, 0.3]), constant([0.0, -0.5]))
    ens = PathEnsemble(TimeGrid(1.0, 64), n=2, count=40_000, seed=1007)
    logs = density_logs(model, (constant([0.0, 0.0]),) + nu_family, ens)
    xstar, z = optimal_terminal_wealth(model, u, logs[0]), np.exp(logs[0])

    ni, nj = norm_I(z, u.p, logs), norm_J(xstar, u.p, logs)
    homog = (abs(norm_I(3.0 * z, u.p, logs) - 3.0 * ni)
             <= 1e-12 * ni
             and abs(norm_J(3.0 * xstar, u.p, logs) - 3.0 * nj)
             <= 1e-12 * nj)

    rng = np.random.default_rng(1009)
    holder_ok = True
    for _ in range(100):
        Y = np.exp(rng.normal(size=ens.count) * 0.3)
        Z = np.exp(rng.normal(size=ens.count) * 0.4 - 0.2)
        holder_ok = holder_ok and holder_check(Y, Z, u.p, logs)[2].passed

    # the j, Amemiya and pairing checks that ``portsens norms`` prints
    *_, checks = norms_report(model, u, nu_family, ens)
    verdict(capsys, 9, "modular norms: homogeneity, pairing, budget",
            homog and holder_ok and all(c.passed for c in checks),
            "homogeneity exact; 100 pairing inequalities hold; "
            + "; ".join(c.line().strip() for c in checks))


def test_criterion_10_reproducibility_and_kernel(tmp_path, monkeypatch,
                                                 capsys):
    blobs = []
    for i, workers in enumerate(("1", "2", "5")):
        monkeypatch.setenv("PORTSENS_WORKERS", workers)
        out = str(tmp_path / f"w{i}")
        code = main(["value", "--config", "configs/example1.ini",
                     "--paths", "4000", "--steps", "100", "--out", out])
        assert code == 0
        blobs.append((tmp_path / f"w{i}" / "surface.csv").read_bytes())
    monkeypatch.delenv("PORTSENS_WORKERS")
    identical = blobs[0] == blobs[1] == blobs[2]

    grid = TimeGrid(1.0, 8)
    sigma = constant([[1.0, 0.0]])
    # row scaling sigma + 0.8 [[0.5, 0]] keeps the kernel, the rotation
    # sigma + [[0, 0.8]] moves it
    _, (scale,) = check_h1_direction(sigma, constant([[0.5, 0.0]]), [0.8],
                                     grid)
    _, (rotate,) = check_h1_direction(sigma, constant([[0.0, 0.8]]), [1.0],
                                      grid)
    accepted, rejected = scale.check.passed, not rotate.check.passed
    verdict(capsys, 10, "bit-identical workers and kernel checker",
            identical and accepted and rejected,
            f"surface bytes equal for workers 1/2/5; row-scaling family "
            f"accepted, rotation rejected")
