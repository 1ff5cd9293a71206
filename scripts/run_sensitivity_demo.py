"""Sensitivities of a two-asset market in a drift-and-rate direction.

Prints the weak/strong value surface, both derivative formulas checked
against central differences, and the weak-minus-strong contrast, all on
one path ensemble.  With deterministic coefficients the two derivatives
are equal, so the script exits 3 when they differ by more than 3 standard
errors.  Runs in a few seconds; --paths / --steps rescale it.
"""

import argparse
import math

from portsens import utility as ut
from portsens.estimate import difference_se
from portsens.market import MarketModel, constant, scalar_constant
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import sensitivity_reports
from portsens.valuation import PerturbationSpec, value_surface


def agreement(gap: float, se: float) -> tuple[bool, str]:
    """Whether the weak and strong derivatives agree within 3 standard
    errors of their difference, and the verdict line that says so."""
    if abs(gap) <= 3.0 * se:
        return True, ("deterministic coefficients, so the two formulations "
                      "agree within Monte Carlo error")
    return False, ("FAIL: deterministic coefficients make the two "
                   "formulations equal, but they differ by more than 3 se")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=40_000)
    ap.add_argument("--steps", type=int, default=64)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    model = MarketModel(d=2, n=2,
                        mu=constant([0.08, 0.05]),
                        sigma=constant([[0.2, 0.05], [0.0, 0.15]]),
                        rate=constant([0.01]))
    u = ut.power_utility(3.0)
    pert = PerturbationSpec(dmu=constant([0.04, 0.02]),
                            drate=scalar_constant(0.01))
    ens = PathEnsemble(TimeGrid(1.0, args.steps), n=2, count=args.paths,
                       seed=args.seed)

    print(f"two-asset market, power p=3, direction {pert.label}, "
          f"{ens.count} paths, seed {ens.seed}")
    print("\nvalue surface (weak | strong):")
    for row in value_surface(model, u, pert, [0.0, 0.1, 0.2], ens):
        print(f"  tau={row.tau:4.2f}  {row.weak.mean:.6f} "
              f"(se {row.weak.se:.2g})  |  {row.strong.mean:.6f} "
              f"(se {row.strong.se:.2g})")

    print("\nderivative formulas vs central differences:")
    weak, strong = sensitivity_reports(model, u, pert, ens)
    for rep in (weak, strong):
        print(" ", rep.line())

    gap = weak.formula.mean - strong.formula.mean
    se = difference_se(weak.formula, strong.formula)
    sigmas = abs(gap) / se if se > 0 else math.inf
    print(f"\nweak minus strong derivative: {gap:+.6f} "
          f"(se {se:.2g}, {sigmas:.2f} sigma from zero)")
    ok, verdict = agreement(gap, se)
    print(verdict)
    return 0 if ok else 3


if __name__ == "__main__":
    raise SystemExit(main())
