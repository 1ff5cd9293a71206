"""Sensitivities of a two-asset market in a drift-and-rate direction.

Prints the weak/strong value surface, both derivative formulas checked
against central differences, and the weak-minus-strong contrast, all on
one path ensemble.  The market, utility, direction and taus are those of
configs/deterministic2d.ini.  With deterministic coefficients the two
derivatives are equal, so the script exits 3 when they differ by more than
3 standard errors.  Runs in a few seconds; --paths / --steps rescale it.
"""

import argparse
import pathlib

from portsens.cli import _PATHS, _positive, _seed, load_config
from portsens.estimate import combine_linear
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import sensitivity_reports
from portsens.valuation import value_surface

CONFIG = (pathlib.Path(__file__).resolve().parents[1] / "configs"
          / "deterministic2d.ini")


def main() -> int:
    cfg = load_config(str(CONFIG))
    model, u, pert = cfg.model, cfg.utility, cfg.pert
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=_PATHS, default=cfg.paths)
    ap.add_argument("--steps", type=_positive(int), default=cfg.steps)
    ap.add_argument("--seed", type=_seed, default=cfg.seed)
    args = ap.parse_args()
    ens = PathEnsemble(TimeGrid(cfg.horizon, args.steps), n=model.n,
                       count=args.paths, seed=args.seed)

    print(f"two-asset market, power p={u.p:g}, direction {pert.label}, "
          f"{ens.count} paths, seed {ens.seed}")
    print("\nvalue surface (weak | strong):")
    for row in value_surface(model, u, pert, cfg.taus, ens):
        print(f"  tau={row.tau:4.2f}  {row.weak.mean:.6f} "
              f"(se {row.weak.se:.2g})  |  {row.strong.mean:.6f} "
              f"(se {row.strong.se:.2g})")

    print("\nderivative formulas vs central differences:")
    weak, strong = sensitivity_reports(model, u, pert, ens)
    for rep in (weak, strong):
        print(" ", rep.line())

    gap = combine_linear([weak.formula, strong.formula], [1.0, -1.0],
                         "weak-minus-strong")
    print(f"\nweak minus strong derivative: {gap.mean:+.6f} "
          f"(se {gap.se:.2g}, {gap.sigmas:.2f} sigma from zero)")
    if gap.sigmas <= 3.0:
        print("deterministic coefficients, so the two formulations agree "
              "within Monte Carlo error")
        return 0
    print("FAIL: deterministic coefficients make the two formulations "
          "equal, but they differ by more than 3 se")
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
