"""Monte Carlo sensitivity analysis of optimal expected utility in Brownian markets.

The package computes the value of expected-utility maximization under two
kinds of market perturbation (measure-change reweighting versus coefficient
replacement), evaluates closed-form directional derivatives of the value with
respect to drift, volatility and interest rate, and cross-checks them against
finite differences and exact special cases.
"""

from portsens.danskin import CompactSet, support_value
from portsens.estimate import ValueEstimate
from portsens.market import CoefficientProcess, MarketModel
from portsens.modular import ModularFunctional
from portsens.paths import PathEnsemble, TimeGrid
from portsens.sensitivity import sensitivity_pair
from portsens.solver import optimal_terminal_wealth
from portsens.utility import UtilitySpec, log_utility, power_utility
from portsens.valuation import PerturbationSpec, value_surface

__all__ = [
    "CoefficientProcess",
    "CompactSet",
    "MarketModel",
    "ModularFunctional",
    "PathEnsemble",
    "PerturbationSpec",
    "TimeGrid",
    "UtilitySpec",
    "ValueEstimate",
    "log_utility",
    "optimal_terminal_wealth",
    "power_utility",
    "sensitivity_pair",
    "support_value",
    "value_surface",
]

__version__ = "0.1.0"
