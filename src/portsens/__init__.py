"""Monte Carlo sensitivity analysis of optimal expected utility in Brownian markets.

The package computes the value of expected-utility maximization under two
kinds of market perturbation (measure-change reweighting versus coefficient
replacement), evaluates closed-form directional derivatives of the value with
respect to drift, volatility and interest rate, and cross-checks them against
finite differences and exact special cases.
"""

__version__ = "0.1.0"
