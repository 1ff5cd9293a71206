"""Independent oracles for the frozen constants in the test suite.

Everything here is computed from first principles with numpy/scipy only,
without importing the package, so the tests compare two genuinely separate
derivations.  Run it to regenerate the numbers cited in tests/:

    python3 scripts/derive_oracles.py
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


def heading(text):
    print(f"\n# {text}")


def show(name, value):
    print(f"{name} = {value!r}")


# ---------------------------------------------------------------------------
# sign-switching market, log utility, unit drift direction
#
# Base price of risk 1 on {W < 0}, 0 elsewhere; direction 1.  Tilting the
# measure by tau gives the paths drift tau, so the reweighted log value is
#   u_w(tau) = log x0 + (tau + 1/2) * int_0^T Phi(-tau sqrt(s)) ds
#              + tau^2 T / 2,
# while replacing the coefficient gives
#   u_s(tau) = log x0 + (1/2 + tau) T/2 + tau^2 T / 2.
# Differentiating at tau = 0: weak T/2 - T^{3/2}/(3 sqrt(2 pi)), strong T/2.

def occupation(tau, T):
    val, err = quad(lambda s: norm.cdf(-tau * math.sqrt(s)), 0.0, T,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def weak_value(tau, T):
    return (tau + 0.5) * occupation(tau, T) + 0.5 * tau * tau * T


def weak_slope(tau, T):
    d_occ, err = quad(lambda s: -math.sqrt(s) * norm.pdf(tau * math.sqrt(s)),
                      0.0, T, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return occupation(tau, T) + (tau + 0.5) * d_occ + tau * T


def weak_curvature(tau, T):
    # d2/dtau2 of weak_value: 2 occ' + (tau + 1/2) occ'' + T, where
    # occ''(tau) = int tau s^{3/2} phi(tau sqrt(s)) ds vanishes at tau = 0
    d_occ, err = quad(lambda s: -math.sqrt(s) * norm.pdf(tau * math.sqrt(s)),
                      0.0, T, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    d2_occ, err = quad(lambda s: tau * s**1.5 * norm.pdf(tau * math.sqrt(s)),
                       0.0, T, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return 2.0 * d_occ + (tau + 0.5) * d2_occ + T


heading("sign-switching market (T = 1 unless noted)")
for T in (1.0, 4.0):
    w = T / 2.0 - T**1.5 / (3.0 * math.sqrt(2.0 * math.pi))
    show(f"weak_sensitivity_T{T:g}", w)
    show(f"strong_sensitivity_T{T:g}", T / 2.0)
    show(f"gap_T{T:g}", w - T / 2.0)
# agreement of the two weak-derivative routes
assert abs(weak_slope(0.0, 1.0)
           - (0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi)))) < 1e-12
for tau in (0.0, 0.05, 0.1, 0.2, 0.3):
    show(f"weak_value_tau{tau:g}", weak_value(tau, 1.0))
for tau in (0.05, 0.1, 0.2):
    show(f"strong_value_tau{tau:g}", (0.5 + tau) * 0.5 + tau * tau * 0.5)
show("weak_slope_tau0.3", weak_slope(0.3, 1.0))
# curvature at tau = 0: u_w''(0) = T - (4/3) T^{3/2} / sqrt(2 pi), negative
# for T > 9 pi / 8, so the weak curve dips below its tangent at T = 4
for T in (1.0, 4.0):
    curv = T - 4.0 / 3.0 * T**1.5 / math.sqrt(2.0 * math.pi)
    h = 1e-3
    second_diff = (weak_value(h, T) - 2.0 * weak_value(0.0, T)
                   + weak_value(-h, T)) / (h * h)
    assert abs(weak_curvature(0.0, T) - curv) < 1e-12
    assert abs(second_diff - curv) < 1e-5
    show(f"weak_curvature_T{T:g}", curv)
# below-tangent residuals u_w(e) - u_w(0) - e u_w'(0) of the exact T = 4
# curve and their log-log slope: the third-order term takes over beyond
# e ~ 0.1, so the decay check needs steps below that
slope4 = 2.0 - 4.0**1.5 / (3.0 * math.sqrt(2.0 * math.pi))
for steps in ((0.2, 0.1, 0.05, 0.025), (0.05, 0.025, 0.0125, 0.00625)):
    res = [weak_value(e, 4.0) - weak_value(0.0, 4.0) - e * slope4
           for e in steps]
    fit = np.polyfit(np.log(steps), np.log([-r for r in res]), 1)[0]
    show(f"residual_slope_T4_steps{steps[0]:g}-{steps[-1]:g}", float(fit))

# ---------------------------------------------------------------------------
# power-utility closed forms, constant price of risk
#
# With U(x) = p x^{1/p}, q = p/(p-1), deterministic lambda and rate:
#   value = p x0^{1/p} exp(int r / p) exp((q-1)/2 int |lambda|^2)
# For hat Z = exp(-int r) E(-lambda W), E[hat Z^a] = e^{a(a-1) lam2/2 - a rT}.

heading("power utility, lambda = 1, T = 1, r = 0, x0 = 1")
show("value_p2", 2.0 * math.exp(0.5))
show("value_p3", 3.0 * math.exp(0.25))
show("zmoment_p3_m0", math.exp(1.5 * 0.5 / 2.0))  # E[Z^{1-q}], q = 3/2

# ---------------------------------------------------------------------------
# two-asset deterministic market of configs/deterministic2d.ini

heading("deterministic 2d market, p = 3")
mu = np.array([0.08, 0.05])
sigma = np.array([[0.2, 0.05], [0.0, 0.15]])
r = 0.01
x0, T, p = 1.0, 1.0, 3.0
q = p / (p - 1.0)
lam = np.linalg.solve(sigma, mu - r)
show("lambda_bar", [float(v) for v in lam])
lam2 = float(lam @ lam)
value = p * x0 ** (1 / p) * math.exp(r * T / p) * math.exp((q - 1) / 2 * lam2)
show("base_value_p3", value)
dmu = np.array([0.04, 0.02])
dr = 0.01
dlam = np.linalg.solve(sigma, dmu - dr)
show("dlambda", [float(v) for v in dlam])
dq_ = float(lam @ dlam) * T
sens = value * ((q - 1.0) * dq_ + dr * T / p)
show("sens_p3_dmu_dr", sens)
# same direction without the rate part, p in {2, 3}
dlam_mu = np.linalg.solve(sigma, dmu)
for pp in (2.0, 3.0):
    qq = pp / (pp - 1.0)
    val = pp * x0 ** (1 / pp) * math.exp(r * T / pp) \
        * math.exp((qq - 1) / 2 * lam2)
    show(f"sens_p{pp:g}_dmu", val * (qq - 1.0) * float(lam @ dlam_mu) * T)
# log utility on the same market: sensitivity is int lam.dlam + int dr
show("sens_log_dmu_dr", float(lam @ dlam) * T + dr * T)

# ---------------------------------------------------------------------------
# modular norms, single-member family {0}
#
# J(k U(X*)) = k^p x0, so the Luxemburg norm of U(X*) is x0^{1/p} and the
# Amemiya norm is q (p-1)^{1/p} x0^{1/p} (minimum at k = ((p-1) x0)^{-1/p}).

heading("modular norms at the optimal payoff, family {0}")
for pp in (2.0, 3.0):
    qq = pp / (pp - 1.0)
    show(f"luxemburg_p{pp:g}", x0 ** (1 / pp))
    show(f"amemiya_p{pp:g}", qq * (pp - 1.0) ** (1 / pp) * x0 ** (1 / pp))

# market of configs/norms.ini: lambda = (0.3, 0), p = 3
heading("incomplete market of configs/norms.ini, p = 3")
lam2n = 0.09
m_a = lambda a: math.exp(a * (a - 1.0) / 2.0 * lam2n)
show("norm_I_density", m_a(1.0) ** (1 / 1.5))          # E[Z] = 1
show("norm_J_wealth",
     (m_a(1.0 - 3.0 * 1.5) / m_a(1.0 - 1.5) ** 3.0) ** (1.0 / 3.0))
show("value_norms_cfg", 3.0 * math.exp(0.25 * lam2n))

# ---------------------------------------------------------------------------
# discrepancy functional, independent Euler scheme with its own RNG
#
# D = E[e^{S1 + Q11/2} (S2 - dq)]; exactly zero for deterministic lambda
# (checked symbolically: E[e^{W + T/2}(T - W)] = 0), strictly positive for
# lambda = 1 on {W < 0} with direction -1.

heading("discrepancy functional, adapted case (independent Euler MC)")
rng = np.random.default_rng(987654321)
M, N, T = 400_000, 1000, 1.0
dt = T / N
total, total2, count = 0.0, 0.0, 0
for start in range(0, M, 50_000):
    m = min(50_000, M - start)
    dW = rng.normal(0.0, math.sqrt(dt), size=(m, N))
    W = np.cumsum(dW, axis=1)
    left = np.concatenate([np.zeros((m, 1)), W[:, :-1]], axis=1)
    lam_v = (left < 0.0).astype(float)
    s1 = np.sum(lam_v * dW, axis=1)
    q11 = np.sum(lam_v * lam_v, axis=1) * dt
    s2 = -np.sum(dW, axis=1)
    dq_v = -np.sum(lam_v, axis=1) * dt
    vals = np.exp(s1 + 0.5 * q11) * (s2 - dq_v)
    total += float(np.sum(vals))
    total2 += float(np.sum(vals * vals))
    count += m
mean = total / count
se = math.sqrt((total2 / count - mean * mean) / count)
show("discrepancy_adapted_mean", mean)
show("discrepancy_adapted_se", se)
