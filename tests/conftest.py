"""Shared test helpers: marginal CDF oracles, the transition densities and
the delta = 3 boundary intensity they are checked against, the standard
case battery and the stock test functions of the mu_alpha calculus."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from bessel_lab.core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump)
from bessel_lab.ibpf import IbpfCase
from bessel_lab.mu_dist import SmoothTestFn
from bessel_lab.specfun import DomainError, besq_density_reg


def bridge_marginal_cdf(delta, r, a, ap, bmax=None, n=4001):
    """CDF of the Bessel bridge marginal at time r, as a callable.

    Integrates the density in the variable g = b**delta, in which the
    integrand is bounded at the origin even for delta < 1 (where the density
    itself diverges like b**(delta-1)), on the nodes of a uniform grid in b:
    a grid uniform in g would leave only a dozen nodes under the bulk at
    delta = 3.
    """
    if bmax is None:
        # centre + 8 bridge standard deviations keeps the grid resolved
        # even when the marginal is concentrated (small r(1-r), larger delta)
        bmax = (a * (1.0 - r) + ap * r
                + 8.0 * math.sqrt(delta * r * (1.0 - r)))
    b = np.linspace(0.0, bmax, n)
    g = b**delta
    q = (besq_density_reg(delta, r, a**2, b**2)
         * besq_density_reg(delta, 1.0 - r, b**2, ap**2)
         / besq_density_reg(delta, 1.0, a**2, ap**2))
    integrand = (2.0 / delta) * q
    cdf = cumulative_trapezoid(integrand, g, initial=0.0)
    cdf /= cdf[-1]

    def cdf_fn(x):
        x = np.asarray(x, dtype=float)
        return np.interp(np.clip(x, 0.0, None) ** delta, g, cdf)

    return cdf_fn


def q_delta_t(delta, t, x, y):
    """Squared-Bessel transition density ``q_t^delta(x, y)`` (density in y).

    For ``x = 0`` this is ``(2t)^{-delta/2} Gamma(delta/2)^{-1} y^{delta/2-1}
    e^{-y/2t}``; for ``x > 0`` the usual Bessel-function form.  Diverges at
    ``y = 0`` when ``delta < 2`` (the regularised kernel stays finite).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("end point y must be >= 0")
    with np.errstate(divide="ignore"):
        pw = np.where(y > 0, y, 1.0) ** (0.5 * delta - 1.0)
        pw = np.where(y > 0, pw,
                      np.inf if delta < 2 else (1.0 if delta == 2 else 0.0))
    return pw * besq_density_reg(delta, t, x, y)


def p_delta_t(delta, t, a, b):
    """Bessel transition density ``p_t^delta(a, b) = 2 b q_t^delta(a^2, b^2)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("Bessel arguments must be >= 0")
    return 2.0 * b ** (delta - 1.0) * besq_density_reg(delta, t, a**2, b**2)


def gamma_3(r, a):
    """The delta = 3 boundary intensity gamma(r, a):

        1/sqrt(2 pi r^3 (1-r)^3) * (1 if a = 0 else
                                    2 a^2 e^{-a^2/(2 r (1-r))}/(1 - e^{-2 a^2}))
    """
    if not 0.0 < r < 1.0 or a < 0:
        raise ValueError("need r in (0,1) and a >= 0")
    base = 1.0 / math.sqrt(2.0 * math.pi * r**3 * (1.0 - r) ** 3)
    if a == 0.0:
        return base
    return base * 2.0 * a**2 * math.exp(-a**2 / (2.0 * r * (1.0 - r))) \
        / (-math.expm1(-2.0 * a**2))


def measure_battery():
    """The three measures of the standard verification battery."""
    return [
        ("m0", FiniteMeasure.zero()),
        ("atom", FiniteMeasure.atom(0.6, 1.0)),
        ("leb", FiniteMeasure.lebesgue(0.5)),
    ]


def standard_battery():
    """All 63 bridge-mode cases of acceptance criterion 1."""
    h = bump(0.2)
    cases = []
    for delta in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
        for a, ap in ((0.0, 0.0), (1.0, 0.0), (1.0, 2.0)):
            for tag, m in measure_battery():
                cases.append(IbpfCase(
                    BridgeSpec(delta, a, ap), ExpFunctional.single(m), h,
                    mode="bridge", tol=1e-5,
                    case_id=f"d{delta:g}_a{a:g}_ap{ap:g}_{tag}"))
    return cases


def stock_fns():
    """The stock test functions of :class:`SmoothTestFn`."""
    return [SmoothTestFn.exp_decay(1.0), SmoothTestFn.gauss(),
            SmoothTestFn.poly_exp()]


#: Closed-form derivatives of the stock functions, by label.
_STOCK_PRIMES = {
    "exp(-1x)": lambda x: -np.exp(-x),
    "exp(-x^2)": lambda x: -2.0 * x * np.exp(-x * x),
    "(1+x)exp(-2x)": lambda x: -(1.0 + 2.0 * x) * np.exp(-2.0 * x),
}


def derivative(f):
    """f' of a stock function: its closed form, with f's Taylor data moved
    down one order (c'_j = (j + 1) c_{j+1})."""
    k = np.arange(1, f.taylor.shape[-1])
    return SmoothTestFn(_STOCK_PRIMES[f.label], f.taylor[1:] * k,
                        label=f.label + "'")


def x_times(f):
    """The function x f(x), whose Taylor data is f's moved up one order."""
    return SmoothTestFn(lambda x: x * f(x), np.r_[0.0, f.taylor[:-1]],
                        label="x*" + f.label)
