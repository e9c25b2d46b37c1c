"""Laplace functionals of (squared) Bessel processes and bridges.

For a finite measure ``m`` with transform ``phi`` (see
:mod:`.sturm_liouville`) and time change ``rho``, the conditional Laplace
functional of ``Phi(X) = exp(-<m, X^2>)`` given the value at time ``r`` is
expressed through the regularised squared-Bessel kernel ``q_reg``.  A bridge
``a -> ap`` over [0, 1] ends at rho_1 = rho(1):

    Sigma_{a,ap}(Phi | b) = pref phi_r^{-delta}
        q_reg(delta, rho_r,          a^2,          b^2/phi_r^2)
      * q_reg(delta, rho_1 - rho_r,  b^2/phi_r^2,  ap^2/phi_1^2) / den,

    pref = 2 exp(a^2 phi'(0)/2) phi_1^{-delta/2},
    den  = q_reg(delta, 1, a^2, ap^2).

The process started at ``a`` is the bridge that never reaches its end: its
end time is rho = inf, where the second kernel is absent, its normaliser is
``den = 1``, and ``pref = 2 exp(a^2 phi'(0)/2) phi_1^{delta/2}``.
:class:`SigmaContext` fixes the law, and these constants, once.

For both laws Sigma is smooth in ``s = b^2`` down to (and slightly past)
``s = 0``.  The finite-part routes do not differentiate it there: they read
the exact Taylor coefficients that :func:`sigma_s_series` gives.

The module also provides the mean ``zeta(t) = E[X_t]`` of the Bessel process
started at ``a`` and its second time-derivative by two functions:
:func:`zeta_second_deriv` in closed form through Kummer's function, and
:func:`zeta_second_deriv_fp` through a finite-part pairing of the
regularised kernel, the reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import BridgeSpec, FiniteMeasure
from .mu_dist import SmoothTestFn, mu_pair
from .specfun import (besq_density_reg, besq_density_reg_ytaylor,
                      bridge_normaliser, cauchy_product)
from .sturm_liouville import solve_sl

__all__ = [
    "SigmaContext",
    "sigma_s",
    "sigma_s_series",
    "zeta",
    "zeta_second_deriv",
    "zeta_second_deriv_fp",
]

#: Number of s-Taylor coefficients of Sigma carried by the series pieces.
SERIES_ORDER = 14


@dataclass
class SigmaContext:
    """A bridge (``bridge=True``) or process law paired with one measure's
    transform, with that law's constants of Sigma that do not depend on
    ``r`` or ``s``: ``pref``, ``den`` and the end time ``rho_end``, which
    is infinite for the process."""

    spec: BridgeSpec
    m: FiniteMeasure
    bridge: bool

    def __post_init__(self):
        #: The measure's Sturm-Liouville solution (phi, rho).
        self.sol = sol = solve_sl(self.m)
        d, a, ap = self.spec.delta, self.spec.a, self.spec.ap
        lap = math.exp(a**2 * sol.phi_prime0 / 2.0)
        if self.bridge:
            self.pref = 2.0 * lap * sol.phi1 ** (-d / 2.0)
            self.den = bridge_normaliser(d, a, ap)
            self.rho_end = sol.rho1
            #: End point ``ap^2 / phi(1)^2`` of the second bridge kernel.
            self.end_z = ap**2 / sol.phi1**2
        else:
            self.pref = 2.0 * (lap * sol.phi1 ** (d / 2.0))
            self.den = 1.0
            self.rho_end = math.inf


def _sigma_uncond_s(ctx, r, s):
    """Unconditioned Sigma as a function of s = b^2 (s may be slightly < 0)."""
    d, a = ctx.spec.delta, ctx.spec.a
    phr, rr = ctx.sol.phi(r), ctx.sol.rho(r)
    z = np.asarray(s, dtype=float) / phr**2
    return ctx.pref * phr ** (-d) * besq_density_reg(d, rr, a**2, z)


def _sigma_bridge_s(ctx, r, s):
    """Bridge Sigma as a function of s = b^2 (s may be slightly < 0).

    The second kernel takes ``z`` in its second space slot: the regularised
    kernel is symmetric in its space arguments, and only the second slot
    extends to negative values."""
    d, a = ctx.spec.delta, ctx.spec.a
    phr, rr = ctx.sol.phi(r), ctx.sol.rho(r)
    z = np.asarray(s, dtype=float) / phr**2
    num = (besq_density_reg(d, rr, a**2, z)
           * besq_density_reg(d, ctx.rho_end - rr, ctx.end_z, z))
    return ctx.pref * phr ** (-d) * num / ctx.den


def sigma_s(ctx, r, s):
    """Sigma of the context's law as a function of ``s = b^2``; ``r`` and
    ``s`` broadcast."""
    if ctx.bridge:
        return _sigma_bridge_s(ctx, r, s)
    return _sigma_uncond_s(ctx, r, s)


def sigma_s_series(ctx, r):
    """Taylor coefficients ``c_j``, ``j <= SERIES_ORDER``, of
    ``s -> Sigma(Phi | sqrt(s))`` at 0, one row per entry of ``r``.

    Exact (up to rounding): obtained from the y-Taylor series of the
    regularised squared Bessel kernel, multiplied as power series by the
    bridge's end kernel, in the same variable.
    """
    d, a = ctx.spec.delta, ctx.spec.a
    phr = np.asarray(ctx.sol.phi(r))[..., None]
    rr = ctx.sol.rho(r)
    coeffs = besq_density_reg_ytaylor(d, rr, a**2, SERIES_ORDER)
    if ctx.bridge:
        coeffs = cauchy_product(coeffs, besq_density_reg_ytaylor(
            d, ctx.rho_end - rr, ctx.end_z, SERIES_ORDER))
    # z = s / phr^2 scales c_j by phr^{-2j}
    return (ctx.pref * phr ** (-d) / ctx.den * coeffs
            * phr ** (-2.0 * np.arange(SERIES_ORDER + 1)))


# ---------------------------------------------------------------------------
# Mean of the Bessel process and its second time-derivative.
# ---------------------------------------------------------------------------

def _kummer_m(p, b, u):
    """Kummer's ``M(p; b; u)`` (DLMF 13.2) per entry of ``u <= 0``.  Past
    ``u = -1e7`` scipy's ``hyp1f1`` slows in proportion to ``|u|`` (b = 1/2,
    3/2) or turns inf or NaN (large b or ``|u|``), and three terms of M's
    expansion in ``1/u`` (DLMF 13.7.2) reach double precision."""
    u = np.asarray(u, dtype=float)
    far = u < -1e7
    m = np.empty(u.shape)
    m[~far] = special.hyp1f1(p, b, u[~far])
    v = -1.0 / u[far]
    m[far] = special.gamma(b) * special.rgamma(b - p) * v**p * (
        1.0 + p * (p - b + 1.0) * v * (
            1.0 + (p + 1.0) * (p - b + 2.0) / 2.0 * v))
    return m


def zeta(delta, a, t):
    """``E[X_t]`` for the Bessel process of dimension delta started at a,
    per entry of ``t``: ``X_t^2 / t`` is noncentral chi-squared, so
    ``zeta = C sqrt(2 t) M(-1/2; delta/2; -a^2/(2 t))`` with Kummer's ``M``
    and ``C = Gamma((delta+1)/2) / Gamma(delta/2)``."""
    c = special.gamma((delta + 1.0) / 2.0) / special.gamma(delta / 2.0)
    t = np.asarray(t, dtype=float)
    return (c * np.sqrt(2.0 * t) * _kummer_m(-0.5, delta / 2.0,
                                             -a**2 / (2.0 * t)))[()]


def zeta_second_deriv(delta, a, t):
    """Second time-derivative of the Bessel mean per entry of ``t``, in
    closed form: Ito's formula gives ``zeta'' = -kappa E[X_t^{-3}]``,
    ``kappa = (delta-1)(delta-3)/4``, and the noncentral chi-squared law of
    ``X_t^2 / t`` then ``zeta'' = -C (2t)^{-3/2} M(3/2; delta/2; u)``,
    ``u = -a^2/(2t)``: accurate relative to zeta'' also where it is
    exponentially small (delta = 1, 3)."""
    t = np.asarray(t, dtype=float)
    m = _kummer_m(1.5, delta / 2.0, -a**2 / (2.0 * t))
    c = special.gamma((delta + 1.0) / 2.0) / special.gamma(delta / 2.0)
    return (-c * (2.0 * t) ** -1.5 * m)[()]


def zeta_second_deriv_fp(delta, a, t):
    """Second time-derivative of the Bessel mean per entry of ``t`` through
    the finite-part calculus, one row of ``mu_pair`` per entry: the
    reference that :func:`zeta_second_deriv` is checked against,

        zeta''(t) = -Gamma((delta+1)/2) <mu_{(delta-3)/2}(y), q_reg(delta, t, a^2, y)>.
    """
    fn = SmoothTestFn(
        lambda y: besq_density_reg(delta, np.asarray(t)[..., None], a**2, y),
        besq_density_reg_ytaylor(delta, t, a**2, 8), label="q_reg")
    alpha = (delta - 3.0) / 2.0
    return -special.gamma((delta + 1.0) / 2.0) * mu_pair(alpha, fn)
