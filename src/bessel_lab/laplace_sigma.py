"""Laplace functionals of (squared) Bessel processes and bridges.

For a finite measure ``m`` with transform ``phi`` (see
:mod:`.sturm_liouville`) and time change ``rho``, the conditional Laplace
functional of ``Phi(X) = exp(-<m, X^2>)`` given the value at time ``r`` is
expressed through the regularised squared-Bessel kernel ``q_reg``:

unconditioned start ``a``:

    Sigma_a(Phi | b) = 2 K(a, m) phi_r^{-delta}
                       q_reg(delta, rho_r, a^2, b^2/phi_r^2),

    K(a, m) = exp(a^2 phi'(0)/2) phi(1)^{delta/2};

bridge ``a -> ap`` over [0, 1]:

    Sigma_{a,ap}(Phi | b) = 2 exp(a^2 phi'(0)/2) phi_1^{-delta/2} phi_r^{-delta}
        q_reg(delta, rho_r,          a^2,          b^2/phi_r^2)
      * q_reg(delta, rho_1 - rho_r,  b^2/phi_r^2,  ap^2/phi_1^2)
      / q_reg(delta, 1,              a^2,          ap^2).

Both expressions are smooth functions of ``s = b^2`` down to (and slightly
past) ``s = 0``, which is what the finite-part machinery differentiates;
:func:`sigma_s_series` gives their exact Taylor coefficients there.

The module also provides the mean ``zeta(t) = E[X_t]`` of the Bessel process
started at ``a`` and its second time-derivative, in closed form through
Kummer's function or through a finite-part pairing of the regularised kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import BridgeSpec, FiniteMeasure
from .mu_dist import SmoothTestFn, mu_pair
from .specfun import (besq_density_reg, besq_density_reg_ytaylor,
                      cauchy_product)
from .sturm_liouville import solve_sl

__all__ = [
    "SigmaContext",
    "sigma_s",
    "sigma_s_series",
    "zeta",
    "zeta_second_deriv",
]

#: Number of s-Taylor coefficients of Sigma carried by the series pieces.
SERIES_ORDER = 14


@dataclass
class SigmaContext:
    """A bridge (``bridge=True``) or process law paired with one measure's
    transform, with that law's constants of Sigma that do not depend on
    ``r`` or ``s``."""

    spec: BridgeSpec
    m: FiniteMeasure
    bridge: bool

    def __post_init__(self):
        #: The measure's Sturm-Liouville solution (phi, rho).
        self.sol = sol = solve_sl(self.m)
        d, a, ap = self.spec.delta, self.spec.a, self.spec.ap
        if not self.bridge:
            #: Normalisation ``exp(a^2 phi'(0)/2) phi(1)^{delta/2}`` (1 for
            #: m = 0).
            self.K = (math.exp(a**2 * sol.phi_prime0 / 2.0)
                      * sol.phi1 ** (d / 2.0))
            return
        #: Bridge prefactor ``2 exp(a^2 phi'(0)/2) phi(1)^{-delta/2}``.
        self.bridge_pref = (2.0 * math.exp(a**2 * sol.phi_prime0 / 2.0)
                            * sol.phi1 ** (-d / 2.0))
        #: Bridge denominator ``q_reg(delta, 1, a^2, ap^2)``.
        self.bridge_den = besq_density_reg(d, 1.0, a**2, ap**2)
        #: End point ``ap^2 / phi(1)^2`` of the second bridge kernel.
        self.end_z = ap**2 / sol.phi1**2


def _sigma_uncond_s(ctx, r, s):
    """Unconditioned Sigma as a function of s = b^2 (s may be slightly < 0)."""
    d, a = ctx.spec.delta, ctx.spec.a
    phr, rr = ctx.sol.phi(r), ctx.sol.rho(r)
    z = np.asarray(s, dtype=float) / phr**2
    return 2.0 * ctx.K * phr ** (-d) * besq_density_reg(d, rr, a**2, z)


def _sigma_bridge_s(ctx, r, s):
    """Bridge Sigma as a function of s = b^2 (s may be slightly < 0).

    The second kernel takes ``z`` in its second space slot: the regularised
    kernel is symmetric in its space arguments, and only the second slot
    extends to negative values."""
    d, a = ctx.spec.delta, ctx.spec.a
    sol = ctx.sol
    phr, rr = sol.phi(r), sol.rho(r)
    z = np.asarray(s, dtype=float) / phr**2
    pref = ctx.bridge_pref * phr ** (-d)
    num = (besq_density_reg(d, rr, a**2, z)
           * besq_density_reg(d, sol.rho1 - rr, ctx.end_z, z))
    return pref * num / ctx.bridge_den


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
    regularised squared Bessel kernel, multiplied as power series for the
    bridge, where Sigma is a product of two kernels in the same variable.
    """
    d, a = ctx.spec.delta, ctx.spec.a
    sol = ctx.sol
    phr = np.asarray(sol.phi(r))[..., None]
    rr = sol.rho(r)
    av = besq_density_reg_ytaylor(d, rr, a**2, SERIES_ORDER)
    if ctx.bridge:
        bv = besq_density_reg_ytaylor(d, sol.rho1 - rr, ctx.end_z,
                                      SERIES_ORDER)
        coeffs = (ctx.bridge_pref * phr ** (-d) / ctx.bridge_den
                  * cauchy_product(av, bv))
    else:
        coeffs = 2.0 * ctx.K * phr ** (-d) * av
    # account for z = s / phr^2
    return coeffs * phr ** (-2.0 * np.arange(SERIES_ORDER + 1))


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


def _zeta_second_deriv_closed(delta, a, t):
    """Closed-form route: Ito's formula gives ``zeta'' = -kappa E[X_t^{-3}]``,
    ``kappa = (delta-1)(delta-3)/4``, and the noncentral chi-squared law of
    ``X_t^2 / t`` then ``zeta'' = -C (2t)^{-3/2} M(3/2; delta/2; u)``,
    ``u = -a^2/(2t)``: accurate relative to zeta'' also where it is
    exponentially small (delta = 1, 3)."""
    t = np.asarray(t, dtype=float)
    m = _kummer_m(1.5, delta / 2.0, -a**2 / (2.0 * t))
    c = special.gamma((delta + 1.0) / 2.0) / special.gamma(delta / 2.0)
    return (-c * (2.0 * t) ** -1.5 * m)[()]


def _zeta_second_deriv_fp(delta, a, t):
    """Finite-part route, one row of ``mu_pair`` per entry of ``t``:

        zeta''(t) = -Gamma((delta+1)/2) <mu_{(delta-3)/2}(y), q_reg(delta, t, a^2, y)>.
    """
    fn = SmoothTestFn(
        lambda y: besq_density_reg(delta, np.asarray(t)[..., None], a**2, y),
        besq_density_reg_ytaylor(delta, t, a**2, 8), label="q_reg")
    alpha = (delta - 3.0) / 2.0
    return -special.gamma((delta + 1.0) / 2.0) * mu_pair(alpha, fn)


def zeta_second_deriv(delta, a, t, route="finite-part"):
    """Second time-derivative of the Bessel mean per entry of ``t``, by the
    requested route (``"finite-part"`` or ``"closed-form"``)."""
    if route == "finite-part":
        return _zeta_second_deriv_fp(delta, a, t)
    if route == "closed-form":
        return _zeta_second_deriv_closed(delta, a, t)
    raise ValueError(f"unknown route {route!r}")
