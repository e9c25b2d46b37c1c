"""Transition densities of Bessel and squared Bessel processes.

The central object is the *regularised* squared-Bessel transition kernel

    besq_density_reg(delta, t, x, y) = q_t^delta(x, y) / y**(delta/2 - 1),

which extends to an entire function of both space arguments.  Writing
``nu = delta/2 - 1`` and ``w = x*y / (4*t**2)`` one has

    q_t(x, y) / y**nu = (2*t)**(-delta/2) * exp(-(x+y)/(2*t)) * S_nu(w),
    S_nu(w) = sum_k w**k / (k! * Gamma(k + nu + 1))
            = 0F1(; nu + 1; w) / Gamma(nu + 1),

and ``S_nu`` is entire, so the regularised kernel is well defined for
``x = 0``, ``y = 0`` and even (slightly) negative ``y`` -- which is what the
Laplace-functional machinery needs when differentiating at the origin.  For
``w < 25``, ``S_nu`` is evaluated as ``hyp0f1`` times ``rgamma`` (DLMF 10.39.9,
16.2).  For larger ``w`` the factors ``exp(-(x+y)/(2t))`` and ``S_nu``
overflow separately, so the kernel goes through the scaled modified Bessel
function ``ive`` via ``S_nu(w) = w**(-nu/2) * I_nu(2*sqrt(w))``, in which
case the Gaussian factor combines into ``exp(-(sqrt(x)-sqrt(y))**2/(2*t))``.

All functions are vectorised over their space arguments, and the kernel
and its y-Taylor coefficients over the time ``t`` as well.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "DomainError",
    "besq_density_reg",
    "besq_density_reg_ytaylor",
    "bridge_density",
]

# Below this value of w = x*y/(4 t^2) S_nu comes from hyp0f1; above it the
# scaled-Bessel route.
_SERIES_W_MAX = 25.0


class DomainError(ValueError):
    """Raised when a special-function argument is outside its domain."""


def _check_qt_args(delta, t, x):
    if not delta > 0:
        raise DomainError(f"dimension must be positive, got delta={delta}")
    if not (t > 0).all():
        raise DomainError(f"time must be positive, got t={t}")
    if (x < 0).any():
        raise DomainError("start point x must be >= 0")


def besq_density_reg(delta, t, x, y):
    """Regularised squared-Bessel kernel ``q_t^delta(x, y) / y**(delta/2-1)``.

    Entire in both ``x`` and ``y``; ``y`` may be slightly negative (the
    ``hyp0f1`` branch is used whenever ``x*y/(4 t^2) < 25`` or ``x*y < 0``).
    ``t``, ``x`` and ``y`` broadcast against each other.
    """
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    _check_qt_args(delta, t, x)
    nu = 0.5 * delta - 1.0
    w = x * y / (4.0 * t * t)
    big = w >= _SERIES_W_MAX  # the rest, all negative w too, is hyp0f1's
    # 2t at full shape: scalar and array t then go through the same loops
    t2 = 2.0 * t + np.zeros(w.shape)
    pref = t2 ** (-0.5 * delta) * np.exp(-(x + y) / t2)
    out = np.asarray(pref * special.hyp0f1(nu + 1.0, np.where(big, 0.0, w))
                     * special.rgamma(nu + 1.0))
    if big.any():
        xb, yb, tb = (np.broadcast_to(v, w.shape)[big] for v in (x, y, t))
        sx, sy = np.sqrt(xb), np.sqrt(yb)
        arg = sx * sy / tb
        out[big] = (
            np.exp(-((sx - sy) ** 2) / (2.0 * tb))
            * (xb * yb) ** (-0.5 * nu)
            * special.ive(nu, arg)
            / (2.0 * tb)
        )
    return out[()]


def cauchy_product(u, v):
    """The first ``n`` coefficients of the product of two power series given
    by their first ``n`` along the last axis; leading axes broadcast."""
    k = np.arange(u.shape[-1])
    lag = k[:, None] - k  # lag[j, i] = j - i
    return (np.where(lag >= 0, v[..., lag], 0.0) @ u[..., None])[..., 0]


def besq_density_reg_ytaylor(delta, t, x, order):
    """Taylor coefficients in ``y`` at 0 of ``y -> besq_density_reg(delta,t,x,y)``.

    Returns ``c[..., 0..order]``, one row per entry of the broadcast ``t``
    and ``x``, with ``besq_density_reg = sum_j c[..., j] y**j + O(y^{order+1})``.
    """
    t, x = (np.asarray(v, dtype=float)[..., None] for v in (t, x))
    _check_qt_args(delta, t, x)
    nu = 0.5 * delta - 1.0
    c = x / (4.0 * t * t)
    # S_nu(c*y) has y-coefficients  c^k / (k! Gamma(k+nu+1));
    # exp(-y/(2t)) has coefficients (-1/(2t))^k / k!.  Multiply.
    k = np.arange(order + 1.0)
    s_coef = c**k * special.rgamma(k + 1.0) * special.rgamma(k + nu + 1.0)
    e_coef = (-1.0 / (2.0 * t)) ** k * special.rgamma(k + 1.0)
    pref = (2.0 * t) ** (-0.5 * delta) * np.exp(-x / (2.0 * t))
    return pref * cauchy_product(e_coef, s_coef)


def bridge_density(delta, r, a, ap, b):
    """Marginal density at time ``r`` of the Bessel bridge ``a -> ap`` over
    [0, 1], evaluated at ``b``.  Boundary values may be zero."""
    if not 0 < r < 1:
        raise DomainError("bridge time must lie in (0, 1)")
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise DomainError("evaluation point b must be >= 0")
    num = (besq_density_reg(delta, r, a**2, b**2)
           * besq_density_reg(delta, 1.0 - r, b**2, ap**2))
    den = besq_density_reg(delta, 1.0, a**2, ap**2)
    return 2.0 * b ** (delta - 1.0) * num / den
