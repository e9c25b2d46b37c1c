"""Transition densities of Bessel and squared Bessel processes.

The central object is the *regularised* squared-Bessel transition kernel

    besq_density_reg(delta, t, x, y) = q_t^delta(x, y) / y**(delta/2 - 1),

which extends to an entire function of both space arguments.  Writing
``nu = delta/2 - 1`` and ``w = x*y / (4*t**2)`` one has

    q_t(x, y) / y**nu = (2*t)**(-delta/2) * exp(-(x+y)/(2*t)) * S_nu(w),
    S_nu(w) = sum_k w**k / (k! * Gamma(k + nu + 1))
            = 0F1(; nu + 1; w) / Gamma(nu + 1),

and ``S_nu`` is entire, so the regularised kernel is well defined for
``x = 0``, ``y = 0`` and even (slightly) negative ``y``.  Negative ``y``
stays supported though no route needs it: the routes read Sigma's exact
Taylor coefficients at the origin instead of differentiating there, and
call the kernel at ``y >= 0`` only.  For
``w < 400``, ``S_nu`` is summed by the kernel itself: its coefficients
``c_0 = 1/Gamma(nu+1)``, ``c_{k+1} = c_k / ((k+1)(k+nu+1))`` (DLMF 10.25.2,
16.2) are tabulated once per ``nu`` with the number of terms each ``|w|``
needs, the call's largest ``|w|`` picks the number of terms, and one Horner
loop runs over the call's points.  Below ``w = 400``, ``S_nu`` is at most
about ``e**40``, so ``exp(-(x+y)/(2t))`` can underflow only where the kernel
itself is below about ``e**-705``.  For larger ``w`` the
factors ``exp(-(x+y)/(2t))`` and ``S_nu`` overflow separately, so the kernel
goes through the scaled modified Bessel function ``ive`` via
``S_nu(w) = w**(-nu/2) * I_nu(2*sqrt(w))``, in which case the Gaussian factor
combines into ``exp(-(sqrt(x)-sqrt(y))**2/(2*t))``.

All functions are vectorised over their space arguments, and the kernel
and its y-Taylor coefficients over the time ``t`` as well.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "DomainError",
    "besq_density_reg",
    "besq_density_reg_ytaylor",
    "bridge_density",
    "bridge_normaliser",
]

# Below this value of w = x*y/(4 t^2) S_nu comes from its power series; above
# it the scaled-Bessel route.
_SERIES_W_MAX = 400.0
# Length of the coefficient table of S_nu: |w| < _SERIES_W_MAX needs at most
# 52 terms, at nu -> -1.
_SERIES_TERMS = 64
# The term count of S_nu is tabulated at |w| = _SERIES_W_MAX * 2**(-j/8),
# j = 0.._COUNT_STEPS (down to 1e-20); a call takes the count at the first
# of these at or above its largest |w|.
_STEPS_PER_OCTAVE = 8.0
_COUNT_STEPS = 600


class DomainError(ValueError):
    """Raised when a special-function argument is outside its domain."""


def _check_qt_args(delta, t, x):
    if not delta > 0:
        raise DomainError(f"dimension must be positive, got delta={delta}")
    if not (t > 0).all():
        raise DomainError(f"time must be positive, got t={t}")
    if (x < 0).any():
        raise DomainError("start point x must be >= 0")


@functools.lru_cache
def _s_table(nu):
    """The coefficients ``c_k``, ``k < _SERIES_TERMS``, of
    ``S_nu(w) = sum_k c_k w**k`` as a tuple of floats (one ``cumprod`` of
    ``c_{k+1} / c_k``), and how many of them to sum for ``|w|`` up to each
    tabulation point, in ascending order of ``|w|``."""
    k = np.arange(1.0, _SERIES_TERMS)
    coef = tuple(np.cumprod(np.concatenate(([special.rgamma(nu + 1.0)],
                                            1.0 / (k * (k + nu))))).tolist())
    j = np.arange(-_COUNT_STEPS, 1)
    w = _SERIES_W_MAX * 2.0 ** (j / _STEPS_PER_OCTAVE)
    return coef, tuple(_series_terms(coef, wj) for wj in w.tolist())


def _series_terms(coef, wmax):
    """How many leading coefficients ``coef`` of ``S_nu`` to sum for
    ``|w| <= wmax``: the series stops at the first term past the peak
    (``k**2 > wmax``) below ``2**-54`` of the sum before it.  The terms fall
    from the peak on, and a smaller ``|w|`` never needs more terms."""
    total, power = 0.0, 1.0
    for k, ck in enumerate(coef):
        term = ck * power
        if k * k > wmax and term < 2.0**-54 * total:
            return k
        total += term
        power *= wmax
    return len(coef)


def _s_nu(nu, w):
    """``S_nu(w)`` by Horner's rule on the series, for ``|w| < _SERIES_W_MAX``
    (positive terms for ``w >= 0``; for ``w < 0`` the error is relative to
    the sum of the absolute terms).  ``w`` is an array of any shape, 0-d
    included; the loop runs in place over an array of that shape."""
    coef, counts = _s_table(nu)
    wmax = float(max(w.max(initial=0.0), -w.min(initial=0.0)))
    if wmax == 0.0:
        return coef[0]
    if wmax < _SERIES_W_MAX:
        step = math.ceil(_STEPS_PER_OCTAVE * math.log2(wmax / _SERIES_W_MAX))
        n = counts[max(_COUNT_STEPS + step, 0)]
    else:  # NaN, or w <= -_SERIES_W_MAX
        n = _SERIES_TERMS
    out = np.full(w.shape, coef[n - 1])
    for ck in coef[n - 2::-1]:
        out *= w
        out += ck
    return out


def besq_density_reg(delta, t, x, y):
    """Regularised squared-Bessel kernel ``q_t^delta(x, y) / y**(delta/2-1)``.

    Entire in both ``x`` and ``y``; ``y`` may be slightly negative (the
    series branch is used whenever ``x*y/(4 t^2) < 400``, ``x*y < 0``
    included).
    ``t``, ``x`` and ``y`` broadcast against each other.
    """
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    _check_qt_args(delta, t, x)
    nu = 0.5 * delta - 1.0
    w = x * y / (4.0 * t * t)
    big = w >= _SERIES_W_MAX  # the rest, all negative w too, is the series'
    out = _s_nu(nu, np.where(big, 0.0, w))
    del w  # then at most three grids of the broadcast shape are alive
    t2 = 2.0 * t
    # np.power, not **: a NumPy scalar's ** rounds apart from the array loop
    out = np.asarray(np.power(t2, -0.5 * delta) * np.exp(-(x + y) / t2) * out)
    if big.any():
        xb, yb, tb = (np.broadcast_to(v, big.shape)[big] for v in (x, y, t))
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
    s_coef = c**k * np.array(_s_table(nu)[0][:order + 1])
    e_coef = (-1.0 / (2.0 * t)) ** k * special.rgamma(k + 1.0)
    pref = (2.0 * t) ** (-0.5 * delta) * np.exp(-x / (2.0 * t))
    return pref * cauchy_product(e_coef, s_coef)


def bridge_normaliser(delta, a, ap):
    """``q_reg(delta, 1, a^2, ap^2)``, the normaliser of the Bessel bridge
    ``a -> ap`` over [0, 1].  It carries ``exp(-(a - ap)^2/2)``, which is 0
    in float64 once ``|a - ap|`` passes about 38.6: no bridge value can
    come from it then, and that is a range error."""
    den = besq_density_reg(delta, 1.0, a**2, ap**2)
    if not den > 0.0:
        raise OverflowError(
            f"q_reg(delta, 1, a^2, ap^2) = {float(den)!r} at "
            f"delta={delta!r}, a={a!r}, ap={ap!r}: the bridge normaliser is "
            f"below the double range, as it is once |a - ap| passes about "
            f"38.6 (a log-scale normaliser is ROADMAP item 3(b))")
    return den


def bridge_density(delta, r, a, ap, b):
    """Marginal density at time ``r`` of the Bessel bridge ``a -> ap`` over
    [0, 1], evaluated at ``b``.  Boundary values may be zero."""
    if not 0 < r < 1:
        raise DomainError("bridge time must lie in (0, 1)")
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise DomainError("evaluation point b must be >= 0")
    den = bridge_normaliser(delta, a, ap)
    num = (besq_density_reg(delta, r, a**2, b**2)
           * besq_density_reg(delta, 1.0 - r, b**2, ap**2))
    return 2.0 * b ** (delta - 1.0) * num / den
