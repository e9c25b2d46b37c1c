"""Reference routes that only tests call: the integer-dimension bridge
samplers that check the general-dimension sampler, the Bessel mean that the
process sampler is checked against, and the finite-part zeta'' that checks
its closed form ``laplace_sigma.zeta_second_deriv``."""

from __future__ import annotations

import numpy as np
from scipy import special

from bessel_lab.laplace_sigma import _kummer_m
from bessel_lab.mu_dist import SmoothTestFn, mu_pair
from bessel_lab.samplers import _check_times
from bessel_lab.specfun import besq_density_reg, besq_density_reg_ytaylor

__all__ = [
    "gaussian_bridge",
    "bessel_bridge_integer",
    "zeta",
    "zeta_second_deriv_fp",
]


def gaussian_bridge(d, times, rng, size=1):
    """``d`` independent Brownian bridges 0 -> 0 sampled at ``times``.

    Returns an array of shape (size, d, len(times)).  Sequential conditional
    construction: given B_t = b, B_{t+dt} ~ N(b (1-t-dt)/(1-t), dt (1-t-dt)/(1-t)).
    """
    times = _check_times(times)
    g = rng.generator
    n = len(times)
    out = np.zeros((size, d, n))
    cur = np.zeros((size, d))
    for i in range(1, n - 1):
        t, tn = times[i - 1], times[i]
        dt = tn - t
        shrink = (1.0 - tn) / (1.0 - t)
        std = np.sqrt(dt * shrink)
        cur = cur * shrink + std * g.standard_normal((size, d))
        out[:, :, i] = cur
    return out


def bessel_bridge_integer(delta, times, rng, size=1):
    """Bessel bridge 0 -> 0 of integer dimension as a Gaussian modulus.

    Returns (size, len(times)) array of path values.
    """
    if delta not in (1, 2, 3):
        raise ValueError("integer sampler supports delta in {1, 2, 3}")
    beta = gaussian_bridge(int(delta), times, rng, size=size)
    return np.sqrt(np.sum(beta**2, axis=1))


def zeta(delta, a, t):
    """``E[X_t]`` for the Bessel process of dimension delta started at a,
    per entry of ``t``: ``X_t^2 / t`` is noncentral chi-squared, so
    ``zeta = C sqrt(2 t) M(-1/2; delta/2; -a^2/(2 t))`` with Kummer's ``M``
    and ``C = Gamma((delta+1)/2) / Gamma(delta/2)``."""
    c = special.gamma((delta + 1.0) / 2.0) / special.gamma(delta / 2.0)
    t = np.asarray(t, dtype=float)
    return (c * np.sqrt(2.0 * t) * _kummer_m(-0.5, delta / 2.0,
                                             -a**2 / (2.0 * t)))[()]


def zeta_second_deriv_fp(delta, a, t):
    """Second time-derivative of the Bessel mean per entry of ``t`` through
    the finite-part calculus, one row of ``mu_pair`` per entry,

        zeta''(t) = -Gamma((delta+1)/2) <mu_{(delta-3)/2}(y), q_reg(delta, t, a^2, y)>.

    The kernel's Gaussian factor in sqrt(y) - a puts its decay inside the
    window (a + 12 sqrt(t))^2."""
    fn = SmoothTestFn(
        lambda y: besq_density_reg(delta, np.asarray(t)[..., None], a**2, y),
        besq_density_reg_ytaylor(delta, t, a**2, 8), label="q_reg",
        window=(a + 12.0 * np.sqrt(t)) ** 2)
    alpha = (delta - 3.0) / 2.0
    return -special.gamma((delta + 1.0) / 2.0) * mu_pair(alpha, fn)
