"""The one-parameter family of finite-part distributions mu_alpha on [0, inf).

For alpha > 0, mu_alpha has density x^(alpha-1)/Gamma(alpha).  The family
extends to all real alpha by

* alpha = 0:       mu_0 = delta_0 (unit mass at the origin);
* alpha = -k:      <mu_alpha, f> = (-1)^k f^(k)(0)  for integer k >= 1;
* -k-1 < alpha < -k:
      <mu_alpha, f> = int_0^inf (T^k_x f) x^(alpha-1)/Gamma(alpha) dx,
  where T^n_x f = f(x) - sum_{j<=n} x^j f^(j)(0)/j! is the Taylor remainder.

Note that in this range every subtracted monomial is individually integrable
at infinity (j + alpha - 1 < -1 for j <= k), so the combined remainder is
integrated directly by adaptive quadrature; no split of the integral into
separately regularised terms is needed.

Key identities satisfied by the family (and exercised by the test-suite):

    <mu_alpha, f'>        = -<mu_{alpha-1}, f>
    <mu_alpha(x), x f(x)> = alpha <mu_{alpha+1}, f>
    <mu_alpha, e^{-lam .}> = lam^(-alpha)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .quadrature import decay_cutoff

__all__ = ["SmoothTestFn", "taylor_remainder", "mu_pair", "MuConvergenceError"]

#: Distance to the nearest integer below which alpha is treated as integral.
INTEGER_GUARD = 1e-12

#: Supported range of the parameter.
ALPHA_MIN, ALPHA_MAX = -2.5, 5.0

#: Highest remainder order exposed through :func:`taylor_remainder`.
MAX_DERIV_ORDER = 4

#: Number of stock derivative evaluators (orders 0 .. _STOCK_ORDERS-1).
_STOCK_ORDERS = 9

#: Below this point the Taylor remainder is evaluated by its tail series
#: (direct subtraction loses all significant digits as x -> 0).
_TAIL_SWITCH = 0.05


class MuConvergenceError(RuntimeError):
    """Raised when the defining quadrature fails to converge."""


@dataclass
class SmoothTestFn:
    """A smooth rapidly-decaying test function with derivative data.

    ``evaluators[j]`` is a vectorised evaluator of the j-th derivative; at
    least the function itself (j = 0) must be supplied.  If only Taylor data
    at the origin is known, pass ``derivs_at_zero`` instead -- that is all
    the finite-part pairing itself requires.
    """

    evaluators: list
    derivs_at_zero: np.ndarray = None
    label: str = "f"

    def __post_init__(self):
        if not self.evaluators:
            raise ValueError("need at least the order-0 evaluator")
        if self.derivs_at_zero is not None:
            self.derivs_at_zero = np.asarray(self.derivs_at_zero, dtype=float)

    def __call__(self, x):
        return self.evaluators[0](x)

    def deriv_at_zero(self, j):
        if j < len(self.evaluators):
            return float(self.evaluators[j](0.0))
        if self.derivs_at_zero is not None and j < len(self.derivs_at_zero):
            return float(self.derivs_at_zero[j])
        raise ValueError(f"derivative of order {j} unavailable for {self.label}")

    def max_order(self):
        """Highest derivative order available at the origin."""
        n = len(self.evaluators) - 1
        if self.derivs_at_zero is not None:
            n = max(n, len(self.derivs_at_zero) - 1)
        return n

    def derivative(self):
        """The derivative as a SmoothTestFn (needs full evaluators)."""
        if len(self.evaluators) < 2:
            raise ValueError("derivative evaluators unavailable")
        dz = None
        if self.derivs_at_zero is not None and len(self.derivs_at_zero) > 1:
            dz = self.derivs_at_zero[1:]
        return SmoothTestFn(self.evaluators[1:], dz, label=self.label + "'")

    # -- stock examples ----------------------------------------------------

    @classmethod
    def exp_decay(cls, lam=1.0):
        """f(x) = exp(-lam x)."""
        evs = [(lambda x, k=k: (-lam) ** k * np.exp(-lam * np.asarray(x, float)))
               for k in range(_STOCK_ORDERS)]
        return cls(evs, label=f"exp(-{lam:g}x)")

    @classmethod
    def gauss(cls):
        """f(x) = exp(-x^2)."""
        # Derivatives via Hermite polynomials: f^(k) = (-1)^k H_k(x) e^{-x^2}.
        def ev(k):
            def g(x, k=k):
                x = np.asarray(x, dtype=float)
                return (-1.0) ** k * special.eval_hermite(k, x) * np.exp(-x * x)
            return g
        return cls([ev(k) for k in range(_STOCK_ORDERS)], label="exp(-x^2)")

    @classmethod
    def poly_exp(cls):
        """f(x) = (1 + x) exp(-2x)."""
        # f^(k) = (-2)^k (1 + x - k/2) e^{-2x} by Leibniz.
        def ev(k):
            def g(x, k=k):
                x = np.asarray(x, dtype=float)
                return (-2.0) ** k * (1.0 + x - 0.5 * k) * np.exp(-2.0 * x)
            return g
        return cls([ev(k) for k in range(_STOCK_ORDERS)],
                   label="(1+x)exp(-2x)")


def taylor_remainder(f, n, x):
    """Taylor remainder ``T^n_x f = f(x) - sum_{j<=n} x^j f^(j)(0)/j!``.

    For ``n < 0`` this is just ``f(x)``.
    """
    if n > MAX_DERIV_ORDER:
        raise ValueError(f"remainder order limited to {MAX_DERIV_ORDER}")
    x = np.asarray(x, dtype=float)
    out = np.asarray(f(x), dtype=float).copy()
    for j in range(0, n + 1):
        out -= x**j * f.deriv_at_zero(j) / math.factorial(j)
    return out


def _quad(func, lo, hi, rtol, weight=None, wvar=None):
    kwargs = {"epsabs": 1e-13, "epsrel": rtol, "limit": 400}
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    val, err = integrate.quad(func, lo, hi, **kwargs)
    if err > max(1e-10, 10 * rtol * abs(val) + 1e-12):
        raise MuConvergenceError(
            f"quadrature error estimate {err:g} too large for value {val:g}")
    return val


def mu_pair(alpha, f, rtol=1e-11, cutoff=None):
    """The pairing ``<mu_alpha, f>`` for ``alpha`` in [-2.5, 5].

    ``f`` is a :class:`SmoothTestFn`; derivatives at the origin up to order
    ``ceil(-alpha)`` are required when ``alpha < 0``.
    """
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        raise ValueError(f"alpha={alpha} outside supported range "
                         f"[{ALPHA_MIN}, {ALPHA_MAX}]")
    nearest = round(alpha)
    if abs(alpha - nearest) < INTEGER_GUARD and nearest <= 0:
        k = -int(nearest)
        return (-1.0) ** k * f.deriv_at_zero(k)

    if cutoff is None:
        cutoff = decay_cutoff(f, 0.0, 60.0, rel=1e-18, probes=601)

    inv_gamma = special.rgamma(alpha)
    if alpha > 0:
        # On [0, 1] the algebraic factor x^(alpha-1) is handed to QUADPACK's
        # QAWS weight so near-integer alpha (x^(alpha-1) ~ 1/x) stays exact.
        def smooth(x):
            return float(f(x)) * inv_gamma

        def integrand(x):
            return float(f(x)) * x ** (alpha - 1.0) * inv_gamma

        return (_quad(smooth, 0.0, 1.0, rtol, weight="alg",
                      wvar=(alpha - 1.0, 0.0))
                + _quad(integrand, 1.0, cutoff, rtol))

    k = int(np.floor(-alpha))  # -k-1 < alpha < -k
    coeffs = [f.deriv_at_zero(j) / math.factorial(j) for j in range(k + 1)]

    # Near the origin the remainder f(x) - sum_{j<=k} c_j x^j cancels to
    # O(x^{k+1}) and direct subtraction loses all accuracy, so switch to the
    # tail of the Taylor series there when enough derivative data exists.
    n_tail = f.max_order()
    use_tail = n_tail >= k + 4
    if use_tail:
        tail = [f.deriv_at_zero(j) / math.factorial(j)
                for j in range(k + 1, n_tail + 1)]

    def remainder(x):
        if use_tail and x < _TAIL_SWITCH:
            return sum(c * x ** (k + 1 + i) for i, c in enumerate(tail))
        val = float(f(x))
        for j, c in enumerate(coeffs):
            val -= c * x**j
        return val

    def integrand(x):
        return remainder(x) * x ** (alpha - 1.0) * inv_gamma

    # On [0, 1] factor out the O(x^{k+1}) vanishing of the remainder and give
    # the resulting algebraic weight x^{alpha+k} (exponent in (-1, 0)) to
    # QAWS; this stays accurate arbitrarily close to integer alpha.
    def gsmooth(x):
        if use_tail and x < _TAIL_SWITCH:
            return sum(c * x**i for i, c in enumerate(tail)) * inv_gamma
        if x == 0.0:
            try:
                lead = f.deriv_at_zero(k + 1) / math.factorial(k + 1)
            except ValueError:
                lead = 0.0
            return lead * inv_gamma
        return remainder(x) / x ** (k + 1) * inv_gamma

    total = _quad(gsmooth, 0.0, 1.0, rtol, weight="alg",
                  wvar=(alpha + k, 0.0))
    total += _quad(integrand, 1.0, cutoff, rtol)
    # Beyond the cutoff f itself is negligible, but the subtracted monomials
    # decay only like powers; add their tail integrals in closed form
    # (int_c^inf x^{j+alpha-1} dx = -c^{j+alpha}/(j+alpha), j+alpha < 0).
    for j, c in enumerate(coeffs):
        total += c * cutoff ** (j + alpha) / ((j + alpha)) * inv_gamma
    return total
