"""The one-parameter family of finite-part distributions mu_alpha on [0, inf).

For alpha > 0, mu_alpha has density x^(alpha-1)/Gamma(alpha).  The family
extends to all real alpha by

* alpha = 0:       mu_0 = delta_0 (unit mass at the origin);
* alpha = -k:      <mu_alpha, f> = (-1)^k f^(k)(0)  for integer k >= 1;
* -k-1 < alpha < -k:
      <mu_alpha, f> = int_0^inf (T^k_x f) x^(alpha-1)/Gamma(alpha) dx,
  where T^n_x f = f(x) - sum_{j<=n} x^j f^(j)(0)/j! is the Taylor remainder.

``finite_part(alpha, f)`` is the Gamma-free pairing Gamma(alpha) <mu_alpha,
f> = int_0^inf (T^k_x f) x^(alpha-1) dx, the finite part of int_0^inf f(x)
x^(alpha-1) dx, and ``mu_pair`` is its normalised wrapper: the point pairing
at an integer alpha <= 0, and 1/Gamma(alpha) times finite_part elsewhere.
At an integer alpha = -n the Gamma-free pairing is finite only when f's
Taylor coefficient c_n = f^(n)(0)/n! is 0, and then the Taylor remainders of
orders n - 1 and n agree: finite_part takes k = n and leaves out the c_n
tail term, which is 0/0; for c_n != 0 it raises ``ValueError``.

Every non-integer alpha is evaluated by one rule, with k = -1 (nothing
subtracted) for alpha > 0.  On [0, 1] one more Taylor term is subtracted, so
that the integrand is (T^{k+1}_x f)/x^{k+2}, smooth, against the weight
x^(alpha+k+1); its exponent lies in (0, 1] for alpha < 1, and the weight is
integrated exactly by a Gauss-Jacobi end panel.  The extra term
f^(k+1)(0)/(k+1)! x^(k+1) is added back in closed form.  On [1, inf) every
subtracted monomial is individually integrable at infinity
(j + alpha - 1 < -1 for j <= k): the remainder is integrated by adaptive
Gauss-Legendre in u = log x, where a slow decay takes few panels, up to
the window ``SmoothTestFn.window`` that f states (or 1), and the monomials'
tails beyond it in closed form.  One call of ``decay_cutoff``, 100 probes
on that window, checks that f has decayed inside it.

Key identities satisfied by the family (and exercised by the test-suite):

    <mu_alpha, f'>        = -<mu_{alpha-1}, f>
    <mu_alpha(x), x f(x)> = alpha <mu_{alpha+1}, f>
    <mu_alpha, e^{-lam .}> = lam^(-alpha)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .quadrature import QuadratureError, adaptive_gl, decay_cutoff

__all__ = ["SmoothTestFn", "finite_part", "mu_pair", "taylor_rule",
           "MuConvergenceError"]

#: Distance to the nearest integer below which alpha is treated as integral.
INTEGER_GUARD = 1e-12

#: Supported range of the parameter.
ALPHA_MIN, ALPHA_MAX = -2.5, 5.0

#: Number of Taylor coefficients of the stock functions (orders 0 .. 8).
_STOCK_ORDERS = 9

#: Largest point below which the Taylor remainder is evaluated by its tail
#: series (direct subtraction loses all significant digits as x -> 0).
_TAIL_SWITCH = 0.05

#: The switch halves while the last retained Taylor term there exceeds this
#: fraction of the subtracted head.  That term overstates the truncation
#: error, so the bound sits above the head's rounding level: against closed
#: forms, 1e-13 is 10x more accurate than 1e-16 on the stock functions near
#: alpha = -2.5, and as accurate on the finite-part zeta''.
_SWITCH_REL = 1e-13


class MuConvergenceError(RuntimeError):
    """Raised when the defining quadrature fails to converge."""


@dataclass
class SmoothTestFn:
    """A smooth rapidly-decaying test function with its Taylor coefficients
    at 0, or a row of such functions.

    ``f`` is a vectorised evaluator and ``taylor[..., j] = f^(j)(0)/j!``;
    :func:`mu_pair` reads orders up to ``max(ceil(-alpha), 0) + 3`` (the
    stock examples carry orders 0 to 8).  Leading axes of ``taylor`` make a
    row of functions, rows x orders, evaluated on (rows, x) grids.
    ``window`` is a window [0, window] inside which f has decayed below
    1e-22 of its peak, a float or one per row: the pairing integrates to
    it, after one probe of f's decay there, and a row that has not decayed
    inside it raises :class:`MuConvergenceError`.
    """

    f: object
    taylor: np.ndarray
    label: str = "f"
    window: object = 60.0

    def __post_init__(self):
        self.taylor = np.asarray(self.taylor, dtype=float)
        if not self.taylor.size:
            raise ValueError(f"{self.label} needs Taylor coefficients at 0")

    def __call__(self, x):
        return self.f(x)

    # -- stock examples ----------------------------------------------------

    @classmethod
    def exp_decay(cls, lam=1.0):
        """f(x) = exp(-lam x), with c_k = (-lam)^k / k!, decayed to e^-60
        by its window 60 / min(lam, 1)."""
        if not lam > 0.0:
            raise ValueError(f"exp(-lam x) decays only for lam > 0, got {lam}")
        return cls(lambda x: np.exp(-lam * np.asarray(x, float)),
                   [(-lam) ** k / math.factorial(k)
                    for k in range(_STOCK_ORDERS)],
                   label=f"exp(-{lam:g}x)", window=60.0 / min(lam, 1.0))

    @classmethod
    def gauss(cls):
        """f(x) = exp(-x^2), with c_{2j} = (-1)^j / j! and odd orders 0."""
        taylor = np.zeros(_STOCK_ORDERS)
        taylor[::2] = [(-1.0) ** j / math.factorial(j)
                       for j in range(len(taylor[::2]))]
        return cls(lambda x: np.exp(-np.asarray(x, float) ** 2), taylor,
                   label="exp(-x^2)")

    @classmethod
    def poly_exp(cls):
        """f(x) = (1 + x) exp(-2x), with c_k = (-2)^k (1 - k/2) / k!."""
        def f(x):
            x = np.asarray(x, dtype=float)
            return (1.0 + x) * np.exp(-2.0 * x)
        return cls(f, [(-2.0) ** k * (1.0 - 0.5 * k) / math.factorial(k)
                       for k in range(_STOCK_ORDERS)],
                   label="(1+x)exp(-2x)")


def taylor_rule(alpha):
    """``(k, True)`` if mu_alpha is the point pairing ``(-1)^k f^(k)(0)``
    (alpha = -k <= 0 to within INTEGER_GUARD), else ``(k, False)``: mu_alpha
    subtracts f's Taylor orders 0 .. k, k = max(floor(-alpha), -1)."""
    nearest = round(alpha)
    if abs(alpha - nearest) < INTEGER_GUARD and nearest <= 0:
        return -int(nearest), True
    return max(math.floor(-alpha), -1), False


def _coefficients(alpha, f, extra):
    """``(c, k, point)``: f's Taylor coefficients, orders first, and
    ``taylor_rule(alpha)``, once alpha is in range and c reaches order
    ``k + extra``."""
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        raise ValueError(f"alpha={alpha} outside supported range "
                         f"[{ALPHA_MIN}, {ALPHA_MAX}]")
    c = np.moveaxis(f.taylor, -1, 0)  # (orders,) or (orders, rows)
    k, point = taylor_rule(alpha)
    if len(c) - 1 < k + extra:
        raise ValueError(f"mu_{alpha:g} needs derivatives of {f.label} at 0 "
                         f"up to order {k + extra}, have {len(c) - 1}")
    return c, k, point


def mu_pair(alpha, f):
    """The pairing ``<mu_alpha, f>`` for ``alpha`` in [-2.5, 5].

    ``f`` is a :class:`SmoothTestFn` whose Taylor coefficients at the origin
    reach order ``max(ceil(-alpha), 0) + 3`` (non-integer ``alpha``) or
    ``-alpha`` (integer ``alpha <= 0``).  A row of functions gives one
    pairing per row, from one row-batched quadrature.  Away from the point
    pairings this is ``finite_part(alpha, f) / Gamma(alpha)``.
    """
    c, k, point = _coefficients(alpha, f, 0)
    if not point:
        return finite_part(alpha, f) * special.rgamma(alpha)
    # + 0.0: a vanishing odd-order coefficient reads 0.0, not -0.0
    return (-1.0) ** k * math.factorial(k) * c[k] + 0.0


def finite_part(alpha, f):
    """``Gamma(alpha) <mu_alpha, f>``, :func:`mu_pair` without its
    ``1/Gamma(alpha)``: f's Taylor coefficients must reach order ``k + 4``
    (``k`` of :func:`taylor_rule`), and at an integer ``alpha = -n <= 0``
    every row's ``c_n`` must be 0 (``ValueError`` otherwise)."""
    c, k, point = _coefficients(alpha, f, 4)
    n = len(c) - 1
    if point and np.any(c[k] != 0.0):
        raise ValueError(f"Gamma(alpha) mu_alpha has a pole at alpha = "
                         f"{alpha:g} for {f.label}: its order-{k} Taylor "
                         f"coefficient is not 0")

    rows = c.shape[1:]
    # highest power first, one column per row for the (rows, x) grids
    head, tail = c[k + 1::-1, ..., None], c[:k + 1:-1, ..., None]
    beta = alpha + (k + 1)  # exact for k = -1 and small alpha

    # Below the switch, (f - P_{k+1}) / x^{k+2} comes from the tail of the
    # Taylor series: direct subtraction cancels there.  The switch moves in
    # until the tail's last term is small against the head.
    switch = np.full(rows, _TAIL_SWITCH)
    while (big := np.abs(c[n]) * switch**n > _SWITCH_REL * np.polyval(
            np.abs(c[k + 1::-1]), switch)).any():
        switch = np.where(big, 0.5 * switch, switch)

    def near(x):
        out = (f(x) - np.polyval(head, x)) / x ** (k + 2)
        below = x < switch[..., None]
        out[below] = np.polyval(np.broadcast_to(
            tail, tail.shape[:1] + x.shape)[:, below], x[below])
        return out

    def far(u):
        x = np.exp(u)
        return (f(x) - np.polyval(head[1:], x)) * np.exp(alpha * u)

    # f states a window inside which it has decayed; one probe checks it.
    # The far piece runs in u = log x to the window, or to 1 below that.
    window = np.full(rows, f.window, dtype=float)
    if (stuck := decay_cutoff(f, 0.0, window) >= window).any():
        raise MuConvergenceError(f"{f.label} has not decayed below 1e-22 of "
                                 f"its peak by x = {window[stuck].max():g}")
    top = np.maximum(window, 1.0)
    try:
        # [0, 1]: int (f - P_{k+1}) x^{alpha-1} on the Gauss-Jacobi panel of
        # x^beta, beta in (0, 1] for alpha < 1, plus the c_{k+1} term.
        total = c[k + 1] / beta + adaptive_gl(
            near, np.zeros(rows), np.ones(rows), rtol=1e-11, atol=1e-13,
            beta=beta)
        total += adaptive_gl(far, 0.0, np.log(top), rtol=1e-11, atol=1e-13)
    except QuadratureError as exc:
        raise MuConvergenceError(str(exc)) from exc
    # Beyond the window f itself is negligible, but the subtracted monomials
    # decay only like powers; add their tail integrals in closed form
    # (int_c^inf x^{j+alpha-1} dx = -c^{j+alpha}/(j+alpha), j+alpha < 0).
    # At alpha = -k the c_k term is 0/0 and is left out: c_k = 0.
    for j in range(k if point else k + 1):
        total += c[j] * top ** (j + alpha) / (j + alpha)
    return total
