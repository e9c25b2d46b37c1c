"""Vectorised composite Gauss-Legendre quadrature with panel doubling.

The inner integrals of the verification engine are smooth after the
substitutions applied at call sites, but their integrands are only cheap when
evaluated on whole arrays at once.  ``adaptive_gl`` therefore refines by
doubling the number of equal panels (each carrying a fixed-order rule) and
evaluates the integrand on the full node set in a single vectorised call per
refinement round.  Array ends ``a``, ``b`` are one interval per entry: the
integrand gets one row of nodes each, and all share one panel count, which
stops only when every entry passes its own tolerance test.  Every integrand
handed to it is smooth by construction, so it stops at the first
refinement that agrees with the one before it.

An algebraic end-point weight ``(x - a)^beta`` is integrated exactly: the
first panel carries the Gauss-Jacobi rule of that weight (Golub & Welsch,
Math. Comp. 23, 1969), plain Gauss-Legendre at ``beta = 0``, and the other
panels the weighted integrand under Gauss-Legendre.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

__all__ = ["QuadratureError", "fixed_gl", "adaptive_gl", "decay_cutoff"]

#: Gauss-Legendre order per panel, panel count of the first round, and the
#: number of doublings before ``adaptive_gl`` gives up.
GL_ORDER = 16
START_PANELS = 4
MAX_ROUNDS = 11

#: Points a row on which ``decay_cutoff`` probes ``f``, all in one call: the
#: bridge LHS's up to 256 rows of r-nodes take 25,600 points, below the Sigma
#: grids of the second quadrature round that follows (128 nodes a row).
PROBES = 100

#: Fraction of its peak below which ``decay_cutoff`` counts ``f`` as decayed.
DECAY_REL = 1e-22


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to reach the requested tolerance."""


@lru_cache(maxsize=None)
def _gj_nodes(beta):
    """Gauss-Jacobi rule for the weight ``(1 + x)^beta`` on [-1, 1] (Legendre
    at beta = 0): nodes from the Jacobi matrix of P_n^{(0, beta)} and two
    Newton steps (not ``special.roots_jacobi``, which imports
    ``scipy.linalg``), weights 2^{beta+1} / ((1 - x_i^2) P_n'(x_i)^2)."""
    if beta == 0.0:
        return np.polynomial.legendre.leggauss(GL_ORDER)
    k = np.arange(1, GL_ORDER, dtype=float)
    s = 2.0 * k + beta
    diag = np.r_[beta / (beta + 2.0), beta * beta / (s * (s + 2.0))]
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def dp(x):
        return 0.5 * (GL_ORDER + beta + 1.0) * special.eval_jacobi(
            GL_ORDER - 1, 1.0, beta + 1.0, x)

    for _ in range(2):
        x = x - special.eval_jacobi(GL_ORDER, 0.0, beta, x) / dp(x)
    return x, 2.0 ** (beta + 1.0) / ((1.0 - x * x) * dp(x) ** 2)


def _linspace(lo, hi, num):
    """``np.linspace(lo, hi, num, axis=-1)`` for scalar or array ends, by
    the same arithmetic at a fraction of its call overhead."""
    lo, hi = (np.asarray(v, dtype=float)[..., None] for v in (lo, hi))
    grid = np.arange(float(num)) * ((hi - lo) / (num - 1)) + lo
    grid[..., -1:] = hi
    return grid


def fixed_gl(f, a, b, panels, *, beta=0.0):
    """``panels`` equal panels of ``GL_ORDER`` nodes for ``int_a^b f(x)
    (x - a)^beta dx`` (beta > -1), the first by the Gauss-Jacobi rule of the
    weight (at one panel and beta = 1, ``core.hat_weights``' rising hat
    times b - a).  Array ends give one integral per entry."""
    x, w = _gj_nodes(0.0)
    xj, wj = _gj_nodes(beta)
    edges = _linspace(a, b, panels + 1)
    a = edges[..., :1]
    half = 0.5 * (edges[..., 1] - edges[..., 0])[..., None, None]
    nodes = 0.5 * (edges[..., :-1, None] + edges[..., 1:, None]) + half * x
    nodes[..., 0, :] = a + half[..., 0] * (1.0 + xj)
    vals = np.asarray(f(nodes.reshape(*nodes.shape[:-2], -1)),
                      dtype=float).reshape(nodes.shape)
    sums = (vals * (nodes - a[..., None]) ** beta) @ w
    sums[..., 0] = half[..., 0, 0] ** beta * (vals[..., 0, :] @ wj)
    return (half[..., 0, 0] * np.sum(sums, axis=-1))[()]


def adaptive_gl(f, a, b, rtol=1e-10, atol=1e-14, beta=0.0):
    """Integrate vectorised ``f`` over [a, b] (0 if b <= a) by panel-doubling
    composite GL, against the weight ``(x - a)^beta``; ``atol`` may be an
    array of the ends' shape.

    Returns the first refinement that agrees with the one before it to
    within the tolerance in every entry.
    """
    b = np.maximum(a, b)
    panels = START_PANELS
    prev = fixed_gl(f, a, b, panels, beta=beta)
    for _ in range(MAX_ROUNDS):
        panels *= 2
        cur = fixed_gl(f, a, b, panels, beta=beta)
        step, tol = np.abs(cur - prev), np.maximum(atol, rtol * np.abs(cur))
        ok = step <= tol
        if np.all(ok):
            return cur
        prev = cur
    # name the failing count and the row whose last step missed by most
    miss = np.where(ok, 0.0, np.nan_to_num(step / tol, nan=np.inf))
    i = np.unravel_index(np.argmax(miss), ok.shape)
    lo, hi = (np.broadcast_to(v, ok.shape)[i] for v in (a, b))
    raise QuadratureError(
        f"{np.count_nonzero(~ok)} of {ok.size} integrals did not converge; "
        f"the worst, over [{lo:.6g}, {hi:.6g}], last read {float(cur[i])!r}")


def decay_cutoff(f, lo, hi):
    """Find ``B <= hi`` past which ``|f|`` has decayed below ``DECAY_REL``
    times its maximum, from one evaluation of ``f`` on a uniform grid of
    ``PROBES`` points (one row per entry of array ends), to truncate a
    semi-infinite integral on a linear range or to check a stated window.
    ``B`` is a probe point, two past the last probe above the threshold
    (the first past ``lo`` if none is) or ``hi``, which means ``f`` has not
    decayed inside the window that every caller states on its function's
    own scale (nor has a row holding a NaN)."""
    grid = _linspace(lo, hi, PROBES)
    vals = np.abs(f(grid))
    above = ~(vals <= DECAY_REL * vals.max(axis=-1, keepdims=True))
    last = np.max(np.where(above, np.arange(PROBES), -1), axis=-1)
    idx = np.minimum(last + 2, PROBES - 1)
    return np.take_along_axis(grid, idx[..., None], axis=-1)[..., 0][()]
