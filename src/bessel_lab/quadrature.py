"""Vectorised composite Gauss-Legendre quadrature with panel doubling.

The inner integrals of the verification engine are smooth after the
substitutions applied at call sites, but their integrands are only cheap when
evaluated on whole arrays at once.  ``adaptive_gl`` therefore refines by
doubling the number of equal panels (each carrying a fixed-order rule) and
evaluates the integrand on the full node set in a single vectorised call per
refinement round.  Convergence requires two consecutive agreements to guard
against accidental coincidences on under-resolved grids.

An algebraic end-point weight ``(x - a)^beta`` is integrated exactly: with
``beta`` set, the first panel carries the Gauss-Jacobi rule of that weight
(Golub & Welsch, Math. Comp. 23, 1969) and the other panels the weighted
integrand under Gauss-Legendre.
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


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to reach the requested tolerance."""


@lru_cache(maxsize=None)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=None)
def _gj_nodes(order, beta):
    """Gauss-Jacobi rule for the weight ``(1 + x)^beta`` on [-1, 1]: nodes
    from the Jacobi matrix of P_n^{(0, beta)} and two Newton steps (not
    ``special.roots_jacobi``, which imports ``scipy.linalg``), weights
    2^{beta+1} / ((1 - x_i^2) P_n'(x_i)^2) at the nodes."""
    k = np.arange(1, order, dtype=float)
    s = 2.0 * k + beta
    diag = np.r_[beta / (beta + 2.0), beta * beta / (s * (s + 2.0))]
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def dp(x):
        return 0.5 * (order + beta + 1.0) * special.eval_jacobi(
            order - 1, 1.0, beta + 1.0, x)

    for _ in range(2):
        x = x - special.eval_jacobi(order, 0.0, beta, x) / dp(x)
    return x, 2.0 ** (beta + 1.0) / ((1.0 - x * x) * dp(x) ** 2)


def fixed_gl(f, a, b, panels, order, beta=None):
    """Composite Gauss-Legendre rule with ``panels`` equal panels.

    With ``beta`` (> -1) it integrates ``f(x) (x - a)^beta``, the first
    panel by the Gauss-Jacobi rule of that weight.
    """
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = mid[:, None] + half * x[None, :]
    if beta is None:
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(panels, order)
        return half * float(np.sum(vals @ w))
    xj, wj = _gj_nodes(order, beta)
    nodes[0] = a + half * (1.0 + xj)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(panels, order)
    rest = vals[1:] * (nodes[1:] - a) ** beta
    return half * (half**beta * float(vals[0] @ wj) + float(np.sum(rest @ w)))


def adaptive_gl(f, a, b, rtol=1e-10, atol=1e-14, confirm=2, beta=None):
    """Integrate vectorised ``f`` over [a, b] by panel-doubling composite GL,
    against the weight ``(x - a)^beta`` when ``beta`` is given.

    Stops once ``confirm`` consecutive refinements agree to within the
    tolerance (``confirm=1`` trades the coincidence guard for speed on
    integrands known to be smooth).
    """
    if b <= a:
        return 0.0
    panels = START_PANELS
    prev = fixed_gl(f, a, b, panels, GL_ORDER, beta)
    agreed = 0
    for _ in range(MAX_ROUNDS):
        panels *= 2
        cur = fixed_gl(f, a, b, panels, GL_ORDER, beta)
        if abs(cur - prev) <= max(atol, rtol * abs(cur)):
            agreed += 1
            if agreed >= confirm:
                return cur
        else:
            agreed = 0
        prev = cur
    if agreed >= 1:
        return prev
    raise QuadratureError(
        f"integral over [{a}, {b}] did not converge (last value {prev!r})")


def decay_cutoff(f, lo, hi, rel=1e-22, probes=400):
    """Find ``B <= hi`` past which ``|f|`` has decayed below ``rel`` times its
    maximum, by probing on a uniform grid.  Used to truncate rapidly decaying
    semi-infinite integrals before handing them to ``adaptive_gl``."""
    grid = np.linspace(lo, hi, probes)
    vals = np.abs(np.asarray(f(grid), dtype=float))
    peak = float(vals.max())
    if peak == 0.0:
        return lo + (hi - lo) / probes
    keep = np.nonzero(vals > rel * peak)[0]
    idx = min(int(keep[-1]) + 2, probes - 1)
    return float(grid[idx])
