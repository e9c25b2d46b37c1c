"""Vectorised composite Gauss-Legendre quadrature with panel doubling.

The inner integrals of the verification engine are smooth after the
substitutions applied at call sites, but their integrands are only cheap when
evaluated on whole arrays at once.  ``adaptive_gl`` therefore refines by
doubling the number of equal panels (each carrying a fixed-order rule) and
evaluates the integrand on the full node set in a single vectorised call per
refinement round.  Convergence requires two consecutive agreements to guard
against accidental coincidences on under-resolved grids.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def fixed_gl(f, a, b, panels, order):
    """Composite Gauss-Legendre rule with ``panels`` equal panels."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=float).reshape(panels, order)
    return half * float(np.sum(vals @ w))


def adaptive_gl(f, a, b, rtol=1e-10, atol=1e-14, confirm=2):
    """Integrate vectorised ``f`` over [a, b] by panel-doubling composite GL.

    Stops once ``confirm`` consecutive refinements agree to within the
    tolerance (``confirm=1`` trades the coincidence guard for speed on
    integrands known to be smooth).
    """
    if b <= a:
        return 0.0
    panels = START_PANELS
    prev = fixed_gl(f, a, b, panels, GL_ORDER)
    agreed = 0
    for _ in range(MAX_ROUNDS):
        panels *= 2
        cur = fixed_gl(f, a, b, panels, GL_ORDER)
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
