"""Sturm-Liouville transform of a finite measure on [0, 1].

Given a finite non-negative measure ``m``, this module computes the unique
function ``phi`` with

    phi'' = 2 phi m   on (0, infinity),   phi(0) = 1,
    phi > 0,  phi' <= 0,  phi constant on [1, infinity),

(so ``phi'(1) = 0``), together with the time change

    rho_r = int_0^r phi_u^(-2) du.

Because the ODE is linear, no shooting is required: sweep backwards from
``phi~(1) = 1, phi~'(1) = 0`` (positivity is automatic: the solution is >= 1
and decreasing in the backward direction since m >= 0) and normalise by
``phi~(0)``.  Atoms of ``m`` at ``t`` produce slope jumps
``phi'(t+) - phi'(t-) = 2 w phi(t)``; an atom at ``t = 0`` only affects the
reported boundary slope ``phi'(0)`` (taken as the limit from the left), which
is exactly what the Laplace-transform normalisation constant requires.

No ODE solver and no quadrature run here.  Every interval on which the
density ``p`` is one polynomial is cut into sub-pieces of length
``h <= 1/sqrt(2 max p)``, and each sub-piece carries two Taylor series whose
coefficients follow from ``(n+2)(n+1) a_{n+2} = 2 sum_j p_j a_{n-j}``, with
``p_j`` the coefficients of ``h^2 p`` in the series' variable:

* ``phi`` about the sub-piece's right end, in ``(hi - r) / h``, seeded with
  the sweep's ``(phi~, -phi~')``.  The sweep runs in the direction in which
  ``phi~`` grows; on constant densities every term of the series of ``phi``
  and of ``phi'`` then has one sign, and Horner's rule sums them without
  cancellation.  Expanding about the left end instead gives
  ``phi_lo cosh(w (r - lo)) + (phi'_lo / w) sinh(w (r - lo))``, two nearly
  equal terms of opposite sign: on a Lebesgue density ``theta^2 / 2`` that loses every digit
  by ``theta = 20``.
* ``psi`` about its left end, in ``(r - lo) / h``, with ``psi(lo) = 0`` and
  ``psi'(lo) = 1``.  The Wronskian ``phi psi' - phi' psi = phi(lo)`` is
  constant (Abel's identity), so
  ``rho(r) = rho(lo) + psi(r) / (phi(lo) phi(r))`` on every sub-piece.

Since ``2 p h^2 <= 1``, the n-th coefficient in these scaled variables is at
most about ``1/n!`` of the leading ones, so the series are cut at degree 28,
and no coefficient overflows before ``phi~`` itself does.

Range: ``phi(1) = 1/phi~(0)``, so ``phi(1)`` underflows exactly when the
sweep overflows, and no rescaling brings such a measure into float64.
:func:`solve_sl` raises ``OverflowError`` when ``phi~(0)`` or ``rho(1)`` is
not a finite double; for a Lebesgue density ``theta^2 / 2`` that happens past
``theta ~ 355``.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from numpy.polynomial.polynomial import polyadd

__all__ = ["SLSolution", "solve_sl"]

#: Degree of the Taylor series carried on each sub-piece.
_DEGREE = 28
_N = _DEGREE + 1

# A sub-piece's column of the solution table: its ends, rho at its left end,
# 1/phi at its left end, then the coefficients of phi and phi' in
# (hi - r) / (hi - lo) and of psi in (r - lo) / (hi - lo).
_LO, _HI, _RHO_LO, _INV_PHI_LO = range(4)
_PHI = slice(4, 4 + _N)
_DPHI = slice(4 + _N, 4 + 2 * _N)
_PSI = slice(4 + 2 * _N, 4 + 3 * _N)


def _horner(coeffs, x):
    """``sum_n coeffs[n] x^n``; the coefficients are floats, or arrays that
    broadcast with ``x``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _taylor(c, x0, s, y0, dy0):
    """Taylor coefficients in ``t``, up to degree ``_DEGREE``, of
    ``y(x0 + s t)``, where ``y'' = 2 c(r) y``, ``y(x0) = y0`` and
    ``y'(x0) = dy0``; ``c`` holds the density's ascending coefficients."""
    # s^2 c(x0 + s t) in powers of t: the density seen by d^2/dt^2
    q = [s ** (k + 2) * sum(math.comb(j, k) * c[j] * x0 ** (j - k)
                            for j in range(k, len(c)))
         for k in range(len(c))]
    a = [y0, s * dy0]
    for n in range(_DEGREE - 1):
        acc = sum(qj * a[n - j] for j, qj in enumerate(q[:n + 1]))
        a.append(2.0 * acc / ((n + 2) * (n + 1)))
    return a


def _range_error(name, value):
    return OverflowError(
        f"{name} = {value!r} is beyond the double range (largest finite "
        f"double {sys.float_info.max:.4g}): the measure is too heavy to "
        f"solve in float64")


class SLSolution:
    """Solution ``phi`` of the transform together with its time change.

    ``phi``, ``dphi`` and ``rho`` take a scalar ``r``, returning a NumPy
    float, or an array, returning an array of its shape; a scalar runs the
    array code as a 0-d array.  They are defined on [0, 1] only: an ``r``
    outside it, or NaN, raises ``ValueError``.
    """

    def __init__(self, table, atom_at_0):
        self._table = table
        self._cut = table[_LO, 1:]
        # Horner stops at the highest order that is nonzero on any sub-piece
        # (exact zeros add nothing): order 1 on zero-density measures.
        used = np.any(table[_PHI.start:].reshape(3, _N, -1) != 0.0,
                      axis=(0, 2))
        top = int(np.flatnonzero(used)[-1]) + 1
        self._phi, self._dphi, self._psi = (slice(s.start, s.start + top)
                                            for s in (_PHI, _DPHI, _PSI))
        self.phi1 = self.phi(1.0)
        self.rho1 = self.rho(1.0)
        # Boundary slope phi'(0-): the jump of an atom at 0 (phi(0) = 1).
        self.phi_prime0 = self.dphi(0.0) - 2.0 * atom_at_0

    def _piece(self, r):
        """``r`` as an array and the table columns of the sub-pieces holding
        it (the right one at an edge), one per entry of ``r``.  An ``r``
        outside [0, 1], where the table ends, is a ``ValueError``."""
        r = np.asarray(r, dtype=float)
        if r.size and not (0.0 <= r.min() and r.max() <= 1.0):
            raise ValueError(f"r spans [{r.min():g}, {r.max():g}], outside "
                             f"[0, 1]")
        return r, self._table[:, self._cut.searchsorted(r, side="right")]

    def phi(self, r):
        r, c = self._piece(r)
        return _horner(c[self._phi], (c[_HI] - r) / (c[_HI] - c[_LO]))

    def dphi(self, r):
        """Right-hand derivative phi'(r+) (limits at atoms from the right)."""
        r, c = self._piece(r)
        return _horner(c[self._dphi], (c[_HI] - r) / (c[_HI] - c[_LO]))

    def rho(self, r):
        r, c = self._piece(r)
        h = c[_HI] - c[_LO]
        psi = _horner(c[self._psi], (r - c[_LO]) / h)
        return c[_RHO_LO] + psi * c[_INV_PHI_LO] / _horner(c[self._phi],
                                                          (c[_HI] - r) / h)


def solve_sl(m):
    """Solve the transform for a :class:`FiniteMeasure`; returns SLSolution.

    Raises ``OverflowError`` when ``phi~(0)`` or ``rho(1)`` is not a finite
    double.
    """
    edges = m.breakpoints()
    atom_weight = {}
    for t, w in m.atoms:
        atom_weight[t] = atom_weight.get(t, 0.0) + w

    # Backward sweep: (phi~, phi~') at the right end of each sub-piece.
    phi, dphi = 1.0, 0.0
    columns = []
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        dphi -= 2.0 * atom_weight.get(hi, 0.0) * phi
        # Density on (lo, hi): the sum of the pieces covering it.
        mid = 0.5 * (lo + hi)
        p = [0.0]
        for p_lo, p_hi, c in m.pieces:
            if p_lo <= mid <= p_hi:
                p = polyadd(p, c).tolist()
        # sum_j |p_j| hi^j bounds p on [lo, hi], a part of [0, 1].
        top = sum(abs(pj) * hi**j for j, pj in enumerate(p))
        count = max(1, math.ceil((hi - lo) * math.sqrt(2.0 * top)))
        grid = np.linspace(lo, hi, count + 1).tolist()
        for a, b in zip(grid[-2::-1], grid[:0:-1]):
            phi_c = _taylor(p, b, a - b, phi, dphi)
            dphi_c = [(n + 1) * phi_c[n + 1] / (a - b)
                      for n in range(_DEGREE)] + [0.0]
            psi_c = _taylor(p, a, b - a, 0.0, 1.0)
            columns.append([a, b, 0.0, 0.0] + phi_c + dphi_c + psi_c)
            phi, dphi = _horner(phi_c, 1.0), _horner(dphi_c, 1.0)
            if not math.isfinite(phi):  # phi~ grows leftwards: so does phi~(0)
                raise _range_error(f"phi~({a})", phi)

    table = np.array(columns[::-1]).T
    table[_PHI] /= phi
    table[_DPHI] /= phi
    with np.errstate(over="ignore"):  # an infinite rho(1) is raised below
        table[_INV_PHI_LO] = 1.0 / _horner(table[_PHI], 1.0)
        # rho(hi) - rho(lo) = psi(hi) / (phi(lo) phi(hi)) on each sub-piece
        inc = _horner(table[_PSI], 1.0) * table[_INV_PHI_LO] / table[_PHI][0]
        table[_RHO_LO, 1:] = np.cumsum(inc[:-1])
    sol = SLSolution(table, atom_weight.get(0.0, 0.0))
    if not math.isfinite(sol.rho1):
        raise _range_error("rho(1)", sol.rho1)
    return sol
