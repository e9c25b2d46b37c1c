"""Sturm-Liouville transform of a finite measure on [0, 1].

Given a finite non-negative measure ``m``, this module computes the unique
function ``phi`` with

    phi'' = 2 phi m   on (0, infinity),   phi(0) = 1,
    phi > 0,  phi' <= 0,  phi constant on [1, infinity),

(so ``phi'(1) = 0``), together with the time change

    rho_r = int_0^r phi_u^(-2) du.

Because the ODE is linear, no shooting is required: integrate backwards from
``phi~(1) = 1, phi~'(1) = 0`` (positivity is automatic: the solution is >= 1
and decreasing in the backward direction since m >= 0) and normalise by
``phi~(0)``.  Atoms of ``m`` at ``t`` produce slope jumps
``phi'(t+) - phi'(t-) = 2 w phi(t)``; an atom at ``t = 0`` only affects the
reported boundary slope ``phi'(0)`` (taken as the limit from the left), which
is exactly what the Laplace-transform normalisation constant requires.

On intervals where the density of ``m`` is constant the solution is a
hyperbolic (or linear) closed form; general polynomial densities fall back to
a high-accuracy ODE integration.  The time change uses the Wronskian
identity: if ``psi`` solves the same ODE with ``psi(lo) = 0, psi'(lo) = 1``
then ``int_lo^r phi^(-2) = psi(r) / (phi(lo) phi(r))``, which on
constant-density pieces gives ``psi`` in closed form as ``sinh(omega u)/omega``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .quadrature import adaptive_gl

__all__ = ["SLSolution", "solve_sl"]

_ODE_TOL = 1e-12


@dataclass
class _Piece:
    """Solution on one sub-interval, anchored at its left end."""

    lo: float
    hi: float
    phi_lo: float
    dphi_lo: float
    omega: float = 0.0        # constant-density pieces: phi'' = omega^2 phi
    interp: object = None     # dense output for non-constant densities
    dinterp: object = None
    rho_lo: float = 0.0       # accumulated rho at the left end

    def phi(self, r):
        u = np.asarray(r, dtype=float) - self.lo
        if self.interp is not None:
            return np.asarray(self.interp(np.asarray(r, dtype=float)))
        if self.omega == 0.0:
            return self.phi_lo + self.dphi_lo * u
        w = self.omega
        return self.phi_lo * np.cosh(w * u) + (self.dphi_lo / w) * np.sinh(w * u)

    def dphi(self, r):
        u = np.asarray(r, dtype=float) - self.lo
        if self.interp is not None:
            return np.asarray(self.dinterp(np.asarray(r, dtype=float)))
        if self.omega == 0.0:
            return self.dphi_lo * np.ones_like(u)
        w = self.omega
        return (self.phi_lo * w * np.sinh(w * u)
                + self.dphi_lo * np.cosh(w * u))

    def rho_inc(self, r):
        """int_lo^r phi^(-2) du for scalar r in [lo, hi]."""
        if self.interp is not None:
            return adaptive_gl(lambda s: 1.0 / self.phi(s) ** 2, self.lo, r,
                               rtol=1e-12, atol=1e-15)
        u = r - self.lo
        psi = u if self.omega == 0.0 else math.sinh(self.omega * u) / self.omega
        return psi / (self.phi_lo * float(self.phi(r)))


class SLSolution:
    """Solution ``phi`` of the transform together with its time change."""

    def __init__(self, pieces, measure):
        self.pieces = pieces
        self.measure = measure
        self._edges = [p.lo for p in pieces]
        self.phi1 = float(pieces[-1].phi(1.0))
        self.rho1 = self.rho(1.0)
        # Boundary slope, including the jump of any atom sitting at 0.
        slope = float(pieces[0].dphi_lo)
        for t, w in measure.atoms:
            if t == 0.0:
                slope -= 2.0 * w * float(pieces[0].phi_lo)
        self.phi_prime0 = slope

    def _locate(self, r):
        idx = bisect_right(self._edges, r) - 1
        return self.pieces[max(0, min(idx, len(self.pieces) - 1))]

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return float(self._locate(float(r)).phi(float(r)))
        return np.array([float(self._locate(x).phi(x)) for x in r.ravel()]
                        ).reshape(r.shape)

    def dphi(self, r):
        """Right-hand derivative phi'(r+) (limits at atoms from the right)."""
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            return float(self._locate(float(r)).dphi(float(r)))
        return np.array([float(self._locate(x).dphi(x)) for x in r.ravel()]
                        ).reshape(r.shape)

    def rho(self, r):
        r = np.asarray(r, dtype=float)

        def one(x):
            p = self._locate(x)
            return p.rho_lo + p.rho_inc(x)

        if r.ndim == 0:
            return one(float(r))
        return np.array([one(x) for x in r.ravel()]).reshape(r.shape)


def _advance_backward(density_coeffs, lo, hi, phi_hi, dphi_hi):
    """Propagate (phi, phi') from hi to lo through phi'' = 2 density phi.

    Returns (phi_lo, dphi_lo, omega, interp, dinterp).
    """
    length = hi - lo
    coeffs = list(density_coeffs)
    if len(coeffs) <= 1:
        c = coeffs[0] if coeffs else 0.0
        if c == 0.0:
            return phi_hi - dphi_hi * length, dphi_hi, 0.0, None, None
        w = math.sqrt(2.0 * c)
        ch, sh = math.cosh(w * length), math.sinh(w * length)
        phi_lo = phi_hi * ch - (dphi_hi / w) * sh
        dphi_lo = -phi_hi * w * sh + dphi_hi * ch
        return phi_lo, dphi_lo, w, None, None

    def rhs(r, state):
        dens = np.polynomial.polynomial.polyval(r, coeffs)
        return [state[1], 2.0 * dens * state[0]]

    sol = integrate.solve_ivp(rhs, (hi, lo), [phi_hi, dphi_hi],
                              rtol=_ODE_TOL, atol=_ODE_TOL,
                              dense_output=True, method="DOP853")
    if not sol.success:
        raise RuntimeError(f"ODE integration failed on [{lo}, {hi}]: {sol.message}")
    phi_lo, dphi_lo = sol.y[0, -1], sol.y[1, -1]

    dense = sol.sol

    def interp(r):
        return dense(np.asarray(r, dtype=float))[0]

    def dinterp(r):
        return dense(np.asarray(r, dtype=float))[1]

    return float(phi_lo), float(dphi_lo), 0.0, interp, dinterp


def solve_sl(m):
    """Solve the transform for a :class:`FiniteMeasure`; returns SLSolution."""
    edges = m.breakpoints()
    atom_weight = {}
    for t, w in m.atoms:
        atom_weight[t] = atom_weight.get(t, 0.0) + w

    # Backward sweep: state (phi~, phi~') at the right end of each interval.
    phi, dphi = 1.0, 0.0
    raw = []  # (lo, hi, phi_lo, dphi_lo, omega, interp, dinterp)
    for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
        if hi in atom_weight:
            dphi = dphi - 2.0 * atom_weight[hi] * phi
        # Density restricted to (lo, hi): sum of pieces covering it.
        mid = 0.5 * (lo + hi)
        coeffs = [0.0]
        for plo, phi_, pcoeffs in m.pieces:
            if plo <= mid <= phi_:
                n = max(len(coeffs), len(pcoeffs))
                coeffs = [
                    (coeffs[i] if i < len(coeffs) else 0.0)
                    + (pcoeffs[i] if i < len(pcoeffs) else 0.0)
                    for i in range(n)
                ]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        phi_lo, dphi_lo, omega, interp, dinterp = _advance_backward(
            coeffs, lo, hi, phi, dphi)
        raw.append((lo, hi, phi_lo, dphi_lo, omega, interp, dinterp))
        phi, dphi = phi_lo, dphi_lo

    scale = phi  # value of phi~ at 0; normalise so phi(0) = 1
    if not scale > 0:
        raise RuntimeError("transform produced a non-positive solution")

    pieces = []
    for lo, hi, phi_lo, dphi_lo, omega, interp, dinterp in reversed(raw):
        if interp is not None:
            interp_s = (lambda r, g=interp, s=scale: g(r) / s)
            dinterp_s = (lambda r, g=dinterp, s=scale: g(r) / s)
        else:
            interp_s = dinterp_s = None
        pieces.append(_Piece(lo, hi, phi_lo / scale, dphi_lo / scale, omega,
                             interp_s, dinterp_s))

    # Accumulate rho at piece boundaries.
    acc = 0.0
    for p in pieces:
        p.rho_lo = acc
        acc += p.rho_inc(p.hi)

    return SLSolution(pieces, m)
