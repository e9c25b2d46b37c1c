"""Shared model types: measures, test functions, functionals, pairings.

These are the vocabulary types used throughout the laboratory:

* :class:`FiniteMeasure` -- a finite non-negative measure on [0, 1] given by
  point atoms plus a piecewise-polynomial density, with a JSON round trip;
* :class:`TestFunctionC2c` -- C^2 test functions of compact support in (0, 1)
  with an analytic second derivative;
* :class:`ExpFunctional` -- linear combinations of exponential functionals
  ``X -> sum_i c_i exp(-<m_i, X^2>)``;
* :class:`BridgeSpec` -- dimension and boundary data of a Bessel bridge;
* :func:`pairing_weights` -- the pairings ``<m, X^2>`` and ``<m, h X>``
  of a measure with sampled paths, read as piecewise linear between
  samples, as two weight vectors on the sample times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "FiniteMeasure",
    "TestFunctionC2c",
    "bump",
    "poly_bump",
    "ExpFunctional",
    "BridgeSpec",
    "hat_weights",
    "pairing_weights",
]

#: Gauss-Legendre order of :func:`hat_weights` on each grid interval.
_HAT_ORDER = 8


@dataclass
class FiniteMeasure:
    """Finite non-negative measure on [0, 1]: atoms plus polynomial pieces.

    ``atoms`` is a list of ``(t, weight)`` pairs; ``pieces`` a list of
    ``(lo, hi, coeffs)`` where ``coeffs`` are ascending polynomial
    coefficients of the density in the global variable ``r`` on [lo, hi].
    """

    atoms: list = field(default_factory=list)
    pieces: list = field(default_factory=list)

    def __post_init__(self):
        self.atoms = [(float(t), float(w)) for t, w in self.atoms]
        self.pieces = [(float(lo), float(hi), [float(c) for c in coeffs])
                       for lo, hi, coeffs in self.pieces]
        for t, w in self.atoms:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"atom location {t} outside [0, 1]")
            if not 0.0 <= w < np.inf:
                raise ValueError(f"atom weight {w} is not finite and >= 0")
        for lo, hi, coeffs in self.pieces:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"bad piece interval [{lo}, {hi}]")
            if not coeffs:
                raise ValueError(f"piece [{lo}, {hi}] needs at least one "
                                 f"coefficient in 'coeffs'")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError(f"piece [{lo}, {hi}] has a coefficient "
                                 f"that is not finite")
            grid = np.linspace(lo, hi, 33)
            if np.any(np.polynomial.polynomial.polyval(grid, coeffs) < -1e-12):
                raise ValueError("piece density must be non-negative")

    def density_at(self, r):
        """Density part evaluated pointwise (atoms excluded): an array of
        ``r``'s shape, a NumPy float for a scalar ``r``."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for lo, hi, coeffs in self.pieces:
            mask = (r >= lo) & (r <= hi)
            if np.any(mask):
                out[mask] += np.polynomial.polynomial.polyval(r[mask], coeffs)
        return out[()]

    def breakpoints(self):
        """Sorted distinct points where the measure is singular or the
        density changes polynomial law, always including 0 and 1."""
        pts = {0.0, 1.0}
        pts.update(t for t, _ in self.atoms)
        for lo, hi, _ in self.pieces:
            pts.add(lo)
            pts.add(hi)
        return sorted(pts)

    def to_json_dict(self):
        return {
            "atoms": [{"t": t, "w": w} for t, w in self.atoms],
            "pieces": [{"lo": lo, "hi": hi, "coeffs": list(coeffs)}
                       for lo, hi, coeffs in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise TypeError("a measure must be a JSON object")

        def num(v):  # JSON's true is not the number 1
            if isinstance(v, bool):
                raise TypeError(f"a measure holds numbers, not {v!r}")
            return v

        return cls(
            atoms=[(num(a["t"]), num(a["w"])) for a in d.get("atoms", [])],
            pieces=[(num(p["lo"]), num(p["hi"]), [num(c) for c in p["coeffs"]])
                    for p in d.get("pieces", [])],
        )

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def atom(cls, t, w):
        return cls(atoms=[(t, w)])

    @classmethod
    def lebesgue(cls, scale=1.0):
        return cls(pieces=[(0.0, 1.0, [scale])])


@dataclass
class TestFunctionC2c:
    """C^2 function with compact support inside (0, 1).

    ``f`` and ``d2`` evaluate h and h'' on arrays; the support is
    the open interval (theta, 1 - theta).
    """

    f: object
    d2: object
    theta: float
    label: str = "h"

    def __call__(self, r):
        return self.f(r)

    @property
    def support(self):
        return (self.theta, 1.0 - self.theta)


# The test functions are partials of module-level functions, so that a case
# holding one pickles (ibpf-check sends cases to worker processes).

def _bump(theta, norm, second, r):
    """:func:`bump` at ``r``, or its second derivative if ``second``."""
    r = np.asarray(r, dtype=float)
    p = (r - theta) * (1.0 - theta - r)
    inside = p > 0
    psafe = np.where(inside, p, 1.0)
    h = np.where(inside, norm * np.exp(-1.0 / psafe), 0.0)
    if not second:
        return h
    dp = 1.0 - 2.0 * r
    g1 = dp / psafe**2                       # (-1/P)'
    g2 = -2.0 / psafe**2 - 2.0 * dp**2 / psafe**3   # (-1/P)''
    return np.where(inside, h * (g2 + g1**2), 0.0)


def bump(theta=0.2):
    """Smooth bump exp(-1/P) with P = (r - theta)(1 - theta - r), peak 1."""
    if not 0.0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    norm = np.exp(1.0 / (0.5 - theta) ** 2)
    return TestFunctionC2c(partial(_bump, theta, norm, False),
                           partial(_bump, theta, norm, True), theta,
                           label=f"bump({theta:g})")


def _poly_bump(theta, m, second, r):
    """:func:`poly_bump` at ``r``, or its second derivative if ``second``."""
    r = np.asarray(r, dtype=float)
    u = r - theta
    v = 1.0 - theta - r
    inside = (u > 0) & (v > 0)
    if not second:
        return np.where(inside, u**3 * v**3 / m, 0.0)
    return np.where(inside, 6.0 * u * v * (v**2 - 3.0 * u * v + u**2) / m, 0.0)


def poly_bump(theta=0.2):
    """Polynomial bump (r - theta)^3 (1 - theta - r)^3 scaled to peak 1."""
    if not 0.0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    m = (0.5 - theta) ** 6
    return TestFunctionC2c(partial(_poly_bump, theta, m, False),
                           partial(_poly_bump, theta, m, True), theta,
                           label=f"poly_bump({theta:g})")


@dataclass
class ExpFunctional:
    """Functional ``Phi(X) = sum_i c_i exp(-<m_i, X^2>)``."""

    terms: list  # list of (coefficient, FiniteMeasure)

    def __post_init__(self):
        self.terms = [(float(c), m) for c, m in self.terms]
        if not self.terms:
            raise ValueError("functional needs at least one term")

    @classmethod
    def one(cls):
        return cls([(1.0, FiniteMeasure.zero())])

    @classmethod
    def single(cls, m, c=1.0):
        return cls([(c, m)])


@dataclass(frozen=True)
class BridgeSpec:
    """A Bessel bridge over [0, 1]: dimension delta, boundary values a, ap."""

    delta: float
    a: float = 0.0
    ap: float = 0.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("dimension delta must be positive")
        for name in ("a", "ap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"boundary value {name} must be >= 0")


def hat_weights(times, g):
    """Weights w_j = int g(r) Lambda_j(r) dr against the hat functions of
    the grid, exact for the piecewise-linear interpolant of the path."""
    times = np.asarray(times, dtype=float)
    nodes, wq = np.polynomial.legendre.leggauss(_HAT_ORDER)
    lo, hi = times[:-1], times[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    rr = mid[:, None] + half[:, None] * nodes[None, :]  # (nint, order)
    gv = np.asarray(g(rr.ravel()), dtype=float).reshape(rr.shape)
    lam_right = (rr - lo[:, None]) / (hi - lo)[:, None]
    wl = np.sum(gv * (1.0 - lam_right) * wq[None, :], axis=1) * half
    wr = np.sum(gv * lam_right * wq[None, :], axis=1) * half
    w = np.zeros(len(times))
    w[:-1] += wl
    w[1:] += wr
    return w


def pairing_weights(m, h, times):
    """Weights ``(w_m, w_hm)`` on the sample ``times`` such that
    ``paths**2 @ w_m`` and ``paths @ w_hm`` are the pairings ``<m, X^2>``
    and ``<m, h X>`` of each row of ``paths``.

    These are the hat weights of the densities ``m`` and ``h m``, with each
    atom's weight ``w`` (times ``h(t)`` in ``w_hm``) added at the index of
    the sample time nearest ``t`` (exact when the atoms are sample times).
    """
    w_m = hat_weights(times, m.density_at)
    w_hm = hat_weights(
        times, lambda r: np.asarray(h(r)) * np.asarray(m.density_at(r)))
    for t, w in m.atoms:
        idx = np.argmin(np.abs(times - t))
        w_m[idx] += w
        w_hm[idx] += w * float(h(t))
    return w_m, w_hm
