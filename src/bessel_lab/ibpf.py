"""Integration-by-parts formulae (IbPFs) for Bessel bridges and processes.

For a bridge of dimension ``delta`` from ``a`` to ``ap`` (or the
unconditioned process started at ``a``), a functional
``Phi(X) = sum_i c_i exp(-<m_i, X^2>)`` and a test function ``h`` with
compact support in (0, 1), both sides of the identity

    E[d_h Phi] + E[<h'', X> Phi]  =  RHS(delta)

are evaluated by independent numerical routes:

* the left-hand side analytically, through the conditional Laplace
  functional ``Sigma`` (bridge) or the process mean ``zeta`` (unconditioned),
  and by Monte Carlo over exactly sampled paths;
* the right-hand side by the dimension-dependent formula

    generic delta (not 1 or 3):
        -kappa(delta) int_0^1 h_r int_0^inf b^{delta-4}
                        [T^{2k}_b Sigma(Phi | .)] db dr,
        kappa = (delta-3)(delta-1)/4,   k = floor((3-delta)/2),
    delta = 3:   -(1/2) int h_r Sigma(Phi | 0) dr,
    delta = 1:   +(1/4) int h_r (d^2/db^2 Sigma)(Phi | 0) dr,

  and by the unified finite-part form

        -Gamma(delta)/(4(delta-2)) int h_r <mu_{delta-3}, Sigma(Phi | .)> dr

  (disabled in a small guard band around delta = 2, where the prefactor
  pole is only removable analytically).

The delicate object is the branch RHS's inner b-integral: after the Taylor
subtraction the integrand vanishes to high order at 0 and direct evaluation
loses all precision there.  Working in ``s = b^2``, the integral splits into

* [0, s0]: closed form from the exact Taylor coefficients of Sigma in s
  (obtained by convolving the y-Taylor series of the two regularised
  kernels -- no numerical differentiation);
* [s0, S]: direct adaptive quadrature (subtraction is benign there);
* [S, inf): Sigma itself is negligible; the power tails of the subtracted
  monomials are added in closed form.

The split belongs to that RHS alone: the analytic bridge LHS's integrand
``s^{(delta-1)/2} Sigma(s)`` subtracts nothing, and its power is the weight
of a Gauss-Jacobi first panel.

Every route's outer integral in r hands its integrand one Gauss-Legendre
panel of r-nodes, whose inner integrals run as one row-batched quadrature:
on (r-node x s-node) grids of Sigma, or as one ``mu_pair`` of a row of
functions (the unified RHS; zeta'' on the unconditioned LHS).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (BridgeSpec, ExpFunctional, TestFunctionC2c, hat_weights,
                   pairing_weights)
from .laplace_sigma import (SERIES_ORDER, SigmaContext, sigma_s,
                            sigma_s_series, zeta_second_deriv)
from .mu_dist import SmoothTestFn, mu_pair
from .quadrature import GL_ORDER, adaptive_gl, decay_cutoff
from .samplers import bessel_bridge_general, mc_estimate

__all__ = [
    "MODES",
    "IbpfCase",
    "VerifyReport",
    "rel_err",
    "lhs_uncond_analytic",
    "lhs_bridge_analytic",
    "lhs_mc",
    "rhs_ibpf",
    "verify",
]

#: The laws a case can take: the bridge, or the process from ``a``.
MODES = ("bridge", "unconstrained")

#: Guard band around delta = 2 inside which the unified evaluator refuses
#: to run (the 1/(delta-2) pole is only removable analytically).
_DELTA2_GUARD = 1e-6

#: Guard band for detecting the special dimensions 1 and 3.
_INT_GUARD = 1e-12


@dataclass
class IbpfCase:
    """One verification case: bridge/process law, functional, test function."""

    spec: BridgeSpec
    phi: ExpFunctional
    h: TestFunctionC2c
    mode: str = "bridge"  # one of MODES
    tol: float = 1e-5
    case_id: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.case_id == "":
            # The digest tells apart cases that differ only in Phi or tol,
            # or in digits that the %g fields below round away.
            s = self.spec
            key = json.dumps(
                {"spec": [s.delta, s.a, s.ap], "theta": self.h.theta,
                 "phi": [[c, m.to_json_dict()] for c, m in self.phi.terms],
                 "tol": self.tol}, sort_keys=True)
            digest = hashlib.sha256(key.encode()).hexdigest()[:8]
            self.case_id = (f"d{s.delta:g}_a{s.a:g}_ap{s.ap:g}_{self.mode}"
                            f"_{self.h.label}_{digest}")


@dataclass
class VerifyReport:
    """Outcome of one case: both sides, errors, pass flags."""

    case_id: str
    lhs_analytic: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool
    lhs_mc: float = None
    stderr: float = None
    mc_passed: bool = None

    def to_json_dict(self):
        return {
            "case_id": self.case_id,
            "lhs_analytic": self.lhs_analytic,
            "lhs_mc": self.lhs_mc,
            "stderr": self.stderr,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": bool(self.passed) and (self.mc_passed is not False),
        }


def rel_err(lhs, rhs):
    """Symmetric relative error |lhs-rhs| / (|lhs| + |rhs| + 1e-300)."""
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def _s_scales(ctx, r):
    """(series scale, decay scale) of Sigma as a function of s, one entry
    per entry of ``r``."""
    sol = ctx.sol
    phr, rr = sol.phi(r), sol.rho(r)
    if ctx.bridge:
        t2 = sol.rho1 - rr
        tmin = np.minimum(rr, t2)
        th = 1.0 / (1.0 / rr + 1.0 / t2)  # harmonic decay time
    else:
        tmin = th = rr
    series_scale = 2.0 * tmin * phr**2
    decay_scale = phr**2 * (2.0 * th * 120.0
                            + 8.0 * (ctx.spec.a**2 + ctx.spec.ap**2) + 4.0)
    return series_scale, decay_scale


def fp_s_integral(ctx, r, p, ksub):
    """``int_0^inf s^p [Sigma(s) - sum_{j<ksub} c_j s^j] ds``, the inner
    integral of the dimension-branch RHS, per entry of the 1-d ``r``.

    Requires p + ksub + 1 > 0 (integrable at 0 after subtraction) and
    p + ksub < 0 (tails integrable); rhs_ibpf's p and ksub meet both.
    """
    c = sigma_s_series(ctx, r)
    series_scale, decay_scale = _s_scales(ctx, r)
    s0 = np.minimum(0.4 * series_scale, 0.25 * decay_scale)
    q = p + np.arange(SERIES_ORDER + 1.0) + 1.0

    # [0, s0]: closed form from the series.
    near_terms = c * s0[:, None] ** q / q
    near = near_terms[:, ksub:].sum(axis=1)
    # truncation diagnostic: the last term (j = SERIES_ORDER) must be tiny
    tail_term = np.abs(near_terms[:, -1])
    scale_ref = np.abs(near) + np.abs(c[:, 0]) * s0 ** abs(p + 1.0) + 1e-300

    # [s0, S]: direct quadrature with explicit subtraction.
    def f(s):
        powers = s[:, None, :] ** np.arange(ksub)[:, None]
        sub = np.sum(c[:, :ksub, None] * powers, axis=1)
        return s**p * (sigma_s(ctx, r[:, None], s) - sub)

    def probe(s):
        return s**p * sigma_s(ctx, r[:, None], s)

    big_s = decay_cutoff(probe, s0, decay_scale, probes=100)
    mid = adaptive_gl(f, s0, big_s, rtol=1e-10,
                      atol=1e-13 * scale_ref + 1e-250, confirm=1)

    # [S, inf): Sigma negligible; power tails of the subtracted monomials.
    tail = np.sum(c[:, :ksub] * big_s[:, None] ** q[:ksub] / q[:ksub], axis=1)

    if np.any(tail_term > 1e-9 * (np.abs(near + mid + tail) + scale_ref)):
        raise RuntimeError("Sigma series truncation too coarse for s0")
    return near + mid + tail


# ---------------------------------------------------------------------------
# Outer integrals in r.
# ---------------------------------------------------------------------------

def _outer_integral(h, breakpoints, per_r):
    """``int per_r(r) dr`` over supp h, split at the given interior
    breakpoints; ``per_r`` gets one Gauss-Legendre panel of r-nodes per call
    (a round of up to 128 nodes at once would put Sigma on 128 x 512 grids
    and raise the peak memory by a tenth)."""
    def f(r):
        return np.concatenate([per_r(x) for x in r.reshape(-1, GL_ORDER)])

    lo, hi = h.support
    pts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    total = 0.0
    scale = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        part = adaptive_gl(f, left, right, rtol=1e-9,
                           atol=1e-13 * scale + 1e-280, confirm=1)
        total += part
        scale = max(scale, abs(part))
    return total


def _sum_terms(case, per_r, point=lambda ctx: 0.0):
    """``sum_i c_i (int per_r(ctx_i, r) dr + point(ctx_i))`` over the terms
    ``c_i exp(-<m_i, X^2>)`` of Phi, split at the breakpoints of m_i, with
    each ``ctx_i`` of the case's law."""
    total = 0.0
    for coef, m in case.phi.terms:
        ctx = SigmaContext(case.spec, m, case.mode == "bridge")
        part = _outer_integral(case.h, m.breakpoints(),
                               lambda r, ctx=ctx: per_r(ctx, r))
        total += coef * (part + point(ctx))
    return total


# ---------------------------------------------------------------------------
# Right-hand sides.
# ---------------------------------------------------------------------------

def rhs_ibpf(case, route="branch"):
    """The right-hand side of the IbPF for the case, by the requested route
    (``"branch"``: the dimension-dependent formulas; ``"unified"``: the
    mu_{delta-3} finite-part form)."""
    d = case.spec.delta
    h = case.h

    if route == "unified":
        if abs(d - 2.0) < _DELTA2_GUARD:
            raise ValueError(
                "unified evaluator disabled near delta = 2 "
                "(analytically removable pole)")
        return _rhs_unified(case)
    if route != "branch":
        raise ValueError(f"unknown route {route!r}")

    if abs(d - 3.0) < _INT_GUARD:
        def per_r(ctx, r):
            return -0.5 * h(r) * sigma_s_series(ctx, r)[:, 0]
    elif abs(d - 1.0) < _INT_GUARD:
        def per_r(ctx, r):
            # d^2/db^2 Sigma |_0 = 2 c_1, times the prefactor 1/4
            return 0.5 * h(r) * sigma_s_series(ctx, r)[:, 1]
    else:
        kappa = (d - 3.0) * (d - 1.0) / 4.0
        ksub = max(math.floor((3.0 - d) / 2.0) + 1, 0)
        p = (d - 5.0) / 2.0

        def per_r(ctx, r):
            # the 1/2 converts the b-integral to the s-integral
            return -kappa * h(r) * 0.5 * fp_s_integral(ctx, r, p, ksub)
    return _sum_terms(case, per_r)


def _rhs_unified(case):
    """The unified finite-part RHS: one ``mu_pair`` per panel of r-nodes, of
    the row of functions ``b -> Sigma(Phi | b)``, whose b-Taylor
    coefficients are the s-coefficients of ``sigma_s_series`` at the even
    orders (``s = b^2``) and 0 at the odd ones."""
    d = case.spec.delta
    h = case.h
    alpha = d - 3.0
    pref = -special.gamma(d) / (4.0 * (d - 2.0))

    def per_r(ctx, r):
        taylor = np.zeros((r.size, 2 * SERIES_ORDER + 1))
        taylor[:, ::2] = sigma_s_series(ctx, r)
        fn = SmoothTestFn(lambda b: sigma_s(ctx, r[:, None], b**2),
                          taylor, label="Sigma")
        return h(r) * mu_pair(alpha, fn)

    return pref * _sum_terms(case, per_r)


# ---------------------------------------------------------------------------
# Left-hand sides.
# ---------------------------------------------------------------------------

def lhs_uncond_analytic(case):
    """``E[d_h Phi] + E[<h'', X> Phi]`` for the unconditioned process:

        sum_i c_i K(a, m_i) int h_r phi_r^{-3} zeta''(rho_r) dr.
    """
    if case.mode != "unconstrained":
        raise ValueError("unconditioned left-hand side needs unconstrained mode")
    d, a = case.spec.delta, case.spec.a
    h = case.h

    def per_r(ctx, r):
        zpp = zeta_second_deriv(d, a, ctx.sol.rho(r))
        return ctx.K * h(r) * ctx.sol.phi(r) ** (-3.0) * zpp

    return _sum_terms(case, per_r)


def bridge_mean_phi(ctx, r):
    """``E[X_r Phi]`` for one exponential term under the bridge law, per
    entry of ``r``: ``(1/2) int_0^inf s^{(delta-1)/2} Sigma(s) ds``, with
    the power taken by the Gauss-Jacobi end panel and the range cut where
    Sigma has decayed (the integrand is positive, so the relative tolerance
    alone decides), all entries in one row-batched quadrature."""
    def sig(s):
        return sigma_s(ctx, np.asarray(r)[..., None], s)

    big_s = decay_cutoff(sig, 0.0, _s_scales(ctx, r)[1], probes=100)
    return 0.5 * adaptive_gl(sig, 0.0, big_s, rtol=1e-10, atol=1e-300,
                             confirm=1, beta=(ctx.spec.delta - 1.0) / 2.0)


def lhs_bridge_analytic(case):
    """``E[d_h Phi] + E[<h'', X> Phi] = E[<h'' - 2 h m, X> Phi]`` for the
    bridge, per exponential term through ``E[X_r Phi]``: one outer integral
    of ``(h'' - 2 h dens_m) E[X_r Phi]``, plus the atoms of ``m`` as point
    terms."""
    if case.mode != "bridge":
        raise ValueError("bridge left-hand side needs bridge mode")
    h = case.h

    def per_r(ctx, r):
        weight = h.d2(r) - 2.0 * h(r) * ctx.m.density_at(r)
        return weight * bridge_mean_phi(ctx, r)

    def atoms(ctx):
        return sum(-2.0 * w * h(t) * bridge_mean_phi(ctx, t)
                   for t, w in ctx.m.atoms if h(t) != 0.0)

    return _sum_terms(case, per_r, atoms)


# ---------------------------------------------------------------------------
# Monte Carlo left-hand side.
# ---------------------------------------------------------------------------

def mc_times(case):
    """Sample times: the uniform 513-point mesh augmented with the atom
    locations of every measure in the functional (so atom pairings are exact,
    not interpolated)."""
    pts = set(np.linspace(0.0, 1.0, 513))
    for _, m in case.phi.terms:
        pts.update(t for t, _ in m.atoms)
    return np.array(sorted(pts))


def lhs_mc(case, n, rng):
    """Monte Carlo estimate (mean, stderr) of ``E[<h'' - 2 h m, X> Phi]``
    over exactly sampled bridge paths.

    The pairing weights of Phi's terms are the columns of two (times x
    terms) matrices, so each block of paths meets every term in two
    matrix products."""
    if case.mode != "bridge":
        raise ValueError("Monte Carlo left-hand side needs bridge mode")
    spec = case.spec
    h = case.h
    times = mc_times(case)
    w_h2 = hat_weights(times, h.d2)
    coefs = np.array([c for c, _ in case.phi.terms])
    w_m, w_hm = (np.column_stack(w) for w in zip(
        *(pairing_weights(m, h, times) for _, m in case.phi.terms)))

    def sample_values(count, stream):
        paths = bessel_bridge_general(spec.delta, spec.a, spec.ap,
                                      times, stream, size=count)
        lin = (paths @ w_h2)[:, None] - 2.0 * (paths @ w_hm)
        return (lin * np.exp(-(paths**2) @ w_m)) @ coefs

    return mc_estimate(sample_values, n, rng)


# ---------------------------------------------------------------------------
# Verification driver.
# ---------------------------------------------------------------------------

def verify(case, mc_n=0, rng=None):
    """Evaluate both sides and return a :class:`VerifyReport`.

    ``mc_n > 0`` adds a Monte Carlo left-hand side with the pass rule
    |lhs_mc - rhs| <= 3 stderr to a bridge case only: an unconstrained case
    has no Monte Carlo route yet, ignores ``mc_n`` and reports no ``lhs_mc``.
    """
    rhs = rhs_ibpf(case)
    if case.mode == "bridge":
        lhs = lhs_bridge_analytic(case)
    else:
        lhs = lhs_uncond_analytic(case)
    err = abs(lhs - rhs)
    rerr = rel_err(lhs, rhs)
    report = VerifyReport(
        case_id=case.case_id, lhs_analytic=lhs, rhs=rhs,
        abs_err=err, rel_err=rerr, passed=rerr <= case.tol)
    if mc_n > 0 and case.mode == "bridge":
        if rng is None:
            raise ValueError("Monte Carlo verification needs an RngStream")
        mean, se = lhs_mc(case, mc_n, rng)
        report.lhs_mc = mean
        report.stderr = se
        report.mc_passed = bool(abs(mean - rhs) <= 3.0 * se)
    return report
