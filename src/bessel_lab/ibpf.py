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
* the right-hand side by one formula for every dimension,

        pref int_0^1 h_r <mu_alpha(dx), Sigma_r(x)> dr,

  with the finite-part distributions mu_alpha of :mod:`.mu_dist`, by two
  routes.  The branch route pairs in ``s = b^2``, with
  pref = -Gamma((delta+1)/2)/2 and alpha = (delta-3)/2 (mu_0 = delta_0 and
  <mu_{-1}, f> = -f'(0) are the paper's delta = 3 and delta = 1 cases); the
  unified route pairs in b, with alpha = delta-3 and pref Gamma(alpha) =
  -2 kappa(delta) = -(delta-1)(delta-3)/4, kappa the IbPF constant: that
  polynomial times the Gamma-free pairing ``mu_dist.finite_part``, with no
  pole at delta = 2, for delta in [0.5, 8] (mu's alpha in [-2.5, 5]).  At
  delta = 1 and 3, where kappa = 0 meets the pole of Gamma(alpha), the
  finite pref = -Gamma(delta)/(4(delta-2)) weighs mu_alpha's point pairing
  with one Taylor coefficient of Sigma.

The delicate object is the branch pairing at non-integer alpha: after the
Taylor subtraction the integrand vanishes to high order at 0 and direct
evaluation loses all precision there.  In ``s`` the integral splits into

* [0, s0]: closed form from the exact Taylor coefficients of Sigma in s
  (obtained by convolving the y-Taylor series of the two regularised
  kernels -- no numerical differentiation);
* [s0, S]: adaptive quadrature in ``u = log s`` of
  ``e^{alpha u} [Sigma - P_k](e^u)`` (subtraction is benign there, and the
  ``s^{alpha-1}`` end layer is flat in u);
* [S, inf): Sigma itself is negligible; the power tails of the subtracted
  monomials are added in closed form.

The split belongs to that RHS alone: the analytic bridge LHS's integrand
``s^{(delta-1)/2} Sigma(s)`` subtracts nothing, and its power is the weight
of a Gauss-Jacobi first panel.

Every route makes one outer pass in r per case, one row per (term of Phi,
segment of supp h), handing its integrand all of a row's r-nodes of the
round at once, whose inner integrals run as one row-batched quadrature on
(r-node x s-node) grids of Sigma, so they share one panel count and the
r-integrand of a round comes from one rule; the unified RHS pairs a row's
whole round as one row of functions in one pairing, and the
unconditioned LHS has no inner integral.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
from scipy import special

from .core import (BridgeSpec, ExpFunctional, TestFunctionC2c, hat_weights,
                   pairing_weights)
from .laplace_sigma import (SERIES_ORDER, SigmaContext, sigma_s,
                            sigma_s_series, zeta_second_deriv)
from .mu_dist import SmoothTestFn, finite_part, mu_pair, taylor_rule
from .quadrature import adaptive_gl, decay_cutoff
from .samplers import bessel_bridge_general, mc_estimate

__all__ = [
    "MODES",
    "SeriesTruncationError",
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

class SeriesTruncationError(RuntimeError):
    """The Sigma series is too short for fp_s_integral's closed form."""


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
        if self.mode == "unconstrained" and self.spec.ap != 0.0:
            raise ValueError(f"the unconstrained mode has no end value, so "
                             f"ap must be 0, got {self.spec.ap!r}")
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
    phr, rr = ctx.sol.phi(r), ctx.sol.rho(r)
    t2 = ctx.rho_end - rr  # inf for the process
    tmin = np.minimum(rr, t2)
    th = 1.0 / (1.0 / rr + 1.0 / t2)  # harmonic decay time
    series_scale = 2.0 * tmin * phr**2
    # the process never reaches an end, so ap is no part of its law
    ends = ctx.spec.a**2 + (ctx.spec.ap**2 if ctx.bridge else 0.0)
    decay_scale = phr**2 * (2.0 * th * 120.0 + 8.0 * ends + 4.0)
    return series_scale, decay_scale


def fp_s_integral(ctx, r, alpha):
    """``<mu_alpha(ds), Sigma_r(s)>``, the inner pairing of the branch RHS,
    per entry of the 1-d ``r``: ``(-1)^k k! c_k`` at an integer
    ``alpha = -k <= 0``, else ``int_0^inf s^{alpha-1} [Sigma(s) - sum_{j<=k}
    c_j s^j] ds / Gamma(alpha)``, mu_alpha's Taylor orders 0 .. k
    (``taylor_rule``) subtracted."""
    c = sigma_s_series(ctx, r)
    k, integral = taylor_rule(alpha)
    if integral:
        return (-1.0) ** k * math.factorial(k) * c[:, k]
    series_scale, decay_scale = _s_scales(ctx, r)
    s0 = 0.4 * series_scale
    q = alpha + np.arange(SERIES_ORDER + 1.0)

    # [0, s0]: closed form from the series.
    near_terms = c * s0[:, None] ** q / q
    near = near_terms[:, k + 1:].sum(axis=1)
    # truncation diagnostic: the last term (j = SERIES_ORDER) must be tiny
    tail_term = np.abs(near_terms[:, -1])
    scale_ref = np.abs(near) + np.abs(c[:, 0]) * s0 ** abs(alpha) + 1e-300

    # [s0, S]: quadrature in u = log s with explicit subtraction, which
    # flattens the s^{alpha-1} end layer.
    def f(u):
        s = np.exp(u)
        powers = s[:, None, :] ** np.arange(k + 1)[:, None]
        sub = np.sum(c[:, :k + 1, None] * powers, axis=1)
        return np.exp(alpha * u) * (sigma_s(ctx, r[:, None], s) - sub)

    def probe(s):
        return s ** (alpha - 1.0) * sigma_s(ctx, r[:, None], s)

    big_s = decay_cutoff(probe, s0, decay_scale)
    mid = adaptive_gl(f, np.log(s0), np.log(big_s), rtol=1e-10,
                      atol=1e-13 * scale_ref + 1e-250)

    # [S, inf): Sigma negligible; power tails of the subtracted monomials.
    tail = np.sum(c[:, :k + 1] * big_s[:, None] ** q[:k + 1] / q[:k + 1],
                  axis=1)

    if np.any(tail_term > 1e-9 * (np.abs(near + mid + tail) + scale_ref)):
        raise SeriesTruncationError("Sigma series truncation too coarse")
    return (near + mid + tail) * special.rgamma(alpha)


# ---------------------------------------------------------------------------
# The outer integral in r.
# ---------------------------------------------------------------------------

def _sum_terms(case, per_r, point=lambda ctx: 0.0):
    """``sum_i c_i (int per_r(ctx_i, r) dr + point(ctx_i))`` over the terms
    ``c_i exp(-<m_i, X^2>)`` of Phi, with each ``ctx_i`` of the case's law.

    Each term's r-integral over supp h, split at the breakpoints of its m_i,
    gives rows of one quadrature that ends when every row passes its own
    relative test.  A row hands ``per_r`` its term's context and all of its
    r-nodes of the round in one call (up to 256 in the battery, on Sigma
    grids of up to 32768 points: a traced peak under 2 MB a case)."""
    lo, hi = case.h.support
    terms = [(c, SigmaContext(case.spec, m, case.mode == "bridge"))
             for c, m in case.phi.terms]
    rows = [(i, ends) for i, (_, ctx) in enumerate(terms) for ends in pairwise(
        sorted({lo, hi, *(b for b in ctx.m.breakpoints() if lo < b < hi)}))]
    term, ends = (np.array(v) for v in zip(*rows))

    def f(r):
        return np.array([per_r(terms[i][1], row) for i, row in zip(term, r)])

    parts = adaptive_gl(f, ends[:, 0], ends[:, 1], rtol=1e-9, atol=1e-280)
    return sum(c * (parts[term == i].sum() + point(ctx))
               for i, (c, ctx) in enumerate(terms))


# ---------------------------------------------------------------------------
# Right-hand sides.
# ---------------------------------------------------------------------------

def rhs_ibpf(case, route="branch"):
    """The right-hand side ``pref int h_r <mu_alpha, Sigma_r> dr`` of the
    IbPF for the case, by the requested route (``"branch"`` or
    ``"unified"``, see the module docstring).  The unified route, for delta
    in [0.5, 8], is -2 kappa(delta) = -(delta-1)(delta-3)/4 times
    ``finite_part(delta-3, .)``, and at delta = 1 and 3 (kappa = 0)
    -Gamma(delta)/(4(delta-2)) times ``mu_pair``'s point pairing.  It pairs
    a row's whole round of r-nodes as one row of functions ``b -> Sigma(Phi
    | b)`` in one call, with b-Taylor coefficients the s-coefficients of
    ``sigma_s_series`` at the even orders and 0 at the odd ones.  Each
    function's decay window is the square root of its decay scale in s
    (``_s_scales``), the scale on which the branch RHS and the bridge LHS
    probe Sigma, so every route probes 100 points a row up to Sigma's own
    scale."""
    d = case.spec.delta
    if route == "branch":
        pref = -0.5 * special.gamma((d + 1.0) / 2.0)

        def pair(ctx, r):
            return fp_s_integral(ctx, r, (d - 3.0) / 2.0)
    elif route == "unified":
        k, point = taylor_rule(d - 3.0)
        if point and k != 1:
            # delta = 3 or 1: kappa = 0 cancels the pole of Gamma(delta-3),
            # and -Gamma(delta)/(4(delta-2)) weighs mu's point pairing
            pref, pairing = -special.gamma(d) / (4.0 * (d - 2.0)), mu_pair
        else:
            pref, pairing = -(d - 1.0) * (d - 3.0) / 4.0, finite_part

        def pair(ctx, r):
            taylor = np.zeros((r.size, 2 * SERIES_ORDER + 1))
            taylor[:, ::2] = sigma_s_series(ctx, r)
            fn = SmoothTestFn(lambda b: sigma_s(ctx, r[:, None], b**2),
                              taylor, label="Sigma",
                              window=np.sqrt(_s_scales(ctx, r)[1]))
            return pairing(d - 3.0, fn)
    else:
        raise ValueError(f"unknown route {route!r}")
    return pref * _sum_terms(case, lambda ctx, r: case.h(r) * pair(ctx, r))


# ---------------------------------------------------------------------------
# Left-hand sides.
# ---------------------------------------------------------------------------

def lhs_uncond_analytic(case):
    """``E[d_h Phi] + E[<h'', X> Phi]`` for the unconditioned process:

        sum_i c_i K(a, m_i) int h_r phi_r^{-3} zeta''(rho_r) dr,  K = pref/2.
    """
    if case.mode != "unconstrained":
        raise ValueError("unconditioned left-hand side needs unconstrained mode")
    d, a = case.spec.delta, case.spec.a
    h = case.h

    def per_r(ctx, r):
        zpp = zeta_second_deriv(d, a, ctx.sol.rho(r))
        return 0.5 * ctx.pref * h(r) * ctx.sol.phi(r) ** (-3.0) * zpp

    return _sum_terms(case, per_r)


def bridge_mean_phi(ctx, r):
    """``E[X_r Phi]`` for one exponential term under the bridge law, per
    entry of ``r``: ``(1/2) int_0^inf s^{(delta-1)/2} Sigma(s) ds``, with
    the power taken by the Gauss-Jacobi end panel and the range cut where
    the whole integrand has decayed (it is positive, so the relative
    tolerance alone decides), all entries in one row-batched quadrature.
    The cut probes the power with Sigma, since at large delta the power
    moves the mass far past Sigma's own decay; the probe at s = 0, where
    the power is 0 or (below delta = 1) infinite, counts as 0."""
    beta = (ctx.spec.delta - 1.0) / 2.0

    def sig(s):
        return sigma_s(ctx, np.asarray(r)[..., None], s)

    def probe(s):
        return np.power(s, beta, out=np.zeros_like(s), where=s > 0.0) * sig(s)

    big_s = decay_cutoff(probe, 0.0, _s_scales(ctx, r)[1])
    return 0.5 * adaptive_gl(sig, 0.0, big_s, rtol=1e-10, atol=1e-300,
                             beta=beta)


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
        inside = [(t, w) for t, w in ctx.m.atoms if h(t) != 0.0]
        if not inside:
            return 0.0
        t, w = np.array(inside).T
        return np.sum(-2.0 * w * h(t) * bridge_mean_phi(ctx, t))

    return _sum_terms(case, per_r, atoms)


# ---------------------------------------------------------------------------
# Monte Carlo left-hand side.
# ---------------------------------------------------------------------------

def _mc_window(case):
    """``(times, w_h2, w_m, w_hm)`` for the Monte Carlo functional, on the
    times it weighs.

    The weights are the hat weights of ``h''`` and the (times x terms)
    pairing weights of Phi's terms, computed on the uniform 513-point mesh
    augmented with the atom locations of every measure in the functional
    (so atom pairings are exact, not interpolated).  Only the nodes where
    some weight is nonzero are kept, with both ends: the path's values
    elsewhere never enter the functional, and the bridge is exact in law at
    any finite set of times, so they need not be drawn."""
    h = case.h
    pts = set(np.linspace(0.0, 1.0, 513))
    for _, m in case.phi.terms:
        pts.update(t for t, _ in m.atoms)
    times = np.array(sorted(pts))
    w_h2 = hat_weights(times, h.d2)
    w_m, w_hm = (np.column_stack(w) for w in zip(
        *(pairing_weights(m, h, times) for _, m in case.phi.terms)))
    keep = (w_h2 != 0.0) | np.any((w_m != 0.0) | (w_hm != 0.0), axis=1)
    keep[[0, -1]] = True
    return times[keep], w_h2[keep], w_m[keep], w_hm[keep]


def lhs_mc(case, n, rng):
    """Monte Carlo estimate (mean, stderr) of ``E[<h'' - 2 h m, X> Phi]``
    over bridge paths sampled exactly at the times ``_mc_window(case)``
    keeps: both ends and every node of the atom-augmented 513-point mesh
    that the functional weighs.

    The pairing weights of Phi's terms are the columns of two (times x
    terms) matrices, so each block of paths meets every term in two
    matrix products."""
    if case.mode != "bridge":
        raise ValueError("Monte Carlo left-hand side needs bridge mode")
    spec = case.spec
    times, w_h2, w_m, w_hm = _mc_window(case)
    coefs = np.array([c for c, _ in case.phi.terms])

    def sample_values(count, stream):
        paths = bessel_bridge_general(spec.delta, spec.a, spec.ap,
                                      times, stream, size=count)
        lin = (paths @ w_h2)[:, None] - 2.0 * (paths @ w_hm)
        np.square(paths, out=paths)
        return (lin * np.exp(-(paths @ w_m))) @ coefs

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
