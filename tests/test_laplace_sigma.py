import math

import numpy as np
import pytest
from scipy import integrate, special

from conftest import p_delta_t

from bessel_lab.core import BridgeSpec, FiniteMeasure
from bessel_lab.laplace_sigma import (SigmaContext, sigma_s, sigma_s_series,
                                      zeta, zeta_second_deriv,
                                      zeta_second_deriv_fp)
from bessel_lab.specfun import bridge_density


def ctx_of(delta, a, ap, m, bridge=True):
    return SigmaContext(BridgeSpec(delta, a, ap), m, bridge)


class TestSigmaReductions:
    def test_uncond_zero_measure_is_density_ratio(self):
        # m = 0: Sigma_a(1 | b) = p^delta_r(a, b) / b^{delta-1}
        delta, a, r = 2.5, 1.0, 0.4
        ctx = ctx_of(delta, a, 0.0, FiniteMeasure.zero(), bridge=False)
        for b in (0.3, 1.0, 2.2):
            want = float(p_delta_t(delta, r, a, b)) / b ** (delta - 1.0)
            assert float(sigma_s(ctx, r, b**2)) == pytest.approx(
                want, rel=1e-12)

    def test_bridge_zero_measure_is_density_ratio(self):
        delta, a, ap, r = 1.5, 1.0, 2.0, 0.3
        ctx = ctx_of(delta, a, ap, FiniteMeasure.zero())
        for b in (0.3, 1.0, 2.2):
            want = float(bridge_density(delta, r, a, ap, b)) \
                / b ** (delta - 1.0)
            assert float(sigma_s(ctx, r, b**2)) == pytest.approx(
                want, rel=1e-12)

    def test_k_constant(self):
        # the process's pref is 2 K(a, m), K = exp(a^2 phi'(0)/2)
        # phi(1)^{delta/2}, and its end time is infinite
        ctx0 = ctx_of(2.0, 1.5, 0.0, FiniteMeasure.zero(), bridge=False)
        assert ctx0.pref == pytest.approx(2.0)
        ctx = ctx_of(2.0, 1.5, 0.0, FiniteMeasure.lebesgue(0.5), bridge=False)
        sol = ctx.sol
        want = math.exp(1.5**2 * sol.phi_prime0 / 2.0) * sol.phi1 ** 1.0
        assert ctx.pref == pytest.approx(2.0 * want, rel=1e-12)
        assert ctx.den == 1.0 and ctx.rho_end == math.inf
        # the bridge's pref is 2 exp(a^2 phi'(0)/2) phi(1)^{-delta/2}, and
        # it ends at rho(1)
        ctx = ctx_of(2.0, 1.5, 0.7, FiniteMeasure.lebesgue(0.5))
        sol = ctx.sol
        want = 2.0 * math.exp(1.5**2 * sol.phi_prime0 / 2.0) / sol.phi1
        assert ctx.pref == pytest.approx(want, rel=1e-12)
        assert ctx.rho_end == sol.rho1 == sol.rho(1.0)

    def test_corrected_closed_form_a0(self):
        # a = ap = 0, m = (theta^2/2) Lebesgue: explicit formula built from
        # the cosh transform (constant corrected by 2^{delta/2} relative to a
        # commonly quoted version; pinned by direct evaluation).
        theta = 1.0
        for delta in (1.5, 2.0, 3.0):
            ctx = ctx_of(delta, 0.0, 0.0,
                         FiniteMeasure.lebesgue(theta**2 / 2.0))
            sol = ctx.sol
            for r in (0.3, 0.6):
                phr = float(sol.phi(r))
                rr = float(sol.rho(r))
                rbar = sol.rho1 - rr
                pref = 1.0 / (2.0 ** (delta / 2.0 - 1.0)
                              * special.gamma(delta / 2.0))
                scale = (phr**2 * sol.phi1 * rr * rbar) ** (-delta / 2.0)
                for b in (0.0, 0.5, 1.2):
                    want = pref * scale * math.exp(
                        -b * b * sol.rho1 / (2.0 * phr**2 * rr * rbar))
                    assert float(sigma_s(ctx, r, b**2)) == pytest.approx(
                        want, rel=1e-10)

    def test_b_derivative_vanishes_at_zero(self):
        # Sigma is analytic in s = b^2 through 0, on both sides (so even in
        # b): the finite-part integrals subtract its Taylor series there.
        m = FiniteMeasure.atom(0.6, 1.0)
        for delta, a, ap, bridge in (
                (2.5, 1.0, 0.5, True), (0.5, 0.0, 0.0, True),
                (1.5, 1.0, 2.0, True), (2.5, 1.0, 0.0, False),
                (3.5, 0.5, 0.0, False), (0.7, 2.0, 0.0, False)):
            ctx = ctx_of(delta, a, ap, m, bridge)
            series = sigma_s_series(ctx, 0.4)
            for s in (1e-3, -1e-3, 1e-2, -1e-2):
                assert float(sigma_s(ctx, 0.4, s)) == pytest.approx(
                    np.polyval(series[::-1], s), rel=1e-12)
        # the first s = b^2 derivative matches a one-sided fit
        ctx = ctx_of(2.5, 1.0, 0.5, m)
        s_der = sigma_s_series(ctx, 0.4)[1]
        v0 = float(sigma_s(ctx, 0.4, 0.0))
        fit = (float(sigma_s(ctx, 0.4, 1e-3**2)) - v0) / 1e-6
        assert fit == pytest.approx(s_der, rel=1e-2)

    def test_conditioning_identity(self):
        # Sigma_a = int Sigma_{a,ap} p^delta_1(a, ap) dap to 1e-7
        delta, a, r, b = 2.5, 1.0, 0.4, 0.8
        m = FiniteMeasure.atom(0.6, 1.0)
        ctx_u = ctx_of(delta, a, 0.0, m, bridge=False)
        want = float(sigma_s(ctx_u, r, b**2))

        def integrand(ap):
            ctx = ctx_of(delta, a, float(ap), m)
            return (float(sigma_s(ctx, r, b**2))
                    * float(p_delta_t(delta, 1.0, a, float(ap))))

        val, _ = integrate.quad(integrand, 0.0, a + 8.0, epsabs=1e-12,
                                epsrel=1e-10, limit=200)
        assert val == pytest.approx(want, rel=1e-7)

    def test_linearity_wrapper(self):
        # Sigma acts term-by-term; verified through two contexts.
        m1, m2 = FiniteMeasure.atom(0.6, 1.0), FiniteMeasure.lebesgue(0.5)
        c1 = ctx_of(2.0, 0.0, 0.0, m1)
        c2 = ctx_of(2.0, 0.0, 0.0, m2)
        v = 2.0 * float(sigma_s(c1, 0.5, 1.0)) \
            + 3.0 * float(sigma_s(c2, 0.5, 1.0))
        assert np.isfinite(v)


def _kummer_referee(delta, a, t):
    """30-digit ``(zeta, zeta'', |zeta''| at a = 0)`` from
    E[X_t] = sqrt(2t) G((d+1)/2)/G(d/2) 1F1(-1/2; d/2; -a^2/(2t)), with
    zeta'' by mpmath's numerical differentiation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        d, a2 = mpmath.mpf(delta), mpmath.mpf(a) ** 2
        c = mpmath.gamma((d + 1) / 2) / mpmath.gamma(d / 2)

        def mean(tt):
            return (mpmath.sqrt(2 * tt) * c
                    * mpmath.hyp1f1(-0.5, d / 2, -a2 / (2 * tt)))
        tt = mpmath.mpf(t)
        return (float(mean(tt)), float(mpmath.diff(mean, tt, 2)),
                float(mpmath.sqrt(2) / 4 * c * tt ** -1.5))


class TestZeta:
    def test_closed_form_a0(self):
        assert zeta(2.0, 0.0, 0.5) == pytest.approx(math.sqrt(math.pi) / 2.0,
                                                    rel=1e-12)
        assert zeta(3.0, 0.0, 1.0) == pytest.approx(
            2.0 * math.sqrt(2.0) / math.sqrt(math.pi), rel=1e-12)

    def test_monotone_in_t(self):
        vals = [zeta(2.5, 0.0, t) for t in np.linspace(0.1, 1.0, 10)]
        assert all(np.diff(vals) > 0)

    def test_positive_start_quadrature(self):
        # E[X_t] >= sqrt(a^2) asymptotics sanity and dominance over a = 0
        assert zeta(2.5, 1.0, 0.3) > zeta(2.5, 0.0, 0.3)

    def test_second_deriv_closed_form_a0(self):
        delta, t = 2.5, 0.7
        want = (-math.sqrt(2.0) / 4.0 * t ** (-1.5)
                * special.gamma((delta + 1.0) / 2.0)
                / special.gamma(delta / 2.0))
        for second_deriv in (zeta_second_deriv_fp, zeta_second_deriv):
            got = second_deriv(delta, 0.0, t)
            assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("delta", [1.3, 2.5, 3.5])
    @pytest.mark.parametrize("a", [0.0, 0.8])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_dual_routes_agree(self, delta, a, t):
        fp = zeta_second_deriv_fp(delta, a, t)
        cf = zeta_second_deriv(delta, a, t)
        assert fp == pytest.approx(cf, rel=1e-4)

    @pytest.mark.parametrize("delta, a, t", [(0.5, 0.3, 0.01),
                                             (0.5, 0.8, 0.05)])
    def test_dual_routes_agree_small_t(self, delta, a, t):
        # the Taylor data of q_reg grows like (2t)^{-j} here, so the
        # finite-part tail switch has to move in towards 0
        fp = zeta_second_deriv_fp(delta, a, t)
        cf = zeta_second_deriv(delta, a, t)
        assert fp == pytest.approx(cf, rel=1e-4)

    @pytest.mark.parametrize("delta, a, t", [(0.5, 0.3, 0.01),
                                             (1.3, 0.8, 0.05),
                                             (3.5, 1.5, 0.3),
                                             (4.9, 0.8, 0.7)])
    def test_hypergeometric_closed_form(self, delta, a, t):
        want, want2, _ = _kummer_referee(delta, a, t)
        assert zeta(delta, a, t) == pytest.approx(want, rel=1e-13)
        for second_deriv in (zeta_second_deriv_fp, zeta_second_deriv):
            assert second_deriv(delta, a, t) == pytest.approx(want2,
                                                              rel=1e-11)

    @pytest.mark.parametrize("delta", [0.3, 0.5, 1.0, 2.5, 3.5, 10.0])
    def test_referee_grid(self, delta):
        # zeta'' of a start a > 0 can be far smaller than at a = 0, so both
        # routes are held to 1e-12 of |zeta''| at a = 0, C sqrt2 t^{-3/2}/4
        for a in (0.0, 0.5, 1.0, 3.0, 5.0, 10.0):
            for t in (0.05, 0.2, 0.5, 1.0, 2.0):
                want, want2, scale = _kummer_referee(delta, a, t)
                assert zeta(delta, a, t) == pytest.approx(want, rel=1e-13)
                for second_deriv in (zeta_second_deriv_fp,
                                     zeta_second_deriv):
                    got = second_deriv(delta, a, t)
                    assert abs(got - want2) <= 1e-12 * scale, (
                        a, t, second_deriv.__name__)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.5, 3.0, 10.0])
    def test_closed_form_far_start(self, delta):
        # past u = -a^2/(2t) = -1e7 the closed form sums M(3/2; delta/2; u)
        # by its expansion in 1/u, where scipy's M turns slow (delta = 1, 3)
        # or NaN (large delta)
        mpmath = pytest.importorskip("mpmath")
        t = np.array([0.2, 0.5, 0.8])
        for a in (1e3, 5e3, 1e6, 1e100):
            got = zeta_second_deriv(delta, a, t)
            with mpmath.workdps(30):
                d, a2 = mpmath.mpf(delta), mpmath.mpf(a) ** 2
                c = mpmath.gamma((d + 1) / 2) / mpmath.gamma(d / 2)
                want = [float(-c * (2 * tt) ** -1.5
                              * mpmath.hyp1f1(1.5, d / 2, -a2 / (2 * tt)))
                        for tt in map(mpmath.mpf, t)]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("delta, a", [(10.0, 1e50), (2.5, 1e101)])
    def test_far_start(self, delta, a):
        # past u = -a^2/(2t) = -1e7 zeta too sums M's expansion in 1/u,
        # where scipy's M(-1/2; delta/2; u) turns NaN or inf
        mpmath = pytest.importorskip("mpmath")
        t = 0.5
        with mpmath.workdps(30):
            d, a2 = mpmath.mpf(delta), mpmath.mpf(a) ** 2
            c = mpmath.gamma((d + 1) / 2) / mpmath.gamma(d / 2)
            want = float(c * mpmath.sqrt(2 * t)
                         * mpmath.hyp1f1(-0.5, d / 2, -a2 / (2 * t)))
        assert zeta(delta, a, t) == pytest.approx(want, rel=1e-13, abs=0.0)
