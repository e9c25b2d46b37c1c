"""Acceptance gate: the ten primary verification criteria, each at its stated
tolerance and time budget.  All stochastic checks use pinned seeds that were
verified once in advance; every test here is deterministic."""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import (bridge_marginal_cdf, derivative, gamma_3, p_delta_t,
                      q_delta_t, standard_battery, stock_fns, x_times)

from bessel_lab.core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump)
from bessel_lab.ibpf import IbpfCase, lhs_mc, rel_err, rhs_ibpf, verify
from bessel_lab.laplace_sigma import (SigmaContext, sigma_s, sigma_s_series,
                                      zeta_second_deriv, zeta_second_deriv_fp)
from bessel_lab.mu_dist import SmoothTestFn, mu_pair
from bessel_lab.samplers import (RngStream, bessel_bridge_general,
                                 bessel_bridge_integer)
from bessel_lab.specfun import bridge_density
from bessel_lab.spde import (bracket_ratio, field_to_u, gamma_rs,
                             martingale_regression, run_decomposition,
                             stationary_field)
from bessel_lab.sturm_liouville import solve_sl

H = bump(0.2)


class TestCriterion1IdentityBattery:
    """63 bridge cases, rel_err <= 1e-5 each, full battery <= 10 min."""

    def test_full_battery(self):
        t0 = time.time()
        with ProcessPoolExecutor(max_workers=4) as ex:
            reports = list(ex.map(verify, standard_battery()))
        elapsed = time.time() - t0
        assert len(reports) == 63
        failures = [(r.case_id, r.rel_err) for r in reports
                    if not (r.passed and r.rel_err <= 1e-5)]
        assert failures == []
        assert elapsed <= 600.0


MC_CASES = [
    (0.5, 0.0, 0.0, "m0"), (1.0, 0.0, 0.0, "atom"), (1.5, 0.0, 0.0, "leb"),
    (2.0, 0.0, 0.0, "m0"), (2.5, 0.0, 0.0, "atom"), (3.0, 0.0, 0.0, "leb"),
    (3.5, 0.0, 0.0, "m0"), (1.0, 1.0, 0.0, "leb"), (2.0, 1.0, 0.0, "atom"),
    (3.0, 1.0, 0.0, "m0"), (2.5, 1.0, 2.0, "atom"), (3.5, 1.0, 2.0, "m0"),
]

_MEASURES = {"m0": None,
             "atom": FiniteMeasure.atom(0.6, 1.0),
             "leb": FiniteMeasure.lebesgue(0.5)}


def _mc_case(idx):
    delta, a, ap, tag = MC_CASES[idx]
    m = _MEASURES[tag]
    phi = ExpFunctional.one() if m is None else ExpFunctional.single(m)
    case = IbpfCase(BridgeSpec(delta, a, ap), phi, H)
    rhs = rhs_ibpf(case)
    mean, se = lhs_mc(case, 100000, RngStream(2026, 100 + idx))
    return abs(mean - rhs) / se


class TestCriterion2MonteCarloCrossCheck:
    """12 selected cases, |LHS_MC - RHS| <= 3 stderr, N = 1e5, <= 20 min."""

    def test_mc_battery(self):
        t0 = time.time()
        with ProcessPoolExecutor(max_workers=4) as ex:
            zs = list(ex.map(_mc_case, range(len(MC_CASES))))
        elapsed = time.time() - t0
        bad = [(MC_CASES[i], z) for i, z in enumerate(zs) if z > 3.0]
        assert bad == []
        assert elapsed <= 1200.0


class TestCriterion3SecondDerivativeRoutes:
    """zeta'' closed-form vs finite-part to rel 1e-4; the a = 0 closed
    form."""

    @pytest.mark.parametrize("delta", [1.3, 2.5, 3.5])
    @pytest.mark.parametrize("a", [0.0, 0.8])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_routes_agree(self, delta, a, t):
        fp = zeta_second_deriv_fp(delta, a, t)
        cf = zeta_second_deriv(delta, a, t)
        assert rel_err(fp, cf) <= 1e-4

    @pytest.mark.parametrize("delta", [1.3, 2.5, 3.5])
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_closed_form_at_zero(self, delta, t):
        want = (-math.sqrt(2.0) / 4.0 * t ** (-1.5)
                * special.gamma((delta + 1.0) / 2.0)
                / special.gamma(delta / 2.0))
        for second_deriv in (zeta_second_deriv_fp, zeta_second_deriv):
            got = second_deriv(delta, 0.0, t)
            assert got == pytest.approx(want, rel=1e-4)


ALPHAS = [-2.2, -1.5, -1.0, -0.5, 0.0, 0.7, 1.0, 2.3]


class TestCriterion4MuCalculus:
    """Derivative/multiplication identities to 1e-8; exponential eigen
    relation to 1e-8; integer-crossing continuity to 1e-5."""

    @pytest.mark.parametrize("alpha", [a for a in ALPHAS if a >= -1.5])
    def test_derivative_identity(self, alpha):
        for f in stock_fns():
            assert mu_pair(alpha, derivative(f)) == pytest.approx(
                -mu_pair(alpha - 1.0, f), abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_multiplication_identity(self, alpha):
        for f in stock_fns():
            assert mu_pair(alpha, x_times(f)) == pytest.approx(
                alpha * mu_pair(alpha + 1.0, f), abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exponential_eigen(self, alpha):
        for lam in (0.5, 1.0, 3.0):
            assert mu_pair(alpha, SmoothTestFn.exp_decay(lam)) == \
                pytest.approx(lam ** (-alpha), abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("k", [-2, -1, 0])
    def test_integer_crossing(self, k):
        for f in stock_fns():
            mid = mu_pair(float(k), f)
            scale = max(abs(mid), 1.0)
            assert abs(mu_pair(k - 1e-6, f) - mid) < 1e-5 * scale
            assert abs(mu_pair(k + 1e-6, f) - mid) < 1e-5 * scale


class TestCriterion5DensityLayer:
    def test_detailed_balance(self):
        for delta, t, a, b in [(1.5, 0.4, 0.7, 1.3), (2.7, 0.6, 1.1, 0.4)]:
            lhs = a ** (delta - 1) * float(p_delta_t(delta, t, a, b))
            rhs = b ** (delta - 1) * float(p_delta_t(delta, t, b, a))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_normalisations(self):
        for delta, t, a in [(2.7, 0.5, 1.1), (1.3, 0.3, 0.0)]:
            val, _ = integrate.quad(
                lambda b: float(p_delta_t(delta, t, a, b)), 0.0, 14.0,
                epsabs=1e-12, limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_chapman_kolmogorov(self):
        delta, s, t, x, y = 3.0, 0.2, 0.3, 1.0, 2.0
        val, _ = integrate.quad(
            lambda z: float(q_delta_t(delta, s, x, z)
                            * q_delta_t(delta, t, z, y)),
            0.0, 40.0, epsabs=1e-12, limit=400)
        assert val == pytest.approx(float(q_delta_t(delta, s + t, x, y)),
                                    rel=1e-6)

    def test_kolmogorov_pde_residual(self):
        for delta, t, x, y in [(2.5, 0.5, 1.0, 1.3), (3.5, 0.4, 0.7, 2.0)]:
            ht, hy = 1e-4 * t, 1e-4 * max(y, 1.0)

            def q(tt, yy):
                return float(q_delta_t(delta, tt, x, yy))

            def rich(fd, h):
                return (4.0 * fd(h / 2.0) - fd(h)) / 3.0

            dt = rich(lambda h: (q(t + h, y) - q(t - h, y)) / (2 * h), ht)
            dy = rich(lambda h: (q(t, y + h) - q(t, y - h)) / (2 * h), hy)
            dyy = rich(lambda h: (q(t, y + h) - 2 * q(t, y)
                                  + q(t, y - h)) / h**2, hy)
            resid = dt - (4.0 - delta) * dy - 2.0 * y * dyy
            assert abs(resid) / max(abs(dt), abs(dy), abs(dyy), 1.0) < 1e-6


class TestCriterion6SigmaStructure:
    def test_b_derivative_vanishes(self):
        # Sigma is analytic in s = b^2 (so even in b) through s = 0
        for spec, bridge in ((BridgeSpec(2.5, 1.0, 0.5), True),
                             (BridgeSpec(1.5, 1.0, 0.0), False)):
            ctx = SigmaContext(spec, FiniteMeasure.atom(0.6, 1.0), bridge)
            series = sigma_s_series(ctx, 0.4)
            for s in (1e-3, -1e-3, 1e-2, -1e-2):
                assert float(sigma_s(ctx, 0.4, s)) == pytest.approx(
                    np.polyval(series[::-1], s), rel=1e-12)

    def test_conditioning_identity(self):
        delta, a, r, b = 2.5, 1.0, 0.4, 0.8
        m = FiniteMeasure.atom(0.6, 1.0)
        want = float(sigma_s(SigmaContext(BridgeSpec(delta, a, 0.0), m,
                                          False), r, b**2))

        def integrand(ap):
            ctx = SigmaContext(BridgeSpec(delta, a, float(ap)), m, True)
            return (float(sigma_s(ctx, r, b**2))
                    * float(p_delta_t(delta, 1.0, a, float(ap))))

        val, _ = integrate.quad(integrand, 0.0, a + 8.0, epsabs=1e-12,
                                epsrel=1e-10, limit=200)
        assert val == pytest.approx(want, rel=1e-7)

    def test_zero_boundary_closed_form(self):
        theta = 1.0
        for delta in (1.5, 2.0, 3.0):
            ctx = SigmaContext(BridgeSpec(delta, 0.0, 0.0),
                               FiniteMeasure.lebesgue(theta**2 / 2.0), True)
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


class TestCriterion7Delta3SpecialCase:
    def test_gamma_route_equals_branch(self):
        for a in (0.0, 1.0):
            case = IbpfCase(BridgeSpec(3.0, a, a), ExpFunctional.one(), H)
            rhs = rhs_ibpf(case)
            want, _ = integrate.quad(
                lambda r: -float(H(r)) * gamma_3(r, a), 0.2, 0.8,
                epsabs=1e-13, epsrel=1e-10, limit=200)
            assert rhs == pytest.approx(want, rel=1e-7)

    def test_gamma_density_limit(self):
        eps = 1e-4
        for r, a in [(0.3, 1.2), (0.5, 0.0), (0.7, 0.5)]:
            approx = 0.5 * float(bridge_density(3.0, r, a, a, eps)) / eps**2
            g = gamma_3(r, a)
            assert abs(approx - g) <= 1e-5 * max(1.0, g)


KS_SEEDS = {0.7: (40, 7), 1.0: (40, 10), 1.5: (40, 15),
            2.0: (40, 20), 2.7: (40, 27), 3.0: (40, 31)}


class TestCriterion8Samplers:
    TIMES = np.linspace(0.0, 1.0, 17)
    IDXS = [2, 5, 8, 11, 14]

    @pytest.mark.parametrize("delta", sorted(KS_SEEDS))
    def test_marginal_ks(self, delta):
        paths = bessel_bridge_general(delta, 0.0, 0.0, self.TIMES,
                                      RngStream(*KS_SEEDS[delta]), size=20000)
        for i in self.IDXS:
            cdf = bridge_marginal_cdf(delta, self.TIMES[i], 0.0, 0.0)
            ks = stats.kstest(paths[:, i], cdf)
            assert ks.pvalue > 0.01 / len(self.IDXS)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_integer_two_sampler_agreement(self, delta):
        n = 10000
        pg = bessel_bridge_integer(delta, self.TIMES, RngStream(30, delta),
                                   size=n)
        pq = bessel_bridge_general(float(delta), 0.0, 0.0, self.TIMES,
                                   RngStream(31, delta), size=n)
        for i in self.IDXS:
            ks = stats.ks_2samp(pg[:, i], pq[:, i])
            assert ks.pvalue > 0.01 / len(self.IDXS)


class TestCriterion9SturmLiouville:
    def test_cosh_closed_form(self):
        th = 1.0
        sol = solve_sl(FiniteMeasure.lebesgue(th**2 / 2.0))
        for r in np.linspace(0.0, 1.0, 21):
            assert sol.phi(r) == pytest.approx(
                math.cosh(th * (1.0 - r)) / math.cosh(th), rel=1e-10)
            want = (math.cosh(th) ** 2
                    * (math.tanh(th) - math.tanh(th * (1.0 - r))) / th)
            assert sol.rho(r) == pytest.approx(want, rel=1e-10,
                                                   abs=1e-12)

    def test_atomic_closed_form(self):
        sol = solve_sl(FiniteMeasure.atom(0.5, 1.0))
        for r in np.linspace(0.0, 0.5, 11):
            assert sol.phi(r) == pytest.approx(1.0 - r, abs=1e-12)
        for r in (0.6, 0.75, 1.0):
            assert sol.phi(r) == pytest.approx(0.5, abs=1e-12)
            assert sol.rho(r) == pytest.approx(1.0 + 4.0 * (r - 0.5),
                                                   abs=1e-12)

    def test_refinement_stability(self):
        coarse = FiniteMeasure(pieces=[(0.0, 1.0, [0.7])])
        fine = FiniteMeasure(pieces=[(0.0, 0.5, [0.7]), (0.5, 1.0, [0.7])])
        s1, s2 = solve_sl(coarse), solve_sl(fine)
        for r in np.linspace(0.0, 1.0, 21):
            assert s1.phi(r) == pytest.approx(s2.phi(r), rel=1e-11)
            assert s1.rho(r) == pytest.approx(s2.rho(r), rel=1e-10,
                                                  abs=1e-12)


class TestCriterion10Spde:
    """Full delta = 2 SPDE diagnostic run: K = 256, dt = 1e-5, T = 0.05,
    eps = 0.05, eta = 0.01, 200 replicas; <= 60 min."""

    THETA = 0.2

    def test_stationary_marginals(self):
        fld = stationary_field(256, RngStream(71, 4), replicas=10000)
        for r in (0.25, 0.5, 0.75):
            u = field_to_u(fld, 4)[:, round(4 * r)]
            q = r * (1.0 - r)
            ks = stats.kstest(
                u, lambda x, q=q: 1.0 - np.exp(-x**2 / (2 * q)))
            assert ks.pvalue > 0.01

    def test_decomposition_diagnostics(self):
        t0 = time.time()
        ser = run_decomposition(H, 0.05, 0.01, 0.05, 1e-5, 256,
                                RngStream(2026, 5), replicas=200,
                                store_every=100)
        elapsed = time.time() - t0
        ratio, se = bracket_ratio(ser, H)
        assert 0.85 <= ratio <= 1.15
        coef, stderrs = martingale_regression(ser)
        assert np.all(np.abs(coef) <= 3.0 * stderrs)
        assert elapsed <= 3600.0

    def test_gamma_determinant_bound(self):
        grid = np.linspace(self.THETA, 1.0 - self.THETA, 7)
        r, s = np.meshgrid(grid, grid)
        off = np.abs(r - s) >= 1e-12
        det, bound = gamma_rs(r[off], s[off], 0.05, self.THETA, 256)
        assert det.shape == (42,)
        assert np.all(det >= bound)
