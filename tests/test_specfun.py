import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from conftest import p_delta_t, q_delta_t

from bessel_lab.specfun import (_SERIES_W_MAX, DomainError, _s_nu,
                                besq_density_reg, besq_density_reg_ytaylor,
                                bridge_density)


class TestHyp0f1Branch:
    """The series branch of the kernel, w = xy/(4t^2) < 400: S_nu summed from
    its own coefficient table."""

    @pytest.mark.parametrize("nu", [-0.75, -0.5, 0.0, 0.25, 0.75, 1.5])
    def test_against_mpmath(self, nu):
        # q_reg = (2t)^{-delta/2} exp(-(x+y)/2t) 0F1(; nu+1; w) / Gamma(nu+1)
        # for w from -0.1 (y < 0) to just below the branch seam; the lower
        # end stays clear of the zero of S_{-3/4} at w = -0.28.
        delta, t = 2.0 * (nu + 1.0), 0.5
        ws = np.linspace(-0.1, 399.99, 50)
        for x in (2.0, 7.0):
            y = 4.0 * t * t * ws / x
            with mpmath.workdps(40):
                ref = np.array([float(
                    (2 * t) ** (-mpmath.mpf(delta) / 2)
                    * mpmath.exp(-(x + mpmath.mpf(yi)) / (2 * t))
                    * mpmath.hyp0f1(nu + 1, x * mpmath.mpf(yi) / (4 * t * t))
                    / mpmath.gamma(nu + 1)) for yi in y])
            got = besq_density_reg(delta, t, x, y)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("nu", [-0.99, -0.75, -0.5, 0.0, 0.25, 1.0, 2.5,
                                    7.3, 12.0, 20.0])
    def test_s_nu_against_mpmath(self, nu):
        # S_nu(w) = 0F1(; nu+1; w) / Gamma(nu+1) from w = -1 to just below the
        # switch to ive.  The sum alternates for w < 0, so the error is
        # measured against the sum of the absolute terms, S_nu(|w|).  One
        # array call, whose largest |w| sets the term count of every point,
        # and one 0-d call per point.
        ws = np.concatenate([np.linspace(-1.0, 0.0, 11),
                             np.geomspace(1e-6, 399.99, 60)])
        with mpmath.workdps(30):
            ref, absum = (np.array([float(mpmath.hyp0f1(nu + 1, v)
                                          / mpmath.gamma(nu + 1)) for v in vs])
                          for vs in (ws, np.abs(ws)))
        for got in (_s_nu(nu, ws), [_s_nu(nu, np.asarray(w)) for w in ws]):
            assert np.max(np.abs(got - ref) / absum) < 4e-15


class TestBesselIScaled:
    """The scaled-Bessel (``ive``) branch of the kernel, w = xy/(4t^2) >= 400,
    and the top of the series branch below it."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.25, 0.75, 1.5])
    def test_against_mpmath(self, nu):
        # q_reg = exp(-(x+y)/2t) (xy)^{-nu/2} I_nu(sqrt(xy)/t) / (2t), for
        # Bessel arguments sqrt(xy)/t from 10.5 to 700
        delta, t = 2.0 * (nu + 1.0), 0.5
        zs = np.logspace(math.log10(10.5), math.log10(700.0), 40)
        for ratio in (1.0, 1.3):
            x = zs * t / math.sqrt(ratio)
            y = ratio * x
            # both branches: the top of the series and the ive branch
            big = x * y / (4.0 * t * t) >= _SERIES_W_MAX
            assert np.any(big) and not np.all(big)
            with mpmath.workdps(30):
                ref = np.array([float(
                    mpmath.exp(-(mpmath.mpf(xi) + yi) / (2 * t))
                    * (mpmath.mpf(xi) * yi) ** (-nu / 2)
                    * mpmath.besseli(nu, mpmath.sqrt(mpmath.mpf(xi) * yi) / t)
                    / (2 * t)) for xi, yi in zip(x, y)])
            got = besq_density_reg(delta, t, x, y)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12

    def test_half_order_closed_form(self):
        # delta = 3: I_{1/2}(z) = sqrt(2/(pi z)) sinh(z), z = sqrt(xy)/t = 24
        # (w = 144, the series) and 220 (w = 12100, ive)
        t = 0.5
        for x, y, series in ((9.0, 16.0, True), (100.0, 121.0, False)):
            assert (x * y / (4.0 * t * t) < _SERIES_W_MAX) == series
            z = math.sqrt(x * y) / t
            want = (0.5 * (math.exp(-(math.sqrt(x) - math.sqrt(y)) ** 2
                                    / (2 * t))
                           - math.exp(-(math.sqrt(x) + math.sqrt(y)) ** 2
                                      / (2 * t)))
                    * (x * y) ** -0.25 * math.sqrt(2.0 / (math.pi * z))
                    / (2 * t))
            assert besq_density_reg(3.0, t, x, y) == pytest.approx(want,
                                                                   rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            besq_density_reg(0.0, 0.5, 9.0, 16.0)  # nu = -1
        with pytest.raises(DomainError):
            besq_density_reg(2.5, 0.5, -9.0, 16.0)


class TestQDeltaT:
    def test_zero_branch_value(self):
        # delta=2, t=1/2, x=0, y -> 0+:  (2t)^{-1} e^{-y/2t} -> 1
        assert q_delta_t(2.0, 0.5, 0.0, 1e-14) == pytest.approx(1.0, rel=1e-10)

    def test_normalisation(self):
        delta, t, x = 2.5, 0.3, 1.7
        val, _ = integrate.quad(
            lambda y: float(besq_density_reg(delta, t, x, y)),
            0.0, 60.0, weight="alg", wvar=(delta / 2.0 - 1.0, 0.0),
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
        # Forward equation: d_t q = (4 - delta) d_y q + 2 y d^2_y q.
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
            scale = max(abs(dt), abs(dy), abs(dyy), 1.0)
            assert abs(resid) / scale < 1e-6

    def test_reg_consistency(self):
        delta, t, x = 1.7, 0.4, 0.9
        for y in (0.1, 1.0, 10.0):
            lhs = besq_density_reg(delta, t, x, y) * y ** (delta / 2.0 - 1.0)
            assert lhs == pytest.approx(float(q_delta_t(delta, t, x, y)),
                                        rel=1e-12)

    def test_reg_zero_branches(self):
        from scipy.special import gamma
        delta, t = 2.5, 0.4
        want = (2 * t) ** (-delta / 2) / gamma(delta / 2)
        assert besq_density_reg(delta, t, 0.0, 0.0) == pytest.approx(
            want, rel=1e-13)
        x = 1.3
        assert besq_density_reg(delta, t, x, 0.0) == pytest.approx(
            want * math.exp(-x / (2 * t)), rel=1e-13)

    def test_reg_symmetry_and_branch_seam(self):
        delta, t = 2.2, 0.3
        # w = xy/(4t^2) = 400 at x = y = 12: the two last pairs straddle the
        # switch from the series to ive, where the kernel is flat in y
        below, above = 12.0 * (1.0 - 1e-12), 12.0 * (1.0 + 1e-12)
        for x, y in [(0.5, 1.0), (3.0, 4.0), (9.0, 12.0), (10.0, 30.0),
                     (12.0, below), (12.0, above)]:
            assert besq_density_reg(delta, t, x, y) == pytest.approx(
                float(besq_density_reg(delta, t, y, x)), rel=1e-11)
        assert besq_density_reg(delta, t, 12.0, below) == pytest.approx(
            float(besq_density_reg(delta, t, 12.0, above)), rel=1e-11)

    def test_ytaylor_matches_kernel(self):
        delta, t, x = 1.5, 0.35, 1.1
        c = besq_density_reg_ytaylor(delta, t, x, 12)
        for y in (1e-3, 0.01, 0.05):
            series = sum(cj * y**j for j, cj in enumerate(c))
            assert series == pytest.approx(
                float(besq_density_reg(delta, t, x, y)), rel=1e-10)

    @pytest.mark.parametrize("delta,t,x", [
        (0.5, 0.05, 3.0), (1.5, 0.35, 1.1), (3.5, 1.2, 0.0), (4.9, 0.01, 0.4),
        (2.5, [0.05, 0.35, 1.2], [3.0, 1.1, 0.0])])
    def test_ytaylor_matches_cauchy_product(self, delta, t, x):
        # reference: the term-by-term Cauchy product of the S_nu and exp
        # series; summation order may differ, so a few ulp of the sum of
        # absolute terms.  Array (t, x) gives one row of coefficients each.
        t, x = np.asarray(t), np.asarray(x)
        nu, c, n = 0.5 * delta - 1.0, x / (4.0 * t * t), 15
        s = [c**k / math.factorial(k) / math.gamma(k + nu + 1.0)
             for k in range(n)]
        e = [(-0.5 / t) ** k / math.factorial(k) for k in range(n)]
        pref = (2.0 * t) ** (-0.5 * delta) * np.exp(-x / (2.0 * t))
        want = [pref * sum(e[i] * s[j - i] for i in range(j + 1))
                for j in range(n)]
        scale = [pref * sum(np.abs(e[i] * s[j - i]) for i in range(j + 1))
                 for j in range(n)]
        got = besq_density_reg_ytaylor(delta, t, x, n - 1)
        assert got.shape == t.shape + (n,)
        err = np.abs(got - np.stack(want, axis=-1))
        assert np.all(err <= 8.0 * np.finfo(float).eps
                      * np.stack(scale, axis=-1))

    def test_array_t_matches_scalar_t(self):
        # both branches (w up to about 6000), one row per time
        delta, x = 2.2, 2.0
        t = np.array([0.05, 0.3, 1.2])
        y = np.linspace(-0.05, 30.0, 41)
        got = besq_density_reg(delta, t[:, None], x, y)
        for ti, row in zip(t, got):
            np.testing.assert_array_max_ulp(
                row, besq_density_reg(delta, ti, x, y), maxulp=1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_delta_t(-1.0, 0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            q_delta_t(2.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            q_delta_t(2.0, 0.5, -1.0, 1.0)


class TestPDeltaT:
    def test_detailed_balance(self):
        delta, t, a, b = 1.5, 0.4, 0.7, 1.3
        lhs = a ** (delta - 1) * float(p_delta_t(delta, t, a, b))
        rhs = b ** (delta - 1) * float(p_delta_t(delta, t, b, a))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_normalisation(self):
        delta, t, a = 2.7, 0.5, 1.1
        val, _ = integrate.quad(
            lambda b: float(p_delta_t(delta, t, a, b)), 0.0, 12.0,
            epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_relation_to_q(self):
        delta, t, a, b = 2.3, 0.6, 0.8, 1.4
        want = 2.0 * b * float(q_delta_t(delta, t, a**2, b**2))
        assert float(p_delta_t(delta, t, a, b)) == pytest.approx(
            want, rel=1e-14)

    def test_delta2_zero_start(self):
        t, b = 0.4, 1.1
        want = (b / t) * math.exp(-b * b / (2 * t))
        assert float(p_delta_t(2.0, t, 0.0, b)) == pytest.approx(
            want, rel=1e-13)


class TestBridgeDensities:
    def test_bridge_time_reversal(self):
        # The bridge a -> ap read backwards is the bridge ap -> a.
        for b in (0.3, 1.0, 2.5):
            assert float(bridge_density(2.5, 0.3, 0.7, 1.9, b)) == \
                pytest.approx(float(bridge_density(2.5, 0.7, 1.9, 0.7, b)),
                              rel=1e-12)

    def test_bridge_closed_form_delta3(self):
        # delta=3, a=ap=0, r=1/2: p(b) = 16 b^2 e^{-2b^2} / sqrt(2 pi)
        for b in (0.2, 0.7, 1.5):
            want = 16.0 * b * b * math.exp(-2.0 * b * b) / math.sqrt(2 * math.pi)
            assert float(bridge_density(3.0, 0.5, 0.0, 0.0, b)) == \
                pytest.approx(want, rel=1e-12)

    def test_bridge_normalisation(self):
        val, _ = integrate.quad(
            lambda b: float(bridge_density(1.5, 0.3, 1.0, 2.0, b)),
            1e-12, 12.0, epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_bridge_continuity_at_zero_endpoint(self):
        for b in (0.3, 1.0):
            v0 = float(bridge_density(1.5, 0.4, 1.0, 0.0, b))
            v1 = float(bridge_density(1.5, 0.4, 1.0, 1e-8, b))
            assert v1 == pytest.approx(v0, rel=1e-6)

    def test_even_extension_smoothness(self):
        # b -> p(b)/b^{delta-1} has vanishing first divided difference at 0.
        delta, r, a, ap = 2.5, 0.4, 1.0, 0.5

        def f(b):
            if b == 0.0:
                return 2.0 * float(
                    besq_density_reg(delta, r, a**2, 0.0)
                    * besq_density_reg(delta, 1.0 - r, 0.0, ap**2)
                    / besq_density_reg(delta, 1.0, a**2, ap**2))
            return float(bridge_density(delta, r, a, ap, b)) / b ** (delta - 1)

        h = 1e-6
        assert abs((f(h) - f(0.0)) / h) < 1e-4 * max(1.0, abs(f(0.0)))
