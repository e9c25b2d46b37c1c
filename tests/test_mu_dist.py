import dataclasses
import math

import numpy as np
import pytest

from conftest import derivative, stock_fns, x_times

from bessel_lab import ibpf, mu_dist, quadrature
from bessel_lab.core import BridgeSpec, ExpFunctional, bump
from bessel_lab.ibpf import IbpfCase, rhs_ibpf
from bessel_lab.laplace_sigma import sigma_s
from bessel_lab.mu_dist import (MuConvergenceError, SmoothTestFn,
                                finite_part, mu_pair)
from bessel_lab.quadrature import decay_cutoff

ALPHA_BATTERY = [-2.2, -1.5, -1.0, -0.5, 0.0, 0.7, 1.0, 2.3]


class TestMuBranches:
    def test_mu0_is_dirac(self):
        for f in stock_fns():
            assert mu_pair(0.0, f) == pytest.approx(float(f(0.0)), abs=1e-14)

    def test_integer_branch(self):
        # alpha = -1, f = e^{-x}: (-1)^1 f'(0) = 1
        assert mu_pair(-1.0, SmoothTestFn.exp_decay(1.0)) == pytest.approx(1.0)
        # alpha = -2: f''(0) = 1
        assert mu_pair(-2.0, SmoothTestFn.exp_decay(1.0)) == pytest.approx(1.0)

    def test_negative_noninteger_exponential(self):
        # <mu_{-1.5}, e^{-lam x}> = lam^{1.5}
        for lam in (0.5, 1.0, 3.0):
            f = SmoothTestFn.exp_decay(lam)
            assert mu_pair(-1.5, f) == pytest.approx(lam**1.5, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, -0.5])
    def test_zero_function(self, alpha):
        # |f| has no peak on the decay probe grid
        zero = SmoothTestFn(lambda x: 0.0 * np.asarray(x, float), np.zeros(9))
        assert mu_pair(alpha, zero) == 0.0

    @pytest.mark.parametrize("alpha", [-2.2, -2.0, -1.5, -1.0, -0.5, 0.7,
                                       3.5])
    def test_too_few_derivatives(self, alpha):
        # max(ceil(-alpha), 0) + 3 orders are needed (order -alpha at
        # integer alpha <= 0); one fewer is refused
        need = (int(-alpha) if alpha == round(alpha)
                else max(math.ceil(-alpha), 0) + 3)
        f = SmoothTestFn.exp_decay(1.0)
        short = SmoothTestFn(f.f, f.taylor[:need])
        with pytest.raises(ValueError, match="needs derivatives"):
            mu_pair(alpha, short)
        enough = SmoothTestFn(f.f, f.taylor[:need + 1])
        assert mu_pair(alpha, enough) == pytest.approx(1.0, rel=1e-10)

    def test_nonconvergence_is_typed(self):
        # a decaying f that no panel count resolves
        rough = SmoothTestFn(
            lambda x: np.exp(-np.asarray(x, float))
            * np.sign(np.sin(1e7 * np.asarray(x, float))), np.zeros(9))
        with pytest.raises(MuConvergenceError):
            mu_pair(-0.5, rough)

    def test_slow_decay_cutoff(self):
        # exp(-x/2) is still at 1e-13 at x = 60; the cutoff must look further
        f = SmoothTestFn.exp_decay(0.5)
        for alpha in np.arange(-25, 51) / 10.0:
            if alpha != round(alpha):
                assert mu_pair(alpha, f) == pytest.approx(2.0**alpha,
                                                          rel=1e-11)

    def test_no_decay_is_typed(self):
        with pytest.raises(MuConvergenceError, match="not decayed"):
            mu_pair(0.5, SmoothTestFn.exp_decay(1e-4))

    def test_alpha_out_of_range(self):
        f = SmoothTestFn.exp_decay(1.0)
        with pytest.raises(ValueError):
            mu_pair(-3.0, f)
        with pytest.raises(ValueError):
            mu_pair(5.5, f)


class TestFinitePart:
    @pytest.mark.parametrize("alpha", [-1.0, -1.0 - 1e-7, -1.0 + 1e-7, -0.5,
                                       -1.5])
    def test_gauss_closed_form(self, alpha):
        # Gamma(alpha) <mu_alpha, e^{-x^2}> = Gamma(alpha/2)/2, finite at
        # alpha = -1, where e^{-x^2} has no order-1 Taylor term
        got = finite_part(alpha, SmoothTestFn.gauss())
        assert got == pytest.approx(0.5 * math.gamma(alpha / 2.0),
                                    rel=1e-13, abs=0.0)

    def test_pole_is_refused(self):
        # e^{-x} has c_1 = -1: Gamma(alpha) <mu_alpha, e^{-x}> has a pole
        # at alpha = -1
        with pytest.raises(ValueError, match="pole"):
            finite_part(-1.0, SmoothTestFn.exp_decay(1.0))


def exp_rows(lams):
    """The row of functions exp(-lam x), one row per entry of ``lams``
    (lam = 0 is the zero function here, not the constant 1)."""
    lams = np.asarray(lams, dtype=float)
    amp = (lams != 0.0).astype(float)
    return SmoothTestFn(
        lambda x: amp[:, None] * np.exp(-lams[:, None] * x),
        np.array([amp * (-lams) ** j / math.factorial(j)
                  for j in range(9)]).T,
        label="exp rows")


class TestMuRows:
    # e^{-x/2} and e^{-x/4} need one and two window doublings, 1, 3 and
    # the zero function none
    LAMS = [0.5, 1.0, 3.0, 0.0, 0.25]

    @pytest.mark.parametrize("alpha", ALPHA_BATTERY)
    def test_rows_equal_scalar_pairings(self, alpha):
        got = mu_pair(alpha, exp_rows(self.LAMS))
        assert np.shape(got) == (len(self.LAMS),)
        for lam, val in zip(self.LAMS, got):
            if lam == 0.0:
                assert val == 0.0
            else:
                want = mu_pair(alpha, SmoothTestFn.exp_decay(lam))
                assert val == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_window_doubles_per_row(self, monkeypatch):
        windows = []

        def recording(f, lo, hi, **kw):
            windows.append(np.array(hi))
            return decay_cutoff(f, lo, hi, **kw)

        monkeypatch.setattr(mu_dist, "decay_cutoff", recording)
        mu_pair(-0.5, exp_rows(self.LAMS))
        assert np.array_equal(windows[-1], [120.0, 60.0, 60.0, 60.0, 240.0])

    @pytest.mark.parametrize("alpha", ALPHA_BATTERY)
    def test_small_window_doubles_until_decayed(self, alpha, monkeypatch):
        # a first window far too small doubles (2 -> 64 for exp(-x) at
        # rel 1e-18) and pairs as the default window does, and as
        # <mu_alpha, e^{-x}> = 1
        windows = []

        def recording(f, lo, hi, **kw):
            windows.append(float(hi))
            return decay_cutoff(f, lo, hi, **kw)

        f = SmoothTestFn.exp_decay(1.0)
        want = mu_pair(alpha, f)
        monkeypatch.setattr(mu_dist, "decay_cutoff", recording)
        got = mu_pair(alpha, dataclasses.replace(f, window=2.0))
        if alpha != round(alpha) or alpha > 0:
            assert windows == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got == pytest.approx(1.0, rel=1e-8)

    def test_one_row_without_decay_is_typed(self):
        with pytest.raises(MuConvergenceError, match="not decayed"):
            mu_pair(0.5, exp_rows([1.0, 1e-4, 3.0]))


def sigma_rows(ctx, r, series):
    """The unified RHS's row of functions ``b -> Sigma_r(b)``, one row per
    entry of ``r``, with their even b-Taylor coefficients ``series``."""
    taylor = np.zeros((r.size, 2 * series.shape[-1] - 1))
    taylor[:, ::2] = series
    return SmoothTestFn(lambda b: sigma_s(ctx, r[:, None], b**2), taylor,
                        label="Sigma")


class TestBatchInvariance:
    @pytest.fixture(scope="class")
    def second_round(self):
        # the (context, r-nodes, Sigma series) of the second outer round of
        # the finite_part benchmark's unified RHS: delta = 2.5, a = a' = 0,
        # Phi = 1, bump(0.2)
        rounds = []

        def recording(ctx, r, series=ibpf.sigma_s_series):
            rounds.append((ctx, r, series(ctx, r)))
            return rounds[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ibpf, "sigma_s_series", recording)
            rhs_ibpf(IbpfCase(BridgeSpec(2.5, 0.0, 0.0), ExpFunctional.one(),
                              bump(0.2)), route="unified")
        assert [r.size for _, r, _ in rounds] == [64, 128]
        return rounds[1]

    def test_round_equals_its_slices(self, second_round):
        ctx, r, series = second_round
        whole = mu_pair(-0.5, sigma_rows(ctx, r, series))
        parts = np.concatenate([
            mu_pair(-0.5, sigma_rows(ctx, r[i:i + 16], series[i:i + 16]))
            for i in range(0, r.size, 16)])
        assert np.array_equal(whole, parts)

    def test_sliced_probes_give_unsliced_cutoffs(self, second_round,
                                                 monkeypatch):
        # the unified route's probes of the round, on its windows: 128 rows
        # of 100 probes fit in one PROBE_SLICE, so a smaller slice is set
        ctx, r, series = second_round
        fn, calls = sigma_rows(ctx, r, series), []

        def f(b):
            calls.append(b.size)
            return fn(b)

        window = np.sqrt(ibpf._s_scales(ctx, r)[1])
        monkeypatch.setattr(quadrature, "PROBE_SLICE", 4096)
        sliced = decay_cutoff(f, 0.0, window, rel=1e-18)
        assert len(calls) > 1 and max(calls) <= quadrature.PROBE_SLICE
        monkeypatch.setattr(quadrature, "PROBE_SLICE", r.size * 100)
        calls.clear()
        whole = decay_cutoff(f, 0.0, window, rel=1e-18)
        assert calls == [r.size * 100]
        assert np.array_equal(sliced, whole)


class TestMuIdentities:
    @pytest.mark.parametrize("alpha", [a for a in ALPHA_BATTERY if a >= -1.5])
    def test_derivative_identity(self, alpha):
        # <mu_alpha, f'> = -<mu_{alpha-1}, f>
        for f in stock_fns():
            lhs = mu_pair(alpha, derivative(f))
            rhs = -mu_pair(alpha - 1.0, f)
            assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHA_BATTERY)
    def test_multiplication_identity(self, alpha):
        # <mu_alpha(x), x f(x)> = alpha <mu_{alpha+1}, f>
        for f in stock_fns():
            lhs = mu_pair(alpha, x_times(f))
            rhs = alpha * mu_pair(alpha + 1.0, f)
            assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("alpha", ALPHA_BATTERY)
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_exponential_eigen_relation(self, alpha, lam):
        f = SmoothTestFn.exp_decay(lam)
        assert mu_pair(alpha, f) == pytest.approx(lam ** (-alpha),
                                                  abs=1e-8, rel=1e-8)

    @pytest.mark.parametrize("k", [-2, -1, 0])
    def test_integer_crossing_continuity(self, k):
        for f in stock_fns():
            mid = mu_pair(float(k), f)
            lo = mu_pair(k - 1e-6, f)
            hi = mu_pair(k + 1e-6, f)
            scale = max(abs(mid), 1.0)
            assert abs(lo - mid) < 1e-5 * scale
            assert abs(hi - mid) < 1e-5 * scale


class TestSmoothTestFn:
    def test_stock_taylor_matches_f(self):
        xs = np.linspace(0.0, 0.05, 11)
        for f in stock_fns():
            series = np.polyval(f.taylor[::-1], xs)
            assert np.max(np.abs(series - f(xs))) < 1e-13

    def test_needs_taylor(self):
        with pytest.raises(ValueError):
            SmoothTestFn(np.exp, [])
