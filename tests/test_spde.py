import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats

from bessel_lab.core import bump
from bessel_lab.quadrature import adaptive_gl
from bessel_lab.samplers import RngStream
from bessel_lab import spde
from bessel_lab.spde import (K_MAX, VALUES_MAX, check_settings, f_eps_eta,
                             field_to_u, gamma_rs, h_l2_norm_sq,
                             martingale_regression, mollifier, ou_step,
                             run_decomposition, stationary_field)


def covariance_q(t, x, xp, k_max):
    """Reference covariance of the linear field, summed mode by mode:

        q_t(x, x') = sum_k (1 - e^{-lambda_k t}) / lambda_k e_k(x) e_k(x')

    with ``t = inf`` giving the stationary kernel (= x ^ x' - x x' as
    k_max -> inf).  Returns (value, truncation_bound).
    """
    if k_max < 16:
        raise ValueError("need at least 16 modes")
    k = np.arange(1, k_max + 1)
    lam = (k * math.pi) ** 2
    fac = 1.0 / lam if t == math.inf else -np.expm1(-lam * t) / lam
    val = float(np.sum(fac * 2.0 * np.sin(k * math.pi * x)
                       * np.sin(k * math.pi * xp)))
    # |e_k| <= sqrt(2): tail bounded by 2 sum_{k>K} 1/(k pi)^2 <= 2/(pi^2 K)
    return val, 2.0 / (math.pi**2 * k_max)


class TestMollifier:
    def test_unit_mass_profile(self):
        val, _ = integrate.quad(lambda y: mollifier(y, 1.0), -1.0, 1.0,
                                epsabs=1e-14)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_half_mass_invariant(self):
        for eta in (0.01, 0.1, 0.5):
            half = adaptive_gl(lambda y, eta=eta: mollifier(y, eta), 0.0, eta,
                               rtol=1e-13, atol=1e-16)
            assert half == pytest.approx(0.5, abs=1e-12)

    def test_support(self):
        assert mollifier(0.11, 0.1) == 0.0
        assert mollifier(-0.11, 0.1) == 0.0
        assert mollifier(0.05, 0.1) > 0.0

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            mollifier(0.05, 0.0)


class TestFEpsEta:
    EPS, ETA = 0.05, 0.01

    def test_reference_value(self):
        assert f_eps_eta(2 * self.EPS, self.EPS, self.ETA) == pytest.approx(
            1.0 / (32.0 * self.EPS**3), rel=1e-12)

    def test_zero_convention(self):
        assert f_eps_eta(0.0, self.EPS, self.ETA) == 0.0

    def test_vanishes_between(self):
        xs = np.linspace(self.ETA * 1.01, self.EPS * 0.99, 9)
        assert np.all(f_eps_eta(xs, self.EPS, self.ETA) == 0.0)

    def test_mollifier_part_negative(self):
        x = 0.5 * self.ETA
        assert f_eps_eta(x, self.EPS, self.ETA) < 0.0

    def test_matches_full_grid_formula_bitwise(self):
        # the formula evaluated on every point, written out as reference
        eps, eta = self.EPS, self.ETA
        x = np.abs(RngStream(8).generator.standard_normal(100000)) * 0.1
        x = np.concatenate([x, [0.0, eta, eps]])
        pos = x > 0
        xs = np.where(pos, x, 1.0)
        want = np.where(x >= eps, 0.25 / xs**3, 0.0)
        want = want - np.where(pos, 0.5 / eps * mollifier(xs, eta) / xs, 0.0)
        got = f_eps_eta(x, eps, eta)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_scalar_return_and_no_warning_near_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = f_eps_eta(1e-300, self.EPS, self.ETA)
        assert isinstance(val, float)
        assert val < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            f_eps_eta(0.1, 0.05, 0.05)
        with pytest.raises(ValueError):
            f_eps_eta(-0.1, 0.05, 0.01)


class TestCovariance:
    def test_stationary_matches_brownian_bridge_kernel(self):
        for x, xp in [(0.3, 0.7), (0.5, 0.5), (0.2, 0.9)]:
            val, bound = covariance_q(math.inf, x, xp, 512)
            want = min(x, xp) - x * xp
            assert abs(val - want) <= bound

    def test_zero_time(self):
        val, _ = covariance_q(0.0, 0.4, 0.6, 64)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_monotone_in_t(self):
        vals = [covariance_q(t, 0.5, 0.5, 128)[0]
                for t in (0.001, 0.01, 0.1, math.inf)]
        assert all(np.diff(vals) > 0)

    def test_min_modes(self):
        with pytest.raises(ValueError):
            covariance_q(0.1, 0.5, 0.5, 8)


class TestOuStep:
    def test_preserves_stationary_moments(self):
        rng = RngStream(100)
        fld = stationary_field(64, rng, replicas=20000)
        stepped = ou_step(fld, 0.01, rng.generator.standard_normal(fld.shape))
        lam = (np.arange(1, 65) * math.pi) ** 2
        var = np.var(stepped, axis=(0, 1))
        want = 1.0 / lam
        # chi^2 fluctuation: 40000 samples per mode
        assert np.all(np.abs(var - want) < 5 * want * math.sqrt(2.0 / 40000))

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            ou_step(stationary_field(32, RngStream(0), 1), 0.0,
                    RngStream(1).generator.standard_normal((1, 2, 32)))

    def test_matches_closed_form_update_bitwise(self):
        fld = stationary_field(64, RngStream(6), replicas=5)
        dt = 1e-3
        lam = (np.arange(1, 65) * math.pi) ** 2
        noise = RngStream(9).generator.standard_normal(fld.shape)
        want = (fld * np.exp(-0.5 * lam * dt)
                + np.sqrt(-np.expm1(-lam * dt) / lam) * noise)
        got = ou_step(fld, dt,
                      RngStream(9).generator.standard_normal(fld.shape))
        assert np.array_equal(got, want)


class TestFieldShapes:
    def test_u_nonnegative(self):
        fld = stationary_field(64, RngStream(5), replicas=7)
        u = field_to_u(fld, 32)
        assert u.shape == (7, 33)
        assert np.all(u >= 0.0)
        assert np.allclose(u[:, 0], 0.0) and np.allclose(u[:, -1], 0.0)

    def test_stationary_marginal_is_bessel2_bridge(self):
        # u(r) under the stationary law ~ p^{2,r}_{0,0} (Rayleigh with
        # variance r(1-r) per component)
        fld = stationary_field(256, RngStream(71, 4), replicas=10000)
        for r in (0.25, 0.5, 0.75):
            u = field_to_u(fld, 4)[:, round(4 * r)]
            q = r * (1.0 - r)
            ks = stats.kstest(u, lambda x, q=q: 1.0 - np.exp(-x**2 / (2 * q)))
            assert ks.pvalue > 0.01


class TestFieldToU:
    @pytest.mark.parametrize("k_max,n", [(32, 256), (255, 256), (256, 256),
                                         (257, 256), (513, 256), (64, 32),
                                         (256, 4)])
    def test_matches_explicit_sine_sum(self, k_max, n):
        fld = stationary_field(k_max, RngStream(12, k_max), replicas=6)
        x = np.arange(n + 1) / n
        k = np.arange(1, k_max + 1)
        basis = math.sqrt(2.0) * np.sin(math.pi * np.outer(x, k))
        v = fld @ basis.T
        want = np.sqrt(np.sum(v**2, axis=-2))
        u = field_to_u(fld, n)
        assert u.shape == (6, n + 1)
        # the explicit sum rounds pi k x at |k x| up to k_max: relative to
        # the field's scale, not to values near a zero of u
        np.testing.assert_allclose(u, want, rtol=1e-13,
                                   atol=1e-13 * np.max(want))
        assert np.all(u[:, 0] == 0.0) and np.all(u[:, -1] == 0.0)

    def test_too_few_intervals(self):
        with pytest.raises(ValueError):
            field_to_u(stationary_field(16, RngStream(0), 1), 1)


def _off_diagonal_pairs(theta=0.2):
    grid = np.linspace(theta, 1.0 - theta, 7)
    r, s = np.meshgrid(grid, grid)
    off = r != s
    return r[off], s[off]


class TestGammaMatrix:
    def test_bound_at_acceptance_lag(self):
        det, bound = gamma_rs(0.3, 0.6, 0.05, 0.2, 256)
        assert det.shape == bound.shape == ()
        assert det >= bound

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_rs(0.1, 0.5, 0.05, 0.2, 256)
        with pytest.raises(ValueError):
            gamma_rs([0.3, 0.5], [0.5, 0.9], 0.05, 0.2, 256)

    def test_matches_mode_sum_reference(self):
        # det from four truncated mode sums, stationary and lagged; each
        # entry is off by at most the truncation bound
        r, s = _off_diagonal_pairs()
        det, _ = gamma_rs(r, s, 0.05, 0.2, 256)
        assert det.shape == (42,)
        for i in range(42):
            qr, tail = covariance_q(math.inf, r[i], r[i], 256)
            qs, _ = covariance_q(math.inf, s[i], s[i], 256)
            off = (covariance_q(math.inf, r[i], s[i], 256)[0]
                   - covariance_q(0.05, r[i], s[i], 256)[0])
            assert abs(det[i] - (qr * qs - off**2)) <= 4 * tail

    @pytest.mark.parametrize("t", [1e-4, 0.004, 0.03, 0.05])
    def test_bound_holds_down_to_small_lags(self, t):
        # as t -> 0 the corner pair meets the bound: r (1 - s)(s - r)
        r, s = _off_diagonal_pairs()
        det, bound = gamma_rs(r, s, t, 0.2, 256)
        assert np.all(det >= bound)

    @pytest.mark.parametrize("t", [1e-4, 0.004])
    def test_raised_bound_fails_at_corner(self, t):
        det, bound = gamma_rs(0.2, 0.8, t, 0.2, 256)
        assert not det >= 1.01 * bound


class TestDecomposition:
    def test_small_run_structure(self):
        h = bump(0.2)
        ser = run_decomposition(h, 0.05, 0.01, 0.005, 1e-4, 64, RngStream(3),
                                replicas=3, store_every=10)
        assert ser.times[0] == 0.0
        assert ser.times[-1] == pytest.approx(0.005)
        assert np.allclose(ser.mart[:, 0], 0.0)
        assert np.allclose(ser.lap[:, 0], 0.0)
        assert np.allclose(ser.n_drift[:, 0], 0.0)
        # decomposition identity holds by construction at all times
        recon = ser.uh - ser.uh[:, :1] - ser.lap + ser.n_drift
        assert np.allclose(recon, ser.mart)

    def test_deterministic(self):
        h = bump(0.2)
        s1 = run_decomposition(h, 0.05, 0.01, 0.002, 1e-4, 32, RngStream(4),
                               replicas=2, store_every=5)
        s2 = run_decomposition(h, 0.05, 0.01, 0.002, 1e-4, 32, RngStream(4),
                               replicas=2, store_every=5)
        assert np.array_equal(s1.mart, s2.mart)

    def test_h_norm(self):
        h = bump(0.2)
        val, _ = integrate.quad(lambda r: float(h(r)) ** 2, 0.2, 0.8,
                                epsabs=1e-14, limit=200)
        assert h_l2_norm_sq(h) == pytest.approx(val, rel=1e-10)

    def test_regression_errors_carry_the_heavy_tails(self):
        # 500 steps of 1e-5 at K = 256 with 200 replicas: the increments of
        # M are heavy-tailed (pooled kurtosis 11.5 at this stream), and
        # sigma^2 (X^T X)^{-1} errors put the N_t coefficient at z = 5.13;
        # heteroscedasticity-consistent errors put it at 1.62
        ser = run_decomposition(bump(0.2), 0.05, 0.01, 500 * 1e-5, 1e-5,
                                256, RngStream(1146, 0), replicas=200,
                                store_every=100)
        coef, errs = martingale_regression(ser)
        assert np.max(np.abs(coef / errs)) <= 3.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run_decomposition(bump(0.2), 0.05, 0.01, 0.00035, 1e-4, 32,
                              RngStream(0))

    # the ids of the K and T cases keep the names these settings had
    # before they took spde-sim's, so that each case keeps its id
    @pytest.mark.parametrize("kwargs,match", [
        ({"dt": 0.0}, "time step"), ({"dt": -1e-4}, "time step"),
        pytest.param({"K": 0}, "bad 'K'", id="kwargs2-k_max"),
        ({"replicas": 0}, "replicas"), ({"store_every": 0}, "store_every"),
        pytest.param({"T": 0.0}, "bad 'T'", id="kwargs5-t_final"),
        pytest.param({"T": -1e-5}, "bad 'T'", id="kwargs6-t_final"),
        pytest.param({"T": 1e-13}, "bad 'T'", id="kwargs7-t_final"),
        pytest.param({"T": 1e300, "dt": 1e-300}, "bad 'T'",
                     id="kwargs8-t_final")])
    def test_bad_settings(self, kwargs, match):
        args = {"T": 0.001, "dt": 1e-4, "K": 32, "replicas": 2,
                "store_every": 1}
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            run_decomposition(bump(0.2), 0.05, 0.01, args["T"], args["dt"],
                              args["K"], RngStream(0),
                              replicas=args["replicas"],
                              store_every=args["store_every"])

    @pytest.mark.parametrize("settings,match", [
        ({"eta": 0.05}, r"^need 0 < eta < eps$"),
        ({"eta": 0.0}, r"^need 0 < eta < eps$"),
        ({"K": K_MAX + 1}, r"^bad 'K': at most 65536 modes"),
        ({"K": K_MAX, "replicas": 257},
         r"^bad 'replicas': 257 replicas of 65536 modes exceed 33554432 "
         r"coefficients")])
    def test_bad_settings_draw_nothing(self, settings, match, monkeypatch):
        # eta, eps, K and the coefficients are checked before the field is
        # drawn
        def forbidden(*args, **kwargs):
            raise AssertionError("drew a field from settings a run rejects")

        monkeypatch.setattr(spde, "stationary_field", forbidden)
        args = {"eps": 0.05, "eta": 0.01, "K": 32, "replicas": 2}
        args.update(settings)
        with pytest.raises(ValueError, match=match):
            run_decomposition(bump(0.2), args["eps"], args["eta"], 1e-4,
                              1e-4, args["K"], RngStream(0),
                              replicas=args["replicas"])

    def test_snapshot_count_is_bounded(self):
        # replicas x snapshots is bounded before any work, and the error
        # names the horizon's key: spde-sim's defaults at T = 1e6 are 10^11
        # steps, 10^9 + 1 snapshots of 200 replicas
        def settings(T, replicas, dt=1.0, store_every=1):
            return check_settings(T, dt, 256, 0.05, 0.01, replicas,
                                  store_every)

        assert VALUES_MAX == 2**25
        assert settings(1023.0, 2**15) == (1023, 1024)
        assert settings(1023.0 * 7, 2**15, store_every=7) == (7161, 1024)
        with pytest.raises(ValueError, match=r"^bad 'T': 32768 replicas x "
                                             r"1025 snapshots exceed"):
            settings(1024.0, 2**15)
        with pytest.raises(ValueError, match=r"^bad 'T': 32768 replicas x "
                                             r"1025 snapshots exceed"):
            settings(1023.0 * 7 + 1.0, 2**15, store_every=7)
        with pytest.raises(ValueError, match=r"^bad 'T': 200 replicas x "
                                             r"1000000001 snapshots exceed"):
            settings(1e6, 200, dt=1e-5, store_every=100)


def serial_decomposition(h, eps, eta, n_steps, dt, k_max, rng, replicas,
                         store_every):
    """The decomposition by a plain serial loop over the public layers:
    the stationary field, then one draw, OU update and synthesis per
    step."""
    n = 256
    x = np.linspace(0.0, 1.0, n + 1)
    wq = np.full(n + 1, 1.0 / n)
    wq[[0, -1]] = 0.5 / n
    hv = h(x) * wq
    h2v = h.d2(x) * wq
    coef = stationary_field(k_max, rng, replicas)
    u = field_to_u(coef, n)
    lap_acc = np.zeros(replicas)
    n_acc = np.zeros(replicas)
    times, uh, lap, n_drift = [], [], [], []
    for i in range(n_steps + 1):
        if i % store_every == 0 or i == n_steps:
            times.append(i * dt)
            uh.append(u @ hv)
            lap.append(lap_acc)
            n_drift.append(n_acc)
        if i == n_steps:
            break
        lap_acc = lap_acc + 0.5 * dt * (u @ h2v)
        n_acc = n_acc + 0.5 * dt * (f_eps_eta(u, eps, eta) @ hv)
        coef = ou_step(coef, dt, rng.generator.standard_normal(coef.shape))
        u = field_to_u(coef, n)
    uh, lap, n_drift = (np.column_stack(c) for c in (uh, lap, n_drift))
    return np.array(times), uh, lap, n_drift, uh - uh[:, :1] - lap + n_drift


class TestPipeline:
    """``run_decomposition`` draws on a worker thread; its series and the
    stream it leaves behind are a serial loop's, bit for bit."""

    @pytest.mark.parametrize("k_max", [32, 255, 256, 257, 513])
    def test_matches_serial_loop_bitwise(self, k_max):
        h = bump(0.2)
        ser = run_decomposition(h, 0.05, 0.01, 12 * 1e-5, 1e-5, k_max,
                                RngStream(21, k_max), replicas=5,
                                store_every=5)
        want = serial_decomposition(h, 0.05, 0.01, 12, 1e-5, k_max,
                                    RngStream(21, k_max), 5, 5)
        for got, ref in zip((ser.times, ser.uh, ser.lap, ser.n_drift,
                             ser.mart), want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n_steps,store_every", [(1, 1), (3, 10),
                                                     (6, 4)])
    def test_draws_nothing_past_last_step(self, n_steps, store_every):
        k_max, replicas = 64, 3
        rng = RngStream(8, n_steps)
        run_decomposition(bump(0.2), 0.05, 0.01, n_steps * 1e-4, 1e-4,
                          k_max, rng, replicas=replicas,
                          store_every=store_every)
        replay = RngStream(8, n_steps)
        stationary_field(k_max, replay, replicas)
        for _ in range(n_steps):
            replay.generator.standard_normal((replicas, 2, k_max))
        assert np.array_equal(rng.generator.standard_normal(4),
                              replay.generator.standard_normal(4))

    def test_concurrent_runs_match_serial_loop(self):
        # four callers' runs, each with its own draw worker, interleaved
        # at a short switch interval: no run sees another's stream
        h = bump(0.2)

        def run(stream):
            ser = run_decomposition(h, 0.05, 0.01, 15 * 1e-4, 1e-4, 48,
                                    RngStream(30, stream), replicas=3,
                                    store_every=4)
            return ser.times, ser.uh, ser.lap, ser.n_drift, ser.mart

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(run, k) for k in range(4)]
                got = [r.result(timeout=120) for r in runs]
        finally:
            sys.setswitchinterval(interval)
        for k, series in enumerate(got):
            want = serial_decomposition(h, 0.05, 0.01, 15, 1e-4, 48,
                                        RngStream(30, k), 3, 4)
            for a, b in zip(series, want):
                assert np.array_equal(a, b)

    def test_memory_ceiling(self):
        # the (replicas x 2 x K) coefficients are 4 MiB here; a step holds
        # them and the next step's normals, and a third such array (a
        # temporary in the OU update) would break the bound
        k_max, replicas = 4096, 64
        coef_bytes = replicas * 2 * k_max * 8
        h = bump(0.2)
        # a first run imports scipy.fft and caches the mollifier's mass
        run_decomposition(h, 0.05, 0.01, 1e-4, 1e-5, 32, RngStream(0))
        tracemalloc.start()
        try:
            run_decomposition(h, 0.05, 0.01, 10 * 1e-5, 1e-5, k_max,
                              RngStream(0), replicas=replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * coef_bytes
