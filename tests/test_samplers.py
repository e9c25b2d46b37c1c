import functools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy import special, stats

from conftest import bridge_marginal_cdf

from bessel_lab import samplers
from bessel_lab.samplers import (MAX_MESH, RngStream, bessel_bridge_general,
                                 bessel_bridge_integer, bessel_process,
                                 bessel_rv, besq_bridge_general,
                                 gaussian_bridge, mc_estimate)

TIMES_17 = np.linspace(0.0, 1.0, 17)


def besq_transition_sample(delta, t, x, rng, size=1):
    """Draws from the squared Bessel transition q^delta_t(x, .):
    J ~ Poisson(x / 2t) then Gamma(delta/2 + J, scale 2t)."""
    if delta <= 0 or t <= 0 or x < 0:
        raise ValueError("need delta > 0, t > 0, x >= 0")
    g = rng.generator
    j = g.poisson(x / (2.0 * t), size=size)
    return g.gamma(0.5 * delta + j, 2.0 * t, size=size)


def besq_bridge_step_pg(delta, z, y, t, tn, g):
    """The squared Bessel bridge's step from ``z`` (an array) at ``t`` to
    ``tn``, towards ``y`` at time 1, in its Poisson-Bessel-Gamma form:
    Gamma(delta/2 + M + 2L, scale 2 dt S/T), M ~ Poisson(u + v),
    L ~ Bessel(delta/2 - 1, sqrt(z y)/T), drawn in that order."""
    dt, big_t, s = tn - t, 1.0 - t, 1.0 - tn
    u = z * s / (2.0 * dt * big_t)
    v = y * dt / (2.0 * s * big_t)
    shape = 0.5 * delta + g.poisson(u + v)
    if y > 0.0:
        shape = shape + 2 * bessel_rv(0.5 * delta - 1.0,
                                      np.sqrt(z * y) / big_t, g)
    return g.gamma(shape, 2.0 * dt * s / big_t)


def log_iv_polyval(nu, z):
    """``samplers._log_iv`` summed by ``numpy``'s ``polyval``: the
    reference for its in-place Horner sums."""
    if nu >= samplers._NU_UNIFORM:
        t = z / nu
        r = np.sqrt(1.0 + t * t)
        c = functools.reduce(P.polyadd, (u * nu**-k for k, u
                                         in enumerate(samplers._debye_polys())))
        return (nu * (r + np.log(t / (1.0 + r))) - 0.5 * np.log(r)
                - 0.5 * np.log(2.0 * np.pi * nu)
                + np.log(P.polyval(1.0 / r, c)))
    out = np.empty_like(z)
    low = z <= max(samplers._Z_HANKEL, 0.5 * nu * nu)
    if np.any(low):
        q = 0.25 * z[low] ** 2
        qmax = float(np.max(q))
        terms, total = [1.0], 0.0
        while terms[-1] > samplers._EPS * total:
            total += terms[-1]
            k = len(terms)
            terms.append(terms[-1] * qmax / (k * (k + nu)))
        out[low] = (nu * np.log(0.5 * z[low]) - special.gammaln(nu + 1.0)
                    + np.log(P.polyval(q / qmax, terms)))
    if not np.all(low):
        x = z[~low]
        xmin = float(np.min(x))
        mu = 4.0 * nu * nu
        terms = [1.0]
        while abs(terms[-1]) > samplers._EPS:
            k = len(terms)
            terms.append(-terms[-1] * (mu - (2 * k - 1) ** 2)
                         / (8.0 * k * xmin))
        out[~low] = (x - 0.5 * np.log(2.0 * np.pi * x)
                     + np.log(P.polyval(xmin / x, terms)))
    return out


def bessel_rv_marking(nu, w, g, log_iv=log_iv_polyval):
    """Bessel(nu, w) draws by the mode-outward search that marks each draw
    where it hits: the reference for ``bessel_rv``'s counting search, its
    ``gammaln`` table and its ``_log_iv``, which must give these draws bit
    for bit."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape, dtype=np.int64)
    act = w > 0.0
    if not np.any(act):
        return out
    z = w[act]
    q = 0.25 * z * z
    lmode = np.floor(0.5 * (-nu + np.sqrt(nu * nu + 4.0 * q))).astype(np.int64)
    lmode = np.maximum(lmode, 0)
    logp = ((2 * lmode + nu) * np.log(0.5 * z)
            - special.gammaln(lmode + 1.0) - special.gammaln(lmode + nu + 1.0)
            - log_iv(nu, z))
    pmode = np.exp(logp)

    u = g.uniform(size=z.shape)
    vals = lmode.copy()
    cum = pmode.copy()
    todo = u >= cum
    pl = pmode.copy()
    pr = pmode.copy()
    kmax = int(np.max(lmode)) + 90 + int(8.0 * np.sqrt(float(np.max(q)) + 1.0))
    for k in range(1, kmax + 1):
        if not np.any(todo):
            break
        left = lmode - k
        pl *= left + 1.0
        pl *= left + 1.0 + nu
        pl /= q
        cum += pl
        hit = todo & (u < cum)
        np.copyto(vals, left, where=hit)
        todo ^= hit
        right = lmode + k
        pr *= q
        pr /= right * (right + nu)
        cum += pr
        hit = todo & (u < cum)
        np.copyto(vals, right, where=hit)
        todo ^= hit
    out[act] = vals
    return out


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 1).generator.standard_normal(5)
        b = RngStream(42, 1).generator.standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 1).generator.standard_normal(5)
        b = RngStream(42, 2).generator.standard_normal(5)
        assert not np.array_equal(a, b)

    def test_substream(self):
        s = RngStream(7, 3)
        assert s.substream(0).stream != s.stream

    def test_substreams_past_the_id_space_collide(self):
        # why mc_estimate stops at MC_MAX_SAMPLES: block 2**20 of stream 0
        # draws what block 0 of stream 1 draws, while block 2**20 - 1 does not
        last = samplers.MC_MAX_SAMPLES // samplers.MC_BLOCK - 1
        nxt = RngStream(7, 1).substream(0).generator.standard_normal(5)
        past = RngStream(7, 0).substream(last + 1).generator.standard_normal(5)
        kept = RngStream(7, 0).substream(last).generator.standard_normal(5)
        assert np.array_equal(past, nxt)
        assert not np.array_equal(kept, nxt)


class TestGaussianBridge:
    def test_endpoints_zero(self):
        paths = gaussian_bridge(2, TIMES_17, RngStream(1), size=50)
        assert np.all(paths[:, :, 0] == 0.0)
        assert np.all(paths[:, :, -1] == 0.0)

    def test_variance_and_covariance(self):
        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        paths = gaussian_bridge(1, times, RngStream(2), size=100000)
        x = paths[:, 0, :]
        v = np.var(x[:, 2])
        assert abs(v - 0.25) < 4 * 0.25 * math.sqrt(2.0 / 100000)
        cov = np.mean(x[:, 1] * x[:, 3])
        assert abs(cov - 1.0 / 16.0) < 4 * 0.3 / math.sqrt(100000)


class TestTransition:
    def test_moments(self):
        delta, t, x = 2.5, 0.4, 1.0
        draws = besq_transition_sample(delta, t, x, RngStream(3), size=100000)
        mean, var = draws.mean(), draws.var()
        want_mean = x + delta * t
        want_var = 4 * t * x + 2 * delta * t * t
        assert abs(mean - want_mean) < 4 * math.sqrt(want_var / 100000)
        assert abs(var - want_var) < 4 * want_var * math.sqrt(8.0 / 100000)

    def test_zero_start_is_gamma(self):
        delta, t = 3.0, 0.5
        draws = besq_transition_sample(delta, t, 0.0, RngStream(4),
                                       size=50000)
        ks = stats.kstest(draws, stats.gamma(a=delta / 2, scale=2 * t).cdf)
        assert ks.pvalue > 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            besq_transition_sample(0.0, 0.5, 1.0, RngStream(0))


class TestBesqStep:
    """The noncentral chi^2 step against the Poisson-Gamma form it replaced
    for delta >= 1, and its Poisson-Gamma branch below 1."""

    N = 400000

    def test_unconditioned_delta_one(self):
        # delta = 1: the normal alone, no gamma
        t, x = 0.4, 1.0
        got = samplers._besq_step(1.0, t, np.full(self.N, x / (2.0 * t)),
                                  RngStream(40, 1).generator)
        want = besq_transition_sample(1.0, t, x, RngStream(40, 2),
                                      size=self.N)
        assert stats.ks_2samp(got, want).pvalue > 0.001

    @pytest.mark.parametrize("delta,z,y,t,tn", [
        (1.2, 0.8, 2.0, 0.25, 0.5),
        (3.5, 1.5, 1.0, 0.9, 0.95)])
    def test_bridge_step(self, delta, z, y, t, tn):
        # c (Z + sqrt(2 (u + v)))^2 + ..., with c, u, v as in the reference
        dt, big_t, s = tn - t, 1.0 - t, 1.0 - tn
        zs = np.full(self.N, z)
        mean = zs * s / (2.0 * dt * big_t) + y * dt / (2.0 * s * big_t)
        got = samplers._besq_step(delta, dt * s / big_t, mean,
                                  RngStream(41, 1).generator,
                                  np.sqrt(zs * y) / big_t)
        want = besq_bridge_step_pg(delta, zs, y, t, tn,
                                   RngStream(41, 2).generator)
        assert stats.ks_2samp(got, want).pvalue > 0.001

    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (0.25, 1.0)])
    def test_below_one_draws_the_poisson_gamma_stream(self, x, y):
        # delta < 1 keeps the Poisson-Gamma draws bit for bit
        delta, size = 0.7, 64
        paths = besq_bridge_general(delta, x, y, TIMES_17, RngStream(42, 1),
                                    size=size)
        g = RngStream(42, 1).generator
        cur = np.full(size, x)
        for i in range(1, len(TIMES_17) - 1):
            cur = besq_bridge_step_pg(delta, cur, y, TIMES_17[i - 1],
                                      TIMES_17[i], g)
            assert np.array_equal(paths[:, i], cur)


class TestBesselRv:
    @pytest.mark.parametrize("nu,z", [
        (-0.5, 0.8), (0.25, 5.0), (0.75, 40.0), (0.25, 1000.0), (4.0, 60.0),
        (199.0, 1e-3), (199.0, 1.0), (199.0, 30.0), (199.0, 1e3)])
    def test_matches_pmf(self, nu, z):
        from scipy.special import gammaln, logsumexp
        g = RngStream(11, 1).generator
        draws = bessel_rv(nu, np.full(200000, z), g)
        kmax = int(draws.max()) + 1
        # normalised over a support far wider than the draws reach, so the
        # reference needs no Bessel function
        ls = np.arange(2 * kmax + 100)
        logt = ((2 * ls + nu) * np.log(z / 2) - gammaln(ls + 1.0)
                - gammaln(ls + nu + 1.0))
        p = np.exp(logt - logsumexp(logt))[:kmax + 1]
        counts = np.bincount(draws, minlength=kmax + 1)
        # merge tail bins with tiny expectation
        exp = p * len(draws)
        keep = exp > 10
        obs = np.append(counts[keep], counts[~keep].sum())
        expv = np.append(exp[keep], exp[~keep].sum())
        chi2 = float(np.sum((obs - expv) ** 2 / np.maximum(expv, 1e-12)))
        pval = 1.0 - stats.chi2.cdf(chi2, df=len(obs) - 1)
        assert pval > 0.001

    ORACLE_NUS = [-0.9, -0.5, 0.25, 0.75, 4.0, 24.0, 199.0]

    @staticmethod
    def oracle_batches():
        rng = np.random.default_rng(27)
        for n in (1, 2000, 5000):
            for top in (4.0, 1.5):
                w = rng.permutation(np.logspace(-6.0, top, n))
                w[3::7] = 0.0
                yield w
            yield np.zeros(n)
        for w in (1e-6, 0.5, 30.0, 1e4):
            yield np.array([w])
        # three draws whose modes span about 5000 values
        yield np.array([1e-3, 0.0, 1e4, 2.0])

    @pytest.mark.parametrize("nu", ORACLE_NUS)
    def test_draws_equal_the_marking_search(self, nu):
        # one stream through every batch, so the uniforms drawn per call
        # must match too
        mine = RngStream(2027, 1).generator
        ref = RngStream(2027, 1).generator
        tabled = set()
        for w in self.oracle_batches():
            assert np.array_equal(bessel_rv(nu, w, mine),
                                  bessel_rv_marking(nu, w, ref))
            q = 0.25 * w[w > 0.0] ** 2
            lmode = np.floor(0.5 * (-nu + np.sqrt(nu * nu + 4.0 * q)))
            lmode = np.maximum(lmode, 0.0)
            if lmode.size:
                tabled.add(lmode.max() - lmode.min() + 1 < lmode.size)
        assert mine.random() == ref.random()
        # both the gammaln table and its direct fallback ran
        assert tabled == {True, False}

    def test_unresolved_draws_keep_the_mode(self, monkeypatch):
        # I_nu overstated twofold leaves the pmf summing to 1/2, so about
        # half the draws stay unresolved through kmax.  Below w = 3e-162,
        # q = w^2/4 underflows to 0: the reference's first left step is 0/0,
        # and bessel_rv's floored q keeps its own steps free of 0/0.
        def doubled(nu, z):
            return log_iv_polyval(nu, z) + math.log(2.0)

        w = np.tile([1e-170, 0.3, 2.0, 0.0, 1e-170, 40.0], 300)
        monkeypatch.setattr(samplers, "_log_iv", doubled)
        with np.errstate(invalid="ignore"):
            ref = bessel_rv_marking(0.25, w, RngStream(5).generator, doubled)
        got = bessel_rv(0.25, w, RngStream(5).generator)
        assert np.array_equal(got, ref)
        assert np.all(got[::6] == 0) and np.all(got[4::6] == 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refuses_modes_past_two_to_53(self):
        # past 2**53 neither the int64 modes nor the float counters of the
        # search are exact: refused before any is formed.  w = 1e20 comes
        # first, since an unchecked search just past 2**53 takes ~1e8 steps
        g = RngStream(12).generator
        for w in (1e20, 1e300, math.inf, 2.0**53 + 2.0):
            with pytest.raises(ValueError, match=r"need w <= 2\*\*53"):
                bessel_rv(0.25, np.array([1.0, w, 0.0]), g)
        assert samplers.BESSEL_W_MAX == 2.0**53

    def test_zero_argument(self):
        g = RngStream(12).generator
        assert np.all(bessel_rv(0.25, np.zeros(10), g) == 0)

    @pytest.mark.parametrize("nu", [-0.5, 0.25, 0.75])
    def test_draws_match_the_scipy_normaliser(self, nu, monkeypatch):
        # the module's own log I_nu leaves every draw of the ive-based
        # normaliser it replaced unchanged
        w = np.logspace(-3.0, 3.0, 20000)
        own = bessel_rv(nu, w, RngStream(2026, 7).generator)
        monkeypatch.setattr(samplers, "_log_iv",
                            lambda nu, z: np.log(special.ive(nu, z)) + z)
        assert np.array_equal(bessel_rv(nu, w, RngStream(2026, 7).generator),
                              own)


class TestLogIv:
    NUS = [-0.9, -0.5, 0.0, 0.25, 0.75, 2.0, 4.0, 9.0, 24.0, 49.0, 199.0]

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        z = np.logspace(-6.0, 5.0, 111)
        worst = 0.0
        with mp.workdps(30):
            for nu in self.NUS:
                want = np.array([float(mp.log(mp.besseli(nu, mp.mpf(x))))
                                 for x in z])
                got = samplers._log_iv(nu, z)
                assert np.all(np.isfinite(got))
                # log I_nu(1e5) is about 1e5, whose ulp is 1.5e-11: the
                # error is measured against max(1, |log I_nu|)
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                worst = max(worst, float(err.max()))
        assert worst <= 1e-13
        # the grid reaches where scipy's scaled I_nu underflows to 0
        assert np.any(special.ive(199.0, z) == 0.0)


class TestMarginalCdfOracle:
    @pytest.mark.parametrize("delta", [1.0, 2.0, 3.0])
    def test_zero_boundary_is_chi(self, delta):
        # the bridge 0 -> 0 at time r is sqrt(r (1 - r)) chi_delta
        worst = 0.0
        for r in TIMES_17[1:-1]:
            sd = math.sqrt(r * (1.0 - r))
            x = np.linspace(0.0, 5.0, 501) * sd
            got = bridge_marginal_cdf(delta, r, 0.0, 0.0)(x)
            worst = max(worst, float(np.max(np.abs(
                got - stats.chi(delta).cdf(x / sd)))))
        assert worst <= 1e-5


class TestBridgeGeneral:
    def test_endpoints_exact(self):
        paths = bessel_bridge_general(1.5, 1.0, 2.0, TIMES_17, RngStream(6),
                                      size=20)
        assert np.all(paths[:, 0] == 1.0)
        assert np.all(paths[:, -1] == 2.0)

    def test_marginal_ks(self):
        delta, a, ap = 1.5, 1.0, 2.0
        paths = bessel_bridge_general(delta, a, ap, TIMES_17, RngStream(8, 2),
                                      size=20000)
        r_idx = 8  # r = 0.5
        cdf = bridge_marginal_cdf(delta, TIMES_17[r_idx], a, ap)
        ks = stats.kstest(paths[:, r_idx], cdf)
        assert ks.pvalue > 0.01

    def test_deterministic(self):
        p1 = bessel_bridge_general(2.2, 0.5, 1.0, TIMES_17, RngStream(9, 1),
                                   size=5)
        p2 = bessel_bridge_general(2.2, 0.5, 1.0, TIMES_17, RngStream(9, 1),
                                   size=5)
        assert np.array_equal(p1, p2)

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            besq_bridge_general(2.0, 0.0, 0.0, np.linspace(0, 1, MAX_MESH + 2),
                                RngStream(0))
        with pytest.raises(ValueError):
            besq_bridge_general(2.0, 0.0, 0.0, np.array([0.0, 0.5, 0.9]),
                                RngStream(0))
        with pytest.raises(ValueError):
            besq_bridge_general(-1.0, 0.0, 0.0, TIMES_17, RngStream(0))


class TestBesselProcess:
    def test_mean_matches_zeta(self):
        from bessel_lab.laplace_sigma import zeta
        delta, a = 2.5, 1.0
        times = np.array([0.0, 0.5, 1.0])
        paths = bessel_process(delta, a, times, RngStream(10), size=100000)
        want = zeta(delta, a, 0.5)
        got = paths[:, 1].mean()
        se = paths[:, 1].std() / math.sqrt(100000)
        assert abs(got - want) <= 4 * se

    @pytest.mark.parametrize("times", [
        [0.0, 0.5, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0],
        [0.0, 1.0, np.inf], [0.0], np.linspace(0.0, 1.0, MAX_MESH + 1)])
    def test_bad_times_raise(self, times):
        with pytest.raises(ValueError):
            bessel_process(2.5, 1.0, times, RngStream(1), size=3)

    def test_times_need_not_run_from_zero_to_one(self):
        paths = bessel_process(2.5, 1.0, [0.25, 0.5, 2.0], RngStream(1),
                               size=3)
        assert paths.shape == (3, 3) and np.all(np.isfinite(paths))
        assert np.all(paths[:, 0] == 1.0)


class TestMcEstimate:
    def test_constant(self):
        mean, se = mc_estimate(lambda n, rng: np.full(n, 3.0), 1000,
                               RngStream(0))
        assert mean == pytest.approx(3.0)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_brownian_bridge_energy(self):
        # E[<Leb, X^2>] for the delta = 1 bridge = int r(1-r) dr = 1/6
        times = np.linspace(0.0, 1.0, 101)
        w = np.zeros(len(times))
        dt = np.diff(times)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt

        def sample(n, rng):
            paths = bessel_bridge_general(1.0, 0.0, 0.0, times, rng, size=n)
            return (paths**2) @ w

        mean, se = mc_estimate(sample, 50000, RngStream(13, 1))
        assert abs(mean - 1.0 / 6.0) <= 3 * se

    def test_seed_determinism(self):
        def sample(n, rng):
            return rng.generator.standard_normal(n)

        r1 = mc_estimate(sample, 12345, RngStream(21, 2))
        r2 = mc_estimate(sample, 12345, RngStream(21, 2))
        assert r1 == r2

    def test_large_offset_keeps_variance(self):
        # the same draws with and without a 1e8 offset: raw sums of squares
        # cancel to a zero variance, merged block deviations do not
        def sample(n, rng):
            return rng.generator.standard_normal(n)

        def offset(n, rng):
            return 1e8 + sample(n, rng)

        _, se = mc_estimate(sample, 20000, RngStream(22, 3))
        _, se_off = mc_estimate(offset, 20000, RngStream(22, 3))
        assert se == pytest.approx(1.0 / math.sqrt(20000), rel=0.05)
        assert se_off == pytest.approx(se, rel=1e-6)

    def test_min_samples(self):
        with pytest.raises(ValueError):
            mc_estimate(lambda n, rng: np.zeros(n), 10, RngStream(0))

    def test_max_samples_draws_nothing(self):
        def sample(n, rng):
            raise AssertionError("drew a block")

        with pytest.raises(ValueError, match="at most"):
            mc_estimate(sample, samplers.MC_MAX_SAMPLES + 1, RngStream(0))


class TestIntegerAgreement:
    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_two_sampler_two_sample_ks(self, delta):
        n = 10000
        pg = bessel_bridge_integer(delta, TIMES_17, RngStream(30, delta),
                                   size=n)
        pq = bessel_bridge_general(float(delta), 0.0, 0.0, TIMES_17,
                                   RngStream(31, delta), size=n)
        idxs = [2, 5, 8, 11, 14]
        for i in idxs:
            ks = stats.ks_2samp(pg[:, i], pq[:, i])
            assert ks.pvalue > 0.01 / len(idxs)
