import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from conftest import gamma_3, p_delta_t

from bessel_lab import ibpf, laplace_sigma, mu_dist
from bessel_lab.core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump,
                             poly_bump)
from bessel_lab.ibpf import (IbpfCase, lhs_bridge_analytic, lhs_mc,
                             lhs_uncond_analytic, rel_err, rhs_ibpf, verify)
from bessel_lab.laplace_sigma import SigmaContext, sigma_s, sigma_s_series
from bessel_lab.quadrature import GL_ORDER, START_PANELS, adaptive_gl
from bessel_lab.samplers import RngStream

H = bump(0.2)


def simple_case(delta, a=0.0, ap=0.0, m=None, mode="bridge"):
    phi = ExpFunctional.one() if m is None else ExpFunctional.single(m)
    return IbpfCase(BridgeSpec(delta, a, ap), phi, H, mode=mode)


class TestGamma3:
    def test_closed_form_values(self):
        assert gamma_3(0.5, 0.0) == pytest.approx(8.0 / math.sqrt(2 * math.pi),
                                                  rel=1e-13)

    def test_small_a_limit(self):
        assert gamma_3(0.3, 1e-8) == pytest.approx(gamma_3(0.3, 0.0),
                                                   rel=1e-10)

    def test_density_ratio_limit(self):
        # gamma(r, a) = (1/2) lim p^{3,r}_{a,a}(eps)/eps^2
        from bessel_lab.specfun import bridge_density
        for r, a in [(0.3, 1.2), (0.5, 0.0)]:
            eps = 1e-4
            approx = 0.5 * float(bridge_density(3.0, r, a, a, eps)) / eps**2
            assert abs(approx - gamma_3(r, a)) <= 1e-5 * max(
                1.0, gamma_3(r, a))


class TestRhsBranches:
    def test_delta3_equals_gamma_route(self):
        # Phi = 1: branch RHS equals -int h gamma(r, a) dr to 1e-7
        for a in (0.0, 1.0):
            case = simple_case(3.0, a, a)
            rhs = rhs_ibpf(case)
            want, _ = integrate.quad(
                lambda r: -float(H(r)) * gamma_3(r, a), 0.2, 0.8,
                epsabs=1e-13, epsrel=1e-10, limit=200)
            assert rhs == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0 - 1e-7, 2.0, 2.0 + 1e-7,
                                       2.5, 3.0, 3.5])
    def test_unified_matches_branch(self, delta):
        case = IbpfCase(BridgeSpec(delta, 1.0, 0.5),
                        ExpFunctional.single(FiniteMeasure.atom(0.6, 1.0)), H)
        b = rhs_ibpf(case, route="branch")
        u = rhs_ibpf(case, route="unified")
        assert rel_err(b, u) <= 1e-7

    @pytest.mark.parametrize("delta,ksub", [(0.5, 2), (1.5, 1), (2.5, 1)])
    def test_subtracted_integrand_decay(self, delta, ksub):
        # log-slope of the subtracted Sigma in b near 0 is >= 2*ksub - 0.1
        # (the remainder after ksub s-Taylor subtractions is O(b^{2 ksub})),
        # taken between b = 0.05 and 0.1 times the series scale
        # sqrt(2 min(rho_r, rho_1 - rho_r)) phi_r.
        case = simple_case(delta, 1.0, 0.0, FiniteMeasure.atom(0.6, 1.0))
        ctx = SigmaContext(case.spec, case.phi.terms[0][1], True)
        r, sol = 0.5, ctx.sol
        c = sigma_s_series(ctx, r)
        rr = sol.rho(r)
        b = (math.sqrt(2.0 * min(rr, sol.rho1 - rr)) * sol.phi(r)
             * np.array([0.05, 0.1]))
        rem = []
        for s in b * b:
            sig = float(sigma_s(ctx, r, s))
            for j in range(ksub):
                sig -= c[j] * s**j
            rem.append(abs(sig) + 1e-300)
        slope = math.log(rem[1] / rem[0]) / math.log(b[1] / b[0])
        assert slope >= 2.0 * ksub - 0.1

    def test_branch_pairing_at_integer_alpha_is_the_series(self):
        # mu_0 = delta_0 and <mu_{-1}, f> = -f'(0): the delta = 3 and
        # delta = 1 pairings read the Sigma series, bit for bit
        spec = BridgeSpec(2.5, 1.0, 2.0)
        ctx = SigmaContext(spec, FiniteMeasure.atom(0.6, 1.0), True)
        r = np.linspace(0.25, 0.75, GL_ORDER)
        c = sigma_s_series(ctx, r)
        np.testing.assert_array_equal(ibpf.fp_s_integral(ctx, r, 0.0),
                                      c[:, 0])
        np.testing.assert_array_equal(ibpf.fp_s_integral(ctx, r, -1.0),
                                      -c[:, 1])

    @pytest.mark.parametrize("delta", [1.0, 3.0])
    def test_branch_rhs_continuous_across_special_dimensions(self, delta):
        # one formula for every delta: 1e-9 off an integer alpha the
        # finite-part integral meets the point pairing
        m = FiniteMeasure.atom(0.6, 1.0)
        at = rhs_ibpf(simple_case(delta, 1.0, 2.0, m))
        for eps in (-1e-9, 1e-9):
            near = rhs_ibpf(simple_case(delta + eps, 1.0, 2.0, m))
            assert near == pytest.approx(at, rel=1e-8)

    def test_rhs_sign_negative_for_plain_cases(self):
        # kappa > 0 for delta < 1 and delta > 3; the finite-part term is a
        # genuine (negative) renormalised drift for Phi = 1.
        assert rhs_ibpf(simple_case(3.0)) < 0
        assert rhs_ibpf(simple_case(2.0)) < 0


def forbid_mu(mp, forbidden):
    """Make every binding of mu_pair and finite_part call ``forbidden``."""
    for mod in (ibpf, laplace_sigma, mu_dist):
        mp.setattr(mod, "mu_pair", forbidden)
    for mod in (ibpf, mu_dist):
        mp.setattr(mod, "finite_part", forbidden)


class TestLhs:
    def test_bridge_mean_reduction_delta3(self):
        # Phi = 1, m = 0: LHS = int h'' E[X_r] dr, E[X_r] = sqrt(2r(1-r)) *
        # Gamma(2)/Gamma(3/2) at delta = 3, a = ap = 0.
        case = simple_case(3.0)
        got = lhs_bridge_analytic(case)

        def mean(r):
            return math.sqrt(2.0 * r * (1.0 - r)) / special.gamma(1.5)

        want, _ = integrate.quad(lambda r: float(H.d2(r)) * mean(r),
                                 0.2, 0.8, epsabs=1e-13, epsrel=1e-11,
                                 limit=200)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("delta,m", [
        (0.5, FiniteMeasure.lebesgue(0.5)), (0.5, None), (2.5, None)],
        ids=["d0.5_a1_ap2_leb", "d0.5_a1_ap2_m0", "d2.5_a1_ap2_m0"])
    def test_bridge_matches_branch_rhs(self, delta, m):
        # the battery cells where the LHS's own error once dominated
        case = simple_case(delta, 1.0, 2.0, m)
        assert rel_err(lhs_bridge_analytic(case), rhs_ibpf(case)) <= 1e-10

    def test_bridge_shares_no_rhs_integrand(self, monkeypatch):
        # routes stay independent: E[X_r Phi] needs neither the Sigma
        # series nor the finite-part integral of the branch RHS
        def forbidden(*args, **kwargs):
            raise AssertionError("bridge LHS reached an RHS integrand")

        monkeypatch.setattr(ibpf, "fp_s_integral", forbidden)
        monkeypatch.setattr(ibpf, "sigma_s_series", forbidden)
        monkeypatch.setattr(laplace_sigma, "sigma_s_series", forbidden)
        case = simple_case(1.5, 1.0, 2.0, FiniteMeasure.atom(0.6, 1.0))
        assert np.isfinite(lhs_bridge_analytic(case))

    def test_rhs_routes_share_no_pairing(self, monkeypatch):
        # routes stay independent: the branch RHS pairs Sigma without
        # mu_pair or finite_part, and the unified RHS without fp_s_integral
        def forbidden(*args, **kwargs):
            raise AssertionError("an RHS route reached the other's pairing")

        m = FiniteMeasure.atom(0.6, 1.0)
        with monkeypatch.context() as mp:
            forbid_mu(mp, forbidden)
            for delta in (0.5, 1.0, 2.5, 3.0):
                assert np.isfinite(rhs_ibpf(simple_case(delta, 1.0, 2.0, m)))
        monkeypatch.setattr(ibpf, "fp_s_integral", forbidden)
        assert np.isfinite(rhs_ibpf(simple_case(2.5, 1.0, 2.0, m),
                                    route="unified"))

    def test_uncond_shares_no_rhs_integrand(self, monkeypatch):
        # the unconditioned LHS takes zeta'' in closed form: neither the
        # finite-part zeta'' (the RHS's integrand term by term) nor any
        # finite-part integral may run
        def forbidden(*args, **kwargs):
            raise AssertionError("unconditioned LHS reached an RHS integrand")

        monkeypatch.setattr(laplace_sigma, "_zeta_second_deriv_fp", forbidden)
        forbid_mu(monkeypatch, forbidden)
        monkeypatch.setattr(ibpf, "fp_s_integral", forbidden)
        case = simple_case(1.5, 1.0, m=FiniteMeasure.atom(0.6, 1.0),
                           mode="unconstrained")
        assert np.isfinite(lhs_uncond_analytic(case))

    def test_uncond_zero_measure_reduction(self):
        # a = 0, m = 0, Phi = 1: LHS = int h(r) zeta''(r) dr with the a = 0
        # closed form zeta''(t) = -(sqrt2/4) t^{-3/2} G((d+1)/2)/G(d/2).
        delta = 2.5
        case = simple_case(delta, 0.0, mode="unconstrained")
        got = lhs_uncond_analytic(case)
        c = (math.sqrt(2.0) / 4.0 * special.gamma((delta + 1) / 2)
             / special.gamma(delta / 2))
        want, _ = integrate.quad(
            lambda r: -float(H(r)) * c * r ** (-1.5), 0.2, 0.8,
            epsabs=1e-13, epsrel=1e-11, limit=200)
        assert got == pytest.approx(want, rel=1e-8)


def test_sigma_sees_one_rows_whole_round(monkeypatch):
    # the outer r-integral hands Sigma all r-nodes of one row's round per
    # call (the atom's point term: its one atom), so those nodes share one
    # inner quadrature and one panel count, and the unified route pairs
    # them in one finite_part (or mu_pair) call
    seen, rows, outer = [], [], []

    def recording(fn):
        def wrapped(ctx, r, *args):
            seen.append(np.size(r))
            return fn(ctx, r, *args)
        return wrapped

    def row_count(fn):
        def wrapped(alpha, f):
            rows.append(f.taylor.shape[:-1] or (1,))
            return fn(alpha, f)
        return wrapped

    def outer_rounds(fn):
        def wrapped(f, a, b, **kwargs):
            if kwargs["rtol"] == 1e-9:  # the outer r-integral
                def g(r, f=f):
                    outer.append(r.shape[-1])
                    return f(r)
                return fn(g, a, b, **kwargs)
            return fn(f, a, b, **kwargs)
        return wrapped

    for mod, name in [(laplace_sigma, "_sigma_bridge_s"),
                      (laplace_sigma, "_sigma_uncond_s"),
                      (ibpf, "sigma_s_series")]:
        monkeypatch.setattr(mod, name, recording(getattr(mod, name)))
    for mod, name in [(ibpf, "finite_part"), (ibpf, "mu_pair"),
                      (laplace_sigma, "mu_pair")]:
        monkeypatch.setattr(mod, name, row_count(getattr(mod, name)))
    monkeypatch.setattr(ibpf, "adaptive_gl", outer_rounds(ibpf.adaptive_gl))
    m = FiniteMeasure.atom(0.6, 1.0)
    verify(simple_case(2.5, 1.0, 0.0, m))  # branch RHS and bridge LHS
    rhs_ibpf(simple_case(3.0, 1.0, 0.0, m))  # the series alone
    rhs_ibpf(simple_case(2.5, 1.0, m=m, mode="unconstrained"))
    assert set(seen) - {1} == set(outer)
    assert max(outer) >= 2 * START_PANELS * GL_ORDER
    outer.clear()
    rhs_ibpf(simple_case(2.5, 1.0, 0.0, m), route="unified")
    # the atom splits supp h in two rows, each paired once per round
    assert rows == [(n,) for n in outer for _ in range(2)]


@pytest.mark.parametrize("case_id, spec, m", [
    ("d2.5_a0_ap0_atom", BridgeSpec(2.5, 0.0, 0.0),
     FiniteMeasure.atom(0.6, 1.0)),
    ("d1_a1_ap2_leb", BridgeSpec(1.0, 1.0, 2.0),
     FiniteMeasure.lebesgue(0.5))])
def test_verify_peak_memory(case_id, spec, m):
    # traced peak of one verify: 1.34 MB (branch RHS of the atom case) and
    # 1.73 MB (bridge LHS of the Lebesgue case, on 256 r-nodes x 128
    # s-nodes); the 3 MB ceiling leaves a 1.7x margin over the larger and
    # fails on Sigma grids a doubling larger
    case = IbpfCase(spec, ExpFunctional.single(m), H, case_id=case_id)
    verify(case)  # warm the caches
    tracemalloc.start()
    try:
        assert verify(case).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_unified_peak_memory():
    # traced peak of the unified RHS on the finite_part benchmark's case:
    # 1.75 MB with finite_part's decay probes evaluated in slices, 4.5 MB
    # with one whole round of r-nodes probed unsliced
    case = simple_case(2.5)
    rhs_ibpf(case, route="unified")  # warm the caches
    tracemalloc.start()
    try:
        rhs_ibpf(case, route="unified")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


@pytest.mark.parametrize("delta, a, ap", [
    (2.5, 1.0, 20.0), (3.5, 1.0, 20.0), (1.5, 20.0, 1.0)])
def test_far_apart_bridges_verify(delta, a, ap):
    # ends 19 apart: the bridge LHS's r-integrand is steep, and the outer
    # quadrature converges in seconds when a round's r-nodes share one
    # inner rule
    report = verify(simple_case(delta, a, ap))
    assert report.passed and report.rel_err <= 1e-5


@pytest.mark.parametrize("m", [None, FiniteMeasure.atom(0.6, 1.0),
                               FiniteMeasure.lebesgue(0.5)],
                         ids=["m0", "atom", "leb"])
@pytest.mark.parametrize("a, ap", [(0.0, 0.0), (1.0, 2.0)])
@pytest.mark.parametrize("delta", [30.0, 45.0, 60.0, 100.0])
def test_large_dimensions_verify(delta, a, ap, m):
    # the bridge LHS cuts its s-range where s^{(delta-1)/2} Sigma(s) has
    # decayed: at large delta the power moves the mass far past Sigma's
    # own decay
    report = verify(simple_case(delta, a, ap, m))
    assert report.passed and report.rel_err <= 1e-5
    if m is None and a == ap == 0.0:
        # E[X_r] = sqrt(2r(1-r)) Gamma((delta+1)/2) / Gamma(delta/2)
        base, _ = integrate.quad(
            lambda r: float(H.d2(r)) * math.sqrt(2.0 * r * (1.0 - r)),
            0.2, 0.8, epsabs=0.0, epsrel=1e-12, limit=200)
        want = base * math.exp(special.gammaln((delta + 1.0) / 2.0)
                               - special.gammaln(delta / 2.0))
        assert report.lhs_analytic == pytest.approx(want, rel=1e-12)


def test_one_outer_pass_per_case(monkeypatch):
    # Phi = 0.7 e^{-<m1, X^2>} - 0.4 e^{-<m2, X^2>} + 1.2 e^{-<m3, X^2>}:
    # every route integrates all (term, segment) intervals of supp h, split
    # at each m_i's breakpoints, as the rows of one outer quadrature (the
    # one at rtol 1e-9; the inner ones run at 1e-10), and the result is the
    # coefficient-weighted sum of the one-term cases
    m1 = FiniteMeasure(pieces=[(0.3, 0.7, [0.5, 1.0])])
    m2 = FiniteMeasure.atom(0.6, 1.0)
    m3 = FiniteMeasure(atoms=[(0.4, 0.5), (0.55, 1.0)])
    terms = [(0.7, m1), (-0.4, m2), (1.2, m3)]
    spec = BridgeSpec(2.5, 1.0, 0.5)
    rows = [(0.2, 0.3), (0.3, 0.7), (0.7, 0.8), (0.2, 0.6), (0.6, 0.8),
            (0.2, 0.4), (0.4, 0.55), (0.55, 0.8)]
    outer = []

    def recording(f, a, b, rtol=1e-10, **kw):
        if rtol == 1e-9:
            outer.append(list(zip(np.atleast_1d(a), np.atleast_1d(b))))
        return adaptive_gl(f, a, b, rtol=rtol, **kw)

    monkeypatch.setattr(ibpf, "adaptive_gl", recording)
    bridge = IbpfCase(spec, ExpFunctional(terms), H)
    uncond = IbpfCase(spec, ExpFunctional(terms), H, mode="unconstrained")
    for route, case in [(rhs_ibpf, bridge), (lhs_bridge_analytic, bridge),
                        (lambda c: rhs_ibpf(c, route="unified"), bridge),
                        (rhs_ibpf, uncond), (lhs_uncond_analytic, uncond)]:
        outer.clear()
        route(case)
        assert outer == [rows]

    for route in (rhs_ibpf, lhs_bridge_analytic):
        want = sum(c * route(IbpfCase(spec, ExpFunctional.single(m), H))
                   for c, m in terms)
        assert route(bridge) == pytest.approx(want, rel=1e-12)


class TestVerify:
    def test_bridge_case_passes(self):
        rep = verify(simple_case(2.5, 1.0, 0.0, FiniteMeasure.atom(0.6, 1.0)))
        assert rep.passed and rep.rel_err <= 1e-7

    def test_unconstrained_case_passes(self):
        rep = verify(simple_case(2.5, 1.0, mode="unconstrained"))
        assert rep.passed and rep.rel_err <= 1e-7
        rep2 = verify(simple_case(
            2.5, 1.0, m=FiniteMeasure.atom(0.6, 1.0), mode="unconstrained"))
        assert rep2.passed

    @pytest.mark.parametrize("h", [bump(0.25), poly_bump(0.2)])
    def test_case_pickles(self, h):
        # ibpf-check sends parsed cases to its worker processes
        case = IbpfCase(BridgeSpec(2.5, 1.0, 0.0),
                        ExpFunctional.single(FiniteMeasure.atom(0.6, 1.0)), h)
        back = pickle.loads(pickle.dumps(case))
        assert back.case_id == case.case_id and back.h.label == h.label
        assert verify(back) == verify(case)

    def test_report_schema(self):
        rep = verify(simple_case(3.0))
        d = rep.to_json_dict()
        assert set(d) == {"case_id", "lhs_analytic", "lhs_mc", "stderr",
                          "rhs", "abs_err", "rel_err", "pass"}
        assert d["pass"] is True

    def test_failed_mc_check_fails_the_report(self, monkeypatch):
        # an MC estimate 1000 stderr off the RHS must fail the report
        case = simple_case(3.0)
        rhs = rhs_ibpf(case)
        monkeypatch.setattr(ibpf, "lhs_mc", lambda case, n, rng: (rhs + 1.0,
                                                                  1e-3))
        rep = verify(case, mc_n=100, rng=RngStream(1, 1))
        assert rep.mc_passed is False
        assert rep.to_json_dict()["pass"] is False

    def test_mc_crosscheck_and_determinism(self):
        case = simple_case(2.0, 0.0, 0.0, FiniteMeasure.atom(0.6, 1.0))
        rhs = rhs_ibpf(case)
        m1, s1 = lhs_mc(case, 20000, RngStream(123, 7))
        m2, s2 = lhs_mc(case, 20000, RngStream(123, 7))
        assert (m1, s1) == (m2, s2)
        assert abs(m1 - rhs) <= 3.0 * s1

    def test_mc_multi_term_is_the_combination_of_its_terms(self):
        # Phi = 0.7 e^{-<m1, X^2>} - 0.4 e^{-<m2, X^2>} + 1; m1's atoms sit
        # on the 513-point mesh and m1, m2 live inside supp h, so every case
        # samples the same window of times and one stream gives the same
        # paths
        m1 = FiniteMeasure(atoms=[(0.375, 1.0), (0.625, 0.5)],
                           pieces=[(0.3, 0.7, [0.2, 1.0])])
        m2 = FiniteMeasure(pieces=[(0.25, 0.75, [0.5])])
        spec = BridgeSpec(2.5, 1.0, 0.5)
        phi = ExpFunctional([(0.7, m1), (-0.4, m2),
                             (1.0, FiniteMeasure.zero())])
        mean, _ = lhs_mc(IbpfCase(spec, phi, H), 2000, RngStream(31, 2))
        parts = [lhs_mc(IbpfCase(spec, ExpFunctional.single(m), H), 2000,
                        RngStream(31, 2))[0]
                 for m in (m1, m2, FiniteMeasure.zero())]
        want = 0.7 * parts[0] - 0.4 * parts[1] + parts[2]
        assert mean == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m, kept, mesh", [
        (None, 309, 513),
        (FiniteMeasure.atom(0.6, 1.0), 310, 514),
        (FiniteMeasure.lebesgue(0.5), 513, 513)])
    def test_mc_times_are_the_weighed_nodes_and_both_ends(self, m, kept,
                                                          mesh):
        from bessel_lab.core import hat_weights, pairing_weights
        case = simple_case(2.5, m=m)
        pts = set(np.linspace(0.0, 1.0, 513))
        for _, mi in case.phi.terms:
            pts.update(t for t, _ in mi.atoms)
        full = np.array(sorted(pts))
        w_m, w_hm = pairing_weights(case.phi.terms[0][1], H, full)
        weighed = (hat_weights(full, H.d2) != 0) | (w_m != 0) | (w_hm != 0)
        weighed[[0, -1]] = True
        times = ibpf._mc_window(case)[0]
        assert len(full) == mesh and len(times) == kept
        np.testing.assert_array_equal(times, full[weighed])

    def test_mc_full_window_draws_the_full_mesh(self):
        # a Lebesgue m weighs every node, so lhs_mc's estimate is the one
        # built by hand from paths on the whole 513-point mesh, bit for bit
        from bessel_lab.core import hat_weights, pairing_weights
        from bessel_lab.samplers import bessel_bridge_general, mc_estimate
        m = FiniteMeasure.lebesgue(0.5)
        spec = BridgeSpec(1.5, 1.0, 0.0)
        times = np.linspace(0.0, 1.0, 513)
        w_h2 = hat_weights(times, H.d2)
        w_m, w_hm = pairing_weights(m, H, times)

        def sample(n, rng):
            x = bessel_bridge_general(spec.delta, spec.a, spec.ap, times,
                                      rng, size=n)
            return ((x @ w_h2 - 2.0 * (x @ w_hm)) * np.exp(-(x**2) @ w_m))

        want = mc_estimate(sample, 6000, RngStream(17, 3))
        got = lhs_mc(IbpfCase(spec, ExpFunctional.single(m), H), 6000,
                     RngStream(17, 3))
        assert got == want

    def test_mc_integer_dimension_against_modulus_sampler(self):
        # delta = 1 bridge: <h'' , X> expectation from the Gaussian-modulus
        # sampler agrees with the general sampler's MC LHS.
        from bessel_lab.samplers import bessel_bridge_integer, mc_estimate
        case = simple_case(1.0)
        mean_g, se_g = lhs_mc(case, 20000, RngStream(5, 1))
        times = np.linspace(0.0, 1.0, 257)
        w = np.zeros(len(times))
        dt = np.diff(times)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
        wh = w * H.d2(times)

        def sample(n, rng):
            paths = bessel_bridge_integer(1, times, rng, size=n)
            return paths @ wh

        mean_i, se_i = mc_estimate(sample, 20000, RngStream(5, 2))
        assert abs(mean_g - mean_i) <= 3.0 * math.hypot(se_g, se_i)

    def test_poly_bump_case(self):
        case = IbpfCase(BridgeSpec(2.5, 0.0, 0.0), ExpFunctional.one(),
                        poly_bump(0.2))
        rep = verify(case)
        assert rep.passed


def uncond_from_bridge_rhs(case_template, a):
    """Conditioning identity: integrate the bridge right-hand side over the
    endpoint law, ``int_0^{a+6} rhs(a, ap) p^delta_1(a, ap) dap`` by 32-node
    Gauss-Legendre; must match the unconstrained right-hand side at the same
    ``a``."""
    d = case_template.spec.delta
    amax = a + 6.0

    x, w = np.polynomial.legendre.leggauss(32)
    x = 0.5 * amax * (x + 1.0)
    w = 0.5 * amax * w
    total = 0.0
    for ap, wt in zip(x, w):
        case = IbpfCase(BridgeSpec(d, a, float(ap)), case_template.phi,
                        case_template.h, mode="bridge")
        total += wt * rhs_ibpf(case) * float(p_delta_t(d, 1.0, a, float(ap)))
    return total


class TestStructuralIdentities:
    def test_delta_above_three_inverse_cube_representation(self):
        # delta > 3: RHS = -kappa E[<h, X^{-3}> Phi] (no subtraction).  The
        # naive MC estimator of X^{-3} has infinite variance (density ~
        # b^{delta-1} at 0 gives a divergent second moment), so the
        # expectation is evaluated exactly from the marginal density.
        from bessel_lab.specfun import bridge_density
        delta, a = 3.5, 1.0
        case = simple_case(delta, a, a)
        rhs = rhs_ibpf(case)
        kappa = (delta - 3.0) * (delta - 1.0) / 4.0

        def inv_cube_mean(r):
            val, _ = integrate.quad(
                lambda b: float(bridge_density(delta, r, a, a, b)) / b**3,
                0.0, 12.0, epsabs=1e-13, epsrel=1e-10, limit=400)
            return val

        want, _ = integrate.quad(
            lambda r: -kappa * float(H(r)) * inv_cube_mean(r), 0.2, 0.8,
            epsabs=1e-12, epsrel=1e-9, limit=100)
        assert rhs == pytest.approx(want, rel=1e-6)

    def test_conditioning_identity_bridge_to_uncond(self):
        # int rhs_bridge(a, ap) p^delta_1(a, ap) dap = rhs_uncond(a)
        m = FiniteMeasure.atom(0.6, 1.0)
        template = simple_case(2.5, 1.0, 0.0, m)
        got = uncond_from_bridge_rhs(template, 1.0)
        want = rhs_ibpf(simple_case(2.5, 1.0, m=m, mode="unconstrained"))
        assert rel_err(got, want) <= 1e-6
