import math

import numpy as np
import pytest

from bessel_lab.core import FiniteMeasure
from bessel_lab.sturm_liouville import solve_sl


class TestZeroMeasure:
    def test_identity_solution(self):
        sol = solve_sl(FiniteMeasure.zero())
        rs = np.linspace(0.0, 1.0, 11)
        for r in rs:
            assert sol.phi(r) == pytest.approx(1.0, abs=1e-14)
            assert sol.dphi(r) == pytest.approx(0.0, abs=1e-14)
            assert sol.rho(r) == pytest.approx(r, abs=1e-14)
        assert sol.phi_prime0 == pytest.approx(0.0, abs=1e-14)
        assert sol.phi1 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("theta", [1.0, 4.0, 10.0, 20.0, 100.0, 300.0])
class TestCoshClosedForm:
    # m = (theta^2/2) Lebesgue: phi_r = cosh(theta(1-r))/cosh(theta) and,
    # free of cancellation, rho_r = cosh(theta) sinh(theta r)
    #                              / (theta cosh(theta(1-r))).
    def test_phi(self, theta):
        sol = solve_sl(FiniteMeasure.lebesgue(theta**2 / 2.0))
        for r in np.linspace(0.0, 1.0, 21):
            want = math.cosh(theta * (1.0 - r)) / math.cosh(theta)
            assert sol.phi(r) == pytest.approx(want, rel=1e-12)

    def test_rho(self, theta):
        sol = solve_sl(FiniteMeasure.lebesgue(theta**2 / 2.0))
        for r in np.linspace(0.0, 1.0, 21):
            want = (math.cosh(theta) * math.sinh(theta * r)
                    / (theta * math.cosh(theta * (1.0 - r))))
            assert sol.rho(r) == pytest.approx(want, rel=1e-12)

    def test_boundary_conditions(self, theta):
        sol = solve_sl(FiniteMeasure.lebesgue(theta**2 / 2.0))
        assert sol.phi(0.0) == pytest.approx(1.0, abs=1e-12)
        assert sol.dphi(1.0) == pytest.approx(0.0, abs=1e-12)
        assert sol.phi_prime0 == pytest.approx(-theta * math.tanh(theta),
                                               rel=1e-12)


class TestAtomicClosedForm:
    # m = delta_{1/2}: phi linear with slope -c on [0, 1/2], constant after,
    # c = 2 lam / (1 + 2 lam t0) = 1 for lam = 1, t0 = 1/2.
    def _sol(self):
        return solve_sl(FiniteMeasure.atom(0.5, 1.0))

    def test_phi_piecewise_linear(self):
        sol = self._sol()
        for r in np.linspace(0.0, 0.5, 11):
            assert sol.phi(r) == pytest.approx(1.0 - r, abs=1e-12)
        for r in np.linspace(0.5, 1.0, 11):
            assert sol.phi(r) == pytest.approx(0.5, abs=1e-12)

    def test_jump_condition(self):
        sol = self._sol()
        jump = sol.dphi(0.5 + 1e-12) - sol.dphi(0.5 - 1e-12)
        assert jump == pytest.approx(2.0 * 1.0 * sol.phi(0.5), abs=1e-12)

    def test_rho_closed_form(self):
        sol = self._sol()
        # rho(1/2) = int_0^{1/2} (1-u)^{-2} du = 1; slope 4 after.
        assert sol.rho(0.5) == pytest.approx(1.0, abs=1e-12)
        for r in (0.6, 0.75, 1.0):
            assert sol.rho(r) == pytest.approx(1.0 + 4.0 * (r - 0.5),
                                                   abs=1e-12)


class TestGenericDensity:
    def test_ode_residual(self):
        # quadratic density: phi'' = 2 phi m checked by finite differences
        m = FiniteMeasure(pieces=[(0.0, 1.0, [0.5, 0.3, 0.2])])
        sol = solve_sl(m)
        eps = 1e-5
        for r in np.linspace(0.1, 0.9, 9):
            d2 = (sol.phi(r + eps) - 2.0 * sol.phi(r)
                  + sol.phi(r - eps)) / eps**2
            want = 2.0 * sol.phi(r) * m.density_at(r)
            assert d2 == pytest.approx(want, rel=1e-5, abs=1e-6)

    def test_invariants(self):
        m = FiniteMeasure(atoms=[(0.3, 0.5)], pieces=[(0.4, 0.9, [1.0, 1.0])])
        sol = solve_sl(m)
        rs = np.linspace(0.0, 1.0, 41)
        phis = np.array([sol.phi(r) for r in rs])
        rhos = np.array([sol.rho(r) for r in rs])
        assert np.all(phis > 0)
        assert np.all(np.diff(phis) <= 1e-14)          # phi' <= 0
        assert np.all(np.diff(rhos) > 0)               # rho increasing
        assert np.all(rhos >= rs - 1e-12)              # rho_r >= r

    def test_refinement_stability(self):
        # re-solving the same measure gives identical closed-form values;
        # a refined piecewise representation of the same density agrees.
        coarse = FiniteMeasure(pieces=[(0.0, 1.0, [0.7])])
        fine = FiniteMeasure(pieces=[(0.0, 0.5, [0.7]), (0.5, 1.0, [0.7])])
        s1, s2 = solve_sl(coarse), solve_sl(fine)
        for r in np.linspace(0.0, 1.0, 21):
            assert s1.phi(r) == pytest.approx(s2.phi(r), rel=1e-11)
            assert s1.rho(r) == pytest.approx(s2.rho(r), rel=1e-10,
                                                  abs=1e-12)


@pytest.mark.parametrize("coeffs", [[0.5, 0.3, 0.2], [0.0, 40.0],
                                    [0.0, 150.0], [200.0]],
                         ids=["quadratic", "40r", "150r", "const200"])
def test_polynomial_density_against_mpmath(coeffs):
    # phi~(s) = phi~(1 - r) solves phi~'' = 2 p(1 - s) phi~ forward from
    # (1, 0); phi = phi~(1 - r)/phi~(1) and rho by quadrature of phi^(-2).
    mp = pytest.importorskip("mpmath")
    sol = solve_sl(FiniteMeasure(pieces=[(0.0, 1.0, coeffs)]))
    with mp.workdps(30):
        def dens(x):
            return sum(mp.mpf(c) * x**j for j, c in enumerate(coeffs))

        back = mp.odefun(lambda s, y: [y[1], 2 * dens(1 - s) * y[0]],
                         0, [mp.mpf(1), mp.mpf(0)])
        top = back(1)[0]
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            want_phi = back(1 - mp.mpf(r))[0] / top
            want_rho = mp.quad(lambda u: (top / back(1 - u)[0]) ** 2,
                               [0, mp.mpf(r)])
            assert sol.phi(r) == pytest.approx(float(want_phi), rel=1e-13)
            assert sol.rho(r) == pytest.approx(float(want_rho), rel=1e-13)


def test_array_calls_match_scalar_calls():
    m = FiniteMeasure(atoms=[(0.0, 0.3), (0.25, 0.5), (0.7, 1.0)],
                      pieces=[(0.1, 0.6, [1.0, 2.0]),
                              (0.4, 1.0, [30.0, 0.0, 5.0])])
    sol = solve_sl(m)
    rs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 37),
                                   m.breakpoints()]))
    for f in (sol.phi, sol.dphi, sol.rho):
        scalars = [f(r) for r in rs]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(f(rs), scalars)
        assert np.array_equal(f(rs.reshape(-1, 1)), np.c_[scalars])
    for t, _ in m.atoms:  # dphi keeps its right-hand limit at an atom
        assert sol.dphi(t) == pytest.approx(sol.dphi(t + 1e-12), abs=1e-9)


@pytest.mark.parametrize("m", [
    FiniteMeasure.lebesgue(1e6),
    FiniteMeasure(pieces=[(0.0, 0.5, [3.2e5]), (0.5, 1.0, [3.2e5])]),
])
def test_beyond_double_range_is_typed(m):
    with pytest.raises(OverflowError, match="double range"):
        solve_sl(m)


@pytest.mark.parametrize("r", [2.0, -0.5, 1.0 + 1e-12, math.nan,
                               np.array([0.2, 2.0]), np.array([-0.1, 0.5])])
def test_outside_unit_interval_is_an_error(r):
    # the end Taylor pieces would extrapolate: rho(2) = 13.64 here against
    # rho1 + 1/phi1^2 = 20.98 for a constant phi beyond 1
    sol = solve_sl(FiniteMeasure.lebesgue(2.0))
    for f in (sol.phi, sol.dphi, sol.rho):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            f(r)
    assert sol.rho(np.array([0.0, 1.0])).tolist() == [0.0, sol.rho1]
