import json

import numpy as np
import pytest

from bessel_lab.core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump,
                             pair_paths, pairing_weights, poly_bump)

TIMES = np.linspace(0.0, 1.0, 101)


def _const_paths(value=1.0):
    return np.full((1, len(TIMES)), value)


def _pairings(m, h, times, paths):
    return pair_paths(pairing_weights(m, h, times), paths)


def _dir_deriv(phi, h, paths):
    """Directional derivative ``d/deps Phi(X + eps h)`` at ``eps = 0``:

        sum_i c_i * (-2 <m_i, h X>) * exp(-<m_i, X^2>).
    """
    total = 0.0
    for c, m in phi.terms:
        x2, hx = _pairings(m, h, TIMES, paths)
        total = total + c * (-2.0 * hx) * np.exp(-x2)
    return total


class TestFiniteMeasure:
    def test_json_round_trip(self):
        m = FiniteMeasure(atoms=[(0.6, 1.5)], pieces=[(0.0, 1.0, [0.5, 1.0])])
        d = json.loads(json.dumps(m.to_json_dict()))
        m2 = FiniteMeasure.from_json_dict(d)
        assert m2.atoms == m.atoms
        assert m2.pieces == m.pieces
        assert d == {"atoms": [{"t": 0.6, "w": 1.5}],
                     "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.5, 1.0]}]}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteMeasure(atoms=[(0.5, -1.0)])
        with pytest.raises(ValueError):
            FiniteMeasure(pieces=[(0.0, 1.0, [-1.0])])

    def test_constructors(self):
        zero = FiniteMeasure.zero()
        assert zero.atoms == [] and zero.pieces == []
        atom = FiniteMeasure.atom(0.5, 2.0)
        assert atom.atoms == [(0.5, 2.0)] and atom.pieces == []
        leb = FiniteMeasure.lebesgue(0.5)
        assert leb.atoms == [] and leb.pieces == [(0.0, 1.0, [0.5])]

    def test_breakpoints(self):
        m = FiniteMeasure(atoms=[(0.6, 1.0)], pieces=[(0.2, 0.7, [1.0])])
        assert m.breakpoints() == [0.0, 0.2, 0.6, 0.7, 1.0]


class TestBumps:
    @pytest.mark.parametrize("maker", [bump, poly_bump])
    def test_derivatives_match_finite_differences(self, maker):
        h = maker(0.2)
        rs = np.linspace(0.25, 0.75, 21)
        eps = 1e-6
        fd2 = (h(rs + eps) - 2 * h(rs) + h(rs - eps)) / eps**2
        s2 = np.max(np.abs(h.d2(rs)))
        assert np.max(np.abs(h.d2(rs) - fd2)) < 1e-4 * s2

    @pytest.mark.parametrize("maker", [bump, poly_bump])
    def test_compact_support(self, maker):
        h = maker(0.2)
        assert h.support == (0.2, 0.8)
        for r in (0.0, 0.1, 0.2, 0.8, 0.9, 1.0):
            assert h(r) == 0.0
            assert h.d2(r) == 0.0
        assert h(0.5) == pytest.approx(1.0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            bump(0.6)


class TestPairings:
    def test_atom_pairing_exact(self):
        m = FiniteMeasure.atom(0.5, 2.0)
        x2, _ = _pairings(m, bump(0.2), TIMES, _const_paths(3.0))
        assert x2[0] == pytest.approx(2.0 * 9.0, rel=1e-15)

    def test_lebesgue_pairing(self):
        m = FiniteMeasure.lebesgue(1.0)
        t = np.linspace(0.0, 1.0, 2001)
        x2, _ = _pairings(m, bump(0.2), t, t[None, :])
        # <Leb, X^2> = int r^2 = 1/3
        assert x2[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestFunctionals:
    def test_phi_one(self):
        (c, m), = ExpFunctional.one().terms
        x2, _ = _pairings(m, bump(0.2), TIMES, _const_paths())
        assert c * np.exp(-x2[0]) == 1.0

    def test_dir_deriv_example(self):
        # Phi = exp(-<delta_{1/2}, .^2>), h(1/2) = 1, X = 1 -> -2 e^{-1}
        phi = ExpFunctional.single(FiniteMeasure.atom(0.5, 1.0))
        h = bump(0.2)
        assert h(0.5) == pytest.approx(1.0)
        val = _dir_deriv(phi, h, _const_paths())
        assert val[0] == pytest.approx(-2.0 * np.exp(-1.0), rel=1e-12)

    def test_dir_deriv_outside_support(self):
        phi = ExpFunctional.single(FiniteMeasure.atom(0.1, 1.0))
        h = bump(0.2)  # h(0.1) = 0
        assert _dir_deriv(phi, h, _const_paths())[0] == pytest.approx(0.0)

    def test_linearity(self):
        # both pairings are additive in the measure
        m1 = FiniteMeasure(atoms=[(0.5, 1.0)], pieces=[(0.1, 0.7, [0.2, 1.0])])
        m2 = FiniteMeasure(atoms=[(0.3, 2.0)], pieces=[(0.0, 1.0, [0.5])])
        both = FiniteMeasure(atoms=m1.atoms + m2.atoms,
                             pieces=m1.pieces + m2.pieces)
        h = bump(0.2)
        paths = np.vstack([np.sin(3.0 * TIMES), 1.0 + TIMES**2])
        one = _pairings(m1, h, TIMES, paths)
        two = _pairings(m2, h, TIMES, paths)
        for got, a, b in zip(_pairings(both, h, TIMES, paths), one, two):
            np.testing.assert_allclose(got, a + b, rtol=1e-14)

    def test_zero_measure_deriv(self):
        phi = ExpFunctional.one()
        assert _dir_deriv(phi, bump(0.2), _const_paths())[0] == 0.0


class TestBridgeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BridgeSpec(0.0)
        with pytest.raises(ValueError):
            BridgeSpec(2.0, a=-1.0)
        s = BridgeSpec(2.5, 1.0, 2.0)
        assert (s.delta, s.a, s.ap) == (2.5, 1.0, 2.0)
