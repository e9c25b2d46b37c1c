import numpy as np
import pytest

from bessel_lab import quadrature
from bessel_lab.quadrature import (QuadratureError, _linspace, adaptive_gl,
                                   decay_cutoff, fixed_gl)

BETAS = [-0.75, -0.25, 0.0, 0.5, 1.0, 1.25, 4.0]


def monomial(j):
    return lambda x: x**j


@pytest.mark.parametrize("beta", BETAS)
class TestJacobiEndPanel:
    """int_0^b x^j x^beta dx = b^{j+beta+1}/(j+beta+1)."""

    B = 1.7

    def exact(self, j, beta):
        return self.B ** (j + beta + 1.0) / (j + beta + 1.0)

    @pytest.mark.parametrize("panels", [1, 4])
    def test_fixed_gl(self, beta, panels):
        for j in range(16):
            got = fixed_gl(monomial(j), 0.0, self.B, panels, beta=beta)
            assert got == pytest.approx(self.exact(j, beta), rel=1e-14)

    def test_adaptive_gl(self, beta):
        for j in range(16):
            got = adaptive_gl(monomial(j), 0.0, self.B, beta=beta)
            assert got == pytest.approx(self.exact(j, beta), rel=1e-14)

    def test_array_ends(self, beta):
        # one interval per entry, each with the weight from its own left end
        a = np.array([0.0, 0.4, 1.1])
        b = a + np.array([self.B, 0.9, 2.5])
        got = fixed_gl(np.exp, a, b, 4, beta=beta)
        want = [fixed_gl(np.exp, lo, hi, 4, beta=beta)
                for lo, hi in zip(a, b)]
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        for j in range(16):
            got = adaptive_gl(lambda x: (x - a[:, None]) ** j, a, b, beta=beta)
            want = (b - a) ** (j + beta + 1.0) / (j + beta + 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_weight_is_taken_from_the_left_end(self, beta):
        # int_a^b (x - a)^3 (x - a)^beta dx with a != 0
        got = adaptive_gl(lambda x: (x - 0.4) ** 3, 0.4, 0.4 + self.B,
                          beta=beta)
        assert got == pytest.approx(self.exact(3, beta), rel=1e-14)


def test_first_agreeing_round_returns(monkeypatch):
    # e^x on [0, 1] agrees to rtol 1e-10 between 4 and 8 panels, and the
    # round of 8 panels is returned: no second agreeing round
    panels = []

    def counting(f, a, b, n, **kw):
        panels.append(n)
        return fixed_gl(f, a, b, n, **kw)

    monkeypatch.setattr(quadrature, "fixed_gl", counting)
    got = adaptive_gl(np.exp, 0.0, 1.0)
    assert panels == [4, 8]
    assert got == pytest.approx(np.e - 1.0, rel=1e-15)


def test_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        adaptive_gl(lambda x: np.sign(np.sin(1e7 * x)), 0.0, 1.0, beta=0.5)


def test_decay_cutoff_array_ends():
    lo = np.array([0.0, 0.5, 2.0])
    hi = np.array([60.0, 10.0, 30.0])
    got = decay_cutoff(lambda x: np.exp(-x * x), lo, hi)
    want = [decay_cutoff(lambda x: np.exp(-x * x), a, b)
            for a, b in zip(lo, hi)]
    assert got.shape == (3,)
    assert list(got) == want


def test_decay_cutoff_probes_in_one_call():
    # 256 rows of r-nodes, the most an outer round hands over: f sees the
    # whole probe grid in one call
    lo = np.linspace(0.0, 1.0, 256)
    hi = lo + np.linspace(10.0, 60.0, 256)
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.exp(-x * x)

    got = decay_cutoff(f, lo, hi)
    assert len(calls) == 1
    assert np.array_equal(calls[0], _linspace(lo, hi, quadrature.PROBES))
    assert got.shape == (256,) and np.all((lo < got) & (got < hi))


def test_decay_cutoff_cuts_at_a_probe():
    # the cut is read off the probe grid: a probe point, hi among them
    lo = np.linspace(0.0, 3.0, 64)
    hi = lo + np.linspace(5.0, 80.0, 64)
    grid = _linspace(lo, hi, quadrature.PROBES)
    for f in (lambda x: np.exp(-x * x), lambda x: np.exp(-x),
              lambda x: np.sin(x) ** 2 * np.exp(-2.0 * x), np.zeros_like,
              lambda x: 1.0 / (1.0 + x * x)):
        got = decay_cutoff(f, lo, hi)
        assert np.all(np.any(grid == got[:, None], axis=1))
    # 1/(1 + x^2) has not decayed to 1e-22 of its peak in any row
    assert np.array_equal(got, hi)


def test_decay_cutoff_all_zero_row():
    # a row with nothing above the threshold cuts at the first probe past
    # lo, where its integral is 0 as anywhere; a NaN row has not decayed
    lo, hi = np.array([0.0, 0.5, 2.0]), np.array([60.0, 10.0, 30.0])
    got = decay_cutoff(np.zeros_like, lo, hi)
    assert np.array_equal(got, _linspace(lo, hi, quadrature.PROBES)[:, 1])
    assert decay_cutoff(np.zeros_like, 2.0, 30.0) == got[2]
    assert decay_cutoff(lambda x: np.full_like(x, np.nan), 2.0, 30.0) == 30.0


def test_linspace_is_numpy_linspace():
    # the cheap grid keeps np.linspace's arithmetic, value for value
    lo = np.array([0.0, -1.3, 2.5e-7])
    hi = np.array([60.0, 0.7, 1e3])
    for num in (2, 9, 100, 601):
        assert np.array_equal(_linspace(lo, hi, num),
                              np.linspace(lo, hi, num, axis=-1))
        assert np.array_equal(_linspace(lo[1], hi[1], num),
                              np.linspace(lo[1], hi[1], num))
