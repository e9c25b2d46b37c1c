import numpy as np
import pytest

from bessel_lab.quadrature import QuadratureError, adaptive_gl, fixed_gl

BETAS = [-0.75, -0.25, 0.0, 0.5, 1.25, 4.0]


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
            got = fixed_gl(monomial(j), 0.0, self.B, panels, 16, beta=beta)
            assert got == pytest.approx(self.exact(j, beta), rel=1e-14)

    def test_adaptive_gl(self, beta):
        for j in range(16):
            got = adaptive_gl(monomial(j), 0.0, self.B, beta=beta)
            assert got == pytest.approx(self.exact(j, beta), rel=1e-14)

    def test_weight_is_taken_from_the_left_end(self, beta):
        # int_a^b (x - a)^3 (x - a)^beta dx with a != 0
        got = adaptive_gl(lambda x: (x - 0.4) ** 3, 0.4, 0.4 + self.B,
                          beta=beta)
        assert got == pytest.approx(self.exact(3, beta), rel=1e-14)


def test_nonconvergence_raises():
    with pytest.raises(QuadratureError):
        adaptive_gl(lambda x: np.sign(np.sin(1e7 * x)), 0.0, 1.0, beta=0.5)
