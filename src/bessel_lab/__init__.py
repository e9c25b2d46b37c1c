"""Numerical laboratory for Bessel processes and bridges.

Verifies integration-by-parts formulae for Bessel bridge laws of arbitrary
dimension and boundary values, built on: finite-part distributions on the
half-line, a Sturm-Liouville transform of finite measures, conditional
Laplace functionals expressed through the regularised squared-Bessel kernel,
exact bridge samplers, and a spectral simulator for the weak 2-dimensional
dynamics.
"""

from .core import (BridgeSpec, ExpFunctional, FiniteMeasure, TestFunctionC2c,
                   bump, poly_bump)
from .ibpf import IbpfCase, VerifyReport, rel_err, rhs_ibpf, verify
from .laplace_sigma import SigmaContext, sigma_s, zeta, zeta_second_deriv
from .mu_dist import SmoothTestFn, mu_pair
from .samplers import (RngStream, bessel_bridge_general, bessel_process,
                       besq_bridge_general, mc_estimate)
from .spde import run_decomposition, stationary_field
from .specfun import besq_density_reg, bridge_density
from .sturm_liouville import solve_sl

__version__ = "0.1.0"

__all__ = [
    "BridgeSpec", "ExpFunctional", "FiniteMeasure", "TestFunctionC2c",
    "bump", "poly_bump",
    "IbpfCase", "VerifyReport", "rel_err", "rhs_ibpf", "verify",
    "SigmaContext", "sigma_s", "zeta", "zeta_second_deriv",
    "SmoothTestFn", "mu_pair",
    "RngStream", "bessel_bridge_general", "bessel_process",
    "besq_bridge_general", "mc_estimate",
    "run_decomposition", "stationary_field",
    "besq_density_reg", "bridge_density",
    "solve_sl",
    "__version__",
]
