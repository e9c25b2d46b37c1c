"""Time reversal of the bridge: a guard on Sigma that the LHS-RHS pair
cannot give.

Run backwards in time, the bridge from a to a' is the bridge from a' to a,
and <m, X^2> becomes <m~, X^2> for the measure m~ reflected by r -> 1 - r.
The test functions bump and poly_bump are even about 1/2, so each route's
value at (delta, a, a', m, h) equals its value at (delta, a', a, m~, h).
The two sides solve different Sturm-Liouville problems and put different
kernels and end points into Sigma, so a defect of Sigma that is not
symmetric in time shows here even where the analytic LHS and the RHS share
it and still agree with each other.  The process has no end, hence no such
symmetry, and stays out.
"""

import itertools

import numpy as np
import pytest

from bessel_lab.core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump,
                             poly_bump)
from bessel_lab.ibpf import IbpfCase, lhs_bridge_analytic, rel_err, rhs_ibpf

#: Largest symmetric relative gap |v - v~| / (|v| + |v~|) per route: 10x
#: the worst gap measured on this grid, each on the cell (2.5, 0, 3) with
#: the mixed measure under bump: LHS 3.55e-11, branch RHS 1.16e-14 and
#: unified RHS 3.66e-14.
#: Scaling Sigma's end point ``end_z`` by 1 + 1e-6 moves every gap on the
#: grid to between 3.2e-7 and 7.3e-5, while the 63-case battery still
#: passes.
BOUNDS = {"lhs": 3.5e-10, "branch": 1.2e-13, "unified": 3.7e-13}

ROUTES = {"lhs": lhs_bridge_analytic,
          "branch": rhs_ibpf,
          "unified": lambda case: rhs_ibpf(case, route="unified")}

DELTAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
ENDS = ((1.0, 0.0), (1.0, 2.0), (0.0, 3.0))

#: The grid's measures: an atom, a linear density on [0, 0.5], and an atom
#: with a quadratic density on [0.2, 0.9]; and its test functions.
MEASURES = {"atom": FiniteMeasure.atom(0.6, 1.0),
            "density": FiniteMeasure(pieces=[(0.0, 0.5, [0.3, 1.0])]),
            "mixed": FiniteMeasure(atoms=[(0.3, 0.7)],
                                   pieces=[(0.2, 0.9, [0.5, 0.0, 1.0])])}
HS = {"bump": bump(0.2), "poly_bump": poly_bump(0.15)}
PAIRS = [("mixed", "bump"), ("atom", "poly_bump"), ("density", "bump"),
         ("mixed", "poly_bump"), ("atom", "bump"), ("density", "poly_bump")]

#: One (measure, h) pair per (delta, ends) cell, cycling through PAIRS so
#: that each pair meets several dimensions and ends: 21 cells, 63 route
#: pairs in about 3 s.
CELLS = [(delta, a, ap, *PAIRS[(i + j) % len(PAIRS)])
         for (i, delta), (j, (a, ap)) in itertools.product(
             enumerate(DELTAS), enumerate(ENDS))]


def reflect(m):
    """The measure ``m`` reflected by ``r -> 1 - r``: each atom moves to
    ``1 - t``, and a piece ``p`` on [lo, hi] becomes ``p(1 - r)`` on
    [1 - hi, 1 - lo]."""
    poly = np.polynomial.Polynomial
    return FiniteMeasure(
        atoms=[(1.0 - t, w) for t, w in m.atoms],
        pieces=[(1.0 - hi, 1.0 - lo, poly(c)(poly([1.0, -1.0])).coef)
                for lo, hi, c in m.pieces])


def test_reflect():
    # atoms move to 1 - t, densities are read at 1 - r, and the test
    # functions are even about 1/2
    m = MEASURES["mixed"]
    back = reflect(m)
    assert back.atoms == [(0.7, 0.7)]
    assert back.pieces[0][:2] == pytest.approx((0.1, 0.8), abs=1e-15)
    r = (np.arange(100) + 0.5) / 100.0  # no breakpoint of m
    np.testing.assert_allclose(back.density_at(r), m.density_at(1.0 - r),
                               rtol=1e-15)
    for h in HS.values():
        np.testing.assert_allclose(h(r), h(1.0 - r), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("delta, a, ap, m, h", CELLS, ids=[
    f"d{d:g}_a{a:g}_ap{ap:g}_{m}_{h}" for d, a, ap, m, h in CELLS])
def test_routes_are_reversible(delta, a, ap, m, h):
    phi, h = MEASURES[m], HS[h]
    forward = IbpfCase(BridgeSpec(delta, a, ap), ExpFunctional.single(phi), h)
    backward = IbpfCase(BridgeSpec(delta, ap, a),
                        ExpFunctional.single(reflect(phi)), h)
    gaps = {name: rel_err(route(forward), route(backward))
            for name, route in ROUTES.items()}
    assert all(gaps[name] <= BOUNDS[name] for name in ROUTES), gaps
