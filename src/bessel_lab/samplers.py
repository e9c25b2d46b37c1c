"""Exact-in-law samplers for Brownian/Bessel bridges and squared Bessel laws.

The general-dimension squared Bessel bridge from ``x`` to ``y`` over [0, 1]
is sampled exactly by sequential conditional transitions.  Expanding the
product of two transition kernels in their Poisson-Gamma mixture form shows
that, given the value ``z`` at time ``t`` and the endpoint ``y`` at time 1,
the value at ``tn = t + dt`` is

    Gamma(delta/2 + M + 2 L,  scale 2 dt S / T),
    T = 1 - t,  S = 1 - tn,
    M ~ Poisson(u + v),     u = z S / (2 dt T),  v = y dt / (2 S T),
    L ~ Bessel(nu, sqrt(z y) / T),   nu = delta/2 - 1,

where Bessel(nu, w) is the discrete law with pmf proportional to
``(w/2)^{2l} / (l! Gamma(l + nu + 1))``.  (The identity behind the ``M + 2L``
split is the factorisation of the coupled double series
``sum_{j,k} u^j v^k Gamma(c+j+k) / (j! k! Gamma(c+j) Gamma(c+k))`` into a
Poisson(u+v) part and a Bessel part in the product ``uv``.)  For ``y = 0``
this reduces to the exponentially tilted squared Bessel step.  The scheme is
exact in law at every finite collection of times, fully vectorised across
paths, and free of any inverse-CDF tabulation in the continuous variable.
The Bessel(nu, w) draws are normalised by this module's own log I_nu
(``_log_iv``: power series, Hankel and uniform expansions in log space), not
by the evaluators behind the kernel ``besq_density_reg`` (its own series of
``S_nu`` below ``w = 400``, ``ive`` above), so a defect in one cannot reach
both the analytic and the Monte Carlo route.  Each Bessel draw is an
inverse-CDF search outward from the mode (mode, mode - 1, mode + 1, ...)
that only counts the positions whose running CDF its uniform passes, with
``log l!`` and ``log Gamma(l + nu + 1)`` at the modes tabulated over the
batch's range of modes (``bessel_rv``).

Given L, the Poisson mixture of Gamma(delta/2 + M) is half a noncentral
chi^2 of ``delta`` degrees of freedom and noncentrality ``2 (u + v)``, and
for ``delta >= 1`` that is ``chi^2_{delta-1} + (Z + sqrt(2 (u + v)))^2``
(Johnson, Kotz & Balakrishnan, *Continuous Univariate Distributions* 2,
ch. 29).  So a step with ``delta >= 1`` draws

    (dt S / T) ((Z + sqrt(2 (u + v)))^2 + 2 Gamma((delta - 1)/2 + 2 L)),

one normal and one gamma of a fixed shape when ``y = 0``, in place of a
Poisson and a gamma of a per-path shape.  Steps with ``delta < 1``, where
there is no chi^2_{delta-1}, keep the Poisson-Gamma draws, in the order
Poisson, L, gamma.  The unconditioned process's step over ``dt`` is the
same with ``L = 0``: ``dt`` times a noncentral chi^2 of noncentrality
``x / dt``.

All randomness flows through :class:`RngStream` (counter-based Philox keyed
by ``(seed, stream)``), so every sampler is reproducible and independent
streams can be drawn for parallel blocks.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial import polynomial as P
from scipy import special

__all__ = [
    "RngStream",
    "bessel_rv",
    "besq_bridge_general",
    "bessel_bridge_general",
    "bessel_process",
    "mc_estimate",
]

#: Largest supported number of mesh points for bridge sampling.
MAX_MESH = 2049

#: Samples per ``mc_estimate`` block; each block draws from its own substream.
MC_BLOCK = 5000

# Substream i of stream k has the id (k << _SUBSTREAM_BITS) + i + 1, so for
# i >= 2**_SUBSTREAM_BITS it is a substream of stream k + 1.
_SUBSTREAM_BITS = 20

#: Smallest ``n`` that ``mc_estimate`` takes.
MC_MIN_SAMPLES = 100

#: Largest ``n`` that ``mc_estimate`` takes: one block per distinct substream.
MC_MAX_SAMPLES = MC_BLOCK << _SUBSTREAM_BITS

#: Largest argument ``w`` that ``bessel_rv`` takes: its modes, below w/2,
#: and the float counters of its search stay exact integers.
BESSEL_W_MAX = 2.0**53


class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Identical keys reproduce identical sequences; distinct stream ids give
    statistically independent streams of the same seed.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def substream(self, i):
        """Independent stream derived from this one (for parallel blocks)."""
        return RngStream(self.seed, (self.stream << _SUBSTREAM_BITS) + i + 1)


def _check_mesh(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two sample times")
    if len(times) > MAX_MESH:
        raise ValueError(f"mesh size limited to {MAX_MESH} points")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be finite and increase strictly")
    return times


def _check_times(times):
    times = _check_mesh(times)
    if times[0] != 0.0 or times[-1] != 1.0:
        raise ValueError("times must increase strictly from 0 to 1")
    return times


#: Orders from which ``_log_iv`` uses the uniform expansion in nu.
_NU_UNIFORM = 20.0

#: Lowest switch from the power series to Hankel's expansion (orders below
#: ``_NU_UNIFORM``); the switch is max(_Z_HANKEL, nu**2 / 2).
_Z_HANKEL = 20.0

#: Terms U_0 .. U_14 of the uniform expansion: the first omitted term is
#: below 1.3e-16 relative from nu = 20 on.
_DEBYE_TERMS = 14

_EPS = 2.0**-53


@functools.cache
def _debye_polys():
    """Coefficients of the Debye polynomials U_k(p), k = 0 .. _DEBYE_TERMS,
    from U_{k+1} = p^2 (1 - p^2) U_k' / 2 + (1/8) int_0^p (1 - 5t^2) U_k dt
    (DLMF 10.41.9)."""
    polys = [np.array([1.0])]
    for _ in range(_DEBYE_TERMS):
        u = polys[-1]
        polys.append(P.polyadd(P.polymul(P.polyder(u), [0, 0, 0.5, 0, -0.5]),
                               P.polyint(P.polymul(u, [0.125, 0, -0.625]))))
    return polys


def _horner(x, c):
    """sum_k c[k] x^k for a finite array x (len(c) >= 2) by Horner's rule
    in place: per term one product and one sum, rounded as ``P.polyval``
    rounds them."""
    out = x * c[-1]
    out += c[-2]
    for ck in c[-3::-1]:
        out *= x
        out += ck
    return out


def _log_iv(nu, z):
    """log I_nu(z) for a scalar order nu > -1 and an array of z > 0.

    Computed in log space, so it neither overflows at large z nor
    underflows at large nu:

    * nu < 20 and z <= max(20, nu^2/2): the power series (DLMF 10.25.2);
    * nu < 20 above that switch: Hankel's large-argument expansion
      (DLMF 10.40.1), whose terms there fall below 2^-53 before they
      start to grow;
    * nu >= 20, every z: the uniform expansion in nu (DLMF 10.41.3) to
      U_14.

    Each sum is a polynomial whose coefficients are its terms at the
    subset's extreme argument, so the term count adapts to the arguments
    and no coefficient under- or overflows.  Against 30-digit mpmath the
    error is below 1e-14 max(1, |log I_nu(z)|) for z in [1e-6, 1e5].
    """
    if nu >= _NU_UNIFORM:
        t = z / nu
        r = np.sqrt(1.0 + t * t)
        c = functools.reduce(P.polyadd, (u * nu**-k for k, u
                                         in enumerate(_debye_polys())))
        return (nu * (r + np.log(t / (1.0 + r))) - 0.5 * np.log(r)
                - 0.5 * np.log(2.0 * np.pi * nu)
                + np.log(_horner(1.0 / r, c)))
    out = np.empty_like(z)
    low = z <= max(_Z_HANKEL, 0.5 * nu * nu)
    if np.any(low):
        q = 0.25 * z[low] ** 2
        qmax = float(np.max(q))
        terms, total = [1.0], 0.0
        while terms[-1] > _EPS * total:
            total += terms[-1]
            k = len(terms)
            terms.append(terms[-1] * qmax / (k * (k + nu)))
        out[low] = (nu * np.log(0.5 * z[low]) - special.gammaln(nu + 1.0)
                    + np.log(_horner(q / qmax, terms)))
    if not np.all(low):
        x = z[~low]
        xmin = float(np.min(x))
        mu = 4.0 * nu * nu
        terms = [1.0]
        while abs(terms[-1]) > _EPS:
            k = len(terms)
            terms.append(-terms[-1] * (mu - (2 * k - 1) ** 2)
                         / (8.0 * k * xmin))
        out[~low] = (x - 0.5 * np.log(2.0 * np.pi * x)
                     + np.log(_horner(xmin / x, terms)))
    return out


def bessel_rv(nu, w, g):
    """Vectorised draws from the discrete Bessel(nu, w) distribution.

    pmf:  p_l = (w/2)^{2l+nu} / (l! Gamma(l+nu+1) I_nu(w)),  l = 0, 1, ...

    ``w`` is an array of (per-draw) arguments, none past ``BESSEL_W_MAX``;
    returns an integer array of the same shape.  Inverse-CDF search
    expanding outward from the mode, so it stays stable for large arguments
    (where starting at l = 0 would underflow) and terminates after O(std)
    iterations.  The normaliser is this module's own ``_log_iv``, not the
    kernel's evaluator, so the Monte Carlo route shares no Bessel function
    code with the analytic one.

    The search visits the mode, then mode - 1, mode + 1, mode - 2, ...,
    each mass the one before times a pmf ratio, and adds each to a running
    CDF; a draw's value is the first position p whose CDF exceeds its
    uniform.  That CDF never falls, so p is the number of positions whose
    CDF the uniform reaches, and the loop only counts them, until no draw
    reaches its CDF: p = 0 is the mode, p = 2k - 1 is mode - k and p = 2k
    is mode + k.  A draw still counting after ``kmax`` steps keeps the mode
    (the mass left is rounding-level).  ``log l!`` and ``log Gamma(l + nu +
    1)`` at the modes are read from a table over the modes' range when that
    range is narrower than the batch, and computed per draw otherwise.
    """
    w = np.asarray(w, dtype=float)
    act = w > 0.0
    whole = act.all()
    z = w if whole else w[act]
    if not z.size:
        return np.zeros(w.shape, dtype=np.int64)
    zmax = float(np.max(z))
    if not zmax <= BESSEL_W_MAX:
        raise ValueError(f"Bessel(nu, w) draws need w <= 2**53 = "
                         f"{BESSEL_W_MAX:.0f}, got w = {zmax!r}")
    # the pmf ratio parameter: p_{l+1}/p_l = q/((l+1)(l+nu+1)), floored
    # where it underflows (w below 3e-162) so that a left step is 0/q = 0
    q = 0.25 * z * z
    np.maximum(q, np.finfo(float).tiny, out=q)
    lmode = np.floor(0.5 * (-nu + np.sqrt(nu * nu + 4.0 * q))).astype(np.int64)
    np.maximum(lmode, 0, out=lmode)
    lmin, lmax = int(lmode.min()), int(lmode.max())
    if lmax - lmin + 1 < z.size:
        span = np.arange(lmin, lmax + 1)
        at = lmode - lmin
        log_fact = special.gammaln(span + 1.0)[at]
        log_gamma = special.gammaln(span + nu + 1.0)[at]
    else:
        log_fact = special.gammaln(lmode + 1.0)
        log_gamma = special.gammaln(lmode + nu + 1.0)
    logp = (2 * lmode + nu) * np.log(0.5 * z)
    logp -= log_fact
    logp -= log_gamma
    logp -= _log_iv(nu, z)
    cum = np.exp(logp, out=logp)

    u = g.uniform(size=z.shape)
    pl = cum.copy()
    pr = cum.copy()
    ge = u >= cum
    count = ge.astype(np.int64)
    # left + 1 and right of step k as exact floats: lmode - k + 1, lmode + k
    lf = lmode.astype(float)
    rf = lf + 1.0
    t = np.empty_like(cum)
    # Worst case the search spans the whole bulk of the distribution; the
    # bound below is generous (many standard deviations).
    kmax = lmax + 90 + int(8.0 * np.sqrt(0.25 * zmax * zmax + 1.0))
    for _ in range(kmax):
        if not ge.any():
            break
        # Left of l = 0 the factor (left + 1) makes pl exactly +-0 for good,
        # so those draws can hit only on the right.
        pl *= lf
        np.add(lf, nu, out=t)
        pl *= t
        pl /= q
        cum += pl
        count += np.greater_equal(u, cum, out=ge)
        pr *= q
        np.add(rf, nu, out=t)
        t *= rf
        pr /= t
        cum += pr
        count += np.greater_equal(u, cum, out=ge)
        lf -= 1.0
        rf += 1.0
    else:
        count[count > 2 * kmax] = 0  # unresolved: the mode
    k = (count + 1) >> 1
    vals = np.where(count & 1, lmode - k, lmode + k)
    if whole:
        return vals
    out = np.zeros(w.shape, dtype=np.int64)
    out[act] = vals
    return out


def _besq_step(delta, c, mean, g, w=None):
    """One exact squared Bessel step, an array with one draw per entry of
    ``mean``: ``c`` times a noncentral chi^2 of ``delta`` degrees of freedom
    and noncentrality ``2 mean``, plus ``c chi^2_{4L}`` with ``L ~
    Bessel(delta/2 - 1, w)`` when ``w`` is given.

    For ``delta >= 1`` this is ``c ((Z + sqrt(2 mean))^2 + 2 G)``, ``G ~
    Gamma((delta - 1)/2 + 2L)``: one normal and one gamma a draw, the gamma
    of a scalar shape without ``w`` and left out when that shape is 0.
    Below 1 it is ``Gamma(delta/2 + Poisson(mean) + 2L, scale 2c)``, drawn
    in the order Poisson, L, gamma."""
    if delta < 1.0:
        shape = 0.5 * delta + g.poisson(mean)
        if w is not None:
            shape = shape + 2 * bessel_rv(0.5 * delta - 1.0, w, g)
        return g.gamma(shape, 2.0 * c)
    shape = 0.5 * (delta - 1.0)
    if w is not None:
        shape = shape + 2 * bessel_rv(0.5 * delta - 1.0, w, g)
    out = g.standard_normal(mean.shape)
    out += np.sqrt(2.0 * mean)
    np.square(out, out=out)
    if np.ndim(shape) or shape > 0.0:
        out += 2.0 * g.standard_gamma(shape, mean.shape)
    out *= c
    return out


def besq_bridge_general(delta, x, y, times, rng, size=1):
    """Exact squared Bessel bridge of dimension delta from x to y over [0,1].

    Sequential conditional noncentral chi^2 (delta >= 1) or Poisson-Gamma
    (delta < 1) transitions with a Bessel-distributed shape shift (see the
    module docstring).  Returns (size, len(times)), with first column ``x``
    and last column ``y``.
    """
    if delta <= 0 or x < 0 or y < 0:
        raise ValueError("need delta > 0 and nonnegative boundary values")
    times = _check_times(times)
    g = rng.generator
    n = len(times)
    out = np.empty((size, n))
    cur = np.full(size, float(x))
    out[:, 0] = cur
    for i in range(1, n - 1):
        t, tn = times[i - 1], times[i]
        dt = tn - t
        big_t = 1.0 - t
        s = 1.0 - tn
        u = cur * s / (2.0 * dt * big_t)
        v = y * dt / (2.0 * s * big_t)
        w = np.sqrt(cur * y) / big_t if y > 0.0 else None
        cur = _besq_step(delta, dt * s / big_t, u + v, g, w)
        out[:, i] = cur
    out[:, n - 1] = y
    return out


def bessel_bridge_general(delta, a, ap, times, rng, size=1):
    """Exact Bessel bridge of dimension delta from a to ap over [0, 1]."""
    out = besq_bridge_general(delta, a * a, ap * ap, times, rng, size=size)
    return np.sqrt(out, out=out)


def bessel_process(delta, a, times, rng, size=1):
    """Unconditioned Bessel process of dimension delta started at a,
    sampled at ``times`` by exact squared Bessel transitions: the step over
    ``dt`` is ``dt`` times a noncentral chi^2 of noncentrality ``x / dt``.
    ``times`` (2 to ``MAX_MESH`` finite values, strictly increasing) may
    start and end anywhere; the process is at ``a`` at ``times[0]``."""
    if delta <= 0 or a < 0:
        raise ValueError("need delta > 0 and a >= 0")
    times = _check_mesh(times)
    g = rng.generator
    n = len(times)
    out = np.empty((size, n))
    cur = np.full(size, float(a * a))
    out[:, 0] = cur
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        cur = _besq_step(delta, dt, cur / (2.0 * dt), g)
        out[:, i] = cur
    return np.sqrt(out)


def mc_estimate(sample_values, n, rng):
    """Monte Carlo mean and standard error.

    ``sample_values(m, rng_block)`` must return ``m`` i.i.d. scalar samples
    as an array.  Blocks draw from independent substreams, so the reduction
    is deterministic and order-independent.  Each block's sum of squared
    deviations from its own mean is merged in block order (Chan, Golub and
    LeVeque, 1983), so a large common offset does not cancel the variance.
    ``n`` is at most ``MC_MAX_SAMPLES``: past it, the blocks would draw
    what the substreams of the next stream id draw.
    """
    if n < MC_MIN_SAMPLES:
        raise ValueError(f"need at least {MC_MIN_SAMPLES} samples")
    if n > MC_MAX_SAMPLES:
        raise ValueError(f"need at most {MC_MAX_SAMPLES} samples, got {n}")
    total = 0.0
    m2 = 0.0
    for idx, done in enumerate(range(0, n, MC_BLOCK)):
        m = min(MC_BLOCK, n - done)
        vals = np.asarray(sample_values(m, rng.substream(idx)), dtype=float)
        block_sum = float(vals.sum())
        diff = block_sum / m - (total / done if done else 0.0)
        m2 += (float(((vals - block_sum / m) ** 2).sum())
               + diff**2 * done * m / (done + m))
        total += block_sum
    return total / n, np.sqrt(m2 / max(n - 1, 1) / n)
