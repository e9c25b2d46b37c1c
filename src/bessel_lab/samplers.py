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

All randomness flows through :class:`RngStream` (counter-based Philox keyed
by ``(seed, stream)``), so every sampler is reproducible and independent
streams can be drawn for parallel blocks.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "RngStream",
    "gaussian_bridge",
    "bessel_bridge_integer",
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
        return RngStream(self.seed, (self.stream << 20) + i + 1)


def _check_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need at least two sample times")
    if len(times) > MAX_MESH:
        raise ValueError(f"mesh size limited to {MAX_MESH} points")
    if times[0] != 0.0 or times[-1] != 1.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must increase strictly from 0 to 1")
    return times


def gaussian_bridge(d, times, rng, size=1):
    """``d`` independent Brownian bridges 0 -> 0 sampled at ``times``.

    Returns an array of shape (size, d, len(times)).  Sequential conditional
    construction: given B_t = b, B_{t+dt} ~ N(b (1-t-dt)/(1-t), dt (1-t-dt)/(1-t)).
    """
    times = _check_times(times)
    g = rng.generator
    n = len(times)
    out = np.zeros((size, d, n))
    cur = np.zeros((size, d))
    for i in range(1, n - 1):
        t, tn = times[i - 1], times[i]
        dt = tn - t
        shrink = (1.0 - tn) / (1.0 - t)
        std = np.sqrt(dt * shrink)
        cur = cur * shrink + std * g.standard_normal((size, d))
        out[:, :, i] = cur
    return out


def bessel_bridge_integer(delta, times, rng, size=1):
    """Bessel bridge 0 -> 0 of integer dimension as a Gaussian modulus.

    Returns (size, len(times)) array of path values.
    """
    if delta not in (1, 2, 3):
        raise ValueError("integer sampler supports delta in {1, 2, 3}")
    beta = gaussian_bridge(int(delta), times, rng, size=size)
    return np.sqrt(np.sum(beta**2, axis=1))


def bessel_rv(nu, w, g):
    """Vectorised draws from the discrete Bessel(nu, w) distribution.

    pmf:  p_l = (w/2)^{2l+nu} / (l! Gamma(l+nu+1) I_nu(w)),  l = 0, 1, ...

    ``w`` is an array of (per-draw) arguments; returns an integer array of
    the same shape.  Inverse-CDF search expanding outward from the mode, so
    it stays stable for large arguments (where starting at l = 0 would
    underflow) and terminates after O(std) iterations.
    """
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape, dtype=np.int64)
    act = w > 0.0
    if not np.any(act):
        return out
    z = w[act]
    q = 0.25 * z * z  # the pmf ratio parameter: p_{l+1}/p_l = q/((l+1)(l+nu+1))
    lmode = np.floor(0.5 * (-nu + np.sqrt(nu * nu + 4.0 * q))).astype(np.int64)
    lmode = np.maximum(lmode, 0)
    logp = ((2 * lmode + nu) * np.log(0.5 * z)
            - special.gammaln(lmode + 1.0) - special.gammaln(lmode + nu + 1.0)
            - (np.log(special.ive(nu, z)) + z))
    pmode = np.exp(logp)

    u = g.uniform(size=z.shape)
    vals = lmode.copy()  # fallback: the mode (exhausted mass is rounding-level)
    cum = pmode.copy()
    done = u < cum
    pl = pmode.copy()
    pr = pmode.copy()
    # Worst case the search spans the whole bulk of the distribution; the
    # bound below is generous (many standard deviations).
    kmax = int(np.max(lmode)) + 90 + int(8.0 * np.sqrt(float(np.max(q)) + 1.0))
    for k in range(1, kmax + 1):
        if np.all(done):
            break
        left = lmode - k
        okl = left >= 0
        pl = np.where(okl, pl * (left + 1.0) * (left + 1.0 + nu) / q, 0.0)
        hit = ~done & okl & (u < cum + pl)
        vals[hit] = left[hit]
        done |= hit
        cum += pl
        right = lmode + k
        pr = pr * q / (right * (right + nu))
        hit = ~done & (u < cum + pr)
        vals[hit] = right[hit]
        done |= hit
        cum += pr
    out[act] = np.maximum(vals, 0)
    return out


def besq_bridge_general(delta, x, y, times, rng, size=1):
    """Exact squared Bessel bridge of dimension delta from x to y over [0,1].

    Sequential conditional Poisson-Bessel-Gamma transitions (see the module
    docstring).  Returns (size, len(times)), with first column ``x`` and
    last column ``y``.
    """
    if delta <= 0 or x < 0 or y < 0:
        raise ValueError("need delta > 0 and nonnegative boundary values")
    times = _check_times(times)
    g = rng.generator
    nu = 0.5 * delta - 1.0
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
        m = g.poisson(u + v)
        shape = 0.5 * delta + m
        if y > 0.0:
            ell = bessel_rv(nu, np.sqrt(cur * y) / big_t, g)
            shape = shape + 2 * ell
        cur = g.gamma(shape, 2.0 * dt * s / big_t)
        out[:, i] = cur
    out[:, n - 1] = y
    return out


def bessel_bridge_general(delta, a, ap, times, rng, size=1):
    """Exact Bessel bridge of dimension delta from a to ap over [0, 1]."""
    return np.sqrt(besq_bridge_general(delta, a * a, ap * ap, times, rng,
                                       size=size))


def bessel_process(delta, a, times, rng, size=1):
    """Unconditioned Bessel process of dimension delta started at a,
    sampled at ``times`` by exact squared Bessel transitions."""
    if delta <= 0 or a < 0:
        raise ValueError("need delta > 0 and a >= 0")
    times = np.asarray(times, dtype=float)
    g = rng.generator
    n = len(times)
    out = np.empty((size, n))
    cur = np.full(size, float(a * a))
    out[:, 0] = cur
    for i in range(1, n):
        dt = times[i] - times[i - 1]
        j = g.poisson(cur / (2.0 * dt))
        cur = g.gamma(0.5 * delta + j, 2.0 * dt)
        out[:, i] = cur
    return np.sqrt(out)


def mc_estimate(sample_values, n, rng):
    """Monte Carlo mean and standard error.

    ``sample_values(m, rng_block)`` must return ``m`` i.i.d. scalar samples
    as an array.  Blocks draw from independent substreams, so the reduction
    is deterministic and order-independent.  Each block's sum of squared
    deviations from its own mean is merged in block order (Chan, Golub and
    LeVeque, 1983), so a large common offset does not cancel the variance.
    """
    if n < 100:
        raise ValueError("need at least 100 samples")
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
