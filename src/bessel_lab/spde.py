"""Weak delta = 2 dynamics: 2-component stochastic heat equation diagnostics.

The 2-dimensional Bessel-bridge field is realised as ``u = |v|`` where
``v = (v1, v2)`` solves two independent linear stochastic heat equations on
(0, 1) with Dirichlet boundary conditions, simulated spectrally in the sine
basis ``e_k(x) = sqrt(2) sin(k pi x)`` with rates ``lambda_k = k^2 pi^2``.
Each mode is an Ornstein-Uhlenbeck process advanced by its exact exponential
integrator, so the stationary law (per-mode variance ``1/lambda_k``) is
preserved without discretisation bias.  The field is synthesised on the
uniform grid ``x_j = j/n`` by one DST-I: ``sin(k pi j/n)`` has period 2n in
k, so the K modes fold onto n - 1 interior slots before the transform, and
``u`` is exactly 0 at both ends.

:func:`run_decomposition` draws each step's normals on one worker thread
while the caller's thread builds the field; only the draw runs there, so the
series are a serial loop's bit for bit.

The weak-dynamics decomposition under test is

    <u_t, h> - <u_0, h> = M_t + (1/2) int_0^t <h'', u_s> ds - N_t,
    N_t = -(1/2) int_0^t <f_eps_eta(u_s), h> ds      (sign folded into f),

with ``f_eps_eta(x) = (1/4)(1_{x >= eps}/x^3 - (2/eps) rho_eta(x)/x)`` and
``rho_eta`` a smooth even mollifier.  If the decomposition holds, ``M`` is a
martingale with quadratic variation ``|h|_{L2}^2 t``; the diagnostics
estimate the bracket ratio, run a martingale-increment regression, and check
the stationary marginals against the 2-dimensional Bessel bridge density.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import adaptive_gl

__all__ = [
    "check_settings",
    "mollifier",
    "ou_step",
    "field_to_u",
    "f_eps_eta",
    "run_decomposition",
    "gamma_rs",
    "stationary_field",
]

#: Spatial synthesis mesh size: x_j = j/256, j = 0..256.
SYNTH_MESH = 257

#: The most (replicas x snapshots) values a run stores per series: 256 MiB
#: of float64 for each of the four, the ceiling spde-sim puts on its
#: (replicas x 2 x K) coefficients.
SERIES_MAX = 2**25


def _lambdas(k_max):
    k = np.arange(1, k_max + 1)
    return (k * math.pi) ** 2


def _basis(x, k_max):
    """e_k(x) = sqrt(2) sin(k pi x) at each point of ``x``; shape
    x.shape + (K,)."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, k_max + 1)
    return math.sqrt(2.0) * np.sin(math.pi * (x[..., None] * k))


def stationary_field(k_max, rng, replicas):
    """Draw the two-component field's sine coefficients, shape
    (replicas, 2, K), from the exact stationary law: per mode
    N(0, 1/lambda_k)."""
    lam = _lambdas(k_max)
    return rng.generator.standard_normal((replicas, 2, k_max)) / np.sqrt(lam)


def ou_step(coef, dt, noise):
    """Exact Ornstein-Uhlenbeck update over a step ``dt`` of every mode of
    the coefficients ``coef`` (..., 2, K), given standard normals ``noise``
    of the same shape:

        c <- e^{-lambda_k dt/2} c + sqrt((1 - e^{-lambda_k dt})/lambda_k) N.

    Works in place: ``coef`` is updated and returned, and ``noise`` is
    overwritten (IEEE ``*`` and ``+`` commute, so no temporary is needed).
    """
    if dt <= 0:
        raise ValueError("time step must be positive")
    lam = _lambdas(coef.shape[-1])
    coef *= np.exp(-0.5 * lam * dt)
    noise *= np.sqrt(-np.expm1(-lam * dt) / lam)
    coef += noise
    return coef


def field_to_u(coef, n):
    """``u(x_j) = |v(x_j)|`` on the uniform grid ``x_j = j/n``, j = 0..n,
    by one DST-I of the folded sine coefficients ``coef`` (..., 2, K);
    shape (..., n + 1).

    ``sin(k pi j/n)`` has period 2n in k: mode ``2pn + r`` adds to slot r
    and mode ``2pn + n + s`` subtracts from slot ``n - s``.  Slots 0 and n
    vanish on the grid, so u is exactly 0 at both ends.
    """
    # imported here so that routes which never synthesise a field do not
    # carry scipy.fft's memory
    from scipy import fft

    if n < 2:
        raise ValueError("need n >= 2 grid intervals")
    k_max = coef.shape[-1]  # mode k at coef[..., k - 1]
    # up to K = n no mode folds onto another: the DST pads the modes with
    # zeros to n - 1 slots, or drops mode n, which sits on the vanishing
    # slot n
    inner = coef
    if k_max > n:
        folded = np.zeros(coef.shape[:-1] + (n + 1,))
        for lo in range(0, k_max + 1, n):  # one block: modes lo..hi-1
            hi = min(lo + n, k_max + 1)
            first = max(lo, 1)
            block = coef[..., first - 1:hi - 1]
            if (lo // n) % 2 == 0:  # k = 2pn + r adds to slot r
                folded[..., first - lo:hi - lo] += block
            else:  # k = 2pn + n + s subtracts from slot n - s
                top = lo + n
                folded[..., top - hi + 1:top - first + 1] -= block[..., ::-1]
        inner = folded[..., 1:n]
    # DST-I: y_j = 2 sum_m a_m sin(pi m j/n); e_k carries sqrt(2)
    v = fft.dst(inner, type=1, n=n - 1, axis=-1)
    v *= math.sqrt(0.5)
    v *= v
    u = np.zeros(coef.shape[:-2] + (n + 1,))
    np.add(v[..., 0, :], v[..., 1, :], out=v[..., 0, :])
    np.sqrt(v[..., 0, :], out=u[..., 1:n])
    return u


def _bump(y):
    """exp(-1/(1 - y^2)) on (-1, 1), 0 outside."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    ys = np.where(inside, y, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - ys * ys)), 0.0)


@lru_cache(maxsize=None)
def _bump_norm():
    """The reciprocal mass of :func:`_bump`, the same for every eta."""
    return 1.0 / adaptive_gl(_bump, -1.0, 1.0, rtol=1e-13, atol=1e-16)


def mollifier(y, eta):
    """Smooth even mollifier ``rho_eta(y) = rho(y/eta)/eta`` of mass 1, with
    ``rho(y) = C exp(-1/(1-y^2))`` on (-1, 1)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return (_bump_norm() * _bump(np.asarray(y, dtype=float) / eta)) / eta


def f_eps_eta(x, eps, eta):
    """``(1/4)(1_{x >= eps}/x^3 - (2/eps) rho_eta(x)/x)``; vanishes on
    (eta, eps).  The value at x = 0 is taken as 0 (the field is almost
    surely positive at interior points at any fixed time; the convention is
    never exercised by the time integrals)."""
    if eta >= eps:
        raise ValueError("need eta < eps")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("f_eps_eta is defined on x >= 0")
    val = np.zeros_like(x)
    big = x >= eps
    val[big] = 0.25 / x[big]**3
    small = (x > 0) & (x < eta)
    xs = x[small]
    val[small] -= 0.5 / eps * mollifier(xs, eta) / xs
    return val[()]


@dataclass
class DecompositionSeries:
    """Per-replica time series of the weak-dynamics decomposition."""

    times: np.ndarray
    uh: np.ndarray      # (replicas, n_times) <u_t, h>
    lap: np.ndarray     # (1/2) int_0^t <h'', u_s> ds, left-point rule
    n_drift: np.ndarray  # N^{eps,eta}_t, left-point rule
    mart: np.ndarray    # M_t = uh - uh_0 - lap + N


def check_settings(t_final, dt, k_max, replicas, store_every):
    """Reject the settings of :func:`run_decomposition` that no run can
    take, before any work; returns the number of steps.  Each argument is a
    ``(key, value)`` pair, and the :class:`ValueError` for the first bad
    setting begins ``bad '<key>':``, so a caller's own names reach its
    user.  A run whose replicas x snapshots exceed ``SERIES_MAX`` names
    the ``t_final`` key."""
    (t_key, t_final), (dt_key, dt) = t_final, dt
    if not dt > 0:
        raise ValueError(f"bad {dt_key!r}: time step must be positive, "
                         f"got {dt}")
    if not t_final > 0:
        raise ValueError(f"bad {t_key!r}: t_final must be positive, "
                         f"got {t_final}")
    for name, (key, count) in (("k_max", k_max), ("replicas", replicas),
                               ("store_every", store_every)):
        if count < 1:
            raise ValueError(f"bad {key!r}: {name} must be >= 1, "
                             f"got {count}")
    steps = t_final / dt
    n_steps = int(round(steps)) if math.isfinite(steps) else 0
    if (n_steps < 1
            or abs(n_steps * dt - t_final) > 1e-12 * max(t_final, 1.0)):
        raise ValueError(f"bad {t_key!r}: t_final must be a positive whole "
                         f"multiple of dt, got {t_final} and {dt}")
    replicas, store_every = replicas[1], store_every[1]
    snapshots = -(-n_steps // store_every) + 1
    if replicas * snapshots > SERIES_MAX:
        raise ValueError(f"bad {t_key!r}: {replicas} replicas x {snapshots} "
                         f"snapshots exceed {SERIES_MAX} stored values")
    return n_steps


def run_decomposition(h, eps, eta, t_final, dt, k_max, rng, replicas=1,
                      store_every=1):
    """Simulate the stationary field and accumulate the decomposition.

    ``h`` is a :class:`~.core.TestFunctionC2c`.  All replicas advance in one
    vectorised sweep.  Time integrals use the left-point (adapted) rule.
    Returns a :class:`DecompositionSeries` with snapshots every
    ``store_every`` steps (plus the final time).

    One worker thread draws the next step's normals from ``rng``
    (``standard_normal(out=...)`` releases the GIL) while this thread does
    the accumulators, ``f_eps_eta``, the OU update and the synthesis.  The
    draws keep the serial order (the stationary field, then one batch per
    step, none after the last), so the series and ``rng``'s state after the
    run are a serial loop's.  Only the draw runs there: it needs nothing
    else, and the other layers stay on the caller's thread, where a tracer
    sees them.
    """
    n_steps = check_settings(("t_final", t_final), ("dt", dt),
                             ("k_max", k_max), ("replicas", replicas),
                             ("store_every", store_every))
    n = SYNTH_MESH - 1
    x = np.linspace(0.0, 1.0, SYNTH_MESH)
    wq = np.full(SYNTH_MESH, 1.0 / n)  # trapezoid rule on x_j = j/n
    wq[[0, -1]] = 0.5 / n
    hv = np.asarray(h(x), dtype=float) * wq
    h2v = np.asarray(h.d2(x), dtype=float) * wq

    coef = stationary_field(k_max, rng, replicas)
    u = field_to_u(coef, n)  # (replicas, n + 1)
    uh0 = u @ hv

    # snapshots at every store_every-th step and at the last
    n_keep = -(-n_steps // store_every) + 1
    times = np.minimum(np.arange(n_keep) * store_every, n_steps) * dt
    uh_out = np.empty((replicas, n_keep))
    lap_out = np.empty_like(uh_out)
    n_out = np.empty_like(uh_out)

    lap_acc = np.zeros(replicas)
    n_acc = np.zeros(replicas)
    col = 0
    noise = np.empty_like(coef)
    with ThreadPoolExecutor(1) as worker:
        draw = worker.submit(rng.generator.standard_normal, out=noise)
        for i in range(n_steps + 1):
            if i % store_every == 0 or i == n_steps:
                uh_out[:, col] = u @ hv
                lap_out[:, col] = lap_acc
                n_out[:, col] = n_acc
                col += 1
                if col == n_keep:
                    break
            # left-point increments over [i dt, (i+1) dt)
            lap_acc = lap_acc + 0.5 * dt * (u @ h2v)
            n_acc = n_acc + 0.5 * dt * (f_eps_eta(u, eps, eta) @ hv)
            draw.result()
            ou_step(coef, dt, noise)
            if i + 1 < n_steps:  # the next step's normals
                draw = worker.submit(rng.generator.standard_normal,
                                     out=noise)
            u = field_to_u(coef, n)

    mart = uh_out - uh0[:, None] - lap_out + n_out
    return DecompositionSeries(times=times, uh=uh_out, lap=lap_out,
                               n_drift=n_out, mart=mart)


def h_l2_norm_sq(h):
    """``int h(r)^2 dr`` over the support of ``h``."""
    lo, hi = h.support
    return adaptive_gl(lambda r: np.asarray(h(r))**2, lo, hi, rtol=1e-12)


def bracket_ratio(series, h):
    """``E[M_T^2] / (|h|^2 T)`` with a jackknife standard error."""
    m = series.mart[:, -1]
    t_final = series.times[-1]
    denom = h_l2_norm_sq(h) * t_final
    ratio = float(np.mean(m**2)) / denom
    se = float(np.std(m**2, ddof=1) / math.sqrt(len(m))) / denom
    return ratio, se


def martingale_regression(series):
    """Regress M-increments on the adapted state (<u_t,h>, N_t, M_t).

    Returns (coefficients, stderrs): each coefficient should vanish for a
    martingale.  Pools all replicas and snapshot increments; the errors are
    HC1 (White 1980), since the increments of M are heavy-tailed.
    """
    dm = np.diff(series.mart, axis=1).ravel()
    z1 = series.uh[:, :-1].ravel()
    z2 = series.n_drift[:, :-1].ravel()
    z3 = series.mart[:, :-1].ravel()
    design = np.column_stack([np.ones_like(z1), z1, z2, z3])
    # N and M vanish at t = 0, so the first increments alone leave their
    # columns zero
    steps = series.mart.shape[1] - 1
    if steps < 2 or len(dm) < design.shape[1]:
        raise ValueError(
            f"the martingale regression needs at least 2 increments per "
            f"replica and {design.shape[1]} in all, got {steps} per replica "
            f"and {len(dm)} in all")
    coef, *_ = np.linalg.lstsq(design, dm, rcond=None)
    resid = dm - design @ coef
    dof = max(len(dm) - design.shape[1], 1)
    bread = np.linalg.inv(design.T @ design)
    meat = (design * resid[:, None] ** 2).T @ design
    return coef, np.sqrt(np.diag(bread @ meat @ bread) * len(dm) / dof)


def gamma_rs(r, s, t, theta, k_max):
    """Determinant of the covariance matrix of ``(v(r), v(s))`` per
    component at lag ``t``,

        M = [[q_inf(r, r), q^t(r, s)], [q^t(r, s), q_inf(s, s)]],

    with its lower bound ``theta^2 |r - s|``; ``r`` and ``s`` broadcast.
    The stationary entries take the closed form ``q_inf(x, x) = x (1 - x)``
    and the lag term its own series

        q^t(r, s) = sum_{k <= K} e^{-lambda_k t} / lambda_k e_k(r) e_k(s),

    which avoids the cancellation in ``q_inf - q_t``.  As t -> 0 the
    determinant meets the bound at the corner pair (theta, 1 - theta), so
    the bound returned is less ``8 eps (q_inf(r, r) q_inf(s, s) +
    q^t(r, s)^2)`` with eps = 2^-52: room for the few roundings in each of
    the determinant's two terms and in ``r``, ``s`` themselves.
    Returns ``(det, bound)``.
    """
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(s, dtype=float))
    if np.any((np.minimum(r, s) < theta) | (np.maximum(r, s) > 1.0 - theta)):
        raise ValueError("r, s must lie in [theta, 1 - theta]")
    if t < 0:
        raise ValueError("time must be >= 0")
    lam = _lambdas(k_max)
    lag = (_basis(r, k_max) * _basis(s, k_max)) @ (np.exp(-lam * t) / lam)
    diag = r * (1.0 - r) * s * (1.0 - s)
    det = diag - lag**2
    bound = (theta**2 * np.abs(r - s)
             - 8.0 * np.finfo(float).eps * (diag + lag**2))
    return det, bound
