"""In-memory span tracer that wraps the package's layer entry points.

Each wrapped call records a span (name, start, end, parent) in flat arrays,
plus exact work counters taken from its arguments.  Self time of a span is
its duration minus the time covered by its direct children, so the self
times of all spans partition the traced wall time.

Wrappers are installed from the benchmark's own files only.  Most call sites
in the package bind names with ``from .x import f``, so a wrapper replaces
every module-level binding of the original function object in every loaded
``bessel_lab`` module, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

class Tracer:
    #: Name of the root span that wraps each traced unit of work.
    ROOT = "bench.unit"

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self._stack = [-1]
        self.counters = defaultdict(float)
        self.inclusive = defaultdict(float)  # transparent spans: name -> s
        self._restore = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None, fail=(), transparent=False):
        """Span-recording wrapper of ``fn``.

        ``count(counters, args, kwargs)`` adds work counters; exceptions of
        the ``fail`` types add one to ``<name>.fail`` and propagate.  A
        ``transparent`` wrapper only sums its inclusive time: it opens no
        span, so its callees' time stays with its caller's self time.
        """
        fail_key = name + ".fail"

        if transparent:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if count is not None:
                    count(self.counters, args, kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.inclusive[name] += time.perf_counter() - t0
            return timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counters, args, kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            except fail:
                self.counters[fail_key] += 1
                raise
            finally:
                self.close(idx)
        return traced

    def patch(self, owner, attr, wrapper):
        """Replace ``owner.attr`` and every module-level binding of the same
        object in the loaded ``bessel_lab`` modules."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("bessel_lab"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            setattr(obj, key, wrapper)
            self._restore.append((obj, key, original))

    def install(self):
        """Wrap every layer entry point named in LAYER_METRICS; undone by
        :meth:`uninstall`."""
        mods = {name: sys.modules["bessel_lab." + name] for name in (
            "specfun", "quadrature", "sturm_liouville", "laplace_sigma",
            "mu_dist", "ibpf", "samplers", "spde", "cli")}
        qerr = mods["quadrature"].QuadratureError
        merr = mods["mu_dist"].MuConvergenceError

        def span(mod, attr, name=None, **kw):
            owner = mods[mod]
            fn = getattr(owner, attr)
            self.patch(owner, attr,
                       self.wrap(name or f"{mod}.{attr}", fn, **kw))

        span("specfun", "besq_density_reg", count=_points_xy)
        span("specfun", "besq_density_reg_ytaylor")
        span("quadrature", "adaptive_gl", fail=qerr)
        span("quadrature", "decay_cutoff")
        # fixed_gl is reached only through adaptive_gl's module globals: count
        # its rounds and nodes, but leave its time to adaptive_gl.
        fixed_gl = mods["quadrature"].fixed_gl

        @functools.wraps(fixed_gl)
        def counted_fixed_gl(*args, **kwargs):
            _fixed_gl_work(self.counters, args, kwargs)
            return fixed_gl(*args, **kwargs)
        self.patch(mods["quadrature"], "fixed_gl", counted_fixed_gl)

        span("sturm_liouville", "solve_sl")
        sl_cls = mods["sturm_liouville"].SLSolution
        self.patch(sl_cls, "rho", self.wrap(
            "sturm_liouville.SLSolution.rho", sl_cls.rho, count=_points_rho))
        span("laplace_sigma", "_sigma_bridge_s", "laplace_sigma.sigma_s",
             count=_points_s)
        span("laplace_sigma", "_sigma_uncond_s", "laplace_sigma.sigma_s",
             count=_points_s)
        span("laplace_sigma", "zeta_second_deriv")
        span("mu_dist", "mu_pair", fail=merr)
        for fn in ("sigma_s_series", "fp_s_integral", "rhs_ibpf",
                   "lhs_bridge_analytic", "lhs_uncond_analytic", "lhs_mc"):
            span("ibpf", fn)
        span("samplers", "besq_bridge_general", count=_path_steps)
        span("samplers", "bessel_rv", count=_draws)
        # mc_estimate drives lhs_mc's own sample closure: keep that closure's
        # pairing work in lhs_mc's self time.
        span("samplers", "mc_estimate", count=_blocks, transparent=True)
        for fn in ("ou_step", "field_to_u", "f_eps_eta", "run_decomposition"):
            span("spde", fn)
        span("cli", "cmd_ibpf_check", "cli.ibpf_check")

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def summary(self):
        """Per-name call count, self seconds and inclusive seconds."""
        n = len(self.start)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        out = {}
        for i, nm in enumerate(self.names):
            out[nm] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
        return out

    def save(self, path):
        """Write all spans to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float))


# ---------------------------------------------------------------------------
# The layer boundaries and their counters.
# ---------------------------------------------------------------------------

def _points_xy(c, args, kwargs):
    x, y = args[2], args[3]
    c["specfun.besq_density_reg.points"] += np.broadcast(x, y).size


def _points_s(c, args, kwargs):
    c["laplace_sigma.sigma_s.points"] += np.size(args[2])


def _points_rho(c, args, kwargs):
    c["sturm_liouville.SLSolution.rho.points"] += np.size(args[1])


def _fixed_gl_work(c, args, kwargs):
    panels = args[3] if len(args) > 3 else kwargs["panels"]
    order = args[4] if len(args) > 4 else kwargs.get("order", 16)
    c["quadrature.adaptive_gl.rounds"] += 1
    c["quadrature.adaptive_gl.nodes"] += panels * order


def _path_steps(c, args, kwargs):
    times = args[3]
    size = kwargs.get("size", args[5] if len(args) > 5 else 1)
    c["samplers.besq_bridge_general.path_steps"] += size * (len(times) - 2)


def _draws(c, args, kwargs):
    c["samplers.bessel_rv.draws"] += np.size(args[1])


def _blocks(c, args, kwargs):
    n = args[1]
    block = kwargs.get("block", args[3] if len(args) > 3 else 5000)
    c["samplers.mc_estimate.blocks"] += math.ceil(n / block)


#: Per-layer metrics: (name, unit, how to read it from the trace).
#: ``("self", span)``, ``("total", span)`` and ``("calls", span)`` read the
#: span summary; ``("counter", key)`` reads a work counter.
LAYER_METRICS = [
    ("specfun.besq_density_reg.calls", "count",
     ("calls", "specfun.besq_density_reg")),
    ("specfun.besq_density_reg.points", "count",
     ("counter", "specfun.besq_density_reg.points")),
    ("specfun.besq_density_reg.self_s", "s",
     ("self", "specfun.besq_density_reg")),
    ("specfun.besq_density_reg_ytaylor.calls", "count",
     ("calls", "specfun.besq_density_reg_ytaylor")),
    ("specfun.besq_density_reg_ytaylor.self_s", "s",
     ("self", "specfun.besq_density_reg_ytaylor")),
    ("quadrature.adaptive_gl.calls", "count",
     ("calls", "quadrature.adaptive_gl")),
    ("quadrature.adaptive_gl.rounds", "count",
     ("counter", "quadrature.adaptive_gl.rounds")),
    ("quadrature.adaptive_gl.nodes", "count",
     ("counter", "quadrature.adaptive_gl.nodes")),
    ("quadrature.adaptive_gl.self_s", "s", ("self", "quadrature.adaptive_gl")),
    ("quadrature.adaptive_gl.fail", "count",
     ("counter", "quadrature.adaptive_gl.fail")),
    ("quadrature.decay_cutoff.calls", "count",
     ("calls", "quadrature.decay_cutoff")),
    ("quadrature.decay_cutoff.self_s", "s",
     ("self", "quadrature.decay_cutoff")),
    ("sturm_liouville.solve_sl.calls", "count",
     ("calls", "sturm_liouville.solve_sl")),
    ("sturm_liouville.solve_sl.self_s", "s",
     ("self", "sturm_liouville.solve_sl")),
    ("sturm_liouville.SLSolution.rho.calls", "count",
     ("calls", "sturm_liouville.SLSolution.rho")),
    ("sturm_liouville.SLSolution.rho.points", "count",
     ("counter", "sturm_liouville.SLSolution.rho.points")),
    ("sturm_liouville.SLSolution.rho.self_s", "s",
     ("self", "sturm_liouville.SLSolution.rho")),
    ("laplace_sigma.sigma_s.calls", "count",
     ("calls", "laplace_sigma.sigma_s")),
    ("laplace_sigma.sigma_s.points", "count",
     ("counter", "laplace_sigma.sigma_s.points")),
    ("laplace_sigma.sigma_s.self_s", "s", ("self", "laplace_sigma.sigma_s")),
    ("laplace_sigma.zeta_second_deriv.calls", "count",
     ("calls", "laplace_sigma.zeta_second_deriv")),
    ("laplace_sigma.zeta_second_deriv.self_s", "s",
     ("self", "laplace_sigma.zeta_second_deriv")),
    ("mu_dist.mu_pair.calls", "count", ("calls", "mu_dist.mu_pair")),
    ("mu_dist.mu_pair.self_s", "s", ("self", "mu_dist.mu_pair")),
    ("mu_dist.mu_pair.fail", "count", ("counter", "mu_dist.mu_pair.fail")),
    ("ibpf.sigma_s_series.calls", "count", ("calls", "ibpf.sigma_s_series")),
    ("ibpf.sigma_s_series.self_s", "s", ("self", "ibpf.sigma_s_series")),
    ("ibpf.fp_s_integral.calls", "count", ("calls", "ibpf.fp_s_integral")),
    ("ibpf.fp_s_integral.self_s", "s", ("self", "ibpf.fp_s_integral")),
    ("ibpf.rhs_ibpf.total_s", "s", ("total", "ibpf.rhs_ibpf")),
    ("ibpf.lhs_bridge_analytic.total_s", "s",
     ("total", "ibpf.lhs_bridge_analytic")),
    ("ibpf.lhs_uncond_analytic.total_s", "s",
     ("total", "ibpf.lhs_uncond_analytic")),
    ("ibpf.lhs_mc.total_s", "s", ("total", "ibpf.lhs_mc")),
    ("ibpf.lhs_mc.self_s", "s", ("self", "ibpf.lhs_mc")),
    ("samplers.besq_bridge_general.calls", "count",
     ("calls", "samplers.besq_bridge_general")),
    ("samplers.besq_bridge_general.path_steps", "count",
     ("counter", "samplers.besq_bridge_general.path_steps")),
    ("samplers.besq_bridge_general.self_s", "s",
     ("self", "samplers.besq_bridge_general")),
    ("samplers.bessel_rv.calls", "count", ("calls", "samplers.bessel_rv")),
    ("samplers.bessel_rv.draws", "count",
     ("counter", "samplers.bessel_rv.draws")),
    ("samplers.bessel_rv.self_s", "s", ("self", "samplers.bessel_rv")),
    ("samplers.mc_estimate.blocks", "count",
     ("counter", "samplers.mc_estimate.blocks")),
    ("samplers.mc_estimate.total_s", "s",
     ("inclusive", "samplers.mc_estimate")),
    ("spde.ou_step.calls", "count", ("calls", "spde.ou_step")),
    ("spde.ou_step.self_s", "s", ("self", "spde.ou_step")),
    ("spde.field_to_u.calls", "count", ("calls", "spde.field_to_u")),
    ("spde.field_to_u.self_s", "s", ("self", "spde.field_to_u")),
    ("spde.f_eps_eta.calls", "count", ("calls", "spde.f_eps_eta")),
    ("spde.f_eps_eta.self_s", "s", ("self", "spde.f_eps_eta")),
    ("spde.run_decomposition.total_s", "s",
     ("total", "spde.run_decomposition")),
    ("cli.ibpf_check.total_s", "s", ("total", "cli.ibpf_check")),
    ("cli.ibpf_check.self_s", "s", ("self", "cli.ibpf_check")),
]


def layer_metrics(tracer, rounds):
    """Every per-layer metric, per traced round of work."""
    summ = tracer.summary()
    out = {}
    for metric, unit, (kind, key) in LAYER_METRICS:
        if kind == "counter":
            val = tracer.counters.get(key, 0.0)
        elif kind == "inclusive":
            val = tracer.inclusive.get(key, 0.0)
        else:
            entry = summ.get(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            val = entry[{"calls": "calls", "self": "self_s",
                         "total": "total_s"}[kind]]
        out[metric] = {"value": val / rounds, "unit": unit}
    return out, summ
