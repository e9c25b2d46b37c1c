"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
fixed-cost *units* of work, so that the number of units a run completes,
and not the seed, is what varies with the speed of the program.  Every
output is checked; a failed check or an exception is recorded with a typed
reason and the run goes on with the next operation.

The package is reached only through module attributes (``self.ibpf.verify``
and so on), never through names bound at set-up, so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Test function shared by every case: the battery's ``bump(0.2)``.
THETA = 0.2

#: Monte Carlo gate: |estimate - reference| <= Z_GATE * stderr.  With a new
#: seed on every run a 3-sigma gate would fail one check in 370 by chance;
#: at 5 sigma the chance is below 1e-6 per check.
Z_GATE = 5.0

#: SPDE diagnostic gate, in standard errors, for the bracket ratio against 1
#: and for each martingale-regression coefficient against 0.
SPDE_Z_GATE = 5.0

#: Agreement digits are capped at the double-precision floor.
MAX_DIGITS = 16.0

PACKAGE_MODULES = ("cli", "core", "ibpf", "laplace_sigma", "mu_dist",
                   "quadrature", "samplers", "spde", "specfun",
                   "sturm_liouville")


def import_package():
    """Import (or re-import from scratch) every package module."""
    for name in [m for m in sys.modules if m.split(".")[0] == "bessel_lab"]:
        del sys.modules[name]
    return {m: importlib.import_module("bessel_lab." + m)
            for m in PACKAGE_MODULES}


def digits(rel):
    """Decimal digits of agreement for a relative difference."""
    if rel <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel))


def failure_reason(exc):
    """Typed reason for an exception raised by the package."""
    quad = sys.modules["bessel_lab.quadrature"].QuadratureError
    mu = sys.modules["bessel_lab.mu_dist"].MuConvergenceError
    if isinstance(exc, quad):
        return "quadrature"
    if isinstance(exc, mu):
        return "mu_convergence"
    if isinstance(exc, OverflowError):
        return "overflow"
    if isinstance(exc, RuntimeError) and "series truncation" in str(exc):
        return "series_truncation"
    return "other:" + type(exc).__name__


class Checks:
    """Attempted and failed checks of one run, with typed reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.agree = []  # digits of agreement, one per checked pair

    def check(self, ok, what, **detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"check": what, "reason": "mismatch",
                                  **detail})

    def error(self, what, exc, count=1):
        """``count`` checks lost to one exception (e.g. a whole config)."""
        self.attempted += count
        self.failed += count
        self.failures.append({"check": what, "reason": failure_reason(exc),
                              "message": str(exc)[:200], "lost": count})


class Workload:
    """Interface: ``setup(mods)`` builds the inputs, ``unit(k, checks)``
    runs unit ``k`` and returns its work counts (always ``cases``), and
    ``finish(checks)`` makes the end-of-run checks.  Units ``k`` and
    ``k + period`` do the same work; a run is made of whole rounds of
    ``period`` units."""

    period = 1
    min_units = 1

    def finish(self, checks):
        pass


def measure_json(tag, t, w, scale):
    if tag == "atom":
        return {"atoms": [{"t": t, "w": w}]}
    if tag == "leb":
        return {"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [scale]}]}
    return {}


# ---------------------------------------------------------------------------
# identity: a slice of the bridge battery through ``bessel-lab ibpf-check``.
# ---------------------------------------------------------------------------

class Identity(Workload):
    """Bridge cases written as configs and run by the CLI with ``--jobs 1``.
    Each (delta, a, ap) cell carries all three measures of the battery, so
    the cost does not depend on the seed; the seed draws the atom's place
    and weight, which leave the quadrature work unchanged, and the case
    order.  The Lebesgue density keeps the battery's scale 0.5: the scale
    changes the number of refinement rounds (1.7x more nodes at 0.4).
    Unit ``k`` is one ``ibpf-check`` run of cell ``k % 3``'s config; every
    repeat of a config must reproduce its first run's report bytes."""

    name = "identity"
    #: delta = 2.5 exercises the generic finite-part branch, delta = 1 and
    #: delta = 3 the closed forms; ap = 0 and ap > 0 both appear.
    CELLS = [(2.5, 0.0, 0.0), (1.0, 1.0, 2.0), (3.0, 0.0, 0.0)]
    MEASURES = ("m0", "atom", "leb")
    period = len(CELLS)
    min_units = 2 * period  # every config runs twice

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.out_dir = out_dir / f"identity-{seed}"
        self.cells = [self.CELLS[-1]] * self.period if tiny else self.CELLS
        self.digests = {}

    def setup(self, mods):
        self.cli = mods["cli"]
        rnd = random.Random(self.seed)
        t, w = 0.6 + rnd.uniform(-0.05, 0.05), rnd.uniform(0.8, 1.2)
        self.configs = []
        for i, (delta, a, ap) in enumerate(self.cells):
            cases = []
            for tag in self.MEASURES:
                case = {"id": f"d{delta:g}_a{a:g}_ap{ap:g}_{tag}",
                        "delta": delta, "a": a, "ap": ap, "mode": "bridge",
                        "tol": 1e-5, "h": {"type": "bump", "theta": THETA}}
                m = measure_json(tag, t, w, 0.5)
                if m:
                    case["phi"] = [{"coef": 1.0, "measure": m}]
                cases.append(case)
            rnd.shuffle(cases)
            cell_dir = self.out_dir / f"cell{i}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            config = cell_dir / "cases.json"
            config.write_text(json.dumps({"cases": cases, "seed": self.seed},
                                         indent=1))
            self.configs.append((cases, config, cell_dir / "report"))

    def unit(self, k, checks):
        op = k % self.period
        cases, config, report_dir = self.configs[op]
        n = len(cases)
        argv = ["ibpf-check", "--config", str(config), "--out",
                str(report_dir), "--jobs", "1"]
        for name in ("report.json", "report.csv"):
            (report_dir / name).unlink(missing_ok=True)
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # the CLI lost the whole batch
            checks.error("ibpf-check", exc, count=n)
            return {"cases": n, "report_bytes": 0}
        if code not in (0, 1):
            checks.error("ibpf-check", RuntimeError(f"exit code {code}"),
                         count=n)
            return {"cases": n, "report_bytes": 0}
        raw = [(report_dir / name).read_bytes()
               for name in ("report.json", "report.csv")]
        by_id = {r["case_id"]: r for r in json.loads(raw[0])}
        for case in cases:
            rep = by_id.get(case["id"])
            if rep is None:
                checks.check(False, case["id"], detail="no report")
                continue
            ok = rep["pass"] and rep["rel_err"] <= case["tol"]
            checks.check(ok, case["id"], rel_err=rep["rel_err"])
            checks.agree.append(digits(rep["rel_err"]))
        digest = [hashlib.sha256(b).hexdigest() for b in raw]
        first = self.digests.setdefault(op, digest)
        if k >= self.period:
            checks.check(digest == first, "report digest", unit=k,
                         expected=first, got=digest)
        return {"cases": n, "report_bytes": sum(len(b) for b in raw)}


# ---------------------------------------------------------------------------
# montecarlo: lhs_mc on the acceptance MC cases against stored references.
# ---------------------------------------------------------------------------

#: Acceptance criterion 2's cases: (delta, a, ap, measure tag).
MC_CASES = [
    (0.5, 0.0, 0.0, "m0"), (1.0, 0.0, 0.0, "atom"), (1.5, 0.0, 0.0, "leb"),
    (2.0, 0.0, 0.0, "m0"), (2.5, 0.0, 0.0, "atom"), (3.0, 0.0, 0.0, "leb"),
    (3.5, 0.0, 0.0, "m0"), (1.0, 1.0, 0.0, "leb"), (2.0, 1.0, 0.0, "atom"),
    (3.0, 1.0, 0.0, "m0"), (2.5, 1.0, 2.0, "atom"), (3.5, 1.0, 2.0, "m0"),
]
REFS_FILE = HERE / "mc_refs.json"


def mc_case_id(delta, a, ap, tag):
    return f"d{delta:g}_a{a:g}_ap{ap:g}_{tag}"


def build_mc_case(mods, delta, a, ap, tag):
    core = mods["core"]
    measures = {"atom": core.FiniteMeasure.atom(0.6, 1.0),
                "leb": core.FiniteMeasure.lebesgue(0.5)}
    phi = (core.ExpFunctional.single(measures[tag]) if tag in measures
           else core.ExpFunctional.one())
    return mods["ibpf"].IbpfCase(core.BridgeSpec(delta, a, ap), phi,
                                 core.bump(THETA))


class MonteCarlo(Workload):
    """``lhs_mc`` on the twelve MC cases, every case once per unit at a
    fixed path count, each estimate gated against a stored branch-RHS
    reference so no analytic layer runs in the timed part."""

    name = "montecarlo"
    PATHS = 2000

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.specs = MC_CASES[:2] if tiny else MC_CASES
        self.paths = 200 if tiny else self.PATHS
        self.estimates = {}

    def setup(self, mods):
        self.ibpf = mods["ibpf"]
        self.samplers = mods["samplers"]
        refs = json.loads(REFS_FILE.read_text())["rhs"]
        self.cases = [(mc_case_id(*s), build_mc_case(mods, *s))
                      for s in self.specs]
        self.refs = {cid: refs[cid] for cid, _ in self.cases}

    def stream(self, k, i):
        return self.samplers.RngStream(self.seed, (k << 8) + i)

    def unit(self, k, checks):
        for i, (cid, case) in enumerate(self.cases):
            try:
                mean, se = self.ibpf.lhs_mc(case, self.paths,
                                            self.stream(k, i))
            except Exception as exc:
                checks.error(cid, exc)
                continue
            ref = self.refs[cid]
            checks.check(abs(mean - ref) <= Z_GATE * se, cid, unit=k,
                         z=(mean - ref) / se)
            if k == 0:
                self.estimates[cid] = mean
        n = len(self.cases)
        return {"cases": n, "paths": n * self.paths}

    def finish(self, checks):
        """The first estimate must reproduce exactly from its stream."""
        cid, case = self.cases[0]
        first = self.estimates.get(cid)
        if first is None:
            return
        try:
            again, _ = self.ibpf.lhs_mc(case, self.paths, self.stream(0, 0))
        except Exception as exc:
            checks.error(cid + " reproduce", exc)
            return
        rel = abs(again - first) / (abs(first) + abs(again) + 1e-300)
        checks.check(again == first, cid + " reproduce", rel=rel)
        checks.agree.append(digits(rel))


# ---------------------------------------------------------------------------
# spde: run_decomposition with T shortened.
# ---------------------------------------------------------------------------

class Spde(Workload):
    """``spde.run_decomposition`` at K = 256, dt = 1e-5, 200 replicas,
    eps = 0.05, eta = 0.01, over STEPS steps per unit, checked by the
    bracket ratio and the martingale regression."""

    name = "spde"
    STEPS = 500
    REPLICAS = 200
    K = 256
    DT = 1e-5
    REPRO_STEPS = 50

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        if tiny:
            self.STEPS, self.REPLICAS, self.REPRO_STEPS = 40, 40, 20

    def setup(self, mods):
        self.spde = mods["spde"]
        self.samplers = mods["samplers"]
        self.h = mods["core"].bump(THETA)

    def run(self, steps, stream):
        return self.spde.run_decomposition(
            self.h, 0.05, 0.01, steps * self.DT, self.DT, self.K,
            self.samplers.RngStream(self.seed, stream),
            replicas=self.REPLICAS, store_every=min(100, steps // 4))

    def unit(self, k, checks):
        try:
            ser = self.run(self.STEPS, k)
            ratio, se = self.spde.bracket_ratio(ser, self.h)
            coef, errs = self.spde.martingale_regression(ser)
        except Exception as exc:
            checks.error(f"spde unit {k}", exc, count=2)
        else:
            checks.check(abs(ratio - 1.0) <= SPDE_Z_GATE * se,
                         "bracket ratio", unit=k, ratio=ratio, se=se)
            zmax = float(np.max(np.abs(coef / errs)))
            checks.check(zmax <= SPDE_Z_GATE, "martingale regression",
                         unit=k, zmax=zmax)
        return {"cases": 1, "replica_steps": self.REPLICAS * self.STEPS}

    def finish(self, checks):
        """A short run must reproduce exactly from its stream."""
        try:
            runs = [self.run(self.REPRO_STEPS, 1 << 20).mart
                    for _ in range(2)]
        except Exception as exc:
            checks.error("spde reproduce", exc)
            return
        diff = float(np.max(np.abs(runs[0] - runs[1])))
        scale = float(np.max(np.abs(runs[0]))) + 1e-300
        checks.check(np.array_equal(runs[0], runs[1]), "spde reproduce",
                     max_diff=diff)
        checks.agree.append(digits(diff / scale))


# ---------------------------------------------------------------------------
# finite_part: the unified mu_{delta-3} RHS and the finite-part zeta''.
# ---------------------------------------------------------------------------

class FinitePart(Workload):
    """A round is two cases.  Unit 0 is a bridge case (Phi = 1) from 0 to 0
    through ``rhs_ibpf(route="unified")``, checked against the branch RHS
    at rel 1e-7; unit 1 is ``verify`` on an unconstrained case started at 0,
    whose LHS calls zeta'' through the finite-part route.  Both reach
    ``mu_pair`` through scalar ``scipy.integrate.quad`` callbacks.  The seed
    draws the bump's ``theta``, which leaves the kernel-call count within
    0.5%.  Boundary values of 0 keep a round near 5.5 s, so that a run makes
    four rounds: a boundary value > 0 costs 2-5x more."""

    name = "finite_part"
    DELTA = 2.5
    TINY_DELTA = 3.0
    RTOL = 1e-7
    period = 2
    min_units = 4 * period

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, mods):
        self.ibpf = mods["ibpf"]
        core = mods["core"]
        rnd = random.Random(self.seed)
        spec = core.BridgeSpec(self.TINY_DELTA if self.tiny else self.DELTA,
                               0.0, 0.0)
        h = core.bump(rnd.uniform(0.19, 0.21))
        one = core.ExpFunctional.one()
        self.bridge = self.ibpf.IbpfCase(spec, one, h,
                                         case_id="unified_bridge")
        self.uncond = self.ibpf.IbpfCase(spec, one, h, mode="unconstrained",
                                         tol=self.RTOL, case_id="uncond")

    def unit(self, k, checks):
        if k % 2 == 0:
            try:
                unified = self.ibpf.rhs_ibpf(self.bridge, route="unified")
                branch = self.ibpf.rhs_ibpf(self.bridge, route="branch")
            except Exception as exc:
                checks.error("unified vs branch", exc)
            else:
                rel = self.ibpf.rel_err(unified, branch)
                checks.check(rel <= self.RTOL, "unified vs branch",
                             rel_err=rel)
                checks.agree.append(digits(rel))
        else:
            try:
                rep = self.ibpf.verify(self.uncond)
            except Exception as exc:
                checks.error("unconstrained verify", exc)
            else:
                checks.check(rep.passed, "unconstrained verify",
                             rel_err=rep.rel_err)
                checks.agree.append(digits(rep.rel_err))
        return {"cases": 1}


WORKLOADS = {w.name: w for w in (Identity, MonteCarlo, Spde, FinitePart)}
