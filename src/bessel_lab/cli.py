"""Batch command-line front-end.

Subcommands
-----------
density     print CSV "b,p" of the Bessel bridge marginal density
mu          print the finite-part pairing <mu_alpha, f> for a stock function
sl-solve    emit CSV "r,phi,phi_prime,rho" for a measure's transform
sigma       emit CSV "b,sigma" of a conditional Laplace functional
ibpf-check  run configured verification cases; JSON report + CSV summary
sample      emit exact Bessel bridge paths as CSV
spde-sim    run the weak delta=2 decomposition; per-replica CSV + JSON summary
run-suite   orchestrate ibpf-check and spde-sim from one config file

Exit codes: 0 all checks passed, 1 at least one case failed, 2 configuration,
parse or numerical error.  All outputs are byte-identical for identical
(config, seed): reports carry no timestamps and floats use repr-exact
formatting.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump, poly_bump)
from .ibpf import MODES, IbpfCase, verify
from .mu_dist import MuConvergenceError, SmoothTestFn, mu_pair
from .quadrature import QuadratureError
from .samplers import MC_MAX_SAMPLES, RngStream, bessel_bridge_general
from .specfun import bridge_density
from .sturm_liouville import solve_sl
from .laplace_sigma import SigmaContext, sigma_s
from . import spde

__all__ = ["main"]

#: Version tag of the fixed report CSV column set.
REPORT_CSV_COLUMNS = ("case_id", "lhs_analytic", "lhs_mc", "stderr", "rhs",
                      "abs_err", "rel_err", "pass")


class ConfigError(ValueError):
    """Malformed configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------

#: ``_get`` default of a key that must be present.
_REQUIRED = object()


def _get(d, key, default, kind):
    """``kind(d[key])``, or ``default`` when ``key`` is absent; a value that
    ``kind`` rejects, a float that is NaN or infinite (JSON's ``NaN`` and
    ``Infinity``), and a fraction that an integer ``kind`` would truncate,
    is a :class:`ConfigError` naming ``key``."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r}")
        return default
    raw = d[key]
    try:
        value = kind(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key!r}: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"bad {key!r}: {value} is not a finite number")
    if isinstance(value, int) and isinstance(raw, float) and value != raw:
        raise ConfigError(f"bad {key!r}: {raw} is not an integer")
    return value


def _load_json(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path!r} at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return config


def _parse_measure(d, default=_REQUIRED):
    return _get(d, "measure", default, FiniteMeasure.from_json_dict)


def _mc_paths(value):
    n = int(value)
    if n != 0 and not 100 <= n <= MC_MAX_SAMPLES:
        raise ValueError(f"need 0 (no Monte Carlo) or from 100 to "
                         f"{MC_MAX_SAMPLES} paths, got {n}")
    return n


def _workers(value):
    n = int(value)
    if n < 1:
        raise ValueError(f"a worker count is a positive integer, got {n}")
    return n


def _tol(value):
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"a tolerance is a positive finite number, "
                         f"got {tol}")
    return tol


def _seed(value):
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a seed is an integer in [0, 2**64), got {seed}")
    return seed


#: spde-sim's settings as ``name: (type, default)``: the flags of spde-sim
#: and the keys of run-suite's ``"spde"`` block.
SPDE_SETTINGS = {"K": (int, 256), "dt": (float, 1e-5), "T": (float, 0.05),
                 "eps": (float, 0.05), "eta": (float, 0.01),
                 "replicas": (int, 200), "store_every": (int, 100),
                 "seed": (_seed, 0)}


def _mode(value):
    if value not in MODES:
        raise ValueError(f"unknown mode {value!r}; choose from {MODES}")
    return value


def _case_id(value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"a case id is a string or a number, got {value!r}")
    return value


def _parse_h(d):
    if not isinstance(d, dict):
        raise ConfigError('"h" must be an object')
    makers = {"bump": bump, "poly_bump": poly_bump}
    kind = d.get("type", "bump")
    if kind not in makers:
        raise ConfigError(f"unknown test function type {kind!r}")
    theta = _get(d, "theta", 0.2, float)
    try:
        return makers[kind](theta)
    except ValueError as exc:
        raise ConfigError(f"bad 'theta': {exc}") from exc


def _parse_phi(terms):
    if not terms:
        return ExpFunctional.one()
    if not isinstance(terms, list) or not all(isinstance(t, dict)
                                              for t in terms):
        raise ConfigError('"phi" must be a list of term objects')
    return ExpFunctional([(_get(t, "coef", 1.0, float),
                           _parse_measure(t, FiniteMeasure.zero()))
                          for t in terms])


def _parse_spec(d):
    delta = _get(d, "delta", _REQUIRED, float)
    a, ap = _get(d, "a", 0.0, float), _get(d, "ap", 0.0, float)
    try:
        return BridgeSpec(delta, a, ap)
    except ValueError as exc:
        raise ConfigError(f"bad bridge spec: {exc}") from exc


def _parse_case(d, default_tol=None):
    if not isinstance(d, dict):
        raise ConfigError("each case must be an object")
    spec = _parse_spec(d)
    tol = _get(d, "tol", IbpfCase.tol if default_tol is None else default_tol,
               _tol)
    return IbpfCase(
        spec=spec,
        phi=_parse_phi(d.get("phi", [])),
        h=_parse_h(d.get("h", {})),
        mode=_get(d, "mode", IbpfCase.mode, _mode),
        tol=tol,
        case_id=_get(d, "id", "", _case_id),
    )


def _parse_cases(config, default_tol=None):
    raw = config.get("cases", [])
    if not isinstance(raw, list):
        raise ConfigError('"cases" must be a list')
    cases = [_parse_case(d, default_tol) for d in raw]
    # ids are compared as the reports print them: 1 and "1" collide
    ids = [_fmt(c.case_id) for c in cases]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate case ids in config: {sorted(ids)}")
    return cases


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text, path):
    """``text`` to the file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _write_dir(out, name, text, files=()):
    """``text`` to stdout when ``out`` is None; otherwise ``text`` to
    ``out/name`` and each ``(file name, text)`` pair of ``files`` beside it
    (``files`` is only iterated then)."""
    if out is None:
        _write(text, None)
        return
    os.makedirs(out, exist_ok=True)
    _write(text, os.path.join(out, name))
    for fname, body in files:
        _write(body, os.path.join(out, fname))


def _write_reports(reports, out):
    rows = [r.to_json_dict() for r in reports]
    table = ([d[c] for c in REPORT_CSV_COLUMNS] for d in rows)
    _write_dir(out, "report.json", _json(rows),
               [("report.csv", _csv(REPORT_CSV_COLUMNS, table))])


def _jobs(args):
    if args.jobs is not None:
        return args.jobs
    if not os.environ.get("BESSEL_LAB_JOBS"):
        return 1
    return _get(os.environ, "BESSEL_LAB_JOBS", _REQUIRED, _workers)


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

def cmd_density(args):
    bs = np.linspace(0.0, args.bmax, args.n)
    if args.delta < 1.0:
        bs[bs == 0.0] = 1e-12  # density diverges at 0 below dimension 1
    ps = bridge_density(args.delta, args.r, args.a, args.ap, bs)
    _write(_csv(("b", "p"), np.column_stack([bs, ps]).tolist()), args.out)
    return 0


_STOCK_FNS = {
    "exp": lambda lam: SmoothTestFn.exp_decay(lam),
    "gauss": lambda lam: SmoothTestFn.gauss(),
    "poly_exp": lambda lam: SmoothTestFn.poly_exp(),
}


def cmd_mu(args):
    if args.fn not in _STOCK_FNS:
        raise ConfigError(f"unknown stock function {args.fn!r}; "
                          f"choose from {sorted(_STOCK_FNS)}")
    if args.fn == "exp" and not 0.0 < args.lam < np.inf:
        raise ConfigError(f"exp needs a finite --lambda > 0, got {args.lam}")
    fn = _STOCK_FNS[args.fn](args.lam)
    val = mu_pair(args.alpha, fn)
    payload = {"alpha": args.alpha, "fn": args.fn, "value": val}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_sl_solve(args):
    sol = solve_sl(_parse_measure(_load_json(args.config)))
    rs = np.linspace(0.0, 1.0, args.n)
    rows = np.column_stack([rs, sol.phi(rs), sol.dphi(rs),
                            sol.rho(rs)]).tolist()
    _write(_csv(("r", "phi", "phi_prime", "rho"), rows), args.out)
    return 0


def cmd_sigma(args):
    config = _load_json(args.config)
    m = _parse_measure(config)
    spec = _parse_spec(config)
    mode = _get(config, "mode", IbpfCase.mode, _mode)
    bridge = mode == "bridge"
    # phi and rho are tabulated on [0, 1], and a bridge is pinned at r = 1
    if not (0.0 < args.r < 1.0 or (args.r == 1.0 and not bridge)):
        raise ConfigError(f"--r must lie in (0, 1{')' if bridge else ']'} "
                          f"for mode {mode!r}, got {args.r}")
    ctx = SigmaContext(spec, m, bridge)
    bs = np.linspace(0.0, args.bmax, args.n)
    rows = np.column_stack([bs, sigma_s(ctx, args.r, bs**2)]).tolist()
    _write(_csv(("b", "sigma"), rows), args.out)
    return 0


def _verify_descriptor(payload):
    """Worker entry for parallel case execution (takes JSON-able data)."""
    case_d, default_tol, mc_n, seed, stream = payload
    case = _parse_case(case_d, default_tol)
    rng = RngStream(seed, stream) if mc_n > 0 else None
    return verify(case, mc_n=mc_n, rng=rng)


def cmd_ibpf_check(args):
    config = _load_json(args.config)
    _parse_cases(config, default_tol=args.tol)  # reject a bad config early
    mc_n = args.mc if args.mc is not None else _get(config, "mc", 0,
                                                    _mc_paths)
    seed = args.seed if args.seed is not None else _get(config, "seed", 0,
                                                        _seed)
    jobs = _jobs(args)
    raw = config.get("cases", [])
    payloads = [(d, args.tol, mc_n, seed, i) for i, d in enumerate(raw)]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_verify_descriptor, payloads))
    else:
        reports = [_verify_descriptor(p) for p in payloads]
    _write_reports(reports, args.out)
    ok = all(r.to_json_dict()["pass"] for r in reports)
    return 0 if ok else 1


def cmd_sample(args):
    rng = RngStream(args.seed)
    times = np.linspace(0.0, 1.0, args.mesh)
    paths = bessel_bridge_general(args.delta, args.a, args.ap, times, rng,
                                  size=args.n)
    header = ("r",) + tuple(f"path{i}" for i in range(args.n))
    _write(_csv(header, np.column_stack([times, paths.T]).tolist()),
           args.out)
    return 0


def _spde_summary(series, h):
    ratio, se = spde.bracket_ratio(series, h)
    coef, errs = spde.martingale_regression(series)
    zmax = float(np.max(np.abs(coef / errs)))
    # the continuum field's Gamma bound on the 42 off-diagonal pairs of a
    # 7-point grid of [theta, 1 - theta], at K = 256 whatever --K is
    grid = np.linspace(h.theta, 1.0 - h.theta, 7)
    r, s = np.meshgrid(grid, grid)
    off = r != s
    det, bound = spde.gamma_rs(r[off], s[off], float(series.times[-1]),
                               h.theta, 256)
    det_ok = bool(np.all(det >= bound))
    passed = (0.85 <= ratio <= 1.15) and zmax <= 3.0 and det_ok
    return {
        "bracket_ratio": ratio,
        "bracket_stderr": se,
        "regression_coef": [float(c) for c in coef],
        "regression_stderr": [float(e) for e in errs],
        "regression_max_z": zmax,
        "gamma_det_bound_ok": det_ok,
        "pass": bool(passed),
    }


def cmd_spde_sim(args):
    if not 0.0 < args.eta < args.eps:
        raise ConfigError("need 0 < eta < eps")
    if args.replicas < 2:
        raise ConfigError("need --replicas >= 2: the diagnostics' standard "
                          "errors are taken across replicas")
    h = bump(0.2)
    rng = RngStream(args.seed)
    series = spde.run_decomposition(
        h, args.eps, args.eta, args.T, args.dt, args.K, rng,
        replicas=args.replicas, store_every=args.store_every)
    summary = _spde_summary(series, h)
    width = len(str(args.replicas - 1))
    replicas = ((f"replica_{i:0{width}d}.csv",
                 _csv(("t", "uh", "lap", "n", "m"), np.column_stack(
                     [series.times, series.uh[i], series.lap[i],
                      series.n_drift[i], series.mart[i]]).tolist()))
                for i in range(args.replicas))
    _write_dir(args.out, "diagnostics.json", _json(summary), replicas)
    return 0 if summary["pass"] else 1


def cmd_run_suite(args):
    config = _load_json(args.config)
    status = 0
    if config.get("cases"):
        status = cmd_ibpf_check(args)
    if "spde" in config:
        s = config["spde"]
        if not isinstance(s, dict):
            raise ConfigError('"spde" must be an object')
        sub = argparse.Namespace(**{
            key: _get(s, key, default, kind)
            for key, (kind, default) in SPDE_SETTINGS.items()})
        if args.seed is not None:
            sub.seed = args.seed
        sub.out = os.path.join(args.out, "spde") if args.out else None
        status = max(status, cmd_spde_sim(sub))
    if not config.get("cases") and "spde" not in config:
        _write_reports([], args.out)
    return status


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _add_case_flags(p):
    """The flags that ibpf-check and run-suite share."""
    p.add_argument("--config", required=True)
    p.add_argument("--mc", type=_mc_paths)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--tol", type=_tol)
    p.add_argument("--jobs", type=_workers)
    p.add_argument("--out")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bessel-lab",
        description="Numerical laboratory for Bessel bridge integration-by-"
                    "parts identities and the weak delta=2 dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="bridge marginal density as CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--ap", type=float, default=0.0)
    p.add_argument("--bmax", type=float, default=4.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("mu", help="finite-part pairing with a stock function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("sl-solve", help="transform phi, phi', rho as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sl_solve)

    p = sub.add_parser("sigma", help="conditional Laplace functional as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--bmax", type=float, default=4.0)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("ibpf-check", help="run verification cases")
    _add_case_flags(p)
    p.set_defaults(func=cmd_ibpf_check)

    p = sub.add_parser("sample", help="exact Bessel bridge paths as CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--ap", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mesh", type=int, default=101)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("spde-sim", help="weak delta=2 decomposition run")
    for key, (kind, default) in SPDE_SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       default=default)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spde_sim)

    p = sub.add_parser("run-suite", help="orchestrate a full suite config")
    _add_case_flags(p)
    p.set_defaults(func=cmd_run_suite)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, QuadratureError,
            MuConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
