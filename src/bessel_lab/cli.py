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
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import (BridgeSpec, ExpFunctional, FiniteMeasure, bump, poly_bump)
from .ibpf import MODES, IbpfCase, SeriesTruncationError, verify
from .mu_dist import MuConvergenceError, SmoothTestFn, mu_pair
from .quadrature import QuadratureError
from .samplers import (MAX_MESH, MC_MAX_SAMPLES, MC_MIN_SAMPLES, RngStream,
                       bessel_bridge_general)
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
    ``kind`` rejects is a :class:`ConfigError` naming ``key``."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r}")
        return default
    try:
        return kind(d[key])
    except (KeyError, TypeError, ValueError, OverflowError,
            argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad {key!r}: {exc}") from exc


# The kinds below read a config value or a flag's string.  A bool is not a
# number (JSON's ``true`` would pass as 1), a float is finite (Python's
# ``json`` and ``float`` accept NaN and the infinities), and an integer is
# never a truncated fraction.  A value that breaks a kind's rule raises
# ArgumentTypeError, whose message argparse prints as it stands.

def _float(value):
    if isinstance(value, bool):
        raise TypeError(f"a number is expected, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{x} is not a finite number")
    return x


def _int(value):
    if isinstance(value, bool):
        raise TypeError(f"an integer is expected, got {value!r}")
    n = int(value)
    if isinstance(value, float) and n != value:
        raise argparse.ArgumentTypeError(f"{value} is not an integer")
    return n


def _kind(ok, rule, base=lambda v: v):
    """The kind ``base`` restricted to the values that ``ok`` accepts, as
    ``rule`` says (a value is compared, never hashed)."""
    def kind(value):
        x = base(value)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{rule}, got {x!r}")
        return x
    return kind


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


_mc_paths = _kind(lambda n: n == 0 or MC_MIN_SAMPLES <= n <= MC_MAX_SAMPLES,
                  f"need 0 or from {MC_MIN_SAMPLES} to {MC_MAX_SAMPLES} "
                  f"paths", _int)
_workers = _kind(lambda n: n >= 1, "a worker count is positive", _int)
_paths = _kind(lambda n: n >= 1, "a path count is positive", _int)
_mesh = _kind(lambda n: 2 <= n <= MAX_MESH,
              f"a mesh has from 2 to {MAX_MESH} points", _int)
_tol = _kind(lambda x: x > 0.0, "a tolerance is positive", _float)
_seed = _kind(lambda n: 0 <= n < 2**64, "a seed lies in [0, 2**64)", _int)
_mode = _kind(lambda v: v in MODES, f"choose one of {MODES}")
_case_id = _kind(
    lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool),
    "a case id is a string or a number",
    lambda v: _float(v) if isinstance(v, float) else v)

#: A boundary value's square enters every kernel, so it must be a finite
#: double: a, a' < 1.34e154.
_boundary = _kind(lambda x: math.isfinite(x * x),
                  "a boundary value's square must be a finite double", _float)

#: The most path values (paths x mesh points) that sample writes: 256 MiB
#: of float64, before the CSV text.
SAMPLE_VALUES_MAX = 2**25

#: The largest dimension of a verification case.  Up to it the unconstrained
#: identity holds to 2e-15 at a = 0; at 200 it misses by 4e-3, and past
#: about 340 Gamma(delta/2) and the kernel's prefactor overflow.
CASE_DELTA_MAX = 100.0

#: spde-sim's settings as ``name: (type, default)``: the flags of spde-sim
#: and the keys of run-suite's ``"spde"`` block.
SPDE_SETTINGS = {"K": (_int, 256), "dt": (_float, 1e-5),
                 "T": (_float, 0.05), "eps": (_float, 0.05),
                 "eta": (_float, 0.01), "replicas": (_int, 200),
                 "store_every": (_int, 100), "seed": (_seed, 0)}


def _parse_h(d):
    if not isinstance(d, dict):
        raise ConfigError('"h" must be an object')
    makers = {"bump": bump, "poly_bump": poly_bump}
    kind = _get(d, "type", "bump", _kind(lambda v: v in tuple(makers),
                                         f"choose one of {tuple(makers)}"))
    theta = _get(d, "theta", 0.2, _float)
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
    return ExpFunctional([(_get(t, "coef", 1.0, _float),
                           _parse_measure(t, FiniteMeasure.zero()))
                          for t in terms])


def _parse_spec(d):
    """The bridge spec of a config object, or of the flags ``vars(args)``."""
    delta = _get(d, "delta", _REQUIRED, _float)
    a, ap = _get(d, "a", 0.0, _boundary), _get(d, "ap", 0.0, _boundary)
    try:
        return BridgeSpec(delta, a, ap)
    except ValueError as exc:
        raise ConfigError(f"bad bridge spec: {exc}") from exc


def _parse_law(d):
    """The bridge spec and mode of a config object.  The process started at
    ``a`` has no end value, so it refuses an ``ap`` other than 0."""
    spec = _parse_spec(d)
    mode = _get(d, "mode", IbpfCase.mode, _mode)
    if mode == "unconstrained" and spec.ap != 0.0:
        raise ConfigError(f"bad 'ap': the unconstrained mode has no end "
                          f"value, so 'ap' must be 0, got {spec.ap!r}")
    return spec, mode


def _parse_case(d, default_tol=None):
    if not isinstance(d, dict):
        raise ConfigError("each case must be an object")
    spec, mode = _parse_law(d)
    if spec.delta > CASE_DELTA_MAX:
        raise ConfigError(f"bad 'delta': a case's dimension is at most "
                          f"{CASE_DELTA_MAX:g}, got {spec.delta!r}")
    tol = _get(d, "tol", IbpfCase.tol if default_tol is None else default_tol,
               _tol)
    return IbpfCase(
        spec=spec,
        phi=_parse_phi(d.get("phi", [])),
        h=_parse_h(d.get("h", {})),
        mode=mode,
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
    """The CSV lines of ``header`` and ``rows`` (lists, or the rows of an
    array), each formatted only when it is written."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\n")
    for row in itertools.chain([header], rows):
        line.seek(0)
        line.truncate()
        writer.writerow([_fmt(v) for v in row])
        yield line.getvalue()


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text, path):
    """``text``, a string or an iterable of strings, to the file ``path``,
    or to stdout when ``path`` is None."""
    if isinstance(text, str):
        text = [text]
    if path is None:
        sys.stdout.writelines(text)
        return
    with open(path, "w") as fh:
        fh.writelines(text)


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


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

def cmd_density(args):
    _parse_spec(vars(args))
    bs = np.linspace(0.0, args.bmax, args.n)
    if args.delta < 1.0:
        bs[bs == 0.0] = 1e-12  # density diverges at 0 below dimension 1
    ps = bridge_density(args.delta, args.r, args.a, args.ap, bs)
    _write(_csv(("b", "p"), np.column_stack([bs, ps])), args.out)
    return 0


_STOCK_FNS = {
    "exp": lambda lam: SmoothTestFn.exp_decay(lam),
    "gauss": lambda lam: SmoothTestFn.gauss(),
    "poly_exp": lambda lam: SmoothTestFn.poly_exp(),
}


def cmd_mu(args):
    if args.fn == "exp" and not args.lam > 0.0:
        raise ConfigError(f"exp needs a finite --lambda > 0, got {args.lam}")
    fn = _STOCK_FNS[args.fn](args.lam)
    val = mu_pair(args.alpha, fn)
    payload = {"alpha": args.alpha, "fn": args.fn, "value": val}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_sl_solve(args):
    sol = solve_sl(_parse_measure(_load_json(args.config)))
    rs = np.linspace(0.0, 1.0, args.n)
    rows = np.column_stack([rs, sol.phi(rs), sol.dphi(rs), sol.rho(rs)])
    _write(_csv(("r", "phi", "phi_prime", "rho"), rows), args.out)
    return 0


def cmd_sigma(args):
    config = _load_json(args.config)
    m = _parse_measure(config)
    spec, mode = _parse_law(config)
    bridge = mode == "bridge"
    # phi and rho are tabulated on [0, 1], and a bridge is pinned at r = 1
    if not (0.0 < args.r < 1.0 or (args.r == 1.0 and not bridge)):
        raise ConfigError(f"--r must lie in (0, 1{')' if bridge else ']'} "
                          f"for mode {mode!r}, got {args.r}")
    ctx = SigmaContext(spec, m, bridge)
    bs = np.linspace(0.0, args.bmax, args.n)
    rows = np.column_stack([bs, sigma_s(ctx, args.r, bs**2)])
    _write(_csv(("b", "sigma"), rows), args.out)
    return 0


def cmd_ibpf_check(args):
    config = _load_json(args.config)
    cases = _parse_cases(config, default_tol=args.tol)
    mc_n = args.mc if args.mc is not None else _get(config, "mc", 0,
                                                    _mc_paths)
    seed = args.seed if args.seed is not None else _get(config, "seed", 0,
                                                        _seed)
    rngs = [RngStream(seed, i) if mc_n > 0 else None
            for i in range(len(cases))]
    work = (cases, itertools.repeat(mc_n), rngs)
    if args.jobs > 1 and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(verify, *work))
    else:
        reports = list(map(verify, *work))
    _write_reports(reports, args.out)
    ok = all(r.to_json_dict()["pass"] for r in reports)
    return 0 if ok else 1


def cmd_sample(args):
    _parse_spec(vars(args))
    if args.n * args.mesh > SAMPLE_VALUES_MAX:
        raise ConfigError(f"bad --n: {args.n} paths of {args.mesh} points "
                          f"exceed {SAMPLE_VALUES_MAX} values (n x mesh)")
    rng = RngStream(args.seed)
    times = np.linspace(0.0, 1.0, args.mesh)
    paths = bessel_bridge_general(args.delta, args.a, args.ap, times, rng,
                                  size=args.n)
    header = ("r",) + tuple(f"path{i}" for i in range(args.n))
    _write(_csv(header, np.column_stack([times, paths.T])), args.out)
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


def _check_spde(args):
    """Reject, before any work, what a run or its diagnostics cannot take."""
    if args.replicas < 2:
        raise ConfigError("need --replicas >= 2: the diagnostics' standard "
                          "errors are taken across replicas")
    try:
        _, snapshots = spde.check_settings(
            args.T, args.dt, args.K, args.eps, args.eta, args.replicas,
            args.store_every)
        spde.check_increments(snapshots - 1, args.replicas)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_spde_sim(args):
    _check_spde(args)
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
                      series.n_drift[i], series.mart[i]])))
                for i in range(args.replicas))
    _write_dir(args.out, "diagnostics.json", _json(summary), replicas)
    return 0 if summary["pass"] else 1


def cmd_run_suite(args):
    config = _load_json(args.config)
    sub = None
    if "spde" in config:  # checked before any case runs
        s = config["spde"]
        if not isinstance(s, dict):
            raise ConfigError('"spde" must be an object')
        sub = argparse.Namespace(**{
            key: _get(s, key, default, kind)
            for key, (kind, default) in SPDE_SETTINGS.items()})
        if args.seed is not None:
            sub.seed = args.seed
        sub.out = os.path.join(args.out, "spde") if args.out else None
        _check_spde(sub)
    status = 0
    if config.get("cases"):
        status = cmd_ibpf_check(args)
    if sub is not None:
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
    p.add_argument("--jobs", type=_workers, default=1)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bessel-lab",
        description="Numerical laboratory for Bessel bridge integration-by-"
                    "parts identities and the weak delta=2 dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("density", cmd_density, "bridge marginal density as CSV")
    p.add_argument("--delta", type=_float, required=True)
    p.add_argument("--r", type=_float, required=True)
    p.add_argument("--a", type=_float, default=0.0)
    p.add_argument("--ap", type=_float, default=0.0)
    p.add_argument("--bmax", type=_float, default=4.0)
    p.add_argument("--n", type=_int, default=201)

    p = command("mu", cmd_mu, "finite-part pairing with a stock function")
    p.add_argument("--alpha", type=_float, required=True)
    p.add_argument("--fn", required=True, choices=sorted(_STOCK_FNS))
    p.add_argument("--lambda", dest="lam", type=_float, default=1.0)

    p = command("sl-solve", cmd_sl_solve, "transform phi, phi', rho as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=_int, default=101)

    p = command("sigma", cmd_sigma, "conditional Laplace functional as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--r", type=_float, default=0.5)
    p.add_argument("--bmax", type=_float, default=4.0)
    p.add_argument("--n", type=_int, default=201)

    _add_case_flags(command("ibpf-check", cmd_ibpf_check,
                            "run verification cases"))

    p = command("sample", cmd_sample, "exact Bessel bridge paths as CSV")
    p.add_argument("--delta", type=_float, required=True)
    p.add_argument("--a", type=_float, default=0.0)
    p.add_argument("--ap", type=_float, default=0.0)
    p.add_argument("--n", type=_paths, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mesh", type=_mesh, default=101)

    p = command("spde-sim", cmd_spde_sim, "weak delta=2 decomposition run")
    for key, (kind, default) in SPDE_SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind,
                       default=default)

    _add_case_flags(command("run-suite", cmd_run_suite,
                            "orchestrate a full suite config"))
    for p in sub.choices.values():
        p.add_argument("--out")
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
            MuConvergenceError, SeriesTruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
