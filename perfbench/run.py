"""Benchmark of the bessel-lab verification laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) from a single
process against the package in ``src/`` of the checkout this file sits in.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half with span-recording wrappers around
each layer, and prints the per-layer metrics.  The last line of standard
output is the result as one JSON object; a detailed record, with the run's
provenance, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is repeated this many times per run, each time between two
#: single probe timings; the median of the scaled times is reported.
SETUP_REPEATS = 21


def pin_threads():
    """Cap the BLAS/OpenMP thread counts at nproc; must run before NumPy is
    imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return nproc, {var: os.environ[var] for var in THREAD_VARS}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha(root):
    """Commit of the checkout; None when it is not a git repository or git
    is not installed.  Git is kept from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_units(wl, checks, seconds, probe, tracer=None):
    """Run whole rounds of units until ``seconds`` have passed and at least
    ``wl.min_units`` are done, probing the machine's speed before the first
    unit and after each.  With a tracer, rounds alternate untraced and
    traced, so that drifts in machine speed fall on both sides alike and
    both sides see every unit kind.
    Returns a list of (traced, scaled seconds, work) per unit, where the
    scaled seconds are at the probe's nominal speed."""
    step = wl.period * (1 if tracer is None else 2)
    units = []
    before = probe.measure()
    t0 = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and (k // wl.period) % 2 == 1
        if traced:
            tracer.install()
        t_unit = time.perf_counter()
        idx = tracer.open(tracer.ROOT) if traced else None
        try:
            done = wl.unit(k, checks)
        finally:
            if traced:
                tracer.close(idx)
                tracer.uninstall()
        t_unit = time.perf_counter() - t_unit
        after = probe.measure()
        done.update(op=k % wl.period, raw_seconds=t_unit)
        units.append((traced, t_unit * probe.scale(before, after), done))
        before = after
        k += 1
        if (time.perf_counter() - t0 >= seconds and k >= wl.min_units
                and k % step == 0):
            return units


def round_seconds(units, raw=False):
    """Scaled (with ``raw``, unscaled) seconds of one round: the sum over
    unit kinds of the median time of that kind."""
    by_op = {}
    for _, t, w in units:
        by_op.setdefault(w["op"], []).append(w["raw_seconds"] if raw else t)
    return sum(statistics.median(v) for v in by_op.values())


def per_round(units, key):
    """``key`` work of one round (each unit kind once)."""
    return sum({w["op"]: w.get(key, 0) for _, _, w in units}.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (SRC / "bessel_lab" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'bessel_lab'}", file=sys.stderr)
        return 2
    nproc, threads = pin_threads()
    sys.path.insert(0, str(SRC))

    import numpy
    import scipy
    import probe as probe_mod
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT, tiny=args.tiny)

    probe = probe_mod.Probe()
    before = probe.once()
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = workloads.import_package()
        wl.setup(mods)
        setup_times.append(time.perf_counter() - t0)
        after = probe.once()
        setup_scaled.append(setup_times[-1] * probe.scale(before, after))
        before = after
    pkg_file = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in pkg_file.parents:
        print(f"error: imported {pkg_file}, not the checkout's package",
              file=sys.stderr)
        return 2

    checks = workloads.Checks()
    record = {
        "provenance": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "cpu_model": cpu_model(), "git_sha": git_sha(ROOT),
            "seed": args.seed, "threads": threads,
        },
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "setup_times": setup_times,
        "setup_scaled": setup_scaled,
    }
    if args.trace == 0:
        units = run_units(wl, checks, args.seconds, probe)
        wl.finish(checks)
        metrics = {
            "cases_per_s": metric(
                per_round(units, "cases") / round_seconds(units), "1/s"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "pass_frac": metric(
                (checks.attempted - checks.failed) / max(checks.attempted, 1),
                "frac"),
            "min_agree_digits": metric(
                min(checks.agree) if checks.agree else 0.0, "digits"),
        }
        record["unscaled"] = {
            "cases_per_s": per_round(units, "cases")
            / round_seconds(units, raw=True),
            "setup_s": statistics.median(setup_times),
        }
    else:
        tr = tracer_mod.Tracer()
        units = run_units(wl, checks, args.seconds, probe, tr)
        wl.finish(checks)
        plain = [u for u in units if not u[0]]
        traced = [u for u in units if u[0]]
        rounds = len(traced) / wl.period
        metrics, summary = tracer_mod.layer_metrics(tr, rounds)
        root = summary[tr.ROOT]["total_s"]
        layers = sum(v["self_s"] for k, v in summary.items()
                     if k != tr.ROOT)
        metrics["cli.report_bytes"] = metric(
            per_round(traced, "report_bytes"), "B")
        metrics["paths_per_s"] = metric(
            per_round(plain, "paths") / round_seconds(plain), "1/s")
        metrics["replica_steps_per_s"] = metric(
            per_round(plain, "replica_steps") / round_seconds(plain), "1/s")
        metrics["trace_overhead_frac"] = metric(
            round_seconds(traced) / round_seconds(plain) - 1.0, "frac")
        metrics["trace_accounted_frac"] = metric(layers / root, "frac")
        spans = OUT / f"spans-{args.workload}-{args.seed}.npz"
        tr.save(spans)
        record.update(spans_file=str(spans.relative_to(ROOT)),
                      span_summary=summary)
    record["units"] = [{"traced": tr_, "scaled_seconds": t, "work": w}
                       for tr_, t, w in units]

    record.update(attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures, metrics=metrics)
    detail = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1, sort_keys=True))
    for f in checks.failures:
        print(f"failed check: {json.dumps(f, sort_keys=True)}",
              file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
