"""Recompute the stored branch-RHS references of the Monte Carlo workload.

    python3 perfbench/gen_refs.py

Writes ``perfbench/mc_refs.json``.  Run it whenever the analytic RHS of a
case changes on purpose; the benchmark's self-test recomputes one reference
and fails when the stored value is stale.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def reference(mods, spec):
    return mods["ibpf"].rhs_ibpf(workloads.build_mc_case(mods, *spec))


def main():
    mods = workloads.import_package()
    rhs = {workloads.mc_case_id(*s): reference(mods, s)
           for s in workloads.MC_CASES}
    workloads.REFS_FILE.write_text(json.dumps(
        {"rhs": rhs, "route": "branch", "h": f"bump({workloads.THETA})"},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
