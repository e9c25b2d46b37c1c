import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bessel_lab

MODULES = [info.name for info in pkgutil.iter_modules(bessel_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"bessel_lab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in bessel_lab.__all__ if not hasattr(bessel_lab, n)]
    assert missing == []


def _unused_imports(tree):
    """Names bound by imports that no expression and no ``__all__`` entry
    refers to (``from __future__`` imports excepted)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_unused_imports(name):
    path = Path(bessel_lab.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_detector():
    tree = ast.parse("import os\nimport numpy as np\n"
                     "from math import pi, tau\nfrom x import y\n"
                     "__all__ = ['y']\nprint(np.pi, tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "pi")]


def _unreferenced_defs(trees):
    """``(module, name)`` of the module-level functions and classes that no
    statement of the given modules refers to outside their own definition;
    imports and ``__all__`` entries are not references."""
    defs, used = [], set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            refs = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            refs.update(n.attr for n in ast.walk(stmt)
                        if isinstance(n, ast.Attribute))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, stmt.name))
                refs.discard(stmt.name)
            used |= refs
    return [(mod, name) for mod, name in defs if name not in used]


#: Module-level names that stay in the package without a caller there.
NO_CALLER_KEPT = {
    # the exact sampler for the unconstrained mode's Monte Carlo route
    "bessel_process",
}


def test_no_test_only_code():
    # code that only tests call lives in tests/, not in the package
    pkg = Path(bessel_lab.__path__[0])
    trees = {name: ast.parse((pkg / f"{name}.py").read_text())
             for name in MODULES}
    found = [(mod, name) for mod, name in _unreferenced_defs(trees)
             if name not in NO_CALLER_KEPT]
    assert found == []


def test_unreferenced_def_detector():
    trees = {"a": ast.parse("import b\n__all__ = ['f', 'g']\n"
                            "def f():\n    return f()\n"
                            "def g():\n    return b.h()\n"
                            "class C:\n    pass\n"),
             "b": ast.parse("from a import C, f\n"
                            "def h():\n    return 1\n"
                            "X = C\n")}
    assert _unreferenced_defs(trees) == [("a", "f"), ("a", "g")]


def _integrate_imports(tree):
    """Lines that import ``scipy.integrate`` or names from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
               for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_scipy_integrate(name):
    # one quadrature stack: integrals go through bessel_lab.quadrature
    path = Path(bessel_lab.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _integrate_imports(tree) == []


def test_integrate_import_detector():
    tree = ast.parse("import scipy.integrate\nfrom scipy import integrate\n"
                     "from scipy.integrate import quad\n"
                     "import scipy.integrate as si\nfrom scipy import special\n"
                     "import scipy\n")
    assert _integrate_imports(tree) == [1, 2, 3, 4]


#: The ``os`` names through which a module reads the process environment.
_ENVIRON_NAMES = ("environ", "getenv")


def _environ_reads(tree):
    """Lines that reach the process environment through ``os.environ`` or
    ``os.getenv``, or import either name from ``os``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRON_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(a.name in _ENVIRON_NAMES for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_environ_reads(name):
    # a run is set by its flags and its config alone: the package reads no
    # environment variable
    path = Path(bessel_lab.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _environ_reads(tree) == []


def test_environ_read_detector():
    tree = ast.parse("import os\nx = os.environ['A']\n"
                     "y = os.getenv('B', '1')\nfrom os import environ\n"
                     "from os import path, getenv\nz = os.path.join('a')\n"
                     "w = cfg.environ\nv = os.environ.get('C')\n")
    assert _environ_reads(tree) == [2, 3, 4, 5, 8]


def _ndim_zero_compares(tree):
    """Lines that compare an ``.ndim`` attribute with the constant 0."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(o, ast.Attribute) and o.attr == "ndim"
                for o in operands)
                and any(isinstance(o, ast.Constant) and o.value == 0
                        for o in operands)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_scalar_fork(name):
    # one array path per layer: a scalar runs the array code as a 0-d array
    path = Path(bessel_lab.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _ndim_zero_compares(tree) == []


def test_ndim_zero_detector():
    tree = ast.parse("if x.ndim == 0:\n    pass\n"
                     "y = 0 != a.b.ndim\n"
                     "z = x.ndim != 1\n"
                     "w = ndim == 0\n"
                     "v = 1 < x.ndim > 0\n")
    assert _ndim_zero_compares(tree) == [1, 3, 6]


def _gauss_rules(tree):
    """Lines that name ``leggauss`` or a ``roots_*`` function (SciPy's
    Gauss rules), as an attribute, a name or an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        if any(n == "leggauss" or n.startswith("roots_") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", [m for m in MODULES + ["__init__"]
                                  if m != "quadrature"])
def test_one_gauss_rule_builder(name):
    # one quadrature stack: only quadrature builds a Gauss rule, so a rule
    # change there reaches every integral, the Monte Carlo weights too
    path = Path(bessel_lab.__path__[0]) / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _gauss_rules(tree) == []


def test_gauss_rule_detector():
    tree = ast.parse("import numpy as np\n"
                     "x, w = np.polynomial.legendre.leggauss(8)\n"
                     "from scipy.special import roots_jacobi\n"
                     "from numpy.polynomial.legendre import leggauss as lg\n"
                     "y = special.roots_legendre(4)\n"
                     "z = np.polynomial.legendre.legval(x, [1.0])\n"
                     "v = np.roots([1.0, 2.0])\nu = roots_hermite(3)\n")
    assert _gauss_rules(tree) == [2, 3, 4, 5, 8]


def test_fixed_gl_keeps_one_order():
    # every rule has GL_ORDER nodes, and beta goes by keyword, so that a
    # fifth positional argument is never read as an order
    from bessel_lab.quadrature import fixed_gl
    params = inspect.signature(fixed_gl).parameters
    assert "order" not in params
    assert params["beta"].kind is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_one_probe_rule(name):
    # every integral stops at its first agreeing round and every decay
    # cutoff probes quadrature.PROBES points a row for one threshold,
    # quadrature.DECAY_REL: no function of the package (adaptive_gl and
    # decay_cutoff among them) takes a count or a threshold
    mod = importlib.import_module(
        "bessel_lab" if name == "__init__" else f"bessel_lab.{name}")
    knobs = [(fn.__name__, p) for fn in vars(mod).values()
             if inspect.isfunction(fn)
             for p in inspect.signature(fn).parameters
             if p in ("confirm", "probes", "rel")]
    assert knobs == []


def _package_imports(tree):
    """Names of the ``bessel_lab`` modules that a module of the package
    imports, relatively or by the package's name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                          if alias.name.startswith("bessel_lab."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "bessel_lab":
                continue
            parts = module.split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_kernel_and_samplers_share_no_code():
    # the analytic route's kernel and the Monte Carlo route's samplers keep
    # their own Bessel functions: neither reaches the other by imports
    pkg = Path(bessel_lab.__path__[0])
    graph = {name: _package_imports(ast.parse((pkg / f"{name}.py")
                                              .read_text()))
             for name in MODULES}

    def reach(start):
        seen, todo = set(), [start]
        while todo:
            for name in graph.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        return seen

    assert "samplers" not in reach("specfun")
    assert "specfun" not in reach("samplers")


def test_package_import_detector():
    tree = ast.parse("from .core import x\nfrom . import spde, quadrature\n"
                     "import bessel_lab.samplers\nfrom bessel_lab.mu_dist "
                     "import y\nfrom bessel_lab import cli\nimport numpy\n"
                     "from scipy import special\n")
    assert _package_imports(tree) == {"core", "spde", "quadrature",
                                      "samplers", "mu_dist", "cli"}


_LINALG_PROBE = """
import json, sys
import bessel_lab
from bessel_lab.core import BridgeSpec, ExpFunctional, FiniteMeasure, bump
from bessel_lab.ibpf import IbpfCase, verify
from bessel_lab.quadrature import adaptive_gl
adaptive_gl(lambda x: x, 0.0, 1.0, beta=0.25)
case = IbpfCase(BridgeSpec(2.5, 1.0, 0.0),
                ExpFunctional.single(FiniteMeasure.atom(0.6, 1.0)), bump(0.2))
assert verify(case).passed
names = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
print(json.dumps(names))
"""


def test_no_scipy_linalg():
    # scipy.linalg adds about 5 MB of resident memory and the package has no
    # use for it; Gauss-Jacobi nodes come from numpy.linalg
    src = str(Path(bessel_lab.__path__[0]).parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LINALG_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert json.loads(out.stdout) == []


def test_tracer_names_resolve(monkeypatch):
    # the benchmark's tracer wraps package functions by name and positional
    # signature; installing it must find each one, and a traced case must
    # reach the wrapped layers
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    for name in MODULES:
        importlib.import_module(f"bessel_lab.{name}")
    from bessel_lab import ibpf, spde
    from bessel_lab.core import BridgeSpec, ExpFunctional, FiniteMeasure, bump
    from bessel_lab.samplers import RngStream
    original = ibpf.rhs_ibpf
    mc_case = ibpf.IbpfCase(BridgeSpec(2.5, 1.0, 2.0),
                            ExpFunctional.single(FiniteMeasure.atom(0.6, 1.0)),
                            bump(0.2))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for delta in (2.5, 3.0):
            ibpf.rhs_ibpf(ibpf.IbpfCase(BridgeSpec(delta, 1.0, 0.0),
                                        ExpFunctional.one(), bump(0.2)))
        ibpf.rhs_ibpf(ibpf.IbpfCase(BridgeSpec(2.5, 0.0, 0.0),
                                    ExpFunctional.one(), bump(0.2)),
                      route="unified")
        ibpf.lhs_uncond_analytic(ibpf.IbpfCase(
            BridgeSpec(2.5, 0.0, 0.0), ExpFunctional.one(), bump(0.2),
            mode="unconstrained"))
        # the unified RHS pairs through finite_part, and through mu_pair's
        # point pairing at delta = 3
        ibpf.rhs_ibpf(ibpf.IbpfCase(BridgeSpec(3.0, 1.0, 0.0),
                                    ExpFunctional.one(), bump(0.2)),
                      route="unified")
        # the samplers and the SPDE, read by position
        ibpf.lhs_mc(mc_case, 200, RngStream(0))
        spde.run_decomposition(bump(0.2), 0.05, 0.01, 5e-5, 1e-5, 32,
                               RngStream(0), replicas=4)
    finally:
        tracer.uninstall()
    assert ibpf.rhs_ibpf is original
    calls = {k: v["calls"] for k, v in tracer.summary().items()}
    for name in ("ibpf.rhs_ibpf", "ibpf.fp_s_integral", "ibpf.sigma_s_series",
                 "laplace_sigma.sigma_s", "quadrature.adaptive_gl",
                 "quadrature.decay_cutoff", "specfun.besq_density_reg",
                 "ibpf.lhs_uncond_analytic", "mu_dist.mu_pair",
                 "laplace_sigma.zeta_second_deriv", "spde.ou_step",
                 "spde.field_to_u", "spde.f_eps_eta"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counters["quadrature.adaptive_gl.nodes"] > 0
    assert (tracer.counters["samplers.besq_bridge_general.path_steps"]
            == 200 * (len(ibpf._mc_window(mc_case)[0]) - 2))
    assert tracer.counters["samplers.bessel_rv.draws"] > 0
    assert tracer.counters["samplers.mc_estimate.blocks"] == 1


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert bessel_lab.__version__ == project["version"]
