"""Source hygiene: no unused imports in the package or its tests, no
private helper without a caller in the package, no public function or class
that only tests reach, no settings read from the environment, no `nonlocal`
or `global` state in the package, no thread started, scipy kept to the LP
solver, every declared script resolves, and every function the benchmark
traces or name it reads exists."""

import ast
import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mtjsc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references (`__future__` excluded)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nfrom a.b import c, d\n"
              "np.zeros(c)\n")
    assert unused_imports(source) == ["d (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions, classes and constants of `sources`
    (module name -> source) that no source references."""
    defined, used = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                names = []
            defined.extend(f"{module}.{name}" for name in names
                           if name.startswith("_")
                           and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(name for name in defined
                  if name.partition(".")[2] not in used)


def test_scan_finds_unused_private_names():
    sources = {"a": "_K = 1\ndef _f(): return _K\ndef _g(): pass\n"
                    "class _C: pass\n",
               "b": "from .a import _g\n__all__ = []\n"}
    assert unused_private_names(sources) == ["a._C", "a._f"]


def test_no_unused_private_names():
    """Every private helper of the package has a caller in the package;
    references from tests do not count."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unused_private_names(sources) == []


def unreferenced_public_names(package: dict[str, str], users: dict[str, str],
                              traced=()) -> list[str]:
    """Module-level public functions and classes of `package` (module name
    -> source) that no source of `package` or `users` references outside
    their own definition, and that no `module.name` of `traced` names."""
    defined, used = [], {name.partition(".")[2] for name in traced}
    for module, source in sorted({**users, **package}.items()):
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if module in package and not own.startswith("_"):
                    defined.append(f"{module}.{own}")
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    name = inner.id
                elif isinstance(inner, ast.Attribute):
                    name = inner.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(name for name in defined
                  if name.partition(".")[2] not in used)


# Public names that nothing in the package or the benchmark calls yet, each
# with what it is kept for; a module name exempts every name in it.
UNCALLED = {
    "network.save_network": "the net I/O of the planned command-line run",
    "network.load_network": "the net I/O of the planned command-line run",
    "lp": "the LP solver of the paper's weight approximation, not yet wired",
}


def test_scan_finds_unreferenced_public_names():
    package = {"a": "def f(): return f()\ndef g(): pass\nclass C:\n"
                    "    def m(self): return C\nK = 1\ndef _h(): pass\n",
               "b": "from .a import g\ndef t(): pass\n"}
    users = {"bench": "import a\nx = a.g.__name__\n"}
    assert unreferenced_public_names(package, users) == ["a.C", "a.f", "b.t"]
    assert unreferenced_public_names(package, users, ("b.t",)) == ["a.C", "a.f"]


def test_no_public_name_only_tests_reach():
    """Every public function and class of the package is called, named or
    traced by the package or the benchmark, apart from `UNCALLED`; each
    entry of which must still be unreferenced."""
    package = {path.stem: path.read_text() for path in MODULES}
    users = {f"perfbench.{path.stem}": path.read_text() for path in BENCHMARK}
    _, traced, _ = trace_targets(WORKLOADS.read_text())
    found = unreferenced_public_names(package, users, traced)
    keys = {name: name if name in UNCALLED else name.partition(".")[0]
            for name in found}
    assert [name for name, key in keys.items() if key not in UNCALLED] == []
    assert set(UNCALLED) <= set(keys.values()), "drop the referenced entries"


def test_declared_scripts_resolve():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def environment_reads(source: str) -> list[str]:
    """Lines that reach the process environment through `os`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(f"from os import {alias.name} (line {node.lineno})"
                         for alias in node.names
                         if alias.name in ENVIRONMENT_NAMES)
    return found


def test_scan_finds_environment_reads():
    source = ("import os\nfrom os import getenv, getpid\n"
              "a = os.environ['X']\nb = os.getenv('Y')\nc = os.getpid()\n")
    assert environment_reads(source) == [
        "from os import getenv (line 2)", "os.environ (line 3)",
        "os.getenv (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """Every setting is an argument: nothing is read from the environment."""
    assert environment_reads(path.read_text()) == []


def rebound_names(source: str) -> list[str]:
    """`nonlocal` and `global` statements: names a call rebinds in state
    that outlives it, held in a closure or in the module."""
    found = [(node.lineno, f"{type(node).__name__.lower()} "
                           f"{', '.join(node.names)} (line {node.lineno})")
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Nonlocal, ast.Global))]
    return [text for _, text in sorted(found)]


def test_scan_finds_rebound_names():
    source = ("N = 0\ndef count():\n    global N\n    N += 1\n"
              "def table():\n    kept, spine = (), ()\n"
              "    def grow():\n        nonlocal kept, spine\n"
              "        kept = spine = (1,)\n    return grow\n")
    assert rebound_names(source) == ["global N (line 3)",
                                     "nonlocal kept, spine (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_rebound_names(path):
    """No call rebinds closure or module state: shared values are built
    whole and passed or cached as values."""
    assert rebound_names(path.read_text()) == []


def run_script(lines: list[str]) -> None:
    """Run `lines` as a script in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_and_energy_pricing_start_no_thread():
    """Importing every module and pricing SNG energy start no thread."""
    run_script([
        "import importlib, threading",
        *(f"importlib.import_module('mtjsc.{path.stem}')" for path in MODULES
          if path.stem != "__init__"),
        "assert threading.active_count() == 1, threading.enumerate()",
        "from mtjsc.sng import SngKind, build_cost_model, energy_per_bit",
        "cost_model = build_cost_model()",
        "for kind in SngKind:",
        "    energy_per_bit(0.3, kind, cost_model)",
        "assert threading.active_count() == 1, threading.enumerate()",
    ])


def test_stream_forward_starts_no_thread():
    """A stream-path forward pass runs on the caller alone, also on a net
    whose first layer is 20 draw blocks (196-100-10 at n = 256)."""
    run_script([
        "import threading",
        "import numpy as np",
        "from mtjsc.network import (EvalConfig, LayerSpec, NetworkSpec,",
        "                           network_forward)",
        "from mtjsc.sng import SngKind",
        "rng = np.random.default_rng(1)",
        "net = NetworkSpec(tuple(LayerSpec(rng.uniform(-1, 1, shape), 2.0)",
        "                        for shape in ((196, 100), (100, 10))))",
        "cfg = EvalConfig(stream_length=256, seed=1, sng_kind=SngKind.BMS)",
        "out = network_forward(net, rng.uniform(-1, 1, 196), cfg, (0,))",
        "assert out.shape == (10,)",
        "assert threading.active_count() == 1, threading.enumerate()",
    ])


def test_only_the_lp_solver_imports_scipy():
    """Importing every other module leaves scipy out of the process."""
    run_script([
        "import importlib, sys",
        *(f"importlib.import_module('mtjsc.{path.stem}')" for path in MODULES
          if path.stem not in ("__init__", "lp")),
        "assert 'scipy' not in sys.modules",
    ])


def trace_targets(source: str) -> tuple[list[str], list[str], list[str]]:
    """The `mtjsc` modules a workloads file imports, its TRACE_TARGETS, and
    every `module.attr` it reads from those modules."""
    tree = ast.parse(source)
    modules, targets = [], []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "mtjsc":
            modules.extend(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACE_TARGETS"
                      for t in node.targets)):
            targets.extend(ast.literal_eval(node.value))
    attributes = sorted({f"{node.value.id}.{node.attr}"
                         for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id in modules})
    return modules, targets, attributes


def test_benchmark_trace_targets_exist():
    """Every module the benchmark imports from `mtjsc`, every
    `module.function` it traces, and every `module.attr` it reads exists; a
    missing trace target drops the traced run's per-layer metrics, and a
    missing attribute fails the run."""
    modules, targets, attributes = trace_targets(WORKLOADS.read_text())
    assert modules and targets and attributes
    for name in modules:
        importlib.import_module(f"mtjsc.{name}")
    for target in targets:
        module_name, _, function = target.partition(".")
        assert module_name in modules, f"{target}: module not imported"
        module = importlib.import_module(f"mtjsc.{module_name}")
        assert callable(getattr(module, function, None)), f"{target} is missing"
    for attribute in attributes:
        module_name, _, name = attribute.partition(".")
        module = importlib.import_module(f"mtjsc.{module_name}")
        assert hasattr(module, name), f"{attribute} is missing"
