"""Source hygiene: no unused imports, no settings read from the environment,
no thread started behind the caller's back, and every declared script
resolves."""

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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


def test_import_and_energy_pricing_start_no_thread():
    """Only the stream kernel's parts start threads, and only when run."""
    script = "\n".join([
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
