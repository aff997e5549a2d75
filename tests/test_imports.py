"""Each module imports on its own, in a fresh interpreter: the package
re-exports nothing, so no fixed import order can hide a cycle.  And each
public name has a caller outside the tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beqpt

SRC = Path(beqpt.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYOUT = re.findall(r"^\| `(beqpt\.\w+)` \|", README.read_text(), flags=re.M)


def run_python(code: str) -> str:
    # the child imports the same beqpt sources as this process
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_layout_table_names_every_module():
    modules = {f"beqpt.{p.stem}" for p in (SRC / "beqpt").glob("*.py")} - {"beqpt.__init__"}
    assert sorted(LAYOUT) == sorted(modules)


@pytest.mark.parametrize("module", LAYOUT)
def test_module_imports_alone(module):
    run_python(f"import {module}")


def test_package_import_loads_no_submodule():
    out = run_python("import sys, beqpt; print(sorted(m for m in sys.modules "
                     "if m.startswith('beqpt.')))")
    assert out.strip() == "[]"


def test_tomography_loads_no_optimizer():
    # the density-set projection lives in bipartite, so a reconstruction
    # imports neither the see-saw nor the state catalogue
    out = run_python("import sys, beqpt.tomography; print(sorted(m for m in sys.modules "
                     "if m in ('beqpt.seesaw', 'beqpt.states')))")
    assert out.strip() == "[]"


def test_every_public_name_has_a_caller():
    # a use is a name or an attribute in the library or the benchmark;
    # definitions and imports are not uses, and neither are the tests, so a
    # function kept only as a test oracle fails here
    modules = sorted((SRC / "beqpt").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in [*modules, *BENCH.glob("*.py")]}
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    unused = {f"{p.stem}.{node.name}" for p in modules for node in trees[p].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used}
    assert unused == set()
