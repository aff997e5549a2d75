"""Each module imports on its own, in a fresh interpreter: the package
re-exports nothing, so no fixed import order can hide a cycle."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import beqpt

SRC = Path(beqpt.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"
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
