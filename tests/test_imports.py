"""`tlw` depends on numpy and the standard library only.

A module that imports an installed but undeclared package (scipy, say) works
wherever that package happens to be present and breaks where only the
declared dependencies are installed, so every import is checked from source.
The CLI loads the modules of the maximal, duality and phi-transform suites only
when a suite runs them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tlw"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tlw"}


def imported_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in the module; relative ones are tlw."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("tlw" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_tlw(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


def test_an_undeclared_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom . import dyadic\n"
                      "def f():\n    from scipy import ndimage\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}


def test_importing_the_cli_loads_no_suite_only_module():
    code = "import json, sys, tlw.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env).stdout
    loaded = set(json.loads(out))
    assert "tlw.cli" in loaded
    assert not loaded & {"tlw.maximal", "tlw.duality", "tlw.phitransform"}, loaded
