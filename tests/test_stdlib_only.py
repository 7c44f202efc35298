"""The package runs on the standard library alone, and its CLI imports no
HTTP or TLS module until a live backend is built."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _imported_modules(path):
    """Top-level names of the absolute imports in the Python file at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_relative_or_stdlib():
    outside = {
        (path.name, name)
        for path in sorted((SRC / "rtlforge").glob("*.py"))
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names
    }
    assert outside == set()


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []


def test_cli_import_leaves_http_and_tls_unloaded():
    code = (
        "import sys, rtlforge.cli; "
        "print(sorted({'http.client', 'urllib.request', 'ssl'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
