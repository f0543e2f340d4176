"""The declared runtime dependencies cover what the package imports, and no more."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
            for spec in project["dependencies"]}


def third_party_imports():
    """Top-level names of every absolute import under src/evlab, deferred ones included,
    that are neither the standard library nor evlab itself."""
    names = set()
    for path in (ROOT / "src" / "evlab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"evlab"}


def test_runtime_dependency_is_numpy_alone_and_covers_every_import():
    declared = runtime_dependencies()
    assert declared == {"numpy"}
    imported = third_party_imports()
    assert imported, "the walk found no third-party import at all"
    assert imported <= declared, imported - declared
