"""The layering of the core modules, read from their import statements: the
polynomial core imports no other ddlab module, and the Laurent layer only
the core, so a checker can trust Polynomial arithmetic and Laurent
evaluation without the rest of the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ddlab"


def _ddlab_imports(source: str) -> set[str]:
    """The ddlab modules that a module of the package imports, by name; the
    package itself, imported as a whole, counts as "ddlab"."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level and parts[:1] != ["ddlab"]:
                continue
            # the module path inside the package: ".x" and "ddlab.x" give x
            inner = parts if node.level else parts[1:]
            found.update(inner[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ddlab":
                    found.add(parts[1] if len(parts) > 1 else "ddlab")
    return found


@pytest.mark.parametrize("module, allowed", [("poly", set()), ("laurent", {"poly"})])
def test_core_imports(module, allowed):
    assert _ddlab_imports((SRC / f"{module}.py").read_text()) == allowed


def test_every_import_form_is_read():
    source = "\n".join([
        "import os",
        "from math import gcd",
        "from .poly import Polynomial",
        "from . import laurent",
        "from ddlab.groebner import buchberger",
        "from ddlab import cli",
        "import ddlab.elements",
        "import ddlab",
    ])
    assert _ddlab_imports(source) == {"poly", "laurent", "groebner", "cli", "elements", "ddlab"}
