"""The layering of the core modules, read from their import statements: the
polynomial core imports no other ddlab module, and the Laurent layer only
the core, so a checker can trust Polynomial arithmetic and Laurent
evaluation without the rest of the package.  `presentations`, which holds
the printing rule of result records, imports only the core and `groebner`,
so it stays below every module that prints a result; and no `Record`
writes its own `to_json`."""

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


@pytest.mark.parametrize("module, allowed", [
    ("poly", set()), ("laurent", {"poly"}), ("presentations", {"groebner", "poly"}),
])
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


def _unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads, `__future__`
    features aside; a name read only inside a quoted annotation counts as
    read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.returns]
    quoted = [ast.parse(c.value, mode="eval") for a in annotations for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / f"{module}.py").read_text()) == []


def test_unused_import_is_found():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import os.path as osp",
        "import json.decoder",
        "from math import gcd, lcm",
        "def f(a: 'list[Fraction]', b='Decimal') -> int:",
        "    return gcd(a, json.decoder.x)",
        "from fractions import Fraction",
        "from decimal import Decimal",
    ])
    assert _unused_imports(source) == ["Decimal (line 9)", "lcm (line 5)", "os (line 2)", "osp (line 3)"]


def _records_with_own_to_json(source: str) -> list[str]:
    """The classes that name `Record` among their bases and still define a
    `to_json` of their own."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", None) == "Record" or getattr(b, "attr", None) == "Record" for b in node.bases)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_json" for f in node.body)
    )


@pytest.mark.parametrize("module", MODULES)
def test_records_print_by_the_rule(module):
    assert _records_with_own_to_json((SRC / f"{module}.py").read_text()) == []


def test_record_with_own_to_json_is_found():
    source = "\n".join([
        "class Plain(Record):",
        "    name: str",
        "class Own(Record):",
        "    def to_json(self):",
        "        return {}",
        "class Qualified(presentations.Record):",
        "    def to_json(self):",
        "        return {}",
        "class NotARecord:",
        "    def to_json(self):",
        "        return {}",
    ])
    assert _records_with_own_to_json(source) == ["Own", "Qualified"]
