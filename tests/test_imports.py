"""Every top-level import is used, and every benchmark trace point exists."""

import ast
import importlib
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parents[1]
# __init__.py imports are re-exports, so they are left out
_MODULES = sorted(path for folder in ("src/wptsim", "tests", "scripts")
                  for path in (_ROOT / folder).glob("*.py")
                  if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom sys import argv, exit\n"
              "exit(os.path.sep)\n")
    assert _unused_imports(source) == ["line 3: np", "line 4: argv"]


@pytest.mark.parametrize("path", _MODULES,
                         ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def _span_targets() -> tuple:
    """The benchmark tracer's TARGETS, read from its source, not imported."""
    tree = ast.parse((_ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def test_benchmark_trace_points_resolve():
    # the tracer wraps each (module, attribute) by name; a refactor that
    # stops looking a function up there would leave its span unrecorded
    targets = _span_targets()
    assert targets
    missing = [f"{module}.{attr}" for _, module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
