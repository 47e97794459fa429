"""Every top-level import of a package or test module is used."""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parents[1]
# __init__.py imports are re-exports, so they are left out
_MODULES = sorted(path for folder in ("src/wptsim", "tests")
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
