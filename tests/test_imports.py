"""Every top-level import is used, every benchmark trace point exists, the
per-object waveform layer is read only where the benchmark traces it, and
only the shape rule raises DimensionError."""

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


def _dimension_raises(source: str) -> list[int]:
    """Lines that raise DimensionError, by name or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "DimensionError" in (getattr(exc, "id", None),
                                    getattr(exc, "attr", None)):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_a_dimension_error_raise():
    source = ("from wptsim import errors\n"
              "from wptsim.errors import DimensionError\n"
              "def f(x):\n"
              "    if x:\n        raise DimensionError('x')\n"
              "    raise errors.DimensionError\n"
              "def g():\n    raise ValueError('DimensionError')\n"
              "def h():\n    return DimensionError('not raised')\n")
    assert _dimension_raises(source) == [5, 6]


def test_only_the_shape_rule_raises_dimension_error():
    # every shape check goes through errors.check_shape, so a hand-written
    # one elsewhere in the package fails here
    raises = {path.name: _dimension_raises(path.read_text())
              for path in sorted((_ROOT / "src" / "wptsim").glob("*.py"))
              if path.name != "errors.py"}
    assert {name: lines for name, lines in raises.items() if lines} == {}
    assert _dimension_raises(
        (_ROOT / "src" / "wptsim" / "errors.py").read_text())


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


def _statement_refs(tree: ast.Module) -> list[tuple]:
    """Each top-level statement with the names it reads.

    A name is read as a bare name, as an attribute (``module._name``) or
    as an imported name (``from module import _name``).
    """
    refs = []
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        refs.append((stmt, names))
    return refs


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _orphans(package: dict, others: list) -> list[str]:
    """Top-level _private names of the package sources read nowhere else.

    A name's own definitions do not count as reading it, so a helper whose
    only caller is itself, or nothing, is an orphan.
    """
    refs = {module: _statement_refs(ast.parse(source))
            for module, source in package.items()}
    outside = set().union(*(names for source in others
                            for _, names in _statement_refs(ast.parse(source))))
    orphans = []
    for module, stmts in refs.items():
        elsewhere = outside.union(*(names for other, s in refs.items()
                                    if other != module for _, names in s))
        for stmt, _ in stmts:
            for name in _defined_names(stmt):
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in elsewhere and not any(
                        name in names for other, names in stmts
                        if name not in _defined_names(other)):
                    orphans.append(f"{module}: {name}")
    return orphans


def test_scan_finds_an_orphan_private_name():
    package = {"a.py": ("_USED = 1\n_LONELY = 2\n\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                        "def public():\n    return _USED + _imported()\n"),
               "b.py": "def _imported():\n    return 0\n"}
    tests = ["from a import _attr_only\n", "import a\na._read_by_test\n"]
    package["a.py"] += "_attr_only = 3\n_read_by_test = 4\n"
    assert _orphans(package, tests) == ["a.py: _LONELY", "a.py: _recursive"]


def test_every_private_name_is_read():
    # a deletion that leaves a helper without a caller fails here
    package = {path.name: path.read_text()
               for path in sorted((_ROOT / "src" / "wptsim").glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "scripts")
              for path in sorted((_ROOT / folder).glob("*.py"))]
    assert _orphans(package, others) == []


def test_all_is_exactly_the_package_imports():
    # a name deleted from a module but left in __all__ breaks
    # ``from wptsim import *``; one imported but not listed is not exported
    import wptsim
    tree = ast.parse((_ROOT / "src" / "wptsim" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(wptsim.__all__) == sorted(imported)
    assert [name for name in wptsim.__all__
            if not hasattr(wptsim, name)] == []


#: the single-waveform layer, read as a name or an attribute
#: (``book.entries``); what is left of it serves the benchmark's trace points
_PER_OBJECT = {"EffectiveTones", "WaveformWeights", "effective_tones",
               "waveform_moments", "received_rf_power", "dc_power_moment",
               "entries"}
#: the modules that define it or whose calls perfbench/spans.py wraps, and
#: the script that times papr and dc_power_table on it
_PER_OBJECT_READERS = {f"src/wptsim/{name}.py" for name in (
    "waveform", "rectenna", "strategies", "codebook", "protocol",
    "campaign")} | {"scripts/bench_kernel.py"}


def _per_object_reads(source: str) -> list[str]:
    return sorted(_PER_OBJECT & set().union(*(
        names for _, names in _statement_refs(ast.parse(source)))))


def test_scan_finds_a_per_object_read():
    source = ("from wptsim import effective_tones, tone_moments\n"
              "def best(book):\n    return max(book.entries)\n"
              "a = tone_moments(1)\n")
    assert _per_object_reads(source) == ["effective_tones", "entries"]
    assert _per_object_reads("a = tone_moments(1)\n") == []


def test_per_object_layer_is_read_only_at_the_trace_points():
    # oracles, the CLI and the scripts run on amplitude arrays; once the
    # benchmark stops tracing the layer it can go without another port
    reads = {}
    for path in _MODULES:
        rel = path.relative_to(_ROOT).as_posix()
        if not rel.startswith("tests/") and rel not in _PER_OBJECT_READERS:
            found = _per_object_reads(path.read_text())
            if found:
                reads[rel] = found
    assert reads == {}
