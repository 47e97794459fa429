#!/usr/bin/env python3
"""Line counts of the package source, by one fixed method.

Prints two counts over the ``*.py`` files of a directory (``src/wptsim`` by
default):

* ``non_blank``: lines with anything but whitespace on them;
* ``code``: those lines minus every line of a docstring and every line
  holding only a comment.

A docstring is the string literal that opens a module, class or function
body (``ast.get_docstring``'s rule); all of its lines go, its quotes
included.  A comment-only line is any other line whose first non-blank
character is ``#``.  Lines of other string literals, such as a long
message, count as code.

Usage: python3 scripts/count_lines.py [DIR]
"""

import argparse
import ast
import pathlib
import sys

_DEFAULT = pathlib.Path(__file__).resolve().parents[1] / "src" / "wptsim"


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> tuple[int, int]:
    """(non_blank, code) line counts of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    non_blank = code = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        non_blank += 1
        if number not in docs and not text.startswith("#"):
            code += 1
    return non_blank, code


def count_dir(folder) -> tuple[int, int]:
    """(non_blank, code) summed over the *.py files of folder."""
    totals = [0, 0]
    for path in sorted(pathlib.Path(folder).glob("*.py")):
        for i, value in enumerate(count_source(path.read_text())):
            totals[i] += value
    return totals[0], totals[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("folder", nargs="?", default=str(_DEFAULT))
    args = ap.parse_args(argv)
    non_blank, code = count_dir(args.folder)
    print(f"non_blank {non_blank}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
