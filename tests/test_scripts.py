"""scripts/count_lines.py on a small source with known counts."""

import importlib.util
import os

_SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os


class Thing:
    """One-line class docstring."""

    def method(self):
        """Method docstring

        with a blank line inside."""
        text = """a string that is
not a docstring"""   # trailing comment: still code
        return text


def bare():
    return os.sep  # no docstring here
'''


def _script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "count_lines.py")
    spec = importlib.util.spec_from_file_location("count_lines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_count_lines_on_a_known_source(tmp_path, capsys):
    script = _script()
    # 14 non-blank lines: 2 docstring lines at the top, 1 in the class, 2
    # in the method (its blank line is not counted) and 1 comment-only line
    # leave 8 lines of code
    assert script.count_source(_SOURCE) == (14, 8)
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "non_blank 16\ncode 9\n"
