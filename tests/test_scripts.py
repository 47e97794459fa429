"""The scripts: count_lines.py on a small source with known counts, and
codebook_gap.py end to end on a small ensemble."""

import importlib.util
import math
import os
import re

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


def _script(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_count_lines_on_a_known_source(tmp_path, capsys):
    script = _script("count_lines")
    # 14 non-blank lines: 2 docstring lines at the top, 1 in the class, 2
    # in the method (its blank line is not counted) and 1 comment-only line
    # leave 8 lines of code
    assert script.count_source(_SOURCE) == (14, 8)
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "non_blank 16\ncode 9\n"


def test_codebook_gap_prints_a_finite_gap_per_size(capsys):
    script = _script("codebook_gap")
    assert script.main(["--antennas", "2", "--tones", "2", "--train", "64",
                        "--held", "8", "--iters", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("M=2 N=2, 64 training / 8 held-out channels; "
                        "gaps in dB against SMF")
    reference = re.fullmatch(r"  matched-filter reference: (\S+) W", lines[1])
    assert float(reference[1]) > 0
    sizes = [2, 4, 8, 16, 32, 64]
    assert len(lines) == 2 + len(sizes)
    for k, line in zip(sizes, lines[2:]):
        row = re.fullmatch(r"  K=\s*(\d+) \((\d) bits\): held-out\s+(\S+)"
                           r"  training\s+(\S+)  ceiling C\(K\)\s+(\S+)",
                           line)
        assert row is not None, line
        assert int(row[1]) == k and int(row[2]) == (k - 1).bit_length()
        assert all(math.isfinite(float(gap)) for gap in row.groups()[2:])
