"""The scripts: count_lines.py on a small source with known counts,
codebook_gap.py end to end on a small ensemble, and bench_kernel.py's
table at one timing per row."""

import importlib.util
import json
import math
import os
import platform
import re

import numpy as np

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


#: each layer of bench_kernel.py's table, in row order, with its row keys
_KERNEL_LAYERS = [
    ("waveform.tone_moments", 16, {"n_tones", "batch", "peak_mb"}),
    ("codebook._dc_and_grad", 1, {"m_antennas", "n_tones", "batch",
                                  "peak_mb", "clusters_us"}),
    ("codebook._assign", 2, {"m_antennas", "n_tones", "k_codewords",
                             "batch", "pathloss_db", "pairs_per_channel",
                             "full_matrix_us", "screen_us"}),
    ("codebook.train_iteration", 1, {"m_antennas", "n_tones", "k_codewords",
                                     "batch", "exact_pairs",
                                     "minor_faults"}),
    ("protocol.run_session", 1, {"m_antennas", "n_tones", "sessions",
                                 "frames", "k_sizes", "per_k_sweep_us",
                                 "with_streams_us"}),
    ("protocol.sweep", 1, {"points", "m_antennas", "n_tones", "batch",
                           "peak_mb", "tones_us"}),
    ("channel.realize_channel", 1, {"m_antennas", "n_tones"}),
    ("campaign.summarize", 1, {"batch", "blocks_us"}),
    ("campaign.write_csv", 1, {"batch", "blocks"}),
    ("strategies.smf_weights", 1, {"m_antennas", "n_tones", "batch",
                                   "per_channel_us"}),
    ("campaign.point_channels", 1, {"m_antennas", "n_tones", "batch",
                                    "per_fade_us"}),
    ("campaign.table_point", 1, {"m_antennas", "n_tones", "batch",
                                 "k_codewords", "papr_calls", "papr_us"}),
    ("waveform.papr", 3, {"n_tones", "oversampling", "build_ms",
                          "build_peak_mb", "matrix_mb", "table_us"}),
]


def test_bench_kernel_script_writes_its_table(tmp_path):
    # the script reads package privates; a rename fails here
    script = _script("bench_kernel")
    out = tmp_path / "BENCH_kernel.json"
    assert script.main(["--out", str(out), "--repeat", "1",
                        "--number", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["numpy"] == np.__version__
    assert report["python"] == platform.python_version()
    rows = report["rows"]
    expected = [(layer, keys) for layer, count, keys in _KERNEL_LAYERS
                for _ in range(count)]
    assert [r["layer"] for r in rows] == [layer for layer, _ in expected]
    for row, (layer, keys) in zip(rows, expected):
        assert set(row) == keys | {"layer", "median_us"}, layer
    by_layer = {}
    for row in rows:
        by_layer.setdefault(row["layer"], []).append(row)
    moments = by_layer["waveform.tone_moments"]
    assert [(r["n_tones"], r["batch"]) for r in moments] == \
        [(n, c) for n in (1, 2, 4, 8) for c in (1, 64, 192, 1000)]
    assert all(r["peak_mb"] > 0 for r in moments)
    # N=8 at C=1000 holds one diagonal's products, not all N^2 of them
    assert moments[-1]["peak_mb"] < 8 * 8 * 1000 * 16 / 1e6
    assert by_layer["codebook._dc_and_grad"][0]["peak_mb"] > 0
    assert by_layer["codebook._dc_and_grad"][0]["clusters_us"] > 0
    assign = by_layer["codebook._assign"]
    assert [r["pathloss_db"] for r in assign] == [60.0, 0.0]
    iteration, session, sweep, channel, summary, write, smf, point, table = (
        by_layer[layer][0] for layer, _, _ in _KERNEL_LAYERS[3:12])
    papr_rows = by_layer["waveform.papr"]
    assert (iteration["m_antennas"], iteration["n_tones"],
            iteration["k_codewords"], iteration["batch"]) == (4, 8, 64, 1000)
    assert iteration["exact_pairs"] > 0
    assert iteration["minor_faults"] >= 0
    # one figure-joint point's sessions: 15 locations x 3 fades
    assert (session["m_antennas"], session["n_tones"], session["sessions"],
            session["frames"], session["k_sizes"]) == \
        (4, 8, 15, 3, [2, 4, 8, 16, 32, 64])
    assert session["per_k_sweep_us"] > 0 and session["with_streams_us"] > 0
    # figure-joint's 12 (M, N) points; the peak of one draw of 15
    # channels at M=4, N=8, which the moment kernel sets
    assert (sweep["points"], sweep["m_antennas"], sweep["n_tones"],
            sweep["batch"]) == (12, 4, 8, 15)
    assert 0 < sweep["tones_us"] < sweep["median_us"]
    assert 0 < sweep["peak_mb"] < 1.0
    assert (channel["m_antennas"], channel["n_tones"]) == (4, 8)
    # figure-joint's rows: 3 x 4 (M, N) points x (UP, SMF and 6 codebook
    # sizes) x 15 locations x 3 frames
    assert summary["batch"] == 4320
    # the same rows and summary written from figure-joint's 96 blocks: 12
    # (M, N) points x (UP, SMF and 6 codebook sizes)
    assert (write["batch"], write["blocks"]) == (4320, 96)
    # one figure-joint point: 15 locations x 3 fades
    assert (smf["m_antennas"], smf["n_tones"], smf["batch"]) == (4, 8, 45)
    assert smf["per_channel_us"] > 0
    # the same point's 45 fades from one stacked frequency_response call
    assert (point["m_antennas"], point["n_tones"], point["batch"]) == \
        (4, 8, 45)
    assert point["per_fade_us"] > 0
    # campaign-table's M=2, N=8 point: 2 locations x 2 fades, each rating
    # the 4 codewords of the K_max = 4 book (UP's the first) and SMF's with
    # one papr call
    assert (table["m_antennas"], table["n_tones"], table["batch"],
            table["k_codewords"], table["papr_calls"]) == (2, 8, 4, 4, 20)
    assert 0 < table["papr_us"]
    assert [(r["n_tones"], r["oversampling"]) for r in papr_rows] == \
        [(n, 32) for n in (1, 8, 16)]
    # a cold build holds at least its matrix; at N=16 little more
    assert all(r["build_peak_mb"] >= r["matrix_mb"] for r in papr_rows)
    assert papr_rows[-1]["build_peak_mb"] <= 1.1 * papr_rows[-1]["matrix_mb"]
    assert all(r["build_ms"] > 0 and r["table_us"] > 0 for r in papr_rows)
    assert all(r["median_us"] > 0 for r in rows)
    assert all(r["full_matrix_us"] > 0 and r["screen_us"] > 0
               for r in assign)
    # every channel evaluates at least its seeded pair; pruning leaves
    # fewer than K pairs at 60 dB
    assert all(1 <= r["pairs_per_channel"] <= r["k_codewords"]
               for r in assign)
    assert assign[0]["pairs_per_channel"] < assign[0]["k_codewords"]
