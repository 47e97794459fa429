"""Command line behavior: exit codes, artifacts, round trips."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from wptsim import load_codebook, load_config
from wptsim.cli import main
from wptsim.campaign import DETAIL_HEADER, SUMMARY_HEADER, _books


MINI = """
[campaign]
strategies = UP, SMF, LIMITED
antenna_counts = 1, 2
tone_counts = 1
codebook_sizes = 2
frames_per_location = 1
seed = 5

[channel]
n_locations = 2

[output]
dir = {out}
"""


def test_simulate_writes_csvs(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    out = tmp_path / "results"
    cfg.write_text(MINI.format(out=out))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (out / "detail.csv").read_text().startswith(DETAIL_HEADER)
    assert (out / "summary.csv").read_text().startswith(SUMMARY_HEADER)
    printed = capsys.readouterr().out
    assert "detail.csv" in printed and "summary.csv" in printed


def test_simulate_out_overrides_config(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(MINI.format(out=tmp_path / "ignored"))
    override = tmp_path / "actual"
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(override)]) == 0
    assert (override / "detail.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_simulate_missing_config_exits_1(tmp_path, capsys, monkeypatch,
                                         kind):
    # a config that cannot be read runs nothing, not the default campaign
    # into ./out
    monkeypatch.chdir(tmp_path)
    path, out = tmp_path / "c.ini", tmp_path / "results"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(MINI.format(out=out).encode() + b"# \xe9\n")
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("table", [None, "p_dbm,eta\n"],
                         ids=["missing", "malformed"])
def test_simulate_bad_table_exits_1_before_making_its_output(
        tmp_path, capsys, table):
    path = tmp_path / "eta.csv"
    if table is not None:
        path.write_text(table)
    cfg = tmp_path / "c.ini"
    out = tmp_path / "results"
    cfg.write_text(MINI.format(out=out)
                   + f"\n[rectifier]\nmodel = table\ntable_path = {path}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[rectifier] table_path" in err
    assert not out.exists()


@pytest.mark.parametrize("line,replacement", [
    ("strategies = UP, SMF, LIMITED", "strategies = SMF"),
    ("antenna_counts = 1, 2", "antenna_counts = 2"),
    ("tone_counts = 1", "tone_counts = 2"),
], ids=["no-up", "no-m1", "no-n1"])
def test_simulate_without_the_baseline_exits_1_before_running(
        tmp_path, capsys, line, replacement):
    # the summary's gains need the (UP, M=1, N=1) rows
    cfg = tmp_path / "c.ini"
    out = tmp_path / "results"
    cfg.write_text(MINI.format(out=out).replace(line, replacement))
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "baseline" in err
    assert not out.exists()


#: a measured-style table whose efficiency is 0 below -40 dBm
ZERO_BELOW = """p_dbm,papr,eta
-300,1,0
-300,20,0
-40,1,0
-40,20,0
-20,1,0.3
-20,20,0.3
30,1,0.6
30,20,0.6
"""


def test_simulate_zero_dc_location_exits_1_writing_no_csv(tmp_path, capsys):
    # a location that harvests 0 W has no dB gain; the summary names it
    # before either file is written
    table = tmp_path / "eta.csv"
    table.write_text(ZERO_BELOW)
    cfg = tmp_path / "c.ini"
    out = tmp_path / "results"
    cfg.write_text(
        "[campaign]\nstrategies = UP, SMF, LIMITED\nantenna_counts = 1, 2\n"
        "tone_counts = 1, 2\ncodebook_sizes = 2, 4\n"
        "frames_per_location = 2\n[channel]\nn_locations = 4\n"
        "pathloss_db_min = 60\npathloss_db_max = 75\n"
        f"[rectifier]\nmodel = table\ntable_path = {table}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no dB gain for (strategy=")
    assert re.search(r"location=L\d+\)", err)
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("failure", ["adc", "summary"])
def test_a_failed_run_removes_the_directories_it_made(tmp_path, capsys,
                                                      failure):
    # a run that fails before its first CSV leaves no empty output
    # directory behind, its new parents included; one that was there
    # before it stays
    table = tmp_path / "eta.csv"
    table.write_text(ZERO_BELOW)
    cfg = tmp_path / "c.ini"
    if failure == "adc":
        cfg.write_text("[campaign]\nantenna_counts = 1\ntone_counts = 1\n"
                       "codebook_sizes = 2\n[channel]\nn_locations = 2\n"
                       "[adc]\nenabled = true\n")
        message = "error: every LIMITED training reading is 0 V"
    else:
        cfg.write_text(
            "[campaign]\nstrategies = UP, SMF\nantenna_counts = 1, 2\n"
            "tone_counts = 1\n[channel]\nn_locations = 4\n"
            "pathloss_db_min = 60\npathloss_db_max = 75\n"
            f"[rectifier]\nmodel = table\ntable_path = {table}\n")
        message = "error: no dB gain for (strategy="
    out = tmp_path / "new" / "results"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(kept)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert kept.is_dir() and list(kept.iterdir()) == []


def test_simulate_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\nstrategies = WARP\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "WARP" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--confg", "x"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["teleport"])
    assert err.value.code == 2


def _book_config(tmp_path, **sections) -> str:
    """A config file of the given {section: {key: value}}; returns its path."""
    cfg = tmp_path / "book.ini"
    cfg.write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                    for key, value in keys.items())
        for section, keys in sections.items()))
    return str(cfg)


def test_codebook_gen_and_load(tmp_path):
    out = tmp_path / "book.txt"
    cfg = _book_config(tmp_path, campaign={"seed": 3})
    assert main(["codebook", "--out", str(out), "--config", cfg,
                 "--antennas", "2", "--tones", "4", "--size", "8"]) == 0
    book = load_codebook(out)
    assert book.k_codewords == 8
    assert book.m_antennas == 2
    assert book.n_tones == 4
    assert book.nested
    # the bytes of the former ``codebook gen --seed 3`` at the same M, N, K
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "6737196831cf9df7f457fcade454d3dddba0323e9dafedc9e7a216b1cebf5edb"


def test_codebook_gen_random_method(tmp_path):
    out = tmp_path / "book.txt"
    cfg = _book_config(tmp_path, codebook={"method": "random"})
    assert main(["codebook", "--out", str(out), "--config", cfg,
                 "--size", "5"]) == 0
    assert not load_codebook(out).nested


def test_codebook_gen_nested_rejects_bad_size(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["codebook", "--out", str(out), "--size", "5"]) == 1
    assert "power of two" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_gen_rejects_zero_tones(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["codebook", "--out", str(out), "--tones", "0"]) == 1
    assert "error: tone_counts must be" in capsys.readouterr().err
    assert not out.exists()


_LLOYD = {"method": "lloyd", "training_channels": 40}


def test_codebook_train_writes_trained_book(tmp_path):
    out = tmp_path / "book.txt"
    cfg = _book_config(tmp_path, campaign={"seed": 3, "codebook_sizes": 4},
                       codebook=dict(_LLOYD, training_iters=4))
    assert main(["codebook", "--out", str(out), "--config", cfg,
                 "--antennas", "2", "--tones", "2", "--size", "4"]) == 0
    book = load_codebook(out)
    assert book.k_codewords == 4
    assert "train_lloyd" in book.provenance


def test_codebook_train_golden_bytes(tmp_path):
    # recorded from the inline tap-draw loop that realize_channel replaced,
    # at seed 0 on channels at 60 dB pathloss
    out = tmp_path / "book.txt"
    cfg = _book_config(tmp_path, campaign={"seed": 0, "codebook_sizes": 4},
                       channel={"pathloss_db_min": 60, "pathloss_db_max": 60},
                       codebook=dict(_LLOYD, training_iters=3))
    assert main(["codebook", "--out", str(out), "--config", cfg,
                 "--antennas", "2", "--tones", "2", "--size", "4"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "cc1334341eea9266dfc64e817a71994304e61e3bb305cd32169343269e4152f9"


@pytest.mark.parametrize("method", ["nested", "random", "lloyd"])
@pytest.mark.parametrize("k", [2, 4])
def test_codebook_writes_the_campaigns_book(tmp_path, method, k):
    # the file holds the book the campaign sweeps at that (M, N, K), also
    # when the campaign lists more sizes than the one written
    cfg = _book_config(
        tmp_path,
        campaign={"antenna_counts": "1, 2", "tone_counts": "1, 4",
                  "codebook_sizes": "1, 2, 4", "seed": 7},
        channel={"pathloss_db_min": 50, "pathloss_db_max": 66},
        codebook={"method": method, "training_channels": 12,
                  "training_iters": 2})
    out = tmp_path / "book.txt"
    assert main(["codebook", "--out", str(out), "--config", cfg,
                 "--antennas", "2", "--tones", "4", "--size", str(k)]) == 0
    config = load_config(cfg)
    sweep, takes = _books(config, 2, config.tone_grid(4))
    assert load_codebook(out).weights.tobytes() == \
        sweep.weights[takes[k][1:]].tobytes()


def test_codebook_does_not_build_a_rectifier_it_never_reads(tmp_path):
    # a nested book never reads the rectifier, so a table file that does
    # not exist is no error and the book is the moment config's book
    books = []
    for rectifier in ({"model": "table",
                       "table_path": str(tmp_path / "missing.csv")},
                      {"model": "moment"}):
        out = tmp_path / f"{rectifier['model']}.txt"
        cfg = _book_config(tmp_path, campaign={"seed": 3},
                           rectifier=rectifier, codebook={"method": "nested"})
        assert main(["codebook", "--out", str(out), "--config", cfg,
                     "--antennas", "2", "--tones", "4", "--size", "8"]) == 0
        books.append(out.read_bytes())
    assert books[0] == books[1]


def test_codebook_options_are_the_book_coordinates(capsys):
    # every other setting is a config key; a restated flag would let the
    # file and the campaign disagree
    with pytest.raises(SystemExit) as err:
        main(["codebook", "--help"])
    assert err.value.code == 0
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--out", "--config", "--antennas", "--tones",
                       "--size"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--out", "{out}"],
    ["sweep", "figure-bf", "--seed", "-1", "--out", "{out}"],
    ["codebook", "--config", "{cfg}", "--out", "{out}"],
    ["oracle", "moments", "--seed", "-1", "--cases", "1"],
], ids=["simulate", "sweep", "codebook", "oracle"])
def test_a_negative_seed_is_an_error(tmp_path, capsys, argv):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[campaign]\nseed = -3\n")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg, out=out) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_oracle_moments_passes(capsys):
    assert main(["oracle", "moments", "--cases", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "max relative error" in out


def test_module_entry_runs_the_cli():
    # python3 -m wptsim, as README runs it, reaches main through __main__
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "wptsim", "oracle", "moments", "--cases", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS")


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_oracle_moments_needs_a_case(cases, capsys):
    # a self-check over no cases would pass having checked nothing
    with pytest.raises(SystemExit) as err:
        main(["oracle", "moments", "--cases", cases])
    assert err.value.code == 2
    assert "--cases: must be >= 1" in capsys.readouterr().err


def test_sweep_runs_pre_canned_config(tmp_path):
    out = tmp_path / "bf"
    assert main(["sweep", "figure-bf", "--out", str(out)]) == 0
    header = open(out / "detail.csv").readline().strip()
    assert header == DETAIL_HEADER
    body = open(out / "detail.csv").read()
    for strategy in ("UP", "SMF", "LIMITED"):
        assert f"\n{strategy}," in body
    # M sweeps {1,2,4} at N=1
    for m in (1, 2, 4):
        assert f"\nSMF,{m},1," in body


def test_sweep_rejects_unknown_name():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "figure-everything"])
    assert err.value.code == 2
