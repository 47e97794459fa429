"""Command line behavior: exit codes, artifacts, round trips."""

import hashlib

import pytest

from wptsim import load_codebook
from wptsim.cli import main
from wptsim.campaign import DETAIL_HEADER, SUMMARY_HEADER


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


def test_simulate_missing_config_exits_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.ini")]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_codebook_gen_and_load(tmp_path):
    out = tmp_path / "book.txt"
    assert main(["codebook", "gen", "--out", str(out), "--antennas", "2",
                 "--tones", "4", "--size", "8", "--seed", "3"]) == 0
    book = load_codebook(out)
    assert book.k_codewords == 8
    assert book.m_antennas == 2
    assert book.n_tones == 4
    assert book.nested


def test_codebook_gen_random_method(tmp_path):
    out = tmp_path / "book.txt"
    assert main(["codebook", "gen", "--out", str(out), "--size", "5",
                 "--method", "random"]) == 0
    assert not load_codebook(out).nested


def test_codebook_gen_nested_rejects_bad_size(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["codebook", "gen", "--out", str(out), "--size", "5"]) == 1
    assert "power of two" in capsys.readouterr().err


def test_codebook_gen_rejects_zero_tones(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["codebook", "gen", "--out", str(out), "--tones", "0"]) == 1
    assert "error: n_tones must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_train_writes_trained_book(tmp_path):
    out = tmp_path / "book.txt"
    assert main(["codebook", "train", "--out", str(out), "--antennas", "2",
                 "--tones", "2", "--size", "4", "--seed", "3",
                 "--channels", "40", "--iters", "4"]) == 0
    book = load_codebook(out)
    assert book.k_codewords == 4
    assert "train_lloyd" in book.provenance


def test_codebook_train_golden_bytes(tmp_path):
    # recorded from the inline tap-draw loop that realize_channel replaced
    out = tmp_path / "book.txt"
    assert main(["codebook", "train", "--out", str(out), "--antennas", "2",
                 "--tones", "2", "--size", "4", "--channels", "40",
                 "--iters", "3"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "cc1334341eea9266dfc64e817a71994304e61e3bb305cd32169343269e4152f9"


def test_oracle_moments_passes(capsys):
    assert main(["oracle", "moments", "--cases", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "max relative error" in out


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
