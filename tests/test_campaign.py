"""Campaign harness: config parsing, CSV contracts, aggregation, determinism."""

import copy
import dataclasses
import hashlib
import importlib.util
import itertools
import pathlib
import re
import sys

import numpy as np
import pytest

from wptsim import (ALL_LOCATIONS, CampaignConfig, ConfigError, DomainError,
                    SummaryError, ToneGrid, db_gain, figure_config,
                    load_config, make_locations, realize_channel,
                    run_campaign, summarize)
from wptsim.campaign import DETAIL_HEADER, SUMMARY_HEADER, _KEYS

from conftest import session_sweeps


def _mini_config(**overrides) -> CampaignConfig:
    base = dict(strategies=("UP", "SMF", "LIMITED"),
                antenna_counts=(1, 2), tone_counts=(1, 2),
                codebook_sizes=(2, 4), n_locations=2,
                frames_per_location=2, seed=123)
    base.update(overrides)
    return CampaignConfig(**base)


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        _mini_config(strategies=("UP", "MAXPOWER"))


def test_config_rejects_empty_axes():
    with pytest.raises(ConfigError):
        _mini_config(antenna_counts=())
    with pytest.raises(ConfigError):
        _mini_config(tone_counts=(0,))
    with pytest.raises(ConfigError, match="strategies, antenna_counts or "
                                          "tone_counts axis is empty"):
        _mini_config(strategies=())


def test_config_rejects_limited_without_codebooks():
    with pytest.raises(ConfigError):
        _mini_config(codebook_sizes=())


def test_config_rejects_training_overrun():
    with pytest.raises(ConfigError):
        _mini_config(codebook_sizes=(256,), t_s=0.010, t_frame=2.0)


@pytest.mark.parametrize("t_s", ["0", "-0.01"])
def test_config_rejects_a_nonpositive_dwell(tmp_path, t_s):
    # rejected at load; the run would otherwise fail in its first session
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nstrategies = UP, LIMITED\n"
                    f"codebook_sizes = 4\n[frame]\nt_s_s = {t_s}\n")
    with pytest.raises(ConfigError, match="t_s must be > 0"):
        load_config(path)


@pytest.mark.parametrize("strategies", ["UP", "SMF", "UP, SMF"])
@pytest.mark.parametrize("t_frame", ["-1", "0", "nan", "inf"])
def test_config_checks_the_frame_length_without_limited(tmp_path, strategies,
                                                        t_frame):
    # UP and SMF rows write e_wpt_j = p_dc * t_frame, so the frame length
    # is checked whether or not LIMITED is swept
    path = tmp_path / "c.ini"
    path.write_text(f"[campaign]\nstrategies = {strategies}\n"
                    f"[frame]\nt_frame_s = {t_frame}\n")
    with pytest.raises(ConfigError, match="t_frame must be > 0 and finite"):
        load_config(path)
    with pytest.raises(ConfigError, match="t_frame must be > 0 and finite"):
        CampaignConfig(strategies=tuple(strategies.split(", ")),
                       t_frame=float(t_frame))


@pytest.mark.parametrize("method", ["nested", "random"])
def test_config_rejects_an_empty_codebook_size(tmp_path, method):
    # 0 passes the power-of-two test, and random books skip it
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nstrategies = UP, LIMITED\n"
                    f"codebook_sizes = 0, 4\n[codebook]\nmethod = {method}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_non_power_of_two_nested():
    with pytest.raises(ConfigError):
        _mini_config(codebook_sizes=(3,))
    _mini_config(codebook_sizes=(3,), codebook_method="random")


def test_config_axes_are_sorted_and_deduplicated():
    cfg = _mini_config(antenna_counts=(4, 1, 4), tone_counts=(8, 2))
    assert cfg.antenna_counts == (1, 4)
    assert cfg.tone_counts == (2, 8)


def test_config_rejects_bad_rectifier():
    with pytest.raises(ConfigError):
        _mini_config(rectifier_model="cubic")
    with pytest.raises(ConfigError):
        _mini_config(rectifier_model="table")   # needs table_path


def test_load_config_parses_sections(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("""
[campaign]
strategies = UP, SMF
antenna_counts = 1, 2
tone_counts = 1
frames_per_location = 3
seed = 9

[channel]
n_locations = 4
pathloss_db_min = 50
pathloss_db_max = 60

[frame]
t_s_s = 0.02
t_frame_s = 1.5

[output]
dir = somewhere
""")
    cfg = load_config(path)
    assert cfg.strategies == ("SMF", "UP")
    assert cfg.antenna_counts == (1, 2)
    assert cfg.n_locations == 4
    assert cfg.t_s == 0.02
    assert cfg.t_frame == 1.5
    assert cfg.output_dir == "somewhere"
    assert cfg.seed == 9


def test_key_table_covers_every_config_field():
    fields = {f.name for f in dataclasses.fields(CampaignConfig)}
    targets = [field for field, _ in _KEYS.values()]
    assert len(targets) == len(set(targets))
    assert set(targets) == fields


# every config file key set away from its default: (raw text, loaded value)
_NON_DEFAULT = {
    ("campaign", "strategies"): ("LIMITED, UP", ("LIMITED", "UP")),
    ("campaign", "antenna_counts"): ("2, 3", (2, 3)),
    ("campaign", "tone_counts"): ("2", (2,)),
    ("campaign", "codebook_sizes"): ("4, 8", (4, 8)),
    ("campaign", "frames_per_location"): ("5", 5),
    ("campaign", "seed"): ("7", 7),
    ("grid", "center_frequency_hz"): ("5.8e9", 5.8e9),
    ("grid", "bandwidth_hz"): ("20e6", 20e6),
    ("power", "transmit_power_w"): ("1.5", 1.5),
    ("channel", "n_taps"): ("4", 4),
    ("channel", "tap_spacing_s"): ("5e-8", 5e-8),
    ("channel", "pdp_decay"): ("0.5", 0.5),
    ("channel", "n_locations"): ("6", 6),
    ("channel", "pathloss_db_min"): ("50", 50.0),
    ("channel", "pathloss_db_max"): ("65", 65.0),
    ("channel", "resample_per_frame"): ("false", False),
    ("rectifier", "model"): ("table", "table"),
    ("rectifier", "k2"): ("0.2", 0.2),
    ("rectifier", "k4"): ("20", 20.0),
    ("rectifier", "alpha"): ("0.9", 0.9),
    ("rectifier", "table_path"): ("eta.csv", "eta.csv"),
    ("adc", "enabled"): ("true", True),
    ("adc", "resolution_bits"): ("10", 10),
    ("adc", "v_ref_v"): ("1.8", 1.8),
    ("adc", "noise_sigma_v"): ("0.001", 0.001),
    ("adc", "load_resistance_ohm"): ("1000", 1000.0),
    ("link", "delivery_probability"): ("0.9", 0.9),
    ("frame", "t_s_s"): ("0.02", 0.02),
    ("frame", "t_frame_s"): ("3.0", 3.0),
    ("codebook", "method"): ("random", "random"),
    ("codebook", "training_channels"): ("500", 500),
    ("codebook", "training_iters"): ("10", 10),
    ("output", "dir"): ("elsewhere", "elsewhere"),
}


def test_load_config_sets_every_key(tmp_path):
    assert set(_NON_DEFAULT) == set(_KEYS)
    lines = []
    for section in dict.fromkeys(section for section, _ in _NON_DEFAULT):
        lines.append(f"[{section}]")
        lines += [f"{key} = {raw}" for (s, key), (raw, _) in
                  _NON_DEFAULT.items() if s == section]
    path = tmp_path / "c.ini"
    path.write_text("\n".join(lines) + "\n")
    cfg = load_config(path)
    default = CampaignConfig()
    for section_key, (_, value) in _NON_DEFAULT.items():
        field = _KEYS[section_key][0]
        assert getattr(default, field) != value, field
        assert getattr(cfg, field) == value, field


def test_readme_config_block_is_the_default(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Campaign config format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "c.ini"
    path.write_text(block)
    assert load_config(path) == CampaignConfig()


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n",
    "[DEFAULT]\nseed = 5\n[grid]\nbandwidth_hz = 1e6\n",
])
def test_load_config_rejects_default_section(tmp_path, text):
    # configparser would otherwise drop the first file's seed silently and
    # blame [grid] for the second file's
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "seed = 5\n",
    "[campaign]\nseed = 5\nseed = 6\n",
], ids=["no-section-header", "duplicate-key"])
def test_load_config_names_the_file_of_a_malformed_ini(tmp_path, text):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
        load_config(path)


@pytest.mark.parametrize("raw,value", [
    ("1", True), ("YES", True), ("On", True), ("true", True),
    ("0", False), ("no", False), ("OFF", False), ("False", False)])
def test_load_config_reads_configparsers_booleans(tmp_path, raw, value):
    path = tmp_path / "c.ini"
    path.write_text(f"[channel]\nresample_per_frame = {raw}\n"
                    f"[adc]\nenabled = {raw}\n")
    cfg = load_config(path)
    assert cfg.resample_per_frame is value and cfg.adc_enabled is value


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        load_config(path)


def test_load_config_reports_bad_value_with_location(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nseed = banana\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_load_config_rejects_latency_key(tmp_path):
    # feedback latency is not modeled, so a config cannot ask for it
    path = tmp_path / "c.ini"
    path.write_text("[link]\nlatency_s = 0.0\n")
    with pytest.raises(ConfigError, match="unknown key 'latency_s'"):
        load_config(path)


@pytest.mark.parametrize("section,key,field,value", [
    ("link", "delivery_probability", "link_delivery_probability", 1.5),
    ("link", "delivery_probability", "link_delivery_probability", -0.1),
    ("adc", "resolution_bits", "adc_resolution_bits", 0),
    ("adc", "v_ref_v", "adc_v_ref", 0.0),
    ("adc", "v_ref_v", "adc_v_ref", -1.0),
    ("adc", "load_resistance_ohm", "adc_load_resistance", 0.0),
    ("adc", "noise_sigma_v", "adc_noise_sigma", -1e-3),
])
def test_config_rejects_bad_link_and_adc_settings(tmp_path, section, key,
                                                  field, value):
    # rejected at load, before any codebook is built or trained
    path = tmp_path / "c.ini"
    path.write_text("[campaign]\nstrategies = UP, LIMITED\n"
                    "codebook_sizes = 4\n[adc]\nenabled = true\n"
                    + ("" if section == "adc" else f"[{section}]\n")
                    + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match="link or adc"):
        load_config(path)
    with pytest.raises(ConfigError, match="link or adc"):
        CampaignConfig(strategies=("UP", "LIMITED"), codebook_sizes=(4,),
                       adc_enabled=True, **{field: value})


def test_config_checks_adc_settings_only_when_enabled():
    cfg = CampaignConfig(strategies=("UP", "LIMITED"), codebook_sizes=(4,),
                         adc_resolution_bits=0, adc_v_ref=-1.0)
    assert cfg.adc_config() is None
    enabled = CampaignConfig(strategies=("UP", "LIMITED"),
                             codebook_sizes=(4,),
                             adc_enabled=True, adc_resolution_bits=10)
    assert enabled.adc_config().resolution_bits == 10
    assert enabled.link_model().delivery_probability == 1.0


@pytest.mark.parametrize("center,bandwidth", [
    ("5e6", "10e6"), ("1e6", "10e6"), ("-2.4e9", "10e6")])
def test_config_rejects_a_grid_reaching_zero_hz(tmp_path, center, bandwidth):
    # such a carrier puts the lowest tones of a wide grid at or below 0 Hz
    path = tmp_path / "c.ini"
    path.write_text(f"[grid]\ncenter_frequency_hz = {center}\n"
                    f"bandwidth_hz = {bandwidth}\n")
    with pytest.raises(ConfigError, match=r"\[grid\] center_frequency_hz "
                                          r".*\[grid\] bandwidth_hz"):
        load_config(path)
    path.write_text("[grid]\ncenter_frequency_hz = 5.000001e6\n"
                    "bandwidth_hz = 10e6\n")
    assert load_config(path).center_frequency_hz == 5.000001e6


@pytest.mark.parametrize("section,key,value,message", [
    ("campaign", "seed", "-3", "seed must be >= 0"),
    ("rectifier", "k2", "nan", "k2 must be > 0 and finite"),
    ("rectifier", "k4", "nan", "k4 must be >= 0 and finite"),
    ("rectifier", "alpha", "inf", "alpha must be > 0 and finite"),
    ("channel", "n_taps", "0", "n_taps must be >= 1"),
    ("channel", "tap_spacing_s", "0", "tap_spacing_s must be > 0"),
    ("channel", "pdp_decay", "2", "pdp_decay must be in"),
    ("channel", "tap_spacing_s", "inf", "tap_spacing_s must be > 0"),
    ("channel", "pathloss_db_min", "-10", "pathloss_db must be >= 0"),
    ("channel", "pathloss_db_max", "nan", "pathloss_db must be >= 0"),
    ("power", "transmit_power_w", "-1", "power_budget must be > 0"),
    ("power", "transmit_power_w", "inf", "power_budget must be > 0"),
    ("grid", "bandwidth_hz", "-5", "bandwidth_hz must be > 0"),
    ("grid", "center_frequency_hz", "inf",
     "center_frequency_hz must be > 0 and finite"),
    ("codebook", "training_channels", "3", "lloyd codebooks need"),
    ("codebook", "training_iters", "0", "lloyd codebooks need"),
    ("rectifier", "model", "table\ntable_path = eta.csv",
     "lloyd codebooks need"),
    ("codebook", "method", "kmeans", "unknown codebook method 'kmeans'"),
    ("channel", "pathloss_db_max", "50",
     "pathloss_db_max 50.0 < pathloss_db_min 55.0"),
    ("adc", "enabled", "maybe",
     "bad value for [adc] enabled = 'maybe': Not a boolean: maybe"),
], ids=["seed", "k2", "k4", "alpha", "n_taps", "tap_spacing", "pdp_decay",
        "tap_spacing-inf", "pathloss", "pathloss-nan", "power", "power-inf",
        "bandwidth", "carrier-inf", "training_channels", "training_iters",
        "lloyd-table", "codebook-method", "pathloss-reversed",
        "adc-enabled"])
def test_config_checks_every_setting_at_load(tmp_path, section, key, value,
                                             message):
    # each of these used to load and then fail inside run_campaign, after
    # the output directory was made
    from wptsim.cli import main
    path = tmp_path / "c.ini"
    out = tmp_path / "out"
    sections = {"campaign": {"codebook_sizes": "2, 4"},
                "codebook": {"method": "lloyd", "training_channels": "8"}}
    sections.setdefault(section, {})[key] = value
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        load_config(path)
    # the parsers' rejections and CampaignConfig's alike name the file
    assert str(info.value).startswith(f"{path}: ")
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.ini")


def test_a_failing_write_probe_leaves_no_directory(tmp_path, monkeypatch):
    # the write probe's open fails in a fresh nested out_dir: the run
    # raises the probe's OSError, chained to its cause, and removes the
    # directories it made
    from wptsim import campaign
    real = open

    def probe_fails(path, *args, **kwargs):
        if str(path).endswith(".write_probe"):
            raise PermissionError("probe refused")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(campaign, "open", probe_fails, raising=False)
    with pytest.raises(OSError, match="is not writable: probe refused") \
            as info:
        run_campaign(_mini_config(), out_dir=tmp_path / "a" / "b")
    assert isinstance(info.value.__cause__, PermissionError)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# gains

def test_db_gain_values():
    assert db_gain(10.0, 1.0) == pytest.approx(10.0, rel=1e-12)
    assert db_gain(1.0, 1.0) == 0.0


def test_db_gain_rejects_nonpositive():
    with pytest.raises(DomainError):
        db_gain(0.0, 1.0)
    with pytest.raises(DomainError):
        db_gain(1.0, -2.0)


# ---------------------------------------------------------------------------
# end-to-end campaign

@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    cfg = _mini_config()
    detail, summary = run_campaign(cfg, out_dir=out)
    return cfg, detail, summary


def test_detail_header_and_shape(mini_run):
    cfg, detail, _ = mini_run
    lines = open(detail).read().splitlines()
    assert lines[0] == DETAIL_HEADER
    # UP and SMF carry K=0; LIMITED expands over codebook sizes
    points = (2 * len(cfg.antenna_counts) * len(cfg.tone_counts)
              + len(cfg.antenna_counts) * len(cfg.tone_counts)
              * len(cfg.codebook_sizes))
    expected_rows = points * cfg.n_locations * cfg.frames_per_location
    assert len(lines) - 1 == expected_rows


def _keys(path, fields):
    """Each data line's first fields of a CSV, M, N, K and frame as ints."""
    with open(path, encoding="ascii") as fh:
        return [tuple(int(x) if i in (1, 2, 3, 5) else x
                      for i, x in enumerate(line.split(",")[:fields]))
                for line in fh.read().splitlines()[1:]]


def test_detail_rows_are_sorted(mini_run, tmp_path):
    _, detail, summary = mini_run
    keys = _keys(detail, 6)
    assert keys == sorted(keys)
    # 12 locations sort L10 before L2: each point's rows follow the
    # locations' label order, and each row still carries its own
    # location's channel
    from wptsim import campaign, effective_tones, up_weights
    from wptsim.protocol import _dc_power
    cfg = _mini_config(antenna_counts=(1,), tone_counts=(1,),
                       codebook_sizes=(2,), n_locations=12)
    detail, summary = run_campaign(cfg, out_dir=tmp_path)
    keys = _keys(detail, 6)
    assert keys == sorted(keys)
    labels = [f"L{i}" for i in (1, 10, 11, 12, 2, 3, 4, 5, 6, 7, 8, 9)]
    assert [key[4] for key in keys[:24:2]] == labels
    summary_keys = _keys(summary, 5)
    assert summary_keys == sorted(summary_keys)
    assert [key[4] for key in summary_keys[:13]] == [ALL_LOCATIONS] + labels
    grid = cfg.tone_grid(1)
    rect_model = campaign._rect_model(cfg)
    up = up_weights(1, grid, cfg.transmit_power_w)
    locations = make_locations(cfg.n_locations, cfg.seed,
                               cfg.channel_template,
                               (cfg.pathloss_db_min, cfg.pathloss_db_max))
    expected = {(location.label, frame): "%.6g" % _dc_power(
                    rect_model, effective_tones(realize_channel(
                        location.params, 1, grid, frame=frame), up), grid)
                for location in locations
                for frame in range(cfg.frames_per_location)}
    with open(detail, encoding="ascii") as fh:
        rows = {(parts[4], int(parts[5])): parts[6]
                for parts in (line.split(",")
                              for line in fh.read().splitlines()[1:])
                if parts[0] == "UP"}
    assert rows == expected


def test_percent_templates_write_the_format_bytes():
    # the CSV lines are %-templates; "%.6g", "%.4f" (the summary's gain)
    # and "%d" must write the bytes of format(x, ".6g"), format(x, ".4f")
    # and str(i) for every value
    gen = np.random.default_rng(20260818)
    floats = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
              0.1234565, 1234565.0, 1.0000005, 9.9999995, 999999.5,
              1.5e-7, 2.5e-5]
    floats += (10.0 ** gen.uniform(-300, 300, 4000)).tolist()
    floats += [-x for x in floats[:8]]
    for x in floats:
        assert "%.6g" % x == format(x, ".6g"), x
        assert "%.4f" % x == format(x, ".4f"), x
    ints = [0, 1, 9, 10, 63, 64, 4320, 2**31, 2**63 + 1, True, False]
    ints += gen.integers(-10**9, 10**9, 1000).tolist()
    for i in ints:
        assert "%d" % i == str(int(i)), i


def test_detail_number_formats(mini_run):
    _, detail, _ = mini_run
    float6 = re.compile(r"^-?(\d+\.?\d*|\d*\.\d+)(e[+-]?\d+)?$")
    for line in open(detail).read().splitlines()[1:]:
        parts = line.split(",")
        assert len(parts) == 13
        for idx in (6, 7, 11, 12):
            assert float6.match(parts[idx]), parts[idx]
            mantissa = parts[idx].split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa.lstrip("0")) <= 6
        assert parts[10] in ("0", "1")


def test_summary_header_and_baseline_zero(mini_run):
    _, _, summary = mini_run
    lines = open(summary).read().splitlines()
    assert lines[0] == SUMMARY_HEADER
    baseline = [l for l in lines[1:] if l.startswith("UP,1,1,0,")]
    # one row per location plus the aggregate
    assert len(baseline) == 3
    for line in baseline:
        assert line.endswith(",0.0000")


def test_summary_gain_format(mini_run):
    _, _, summary = mini_run
    for line in open(summary).read().splitlines()[1:]:
        gain = line.split(",")[-1]
        assert re.match(r"^-?\d+\.\d{4}$", gain), gain


def test_summary_all_rows_follow_location_means(mini_run, tmp_path):
    _, detail, summary = mini_run
    # the summary is recomputed from the detail file alone
    detail_rows = [(s, int(m), int(n), int(k), loc, int(frame), float(p_dc))
                   for s, m, n, k, loc, frame, p_dc, *_ in (
                       line.split(",")
                       for line in open(detail).read().splitlines()[1:])]
    rows = summarize(detail_rows, tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == \
        open(summary, "rb").read()
    by_key = {(r.strategy, r.m_antennas, r.n_tones, r.k_codewords,
               r.location): r for r in rows}
    points = {(r.strategy, r.m_antennas, r.n_tones, r.k_codewords)
              for r in rows}
    for point in points:
        locs = [r for key, r in by_key.items()
                if key[:4] == point and key[4] != ALL_LOCATIONS]
        agg = by_key[point + (ALL_LOCATIONS,)]
        assert agg.p_dc_mean_w == pytest.approx(
            np.mean([r.p_dc_mean_w for r in locs]), rel=1e-9)


@pytest.mark.parametrize("resample", [True, False])
def test_campaign_summary_equals_summarize_of_its_detail(tmp_path, resample):
    # run_campaign summarizes its blocks, summarize its rows: 12 locations
    # sort L10 before L2, so label order is not draw order, and 3 frames
    # give every mean more than one term
    cfg = _mini_config(n_locations=12, frames_per_location=3,
                       resample_per_frame=resample)
    detail, summary = run_campaign(cfg, out_dir=tmp_path / "run")
    detail_rows = [(s, int(m), int(n), int(k), loc, int(frame), float(p_dc))
                   for s, m, n, k, loc, frame, p_dc, *_ in (
                       line.split(",")
                       for line in open(detail).read().splitlines()[1:])]
    assert {row[0] for row in detail_rows} == {"UP", "SMF", "LIMITED"}
    rows = summarize(detail_rows, tmp_path / "summary.csv")
    assert (tmp_path / "summary.csv").read_bytes() == \
        open(summary, "rb").read()
    # each location's mean is its detail values summed left to right
    values = {}
    for row in detail_rows:
        values.setdefault(row[:4] + (row[4],), []).append(row[6])
    means = {(r.strategy, r.m_antennas, r.n_tones, r.k_codewords,
              r.location): r.p_dc_mean_w
             for r in rows if r.location != ALL_LOCATIONS}
    assert means.keys() == values.keys()
    for key, p_dcs in values.items():
        total = 0.0
        for p_dc in p_dcs:
            total += p_dc
        assert means[key] == total / cfg.frames_per_location, key


def test_summary_gains_are_db_gain_to_the_bit(mini_run):
    # every gain comes from one vectorized np.log10 call; it must carry
    # the bits of db_gain, whose np.log10 runs on one ratio
    _, detail, _ = mini_run
    gen = np.random.default_rng(7)
    p_dcs = (10.0 ** gen.uniform(-9, -3, 4000)).tolist()
    for rows in ([(s, int(m), int(n), int(k), loc, int(frame), float(p_dc))
                  for s, m, n, k, loc, frame, p_dc, *_ in (
                      line.split(",")
                      for line in open(detail).read().splitlines()[1:])],
                 [(strategy, 1, 1, 0, f"L{i}", 0, p_dcs.pop())
                  for strategy in ("SMF", "UP") for i in range(2000)]):
        summary = summarize(rows)
        base = {r.location: r.p_dc_mean_w for r in summary
                if (r.strategy, r.m_antennas, r.n_tones) == ("UP", 1, 1)}
        for r in summary:
            assert r.gain_db == db_gain(r.p_dc_mean_w, base[r.location]), r
        # the gains are not all 0 dB
        assert len({r.gain_db for r in summary}) > len(summary) // 2


def test_rerun_is_byte_identical(tmp_path):
    cfg = _mini_config()
    d1, s1 = run_campaign(cfg, out_dir=tmp_path / "a")
    d2, s2 = run_campaign(cfg, out_dir=tmp_path / "b")
    assert open(d1, "rb").read() == open(d2, "rb").read()
    assert open(s1, "rb").read() == open(s2, "rb").read()


def test_run_campaign_accepts_only_one_job(tmp_path):
    cfg = _mini_config()
    with pytest.raises(DomainError, match="jobs"):
        run_campaign(cfg, out_dir=tmp_path / "two", jobs=2)
    d1, s1 = run_campaign(cfg, out_dir=tmp_path / "a", jobs=1)
    d2, s2 = run_campaign(cfg, out_dir=tmp_path / "b")
    assert open(d1, "rb").read() == open(d2, "rb").read()
    assert open(s1, "rb").read() == open(s2, "rb").read()


def _lines_at(path, antenna_counts, tone_counts):
    """The data lines of a detail or summary CSV at the given M and N."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()[1:]
    return [line for line in lines
            if int(line.split(",")[1]) in antenna_counts
            and int(line.split(",")[2]) in tone_counts]


@pytest.mark.parametrize("method", ["nested", "random", "lloyd"])
def test_sweep_point_rows_do_not_depend_on_other_points(tmp_path, method):
    # each (strategy, M, N, K, location) draws from its own streams, so a
    # campaign over fewer antenna or tone counts writes a subset of the
    # lines of the full sweep
    axis = (1, 2, 4)
    training = dict(training_channels=40, training_iters=3)
    extra = training if method == "lloyd" else {}

    def run(antennas, tones, name):
        cfg = _mini_config(antenna_counts=antennas, tone_counts=tones,
                           codebook_method=method, **extra)
        return run_campaign(cfg, out_dir=tmp_path / name)

    full = run(axis, axis, "full")
    for antennas, tones in [((1,), axis), (axis, (1,)), ((1, 2), (1, 2)),
                            ((1, 4), (1, 4))]:
        part = run(antennas, tones, f"m{antennas}-n{tones}")
        for full_path, part_path in zip(full, part):
            assert (_lines_at(part_path, antennas, tones)
                    == _lines_at(full_path, antennas, tones))


def test_lloyd_campaign_golden_bytes(tmp_path):
    # recorded from the inline tap-draw loop that realize_channel replaced
    cfg = CampaignConfig(antenna_counts=(1, 2), tone_counts=(1, 4),
                         codebook_sizes=(2, 4), n_locations=2,
                         codebook_method="lloyd", training_channels=60,
                         training_iters=5)
    detail, summary = run_campaign(cfg, out_dir=tmp_path)
    digests = [hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in (detail, summary)]
    assert digests == [
        "46e9d554b06742cf769ef56e12cb78e3e371779a06e636f4ceef8ad4b1609475",
        "303e5ceb61bc740c52c0d10643869894d97f7c044835f454d2ea152375969e32"]


@pytest.mark.parametrize("resample", [True, False])
def test_campaign_draws_each_channel_once(tmp_path, monkeypatch, resample):
    from wptsim import campaign
    calls = {"sample_taps": [], "frequency_response": [], "_sweep": []}
    for name, made in calls.items():
        def counting(*args, _made=made, _original=getattr(campaign, name),
                     **kwargs):
            _made.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(campaign, name, counting)
    for axes in [{}, dict(antenna_counts=(1, 3, 4), tone_counts=(1, 2, 8))]:
        for made in calls.values():
            made.clear()
        cfg = _mini_config(resample_per_frame=resample, **axes)
        detail, _ = run_campaign(cfg, out_dir=tmp_path / str(len(axes)))
        # every (M, N) shares the (location, fade) taps; each point
        # realizes every location's fades in one stacked call, and UP,
        # SMF and both codebook sizes share them; each fade draw is swept
        # once per point, over every location's channel of that draw
        fades = cfg.frames_per_location if resample else 1
        points = len(cfg.antenna_counts) * len(cfg.tone_counts)
        assert len(calls["sample_taps"]) == cfg.n_locations * fades
        assert len(calls["frequency_response"]) == points
        assert len(calls["_sweep"]) == points * fades
    if not resample:
        # block fading: UP sees one channel in every frame
        p_dc = {}
        for line in open(detail).read().splitlines()[1:]:
            parts = line.split(",")
            if parts[0] == "UP":
                p_dc.setdefault(tuple(parts[1:5]), set()).add(parts[6])
        assert len(p_dc) == (cfg.n_locations * len(cfg.antenna_counts)
                             * len(cfg.tone_counts))
        assert all(len(values) == 1 for values in p_dc.values())


def test_campaign_builds_a_session_stream_only_where_it_draws(tmp_path,
                                                              monkeypatch):
    # a LIMITED session gets a stream only when its link is lossy or its
    # ADC noisy; a session that cannot draw writes the bytes it writes
    # with a stream
    from wptsim import campaign, rng
    made = []
    real = rng.stream

    def counting(seed, *path):
        made.append(path[0])
        return real(seed, *path)

    monkeypatch.setattr(rng, "stream", counting)
    adc = dict(adc_enabled=True, adc_load_resistance=1e8)
    for i, (overrides, draws) in enumerate([
            ({}, False), (adc, False),
            (dict(link_delivery_probability=0.5), True),
            (dict(adc, adc_noise_sigma=1e-3), True)]):
        made.clear()
        cfg = _mini_config(**overrides)
        detail, _ = run_campaign(cfg, out_dir=tmp_path / str(i))
        sessions = (len(cfg.antenna_counts) * len(cfg.tone_counts)
                    * len(cfg.codebook_sizes) * cfg.n_locations)
        assert made.count(rng.SESSION) == (sessions if draws else 0)
        if not draws:
            with monkeypatch.context() as forced:
                forced.setattr(campaign, "session_draws", lambda *_: True)
                made.clear()
                streamed, _ = run_campaign(cfg,
                                           out_dir=tmp_path / f"{i}-streams")
                assert made.count(rng.SESSION) == sessions
            assert pathlib.Path(streamed).read_bytes() == \
                pathlib.Path(detail).read_bytes()


@pytest.mark.parametrize("n_taps", [1, 3, 8])
@pytest.mark.parametrize("m_max", [1, 3, 8])
@pytest.mark.parametrize("resample", [True, False])
def test_shared_taps_give_realize_channel_gains(n_taps, m_max, resample):
    # one draw at the largest M serves every antenna count: its first m
    # rows give the bits of realize_channel's own m-antenna draw
    from wptsim import campaign
    cfg = _mini_config(antenna_counts=(1, m_max), n_taps=n_taps,
                       n_locations=3, frames_per_location=3,
                       resample_per_frame=resample)
    locations = make_locations(cfg.n_locations, cfg.seed,
                               cfg.channel_template,
                               (cfg.pathloss_db_min, cfg.pathloss_db_max))
    taps = campaign._taps(cfg, locations)
    for m, n in itertools.product(range(1, m_max + 1), (1, 2, 5, 16)):
        grid = ToneGrid.centered(2.4e9, 10e6, n)
        stack = campaign._point_channels(cfg, taps, m, grid)
        draws = cfg.frames_per_location if resample else 1
        assert stack.gains.shape == (cfg.n_locations, draws, m, n)
        assert stack.m_antennas == m
        for location, fades in zip(locations, stack.gains, strict=True):
            for frame in range(cfg.frames_per_location):
                alone = realize_channel(location.params, m, grid,
                                        frame=frame if resample else 0)
                gains = fades[frame if resample else 0]
                assert gains.tobytes() == alone.gains.tobytes()


def _adc_config(load_resistance):
    return CampaignConfig(antenna_counts=(1, 2), tone_counts=(1, 2),
                          codebook_sizes=(2, 4), n_locations=3,
                          adc_enabled=True,
                          adc_load_resistance=load_resistance)


def test_adc_reading_zero_everywhere_is_rejected(tmp_path):
    # at the default 5 kohm load the harvested dc stays far below one
    # 12-bit LSB, so every reading is code 0 and every frame would pick
    # codeword 1: LIMITED would silently become UP
    with pytest.raises(ConfigError, match=r"12-bit ADC \(v_ref 3\.3 V, "
                                          r"load 5000\.0 ohm\)"):
        run_campaign(_adc_config(5000.0), out_dir=tmp_path)
    assert not list(tmp_path.glob("*.csv"))


def test_adc_reading_above_zero_writes_csvs(tmp_path):
    # at 1e8 ohm some codes read above zero (11 of the 72 LIMITED frames
    # select a codeword other than 1)
    detail, summary = run_campaign(_adc_config(1e8), out_dir=tmp_path)
    selected = {line.split(",")[8]
                for line in open(detail).read().splitlines()[1:]
                if line.startswith("LIMITED,")}
    assert selected - {"1"}
    assert open(summary).read().startswith(SUMMARY_HEADER)


def _captured_sessions(monkeypatch) -> tuple:
    # every run_session call of a campaign: its arguments, copies of its
    # streams as they stood before the call, and its report; and every
    # _sweep call's book and channels
    from wptsim import campaign
    calls, swept = [], []
    real_session, real_sweep = campaign.run_session, campaign._sweep

    def capture(*args):
        before = [copy.deepcopy(gen) for gen in args[4]]
        report = real_session(*args)
        calls.append((args, before, report))
        return report

    def sweep(book, channels, rect_model):
        swept.append((book, channels))
        return real_sweep(book, channels, rect_model)

    monkeypatch.setattr(campaign, "run_session", capture)
    monkeypatch.setattr(campaign, "_sweep", sweep)
    return calls, swept


def _frame_events(calls, swept) -> tuple:
    # (frames, codeword evaluations, distinct (channel, codeword) pairs
    # the campaign swept, frames whose top reading is tied, frames whose
    # feedback was lost) over captured session and sweep calls, counted as
    # the benchmark's tracer counts them per frame: a channel and a
    # codeword are keyed by their bytes.  A nested family's sweep book is
    # its K_max book, so its pairs are those the sessions' frames read.
    frames = evals = tied = lost = 0
    pairs = set()
    for book, channels in swept:
        words = [hash(w.tobytes()) for w in book.weights]
        for gains in channels.gains:
            key = hash(gains.tobytes())
            pairs.update((key, word) for word in words)
    for _, _, report in calls:
        readings = report.measurements
        top = readings == readings.max(axis=-1, keepdims=True)
        frames += report.applied_index.size
        evals += readings.size
        tied += int(np.count_nonzero(top.sum(axis=-1) > 1))
        lost += int(np.count_nonzero(~report.feedback_delivered))
    return frames, evals, len(pairs), tied, lost


def test_figure_joint_frame_events(tmp_path, monkeypatch):
    # one session call per (M, N, K) point, each over the 15 locations'
    # sessions of 3 frames; the counts are those the tracer read from the
    # 3240 per-frame calls before sessions ran as one batch per point
    calls, swept = _captured_sessions(monkeypatch)
    run_campaign(figure_config("figure-joint"), out_dir=tmp_path)
    assert len(calls) == 3 * 4 * 6
    assert all(r.applied_index.shape == (15, 3) for _, _, r in calls)
    assert _frame_events(calls, swept) == (3240, 68040, 34560, 186, 0)


def test_benchmark_table_campaign_frame_events(tmp_path, monkeypatch):
    # the benchmark's campaign-table workload at its default seed: a
    # seed-drawn efficiency table, a noisy ADC and a lossy link; the counts
    # are those the tracer read from its 32 per-frame calls
    workloads = _benchmark_workloads(monkeypatch)
    calls, swept = _captured_sessions(monkeypatch)
    workloads.prepare("campaign-table", 20260818, str(tmp_path)).main()
    assert len(calls) == 2 * 2 * 2
    assert _frame_events(calls, swept) == (32, 96, 64, 9, 8)


def _benchmark_workloads(monkeypatch):
    # perfbench/workloads.py, loaded as a module of its own
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_table_campaign_rates_each_waveform_once(tmp_path,
                                                           monkeypatch):
    # the benchmark's campaign-table sweep at its default seed, on its
    # seed-drawn table: per (M, N) point the 4 codewords of the nested
    # K_max = 4 book, UP's the first, and SMF's are rated once on each of
    # the 2 locations x 2 fades; a frame that falls back to UP reads its
    # column.  Each table rating samples the RF waveform with one papr call
    from wptsim import rectenna
    seed, table_path = 20260818, tmp_path / "efficiency.csv"
    _benchmark_workloads(monkeypatch).write_table(table_path, seed)
    cfg = CampaignConfig(antenna_counts=(1, 2), tone_counts=(1, 8),
                         codebook_sizes=(2, 4), n_locations=2,
                         frames_per_location=2, seed=seed,
                         rectifier_model="table", table_path=str(table_path),
                         adc_enabled=True, link_delivery_probability=0.8)
    calls, real = [], rectenna.papr
    monkeypatch.setattr(rectenna, "papr", lambda tones, grid: (
        calls.append(grid.n_tones), real(tones, grid))[1])
    detail, _ = run_campaign(cfg, out_dir=tmp_path / "out")
    # some LIMITED frames fall back to UP, and cost no papr call of their own
    assert any(line.split(",")[9] == "0"
               for line in open(detail).read().splitlines()
               if line.startswith("LIMITED,"))
    assert len(calls) == 2 * 2 * (4 + 1) * 2 * 2 == 80
    assert calls.count(8) == 40


def test_lossy_adc_campaign_loses_the_frames_its_streams_draw(
        tmp_path, monkeypatch):
    # each frame draws one noise value per reading and then its delivery
    # from its session's stream; replaying copies of the streams gives
    # every frame's delivery and the detail file's count of lost frames
    cfg = _mini_config(adc_enabled=True, adc_load_resistance=1e8,
                       adc_noise_sigma=1e-3, link_delivery_probability=0.6,
                       n_locations=3, frames_per_location=4)
    calls, swept = _captured_sessions(monkeypatch)
    detail, _ = run_campaign(cfg, out_dir=tmp_path)
    lost = 0
    for args, before, report in calls:
        # the sweep's columns: UP's and the K codewords'
        k = args[1][0].shape[-1] - 1
        for gen, delivered in zip(before, report.feedback_delivered):
            for frame_delivered in delivered:
                for _ in range(k):
                    gen.standard_normal()
                assert frame_delivered == (gen.random() < 0.6)
                lost += not frame_delivered
    frames, _, _, _, events_lost = _frame_events(calls, swept)
    assert frames == 2 * 2 * 2 * 3 * 4
    assert 0 < events_lost == lost < frames
    rows = [line.split(",") for line in open(detail).read().splitlines()
            if line.startswith("LIMITED,")]
    assert sum(row[10] == "0" for row in rows) == lost


def test_seed_changes_output(tmp_path):
    d1, _ = run_campaign(_mini_config(seed=1), out_dir=tmp_path / "a")
    d2, _ = run_campaign(_mini_config(seed=2), out_dir=tmp_path / "b")
    assert open(d1).read() != open(d2).read()


def _write_table(path):
    # efficiency rising with input power, and with PAPR at a given power,
    # so that codewords with one RF power still read differently
    p_axis = (-300.0, -100.0, -60.0, -45.0, -35.0, -25.0, 0.0, 30.0)
    q_axis = (1.0, 2.0, 4.0, 8.0, 16.0)
    lines = ["p_dbm,papr,eta"]
    for p, q in itertools.product(p_axis, q_axis):
        eta = 0.6 / (1.0 + np.exp(-(p + 40.0 + 3.0 * np.log2(q)) / 6.0))
        lines.append(f"{p!r},{q!r},{float(eta)!r}")
    path.write_text("\n".join(lines) + "\n")


def _limited_lines(path, k):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()[1:]
    return [line for line in lines
            if line.startswith("LIMITED,") and int(line.split(",")[3]) == k]


@pytest.mark.parametrize("method", ["nested", "random"])
@pytest.mark.parametrize("variant", ["moment", "table-adc", "block-lossy"])
def test_each_k_reads_its_rows_from_the_shared_sweep(tmp_path, method,
                                                     variant):
    # a location sweeps the distinct codewords of all its books once, and
    # each K reads its columns of that sweep; its rows must equal, byte for
    # byte, those of a campaign that sweeps that K alone.  K=1 at M=N=1 is
    # where numpy's fused multiply-add rounding once split the sweep.  The
    # lossy link and the ADC noise draw from each K's own session stream.
    sizes = (1, 2, 4, 64)
    settings = {
        "moment": {},
        "table-adc": dict(rectifier_model="table",
                          table_path=str(tmp_path / "eta.csv"),
                          adc_enabled=True, adc_noise_sigma=1e-3,
                          link_delivery_probability=0.8),
        "block-lossy": dict(resample_per_frame=False,
                            link_delivery_probability=0.5),
    }[variant]
    _write_table(tmp_path / "eta.csv")

    def run(ks, name):
        cfg = _mini_config(strategies=("UP", "LIMITED"),
                           antenna_counts=(1, 2), tone_counts=(1, 4),
                           codebook_sizes=ks, frames_per_location=3,
                           codebook_method=method, **settings)
        return run_campaign(cfg, out_dir=tmp_path / name)[0]

    shared = run(sizes, "shared")
    for k in sizes:
        alone = _limited_lines(run((k,), f"k{k}"), k)
        assert len(alone) == 2 * 2 * 2 * 3
        assert _limited_lines(shared, k) == alone
    # the lossy variants do lose feedback, so the session streams matter
    if settings.get("link_delivery_probability", 1.0) < 1.0:
        flags = {line.split(",")[10] for k in sizes
                 for line in _limited_lines(shared, k)}
        assert flags == {"0", "1"}


@pytest.mark.parametrize("method,columns", [
    ("nested", {1: [0, 0], 2: [0, 0, 1], 4: [0, 0, 1, 2, 3]}),
    ("random", {1: [0, 1], 2: [0, 2, 3], 4: [0, 4, 5, 6, 7]}),
    ("lloyd", {1: [0, 1], 2: [0, 2, 3], 4: [0, 4, 5, 6, 7]}),
], ids=["nested", "random", "lloyd"])
def test_books_are_slices_of_the_sweep_book(method, columns):
    # each K's sessions read UP's column 0 and then the columns of K's
    # book, as codebooks() makes it
    from wptsim import up_weights
    from wptsim.campaign import _books, codebooks
    config = CampaignConfig(strategies=("UP", "LIMITED"),
                            codebook_sizes=(1, 2, 4), codebook_method=method,
                            training_channels=8, training_iters=2)
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    sweep, takes = _books(config, 2, grid)
    assert {k: take.tolist() for k, take in takes.items()} == columns
    for k, book in codebooks(config, 2, grid).items():
        assert book.k_codewords == k == len(takes[k]) - 1
        assert sweep.weights[takes[k][1:]].tobytes() == \
            book.weights.tobytes()
    # UP's codeword is column 0: a nested book's own first entry, else a
    # row before every book's columns
    assert sweep.k_codewords == max(max(c) for c in columns.values()) + 1
    up = up_weights(2, grid, config.transmit_power_w)
    assert sweep.weights[0].tobytes() == up.weights.tobytes()
    assert sweep.power_budget == config.transmit_power_w


def test_books_sweep_only_the_swept_strategies():
    # every campaign sweeps UP's codeword, its gain baseline, as column 0;
    # codebook rows come only with LIMITED, and a nested K_max book already
    # starts with UP's codeword
    from wptsim.campaign import _books, codebooks
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    sweep, takes = _books(CampaignConfig(strategies=("UP", "SMF")), 2, grid)
    assert takes == {} and sweep.k_codewords == 1
    config = CampaignConfig(strategies=("LIMITED",), codebook_sizes=(2, 4))
    sweep, _ = _books(config, 2, grid)
    assert sweep.weights.tobytes() == \
        codebooks(config, 2, grid)[4].weights.tobytes()
    assert sweep.k_codewords == 4


def test_a_nested_campaign_builds_no_book_per_k(monkeypatch):
    # a nested family's sweep is its one K_max book: _books draws that
    # book once and makes no prefix book of a smaller K
    from wptsim import Codebook
    from wptsim.campaign import _books
    made, real = [], Codebook.prefix

    def prefix(self, k):
        made.append(k)
        return real(self, k)

    monkeypatch.setattr(Codebook, "prefix", prefix)
    config = CampaignConfig(strategies=("UP", "LIMITED"),
                            codebook_sizes=(2, 4, 8))
    sweep, takes = _books(config, 2, ToneGrid.centered(2.4e9, 10e6, 2))
    assert made == [] and sweep.k_codewords == 8 and sorted(takes) == [2, 4, 8]


@pytest.mark.parametrize("method,m,n", [
    ("nested", 1, 2), ("nested", 2, 4), ("random", 1, 2), ("random", 2, 4),
    ("lloyd", 2, 4)])
def test_sweep_book_rows_are_distinct_and_up_leads(method, m, n):
    # the sweep rates each codeword once, UP's first: no row repeats, and
    # row 0 holds up_weights' bytes.  (A Lloyd book trained at M=1 can
    # itself hold one codeword twice, so Lloyd is checked at M=2.)
    from wptsim import up_weights
    from wptsim.campaign import _books
    config = CampaignConfig(strategies=("UP", "LIMITED"),
                            codebook_sizes=(1, 2, 4, 8),
                            codebook_method=method, training_channels=16,
                            training_iters=2)
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    sweep, _ = _books(config, m, grid)
    rows = [w.tobytes() for w in sweep.weights]
    assert len(set(rows)) == len(rows) == (8 if method == "nested" else 16)
    assert rows[0] == up_weights(m, grid, config.transmit_power_w
                                 ).weights.tobytes()


@pytest.mark.parametrize("rectifier,method,strategies,resample", [
    ("moment", "nested", ("UP", "SMF", "LIMITED"), True),
    ("moment", "random", ("UP", "LIMITED"), True),
    ("moment", "lloyd", ("UP", "LIMITED"), True),
    ("moment", "nested", ("UP",), False),
    ("table", "nested", ("UP", "LIMITED"), False),
    ("table", "random", ("UP", "LIMITED"), True),
    ("table", "nested", ("UP",), True),
], ids=["moment-nested", "moment-random", "moment-lloyd", "moment-up-only",
        "table-nested-block", "table-random", "table-up-only"])
def test_up_rows_read_from_the_sweep_equal_frame_by_frame(
        tmp_path, monkeypatch, rectifier, method, strategies, resample):
    # UP is a column of the location's sweep; its rows must carry the bits
    # of the per-frame recipe, so the detail CSV is written with repr here
    from wptsim import campaign, effective_tones, received_rf_power, \
        up_weights
    from wptsim.protocol import _dc_power
    monkeypatch.setattr(campaign, "_FLOAT", "%r")
    _write_table(tmp_path / "eta.csv")
    cfg = _mini_config(strategies=strategies, antenna_counts=(1, 2, 4),
                       tone_counts=(1, 2, 8), frames_per_location=3,
                       rectifier_model=rectifier,
                       table_path=str(tmp_path / "eta.csv"),
                       codebook_method=method, training_channels=40,
                       training_iters=3, resample_per_frame=resample)
    detail, _ = run_campaign(cfg, out_dir=tmp_path / "out")
    rows = {tuple(parts[1:6]): parts[6:]
            for parts in (line.split(",")
                          for line in open(detail).read().splitlines()[1:])
            if parts[0] == "UP"}
    rect_model = campaign._rect_model(cfg)
    locations = make_locations(cfg.n_locations, cfg.seed,
                               cfg.channel_template,
                               (cfg.pathloss_db_min, cfg.pathloss_db_max))
    expected = {}
    for m, n in itertools.product(cfg.antenna_counts, cfg.tone_counts):
        grid = ToneGrid.centered(cfg.center_frequency_hz, cfg.bandwidth_hz, n)
        for location, frame in itertools.product(
                locations, range(cfg.frames_per_location)):
            ch = realize_channel(location.params, m, grid,
                                 frame=frame if resample else 0)
            tones = effective_tones(ch, up_weights(m, grid,
                                                   cfg.transmit_power_w))
            p_dc = _dc_power(rect_model, tones, grid)
            expected[(str(m), str(n), "0", location.label, str(frame))] = [
                repr(float(p_dc)), repr(float(received_rf_power(tones))),
                "0", "0", "1", "0.0", repr(float(p_dc * cfg.t_frame))]
    assert rows == expected


@pytest.mark.parametrize("rectifier,resample,overrides", [
    ("moment", True, {}),
    ("moment", False, dict(link_delivery_probability=0.5)),
    ("table", True, dict(adc_enabled=True, adc_noise_sigma=1e-3,
                         link_delivery_probability=0.8)),
    ("table", False, {}),
    ("moment", True, dict(n_locations=12, link_delivery_probability=0.5)),
], ids=["moment", "moment-block-lossy", "table-adc-lossy", "table-block",
        "moment-12-locations-lossy"])
def test_limited_rows_equal_each_session_run_alone(
        tmp_path, monkeypatch, rectifier, resample, overrides):
    # a point's fades come from one stacked frequency_response call and
    # are swept once per fade draw over every location; every LIMITED row
    # must carry the bits of its location's session run alone on the
    # sweep of its own book on realize_channel's fades.  With 12
    # locations, label order (L1, L10, L11, L12, L2, ...) is not index
    # order, and each session's stream stays keyed by its location's
    # index.  The detail CSV is written with repr here: "%.6g" hides
    # last-bit changes
    from wptsim import campaign, run_session, stream
    from wptsim.rng import SESSION
    monkeypatch.setattr(campaign, "_FLOAT", "%r")
    _write_table(tmp_path / "eta.csv")
    cfg = _mini_config(strategies=("UP", "LIMITED"), antenna_counts=(1, 2, 4),
                       tone_counts=(1, 2, 8), codebook_sizes=(1, 2, 4),
                       frames_per_location=3, rectifier_model=rectifier,
                       table_path=str(tmp_path / "eta.csv"),
                       resample_per_frame=resample,
                       **{"n_locations": 3, **overrides})
    detail, _ = run_campaign(cfg, out_dir=tmp_path / "out")
    rows = {tuple(parts[1:6]): parts[6:]
            for parts in (line.split(",")
                          for line in open(detail).read().splitlines()[1:])
            if parts[0] == "LIMITED"}
    rect_model = campaign._rect_model(cfg)
    timing, link, adc = cfg.frame_config(), cfg.link_model(), cfg.adc_config()
    draws = campaign.session_draws(link, adc)
    limited = campaign._STRATEGY_IDS["LIMITED"]
    locations = make_locations(cfg.n_locations, cfg.seed,
                               cfg.channel_template,
                               (cfg.pathloss_db_min, cfg.pathloss_db_max))
    frames = range(cfg.frames_per_location)
    expected = {}
    for m, n in itertools.product(cfg.antenna_counts, cfg.tone_counts):
        grid = cfg.tone_grid(n)
        books = campaign.codebooks(cfg, m, grid)
        for loc_idx, location in enumerate(locations):
            fades = ([realize_channel(location.params, m, grid, frame=f)
                      for f in frames] if resample else
                     [realize_channel(location.params, m, grid)] * len(frames))
            for k, book in books.items():
                gen = stream(cfg.seed, SESSION, limited, m, n, k,
                             loc_idx) if draws else None
                report = run_session(
                    timing, session_sweeps(book, [fades], rect_model), adc,
                    link, [gen])
                for f in frames:
                    r = report.frame(0, f)
                    expected[(str(m), str(n), str(k), location.label,
                              str(f))] = [
                        repr(r.p_dc_wpt), repr(r.p_rf_wpt),
                        str(r.selected_index), str(r.applied_index),
                        str(int(r.feedback_delivered)),
                        repr(r.energy_training), repr(r.energy_wpt)]
    assert len(rows) == len(expected) == 9 * 3 * cfg.n_locations * 3
    assert rows == expected
    # the lossy variants do lose feedback, so the session streams matter
    if cfg.link_delivery_probability < 1:
        assert {row[4] for row in rows.values()} == {"0", "1"}


@pytest.mark.parametrize("rectifier", ["moment", "table"])
@pytest.mark.parametrize("resample", [True, False],
                         ids=["per-frame", "block"])
def test_limited_fallback_rows_carry_up_rated_on_their_channel(
        tmp_path, monkeypatch, rectifier, resample):
    # a LIMITED frame that falls back (applied_k = 0) reads UP's column of
    # the point's sweep; its row must carry the dc and RF power of UP's
    # effective tones on that frame's channel alone, rated without
    # run_session.  The detail CSV is written with repr here
    from wptsim import (campaign, dc_power_moment, dc_power_table,
                        effective_tones, received_rf_power, up_weights)
    monkeypatch.setattr(campaign, "_FLOAT", "%r")
    _write_table(tmp_path / "eta.csv")
    cfg = _mini_config(strategies=("UP", "LIMITED"), antenna_counts=(1, 2),
                       tone_counts=(1, 4), codebook_sizes=(1, 2, 4),
                       n_locations=3, frames_per_location=4,
                       rectifier_model=rectifier,
                       table_path=str(tmp_path / "eta.csv"),
                       resample_per_frame=resample,
                       link_delivery_probability=0.4)
    detail, _ = run_campaign(cfg, out_dir=tmp_path / "out")
    rows = [line.split(",") for line in open(detail).read().splitlines()[1:]
            if line.startswith("LIMITED,")]
    fallbacks = [row for row in rows if row[9] == "0"]
    assert 0 < len(fallbacks) < len(rows)
    rect_model = campaign._rect_model(cfg)
    rate = dc_power_table if rectifier == "table" else dc_power_moment
    params = {loc.label: loc.params for loc in make_locations(
        cfg.n_locations, cfg.seed, cfg.channel_template,
        (cfg.pathloss_db_min, cfg.pathloss_db_max))}
    for _, m, n, k, label, frame, p_dc, p_rf, *_, e_wpt in fallbacks:
        m, n, k, frame = int(m), int(n), int(k), int(frame)
        grid = cfg.tone_grid(n)
        ch = realize_channel(params[label], m, grid,
                             frame=frame if resample else 0)
        tones = effective_tones(ch, up_weights(m, grid,
                                               cfg.transmit_power_w))
        dc = float(rate(rect_model, tones, grid))
        assert [p_dc, p_rf, e_wpt] == [
            repr(dc), repr(float(received_rf_power(tones))),
            repr(dc * cfg.frame_config().t_p(k))]


@pytest.mark.parametrize("rectifier", ["moment", "table"])
@pytest.mark.parametrize("seed", [20260818, 7])
def test_smf_rows_of_a_stacked_point_equal_the_per_channel_calls(
        tmp_path, monkeypatch, rectifier, seed):
    # run_campaign rates SMF on one (locations, frames, M, N) stack per
    # point; every row must carry the bits of its channel's own
    # smf_weights, effective_tones, rectifier and received_rf_power, at
    # every (M, N) of figure-joint, M=N=1 included
    from wptsim import (SmfParams, campaign, effective_tones,
                        received_rf_power, smf_weights)
    from wptsim.protocol import _dc_power
    monkeypatch.setattr(campaign, "_FLOAT", "%r")
    stacks = []
    monkeypatch.setattr(campaign, "smf_weights", lambda channel, params: (
        stacks.append(channel.gains.shape), smf_weights(channel, params))[1])
    _write_table(tmp_path / "eta.csv")
    cfg = dataclasses.replace(
        figure_config("figure-joint", seed=seed), strategies=("UP", "SMF"),
        rectifier_model=rectifier, table_path=str(tmp_path / "eta.csv"))
    detail, _ = run_campaign(cfg, out_dir=tmp_path / "out")
    channels = cfg.n_locations * cfg.frames_per_location
    assert stacks == [(cfg.n_locations, cfg.frames_per_location, m, n)
                      for m, n in itertools.product(cfg.antenna_counts,
                                                    cfg.tone_counts)]
    rows = {tuple(parts[1:6]): parts[6:8]
            for parts in (line.split(",")
                          for line in open(detail).read().splitlines()[1:])
            if parts[0] == "SMF"}
    rect_model = campaign._rect_model(cfg)
    smf = SmfParams(power_budget=cfg.transmit_power_w)
    locations = make_locations(cfg.n_locations, cfg.seed,
                               cfg.channel_template,
                               (cfg.pathloss_db_min, cfg.pathloss_db_max))
    expected = {}
    for m, n in itertools.product(cfg.antenna_counts, cfg.tone_counts):
        grid = cfg.tone_grid(n)
        for location, frame in itertools.product(
                locations, range(cfg.frames_per_location)):
            ch = realize_channel(location.params, m, grid, frame=frame)
            tones = effective_tones(ch, smf_weights(ch, smf))
            expected[(str(m), str(n), "0", location.label, str(frame))] = [
                repr(float(_dc_power(rect_model, tones, grid))),
                repr(float(received_rf_power(tones)))]
    assert len(rows) == len(expected) == 12 * channels
    assert rows == expected


# ---------------------------------------------------------------------------
# summarize as a standalone aggregation

def test_summarize_single_row_passthrough():
    rows = summarize([("UP", 1, 1, 0, "L1", 0, 2.5)])
    values = {(r.location): r.p_dc_mean_w for r in rows}
    assert values["L1"] == pytest.approx(2.5, rel=1e-9)
    assert values[ALL_LOCATIONS] == pytest.approx(2.5, rel=1e-9)
    assert all(r.gain_db == 0.0 for r in rows)


def test_summarize_mean_of_location_means():
    rows = summarize([("UP", 1, 1, 0, "L1", 0, 1.0),
                      ("UP", 1, 1, 0, "L2", 0, 3.0)])
    agg = [r for r in rows if r.location == ALL_LOCATIONS][0]
    assert agg.p_dc_mean_w == pytest.approx(2.0, rel=1e-12)


def test_summarize_mean_over_frames_then_locations():
    # L1 frames average to 2, L2 single frame is 8: aggregate (2+8)/2 = 5,
    # not the frame-weighted 11/3
    rows = summarize([("UP", 1, 1, 0, "L1", 0, 1.0),
                      ("UP", 1, 1, 0, "L1", 1, 3.0),
                      ("UP", 1, 1, 0, "L2", 0, 8.0)])
    agg = [r for r in rows if r.location == ALL_LOCATIONS][0]
    assert agg.p_dc_mean_w == pytest.approx(5.0, rel=1e-12)


def test_summarize_gain_against_same_location_baseline():
    rows = summarize([("UP", 1, 1, 0, "L1", 0, 1.0),
                      ("SMF", 1, 1, 0, "L1", 0, 10.0)])
    smf = [r for r in rows if r.strategy == "SMF" and r.location == "L1"][0]
    assert smf.gain_db == pytest.approx(10.0, rel=1e-9)


def test_summarize_order_invariance(tmp_path):
    rows = [("UP", 1, 1, 0, "L1", 0, 1.0),
            ("UP", 1, 1, 0, "L2", 0, 2.0),
            ("SMF", 1, 1, 0, "L1", 0, 4.0),
            ("SMF", 1, 1, 0, "L2", 0, 3.0),
            ("SMF", 1, 1, 0, "L1", 1, 6.0),
            # 4 + 6 + 0.001 rounds differently in another order, which the
            # file's 6 digits hide but the returned means keep
            ("SMF", 1, 1, 0, "L1", 2, 0.001)]
    outputs, summaries = set(), set()
    for perm in itertools.permutations(rows):
        out = tmp_path / "s.csv"
        summaries.add(tuple(summarize(perm, out)))
        outputs.add(out.read_bytes())
    assert len(outputs) == 1
    assert len(summaries) == 1


def test_summarize_missing_baseline_names_row():
    with pytest.raises(SummaryError, match="UP"):
        summarize([("SMF", 1, 1, 0, "L1", 0, 1.0)])


def test_summarize_missing_baseline_location():
    with pytest.raises(SummaryError, match="L2"):
        summarize([("UP", 1, 1, 0, "L1", 0, 1.0),
                   ("SMF", 1, 1, 0, "L2", 0, 1.0)])


@pytest.mark.parametrize("rows,point", [
    ([("UP", 1, 1, 0, "L1", 0, 1.0), ("SMF", 2, 1, 0, "L1", 0, 0.0),
      ("SMF", 2, 1, 0, "L1", 1, 0.0)],
     r"strategy=SMF, M=2, N=1, K=0, location=L1\): mean dc 0\.0 W, "
     r"baseline 1\.0 W"),
    ([("UP", 1, 1, 0, "L1", 0, 1.0), ("UP", 1, 1, 0, "L2", 0, 0.0),
      ("SMF", 2, 1, 0, "L2", 0, 3.0)],
     r"strategy=SMF, M=2, N=1, K=0, location=L2\): mean dc 3\.0 W, "
     r"baseline 0\.0 W"),
], ids=["zero-mean", "zero-baseline"])
def test_summarize_names_a_location_without_a_gain(tmp_path, rows, point):
    out = tmp_path / "summary.csv"
    with pytest.raises(SummaryError, match=point):
        summarize(rows, out)
    assert not out.exists()


# ---------------------------------------------------------------------------
# pre-canned sweeps

def test_figure_config_axes():
    bf = figure_config("figure-bf")
    assert bf.antenna_counts == (1, 2, 4)
    assert bf.tone_counts == (1,)
    wf = figure_config("figure-wf")
    assert wf.antenna_counts == (1,)
    assert wf.tone_counts == (1, 2, 4, 8)
    joint = figure_config("figure-joint")
    assert joint.antenna_counts == (1, 2, 4)
    assert joint.tone_counts == (1, 2, 4, 8)
    for cfg in (bf, wf, joint):
        assert set(cfg.strategies) == {"UP", "SMF", "LIMITED"}
        assert cfg.codebook_sizes == (2, 4, 8, 16, 32, 64)
        assert cfg.n_locations == 15


def test_figure_config_unknown_name():
    with pytest.raises(ConfigError):
        figure_config("figure-nope")


def test_figure_config_seed_override():
    assert figure_config("figure-bf", seed=5).seed == 5


@pytest.mark.parametrize("name", ["figure-bf", "figure-wf", "figure-joint"])
def test_figure_sweep_writes_the_committed_bytes(tmp_path, name):
    # the golden CSVs under out/ are the byte contract every change keeps
    run_campaign(figure_config(name), out_dir=tmp_path)
    golden = pathlib.Path(__file__).parents[1] / "out" / name
    for csv_name in ("detail.csv", "summary.csv"):
        assert (tmp_path / csv_name).read_bytes() == \
            (golden / csv_name).read_bytes(), csv_name
