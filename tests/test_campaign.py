"""Campaign harness: config parsing, CSV contracts, aggregation, determinism."""

import dataclasses
import hashlib
import itertools
import pathlib
import re

import numpy as np
import pytest

from wptsim import (ALL_LOCATIONS, CampaignConfig, ConfigError, DomainError,
                    SummaryError, ToneGrid, db_gain, figure_config,
                    load_config, make_locations, realize_channel,
                    run_campaign, summarize)
from wptsim.campaign import DETAIL_HEADER, SUMMARY_HEADER, _KEYS


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


def test_config_rejects_limited_without_codebooks():
    with pytest.raises(ConfigError):
        _mini_config(codebook_sizes=())


def test_config_rejects_training_overrun():
    with pytest.raises(ConfigError):
        _mini_config(codebook_sizes=(256,), t_s=0.010, t_frame=2.0)


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


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.ini")


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


def test_detail_rows_are_sorted(mini_run):
    _, detail, _ = mini_run
    rows = [l.split(",") for l in open(detail).read().splitlines()[1:]]
    keys = [(r[0], int(r[1]), int(r[2]), int(r[3]), r[4], int(r[5]))
            for r in rows]
    assert keys == sorted(keys)


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


def test_summary_all_rows_follow_location_means(mini_run):
    _, detail, summary = mini_run
    rows = summarize(detail)
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
    calls = {"sample_taps": [], "frequency_response": []}
    for name, original in [("sample_taps", campaign.sample_taps),
                           ("frequency_response",
                            campaign.frequency_response)]:
        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(campaign, name, counting)
    for axes in [{}, dict(antenna_counts=(1, 3, 4), tone_counts=(1, 2, 8))]:
        for made in calls.values():
            made.clear()
        cfg = _mini_config(resample_per_frame=resample, **axes)
        detail, _ = run_campaign(cfg, out_dir=tmp_path / str(len(axes)))
        # UP, SMF and both codebook sizes share every (location, fade, M, N)
        # realization, and every (M, N) shares the (location, fade) taps
        fades = cfg.frames_per_location if resample else 1
        assert len(calls["sample_taps"]) == cfg.n_locations * fades
        assert len(calls["frequency_response"]) == (
            cfg.n_locations * fades * len(cfg.antenna_counts)
            * len(cfg.tone_counts))
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
    for location in locations:
        taps = campaign._taps(cfg, location)
        for m, n in itertools.product(range(1, m_max + 1), (1, 2, 5, 16)):
            grid = ToneGrid.centered(2.4e9, 10e6, n)
            fades = campaign._fades(cfg, location, taps, m, grid)
            assert len(fades) == cfg.frames_per_location
            for frame, ch in enumerate(fades):
                alone = realize_channel(location.params, m, grid,
                                        frame=frame if resample else 0)
                assert ch.gains.tobytes() == alone.gains.tobytes()
                assert (ch.m_antennas, ch.location_label) == \
                    (m, location.label)


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


def test_sweep_book_gives_each_book_one_slice():
    from wptsim import Codebook, gen_nested, gen_random, stream, up_weights
    from wptsim.campaign import _sweep_book
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    full = gen_nested(2, grid, 2.0, 8, stream(1, 3))
    up = Codebook(k_codewords=1, entries=(up_weights(2, grid, 2.0),))
    books = {k: full.prefix(k) for k in (1, 2, 8)}
    books["UP"] = up
    book, columns = _sweep_book(books)
    assert columns == {1: slice(0, 1), 2: slice(0, 2), 8: slice(0, 8),
                       "UP": slice(8, 9)}
    assert all(a is b for a, b in zip(book.entries,
                                      full.entries + up.entries))
    assert book.k_codewords == 9
    random = {k: gen_random(2, grid, 2.0, k, stream(1, 4, k)) for k in (2, 4)}
    book, columns = _sweep_book(random)
    assert columns == {2: slice(0, 2), 4: slice(2, 6)}
    # codewords read out of order, or around another book's, form no slice
    for before, reused in (
            ({2: full.prefix(2)}, (full.entries[1], full.entries[0])),
            (random, (random[2].entries[0], random[4].entries[0]))):
        mixed = Codebook(k_codewords=2, entries=reused)
        with pytest.raises(DomainError, match="'mixed' is not contiguous"):
            _sweep_book({**before, "mixed": mixed})


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
    monkeypatch.setattr(campaign, "_fmt", lambda x: repr(float(x)))
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
                repr(float(p_dc)), repr(received_rf_power(tones)), "0", "0",
                "1", "0.0", repr(float(p_dc * cfg.t_frame))]
    assert rows == expected


# ---------------------------------------------------------------------------
# summarize as a standalone aggregation

def _write_detail(path, rows):
    with open(path, "w") as fh:
        fh.write(DETAIL_HEADER + "\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")


def _row(strategy, m, n, k, loc, frame, p_dc):
    return (strategy, m, n, k, loc, frame, f"{p_dc:.6g}", "0", "0", "0", "1",
            "0", "0")


def test_summarize_single_row_passthrough(tmp_path):
    path = tmp_path / "d.csv"
    _write_detail(path, [_row("UP", 1, 1, 0, "L1", 0, 2.5)])
    rows = summarize(path)
    values = {(r.location): r.p_dc_mean_w for r in rows}
    assert values["L1"] == pytest.approx(2.5, rel=1e-9)
    assert values[ALL_LOCATIONS] == pytest.approx(2.5, rel=1e-9)
    assert all(r.gain_db == 0.0 for r in rows)


def test_summarize_mean_of_location_means(tmp_path):
    path = tmp_path / "d.csv"
    _write_detail(path, [_row("UP", 1, 1, 0, "L1", 0, 1.0),
                         _row("UP", 1, 1, 0, "L2", 0, 3.0)])
    rows = summarize(path)
    agg = [r for r in rows if r.location == ALL_LOCATIONS][0]
    assert agg.p_dc_mean_w == pytest.approx(2.0, rel=1e-12)


def test_summarize_mean_over_frames_then_locations(tmp_path):
    path = tmp_path / "d.csv"
    # L1 frames average to 2, L2 single frame is 8: aggregate (2+8)/2 = 5,
    # not the frame-weighted 11/3
    _write_detail(path, [_row("UP", 1, 1, 0, "L1", 0, 1.0),
                         _row("UP", 1, 1, 0, "L1", 1, 3.0),
                         _row("UP", 1, 1, 0, "L2", 0, 8.0)])
    rows = summarize(path)
    agg = [r for r in rows if r.location == ALL_LOCATIONS][0]
    assert agg.p_dc_mean_w == pytest.approx(5.0, rel=1e-12)


def test_summarize_gain_against_same_location_baseline(tmp_path):
    path = tmp_path / "d.csv"
    _write_detail(path, [_row("UP", 1, 1, 0, "L1", 0, 1.0),
                         _row("SMF", 1, 1, 0, "L1", 0, 10.0)])
    rows = summarize(path)
    smf = [r for r in rows if r.strategy == "SMF" and r.location == "L1"][0]
    assert smf.gain_db == pytest.approx(10.0, rel=1e-9)


def test_summarize_order_invariance(tmp_path):
    rows = [_row("UP", 1, 1, 0, "L1", 0, 1.0),
            _row("UP", 1, 1, 0, "L2", 0, 2.0),
            _row("SMF", 1, 1, 0, "L1", 0, 4.0),
            _row("SMF", 1, 1, 0, "L2", 0, 3.0),
            _row("SMF", 1, 1, 0, "L1", 1, 6.0)]
    outputs = set()
    for perm in itertools.permutations(rows):
        path = tmp_path / "d.csv"
        _write_detail(path, perm)
        out = tmp_path / "s.csv"
        summarize(path, out)
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_summarize_missing_baseline_names_row(tmp_path):
    path = tmp_path / "d.csv"
    _write_detail(path, [_row("SMF", 1, 1, 0, "L1", 0, 1.0)])
    with pytest.raises(SummaryError, match="UP"):
        summarize(path)


def test_summarize_missing_baseline_location(tmp_path):
    path = tmp_path / "d.csv"
    _write_detail(path, [_row("UP", 1, 1, 0, "L1", 0, 1.0),
                         _row("SMF", 1, 1, 0, "L2", 0, 1.0)])
    with pytest.raises(SummaryError, match="L2"):
        summarize(path)


def test_summarize_rejects_malformed_detail(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(SummaryError):
        summarize(path)
    path.write_text(DETAIL_HEADER + "\n")
    with pytest.raises(SummaryError):
        summarize(path)
    path.write_text(DETAIL_HEADER + "\nUP,1,1,0,L1,0,abc,0,0,0,1,0,0\n")
    with pytest.raises(SummaryError):
        summarize(path)


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
