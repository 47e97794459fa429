"""Campaign runner: sweeps strategies x M x N x K over locations to CSV.

A campaign evaluates every configured sweep point (strategy, antenna count,
tone count, codebook size) at every location for a number of frames, and
writes two artifacts:

* detail CSV - one row per (sweep point, location, frame) with the
  WPT-phase dc power, RF power, selection/feedback outcome, and per-phase
  energies;
* summary CSV - per (sweep point, location) mean dc power plus one
  aggregate row per sweep point (location "ALL", mean over frames then over
  locations), each with its dB gain against the (UP, M=1, N=1) baseline at
  the same location (so every baseline row reads exactly 0 dB).

Determinism contract: all randomness is keyed by (seed, purpose, indices)
Philox streams, every sweep point draws from its own streams, and rows are
sorted by the literal tuple (strategy, M, N, K, location, frame) before
writing, so the bytes never depend on the order sweep points run in.
Floats are written with 6 significant digits ("%.6g"), gains with 4
decimals.
"""

from __future__ import annotations

import configparser
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .channel import (ChannelModelParams, ChannelRealization,
                      frequency_response, make_locations, realize_channel,
                      sample_taps)
from .codebook import Codebook, gen_nested, gen_random, train_lloyd
from .errors import ConfigError, DomainError, SummaryError
from .protocol import FrameConfig, LinkModel, run_session
from .protocol import _dc_power, _sweep
from .rectenna import AdcConfig, DiodeMomentModel, EfficiencyTableModel
from .strategies import SmfParams, smf_weights, up_weights
from .waveform import ToneGrid, effective_tones, received_rf_power

UP, SMF, LIMITED = "UP", "SMF", "LIMITED"
_STRATEGY_IDS = {UP: 0, SMF: 1, LIMITED: 2}

DETAIL_HEADER = ("strategy,M,N,K,location,frame,p_dc_w,p_rf_w,selected_k,"
                 "applied_k,feedback_ok,e_train_j,e_wpt_j")
SUMMARY_HEADER = "strategy,M,N,K,location,p_dc_mean_w,gain_db"

#: location label of the per-sweep-point aggregate summary row
ALL_LOCATIONS = "ALL"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; see README for the config file schema."""

    strategies: tuple = (UP, SMF, LIMITED)
    antenna_counts: tuple = (1, 2, 4)
    tone_counts: tuple = (1, 2, 4, 8)
    codebook_sizes: tuple = (2, 4, 8, 16, 32, 64)
    n_locations: int = 15
    frames_per_location: int = 3
    seed: int = 20260818
    transmit_power_w: float = 2.0
    center_frequency_hz: float = 2.4e9
    bandwidth_hz: float = 10e6
    n_taps: int = 8
    tap_spacing_s: float = 100e-9
    pdp_decay: float = 0.7
    pathloss_db_min: float = 55.0
    pathloss_db_max: float = 70.0
    resample_per_frame: bool = True
    rectifier_model: str = "moment"     # "moment" or "table"
    k2: float = 0.17
    k4: float = 19.1
    alpha: float = 1.0
    table_path: str = ""
    adc_enabled: bool = False
    adc_resolution_bits: int = 12
    adc_v_ref: float = 3.3
    adc_noise_sigma: float = 0.0
    adc_load_resistance: float = 5000.0
    link_delivery_probability: float = 1.0
    t_s: float = 0.010
    t_frame: float = 2.0
    codebook_method: str = "nested"     # "nested", "random", or "lloyd"
    training_channels: int = 1000
    training_iters: int = 30
    output_dir: str = "out"

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("strategies axis is empty")
        object.__setattr__(self, "strategies",
                           tuple(sorted(set(self.strategies))))
        for s in self.strategies:
            if s not in _STRATEGY_IDS:
                raise ConfigError(f"unknown strategy {s!r}")
        for name in ("antenna_counts", "tone_counts"):
            axis = tuple(sorted(set(getattr(self, name))))
            if not axis or any(v < 1 for v in axis):
                raise ConfigError(f"{name} must be a non-empty set of ints >= 1")
            object.__setattr__(self, name, axis)
        object.__setattr__(self, "codebook_sizes",
                           tuple(sorted(set(self.codebook_sizes))))
        if LIMITED in self.strategies:
            if not self.codebook_sizes:
                raise ConfigError("LIMITED strategy needs codebook_sizes")
            if any(k < 1 for k in self.codebook_sizes):
                raise ConfigError("codebook_sizes must be >= 1")
            if self.codebook_method == "nested" and any(
                    k & (k - 1) for k in self.codebook_sizes):
                raise ConfigError(
                    "nested codebooks require power-of-two sizes")
            if not max(self.codebook_sizes) * self.t_s < self.t_frame:
                raise ConfigError(
                    f"K*t_s must stay below t_frame, got K="
                    f"{max(self.codebook_sizes)}, t_s={self.t_s}, "
                    f"t_frame={self.t_frame}")
            # LinkModel and AdcConfig own their value checks; building them
            # here makes a bad setting fail at load, not mid-run
            try:
                self.link_model()
                self.adc_config()
            except DomainError as exc:
                raise ConfigError(f"invalid link or adc setting: {exc}") \
                    from exc
        if self.n_locations < 1 or self.frames_per_location < 1:
            raise ConfigError("need at least one location and one frame")
        if self.rectifier_model not in ("moment", "table"):
            raise ConfigError(f"unknown rectifier model {self.rectifier_model!r}")
        if self.rectifier_model == "table" and not self.table_path:
            raise ConfigError("table rectifier needs table_path")
        if self.codebook_method not in ("nested", "random", "lloyd"):
            raise ConfigError(f"unknown codebook method {self.codebook_method!r}")
        if self.pathloss_db_max < self.pathloss_db_min:
            raise ConfigError("empty pathloss range")

    def link_model(self) -> LinkModel:
        """The feedback link of the LIMITED sessions."""
        return LinkModel(delivery_probability=self.link_delivery_probability)

    def adc_config(self) -> AdcConfig | None:
        """The LIMITED sessions' measurement path; None when disabled."""
        if not self.adc_enabled:
            return None
        return AdcConfig(resolution_bits=self.adc_resolution_bits,
                         v_ref=self.adc_v_ref,
                         noise_sigma=self.adc_noise_sigma,
                         load_resistance=self.adc_load_resistance)

    @property
    def channel_template(self) -> ChannelModelParams:
        return ChannelModelParams(n_taps=self.n_taps,
                                  tap_spacing_s=self.tap_spacing_s,
                                  pdp_decay=self.pdp_decay,
                                  pathloss_db=self.pathloss_db_min,
                                  seed=0)


@dataclass(frozen=True)
class SummaryRow:
    """One summary line: per-location or ALL-aggregate mean and gain."""

    strategy: str
    m_antennas: int
    n_tones: int
    k_codewords: int
    location: str
    p_dc_mean_w: float
    gain_db: float


# ---------------------------------------------------------------------------
# config file parsing (INI sections; unknown keys are errors)

def _str_list(raw):
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _int_list(raw):
    return tuple(int(x) for x in _str_list(raw))


def _boolean(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: every config file key: (section, key) -> (CampaignConfig field, parser)
_KEYS = {
    ("campaign", "strategies"): ("strategies", _str_list),
    ("campaign", "antenna_counts"): ("antenna_counts", _int_list),
    ("campaign", "tone_counts"): ("tone_counts", _int_list),
    ("campaign", "codebook_sizes"): ("codebook_sizes", _int_list),
    ("campaign", "frames_per_location"): ("frames_per_location", int),
    ("campaign", "seed"): ("seed", int),
    ("grid", "center_frequency_hz"): ("center_frequency_hz", float),
    ("grid", "bandwidth_hz"): ("bandwidth_hz", float),
    ("power", "transmit_power_w"): ("transmit_power_w", float),
    ("channel", "n_taps"): ("n_taps", int),
    ("channel", "tap_spacing_s"): ("tap_spacing_s", float),
    ("channel", "pdp_decay"): ("pdp_decay", float),
    ("channel", "n_locations"): ("n_locations", int),
    ("channel", "pathloss_db_min"): ("pathloss_db_min", float),
    ("channel", "pathloss_db_max"): ("pathloss_db_max", float),
    ("channel", "resample_per_frame"): ("resample_per_frame", _boolean),
    ("rectifier", "model"): ("rectifier_model", str.strip),
    ("rectifier", "k2"): ("k2", float),
    ("rectifier", "k4"): ("k4", float),
    ("rectifier", "alpha"): ("alpha", float),
    ("rectifier", "table_path"): ("table_path", str.strip),
    ("adc", "enabled"): ("adc_enabled", _boolean),
    ("adc", "resolution_bits"): ("adc_resolution_bits", int),
    ("adc", "v_ref_v"): ("adc_v_ref", float),
    ("adc", "noise_sigma_v"): ("adc_noise_sigma", float),
    ("adc", "load_resistance_ohm"): ("adc_load_resistance", float),
    ("link", "delivery_probability"): ("link_delivery_probability", float),
    ("frame", "t_s_s"): ("t_s", float),
    ("frame", "t_frame_s"): ("t_frame", float),
    ("codebook", "method"): ("codebook_method", str.strip),
    ("codebook", "training_channels"): ("training_channels", int),
    ("codebook", "training_iters"): ("training_iters", int),
    ("output", "dir"): ("output_dir", str.strip),
}


def load_config(path) -> CampaignConfig:
    """Parse the sectioned key-value config file into a CampaignConfig.

    Keys left out keep the CampaignConfig default.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # configparser hides [DEFAULT] from sections() and copies its keys into
    # every other section
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    sections = {section for section, _ in _KEYS}
    kwargs = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            field, parse = _KEYS[(section, key)]
            try:
                kwargs[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for [{section}] {key} = {raw!r}: "
                    f"{exc}") from exc
    try:
        return CampaignConfig(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# execution

def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _rect_model(config: CampaignConfig):
    if config.rectifier_model == "moment":
        return DiodeMomentModel(k2=config.k2, k4=config.k4, alpha=config.alpha)
    return EfficiencyTableModel.from_csv(config.table_path)


def _books(config: CampaignConfig, rect_model, m: int,
           grid: ToneGrid) -> dict:
    """The (M, N) codebook for every swept K, keyed deterministically by seed.

    Lloyd books train on channels drawn from the campaign's channel family
    at the midpoint of its pathloss range.
    """
    n, power = grid.n_tones, config.transmit_power_w
    if config.codebook_method == "nested":
        full = gen_nested(m, grid, power, max(config.codebook_sizes),
                          rngmod.stream(config.seed, rngmod.CODEBOOK, m, n))
        return {k: full.prefix(k) for k in config.codebook_sizes}
    if config.codebook_method == "random":
        return {k: gen_random(m, grid, power, k, rngmod.stream(
                    config.seed, rngmod.CODEBOOK, m, n, k))
                for k in config.codebook_sizes}
    params = replace(
        config.channel_template,
        pathloss_db=0.5 * (config.pathloss_db_min + config.pathloss_db_max),
        seed=rngmod.derive_seed(config.seed, rngmod.TRAINING, m, n))
    training = [realize_channel(params, m, grid, frame=i)
                for i in range(config.training_channels)]
    return {k: train_lloyd(training, k, rect_model,
                           iters=config.training_iters,
                           rng=rngmod.stream(config.seed, rngmod.TRAINING,
                                             m, n, k),
                           power=power)
            for k in config.codebook_sizes}


def _sweep_book(books: dict) -> tuple[Codebook, dict]:
    """One book of the distinct codewords of all books, and each K's columns.

    Codewords are told apart by object identity and appended in order, so
    every book's columns are one slice of the sweep book.  The prefixes of
    a nested book share its entries, so its sweep book is the K_max book
    and K reads columns 0..K-1; random and Lloyd books, and UP's one-entry
    book, are concatenated.

    Raises:
        DomainError: a book's codewords are not contiguous columns.
    """
    entries, column, columns = [], {}, {}
    for key, book in books.items():
        for e in book.entries:
            if id(e) not in column:
                column[id(e)] = len(entries)
                entries.append(e)
        start = column[id(book.entries[0])]
        if [column[id(e)] for e in book.entries] != list(
                range(start, start + book.k_codewords)):
            raise DomainError(f"book {key!r} is not contiguous in the "
                              f"sweep book")
        columns[key] = slice(start, start + book.k_codewords)
    return (Codebook(k_codewords=len(entries), entries=tuple(entries)),
            columns)


def _columns(swept: list, cols: slice) -> list:
    """Each frame's sweep of one book, read from the sweep book's sweep."""
    return [(dcs[cols], p_rfs[cols]) for dcs, p_rfs in swept]


def _taps(config: CampaignConfig, location) -> list:
    """A location's tap draws at the largest antenna count, one per fade.

    ``sample_taps`` draws antenna rows in order from one stream, so the
    m-antenna taps are the first m rows of the draw and a smaller array
    sees a subset of the same physical channel.  Under block fading one
    draw serves every frame.
    """
    draws = config.frames_per_location if config.resample_per_frame else 1
    return [sample_taps(location.params, max(config.antenna_counts),
                        rngmod.stream(location.params.seed, rngmod.TAPS,
                                      fade))
            for fade in range(draws)]


def _fades(config: CampaignConfig, location, taps: list, m: int,
           grid: ToneGrid) -> list:
    """The channel of every frame at a location; all sweep points share it.

    The first m rows of each draw give the same bits as realize_channel's
    own m-antenna draw.  Under block fading one realization serves every
    frame.
    """
    fades = [ChannelRealization(
                 m_antennas=m, grid=grid,
                 gains=frequency_response(t[:m], location.params, grid),
                 location_label=location.label)
             for t in taps]
    if config.resample_per_frame:
        return fades
    return fades * config.frames_per_location


def run_campaign(config: CampaignConfig, out_dir=None,
                 jobs: int = 1) -> tuple[str, str]:
    """Execute the campaign and write detail.csv and summary.csv.

    Args:
        config: campaign description.
        out_dir: output directory; defaults to config.output_dir.
        jobs: must be 1.  The campaign runs in the calling thread; the
            keyword stays only until the benchmark in
            ``perfbench/workloads.py`` stops passing ``jobs=1``.

    Returns:
        (detail_path, summary_path).

    Raises:
        DomainError: jobs is not 1.
        ConfigError: the ADC is on and reads 0 V for every LIMITED training
            measurement, so every frame would pick codeword 1.  No CSV is
            written then.
    """
    if jobs != 1:
        raise DomainError(f"run_campaign runs in one thread; jobs must be 1, "
                          f"got {jobs!r}")
    out = str(out_dir) if out_dir is not None else config.output_dir
    os.makedirs(out, exist_ok=True)
    probe = os.path.join(out, ".write_probe")
    try:
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {out!r} is not writable: {exc}")

    rect_model = _rect_model(config)
    locations = make_locations(config.n_locations, config.seed,
                               config.channel_template,
                               (config.pathloss_db_min, config.pathloss_db_max))
    smf_params = SmfParams(beta=3.0, power_budget=config.transmit_power_w)
    taps = [_taps(config, location) for location in locations]
    if LIMITED in config.strategies:
        # every LIMITED session of one K shares its frame timing, and all
        # share one link and one ADC
        frame_cfgs = {k: FrameConfig(k_codewords=k, t_s=config.t_s,
                                     t_frame=config.t_frame)
                      for k in config.codebook_sizes}
        link, adc = config.link_model(), config.adc_config()
    adc_reads_signal = False
    rows = []
    for m, n in itertools.product(config.antenna_counts, config.tone_counts):
        grid = ToneGrid.centered(config.center_frequency_hz,
                                 config.bandwidth_hz, n)
        books = (_books(config, rect_model, m, grid)
                 if LIMITED in config.strategies else {})
        # UP is one more codeword of the location's sweep, in a book of its
        # own
        swept_books = dict(books)
        if UP in config.strategies:
            swept_books[UP] = Codebook(k_codewords=1, entries=(
                up_weights(m, grid, config.transmit_power_w),))
        if swept_books:
            sweep_book, columns = _sweep_book(swept_books)
        for loc_idx, location in enumerate(locations):
            fades = _fades(config, location, taps[loc_idx], m, grid)
            if swept_books:
                # one sweep of every distinct codeword; a column equals
                # that codeword's sweep in its own book to the last bit
                swept = _sweep(sweep_book, fades, rect_model)
            for strategy in config.strategies:
                if strategy == LIMITED:
                    for k, book in books.items():
                        gen = rngmod.stream(config.seed, rngmod.SESSION,
                                            _STRATEGY_IDS[LIMITED], m, n, k,
                                            loc_idx)
                        for r in run_session(frame_cfgs[k], book,
                                             fades.__getitem__, rect_model,
                                             adc, link,
                                             config.frames_per_location, gen,
                                             _columns(swept, columns[k])):
                            adc_reads_signal |= any(r.measurements)
                            rows.append((LIMITED, m, n, k, location.label,
                                         r.frame_id, r.p_dc_wpt, r.p_rf_wpt,
                                         r.selected_index, r.applied_index,
                                         int(r.feedback_delivered),
                                         r.energy_training, r.energy_wpt))
                    continue
                if strategy == UP:
                    up = columns[UP].start
                    powers = [(dcs[up], p_rfs[up]) for dcs, p_rfs in swept]
                else:
                    powers = []
                    for ch in fades:
                        tones = effective_tones(ch, smf_weights(ch, smf_params))
                        powers.append((_dc_power(rect_model, tones, grid),
                                       received_rf_power(tones)))
                for frame, (p_dc, p_rf) in enumerate(powers):
                    rows.append((strategy, m, n, 0, location.label, frame,
                                 p_dc, p_rf, 0, 0, 1, 0.0,
                                 p_dc * config.t_frame))
    if config.adc_enabled and LIMITED in config.strategies \
            and not adc_reads_signal:
        raise ConfigError(
            f"every LIMITED training reading is 0 V: the "
            f"{config.adc_resolution_bits}-bit ADC (v_ref {config.adc_v_ref} "
            f"V, load {config.adc_load_resistance} ohm) resolves none of the "
            f"harvested dc levels, so every frame would select codeword 1")
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5]))

    detail_path = os.path.join(out, "detail.csv")
    with open(detail_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(DETAIL_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r[0], str(r[1]), str(r[2]), str(r[3]), r[4],
                               str(r[5]), _fmt(r[6]), _fmt(r[7]), str(r[8]),
                               str(r[9]), str(r[10]), _fmt(r[11]),
                               _fmt(r[12])]) + "\n")

    summary_path = os.path.join(out, "summary.csv")
    summarize(detail_path, summary_path)
    return detail_path, summary_path


# ---------------------------------------------------------------------------
# aggregation

def db_gain(p: float, p_ref: float) -> float:
    """10*log10(p/p_ref); both arguments must be positive."""
    if not p > 0 or not p_ref > 0:
        raise DomainError(f"db_gain needs positive powers, got {p}, {p_ref}")
    return 10.0 * float(np.log10(p / p_ref))


def summarize(detail_path, out_path=None) -> list[SummaryRow]:
    """Aggregate a detail CSV into summary rows (and optionally a file).

    Per (strategy, M, N, K, location): mean dc power over frames.  Per
    (strategy, M, N, K): the ALL row, mean of the location means.  Gains
    are taken against the (UP, M=1, N=1) mean at the same location (or the
    ALL baseline for ALL rows), so baseline rows are exactly 0 dB.  Rows
    are sorted lexicographically; means are accumulated in sorted row
    order, making the output independent of input row order.
    """
    with open(detail_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DETAIL_HEADER:
        raise SummaryError(f"{detail_path}: missing or wrong detail header")
    parsed = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 13:
            raise SummaryError(f"{detail_path}:{lineno}: expected 13 fields")
        try:
            parsed.append((parts[0], int(parts[1]), int(parts[2]),
                           int(parts[3]), parts[4], int(parts[5]),
                           float(parts[6])))
        except ValueError as exc:
            raise SummaryError(f"{detail_path}:{lineno}: {exc}") from exc
    if not parsed:
        raise SummaryError(f"{detail_path}: no data rows")
    parsed.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4], r[5]))

    loc_means: dict = {}
    for row in parsed:
        key = row[:5]
        acc = loc_means.setdefault(key, [0.0, 0])
        acc[0] += row[6]
        acc[1] += 1
    loc_mean = {key: acc[0] / acc[1] for key, acc in loc_means.items()}

    point_means: dict = {}
    for key in sorted(loc_mean):
        point = key[:4]
        acc = point_means.setdefault(point, [0.0, 0])
        acc[0] += loc_mean[key]
        acc[1] += 1
    point_mean = {p: acc[0] / acc[1] for p, acc in point_means.items()}

    baseline_point = (UP, 1, 1, 0)
    if baseline_point not in point_mean:
        raise SummaryError(
            "missing baseline rows (strategy=UP, M=1, N=1, K=0)")

    rows = []
    for key in sorted(loc_mean):
        strategy, m, n, k, location = key
        base_key = baseline_point + (location,)
        if base_key not in loc_mean:
            raise SummaryError(
                f"missing baseline row (strategy=UP, M=1, N=1, K=0, "
                f"location={location})")
        rows.append(SummaryRow(strategy, m, n, k, location, loc_mean[key],
                               db_gain(loc_mean[key], loc_mean[base_key])))
    for point in sorted(point_mean):
        strategy, m, n, k = point
        rows.append(SummaryRow(strategy, m, n, k, ALL_LOCATIONS,
                               point_mean[point],
                               db_gain(point_mean[point],
                                       point_mean[baseline_point])))
    rows.sort(key=lambda r: (r.strategy, r.m_antennas, r.n_tones,
                             r.k_codewords, r.location))

    if out_path is not None:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for r in rows:
                fh.write(f"{r.strategy},{r.m_antennas},{r.n_tones},"
                         f"{r.k_codewords},{r.location},{_fmt(r.p_dc_mean_w)},"
                         f"{r.gain_db:.4f}\n")
    return rows


# ---------------------------------------------------------------------------
# pre-canned sweeps

def figure_config(name: str, seed: int | None = None) -> CampaignConfig:
    """Pre-canned campaign configs for the three standard sweeps.

    figure-bf: dc power vs antenna count (M in {1,2,4}, N=1).
    figure-wf: dc power vs tone count (M=1, N in {1,2,4,8}).
    figure-joint: the full M x N product (M in {1,2,4}, N in {1,2,4,8};
    M=1, N=1 doubles as the gain baseline).

    All three use 15 locations with pathloss uniform in [55, 70] dB (an
    assumption, not a measured geometry) and nested codebooks swept over
    K in {2,...,64}.
    """
    axes = {
        "figure-bf": ((1, 2, 4), (1,)),
        "figure-wf": ((1,), (1, 2, 4, 8)),
        "figure-joint": ((1, 2, 4), (1, 2, 4, 8)),
    }
    if name not in axes:
        raise ConfigError(f"unknown sweep {name!r}; "
                          f"expected one of {sorted(axes)}")
    antennas, tones = axes[name]
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    return CampaignConfig(strategies=(UP, SMF, LIMITED),
                          antenna_counts=antennas, tone_counts=tones,
                          codebook_sizes=(2, 4, 8, 16, 32, 64),
                          output_dir=os.path.join("out", name), **kwargs)
