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

Every location's taps are drawn once, at the largest antenna count
(_taps).  At each (M, N) point one frequency_response call turns their
first M rows into one (locations, draws, M, N) stack of every location's
fades (_point_channels).  The point's book holds each swept codeword
once, UP's codeword in column 0: a nested K_max book starts with UP's
codeword, so it is the sweep book as it stands, and K's book is its
first K columns; random and Lloyd books follow UP in K order (_books).
The books are those of codebooks(), which ``wptsim codebook`` writes to
file, and a nested campaign builds only the K_max one.  The book is
swept once per fade draw, over every location's channel of that draw
(_point_sweep), so no channel is swept twice and UP's codeword is rated
once per channel: the UP rows read column 0, and so does a LIMITED frame
that falls back to UP, since each K's sessions get UP's column ahead of
their own.  SMF is rated once per point, on the same stack: one call
each of smf_weights, effective_tones, the rectifier and
received_rf_power, each row equal to its channel's own call to the bit.
LIMITED runs one run_session call per (M, N, K) point on the columns of
the point's sweep that K reads; its batch axis is the locations'
sessions, each on its own stream, and its reports equal those of every
session run on its own.

Each sweep point's detail rows are one block of (locations, frames)
columns (_detail_rows).  The blocks are sorted by (strategy, M, N, K).
The locations are sorted into label order (L1, L10, ..., L15, L2, ...)
once, before their taps are drawn, so every block is built with its
locations in that order; frames run in order.  So the rows, read
block by block, are sorted by the literal tuple (strategy, M, N, K,
location, frame) without sorting a row.  Each p_dc is formatted once.
The summary is written first, from the blocks: each block is its point's
per-location groups of those values read back, as summarize groups its
sorted rows, and one aggregation serves both (_summarize).  Then the
detail file is written, one join and one write per block.

Determinism contract: all randomness is keyed by (seed, purpose, indices)
Philox streams, every sweep point draws from its own streams, and rows are
written in that sorted order, so the bytes never depend on the order sweep
points run in.  Every float field is written through one %-template
format, _FLOAT ("%.6g": 6 significant digits, the bytes of
format(x, ".6g")), gains with 4 decimals.
"""

from __future__ import annotations

import bisect
import configparser
import contextlib
import itertools
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .channel import (ChannelModelParams, ChannelRealization,
                      frequency_response, make_locations, realize_channel,
                      sample_taps)
from .codebook import Codebook, gen_nested, gen_random, train_lloyd
from .errors import ConfigError, DomainError, SummaryError, check_count
from .protocol import FrameConfig, LinkModel, run_session, session_draws
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
    n_taps: int = ChannelModelParams.n_taps
    tap_spacing_s: float = ChannelModelParams.tap_spacing_s
    pdp_decay: float = ChannelModelParams.pdp_decay
    pathloss_db_min: float = 55.0
    pathloss_db_max: float = 70.0
    resample_per_frame: bool = True
    rectifier_model: str = "moment"     # "moment" or "table"
    k2: float = DiodeMomentModel.k2
    k4: float = DiodeMomentModel.k4
    alpha: float = DiodeMomentModel.alpha
    table_path: str = ""
    adc_enabled: bool = False
    adc_resolution_bits: int = AdcConfig.resolution_bits
    adc_v_ref: float = AdcConfig.v_ref
    adc_noise_sigma: float = AdcConfig.noise_sigma
    adc_load_resistance: float = AdcConfig.load_resistance
    link_delivery_probability: float = LinkModel.delivery_probability
    t_s: float = FrameConfig.t_s
    t_frame: float = FrameConfig.t_frame
    codebook_method: str = "nested"     # "nested", "random", or "lloyd"
    training_channels: int = 1000
    training_iters: int = 30
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "strategies",
                           tuple(sorted(set(self.strategies))))
        for s in self.strategies:
            if s not in _STRATEGY_IDS:
                raise ConfigError(f"unknown strategy {s!r}")
        # each count field normalized to an int, each axis to a sorted set
        try:
            for name in ("antenna_counts", "tone_counts", "codebook_sizes"):
                object.__setattr__(self, name, tuple(sorted(
                    {check_count(name, v) for v in getattr(self, name)})))
            for name, low in (("n_locations", 1), ("frames_per_location", 1),
                              ("seed", 0), ("training_channels", 0),
                              ("training_iters", 0)):
                object.__setattr__(self, name,
                                   check_count(name, getattr(self, name), low))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if not (self.strategies and self.antenna_counts and self.tone_counts):
            raise ConfigError(
                "strategies, antenna_counts or tone_counts axis is empty")
        if self.rectifier_model not in ("moment", "table"):
            raise ConfigError(f"unknown rectifier model {self.rectifier_model!r}")
        if self.rectifier_model == "table" and not self.table_path:
            raise ConfigError("table rectifier needs table_path")
        if self.codebook_method not in ("nested", "random", "lloyd"):
            raise ConfigError(f"unknown codebook method {self.codebook_method!r}")
        if LIMITED in self.strategies:
            if not self.codebook_sizes:
                raise ConfigError("LIMITED strategy needs codebook_sizes")
            if self.codebook_method == "nested" and any(
                    k & (k - 1) for k in self.codebook_sizes):
                raise ConfigError(
                    f"each nested codebook size must be a power of two, got "
                    f"{self.codebook_sizes}")
            if self.codebook_method == "lloyd" and not (
                    self.rectifier_model == "moment"
                    and self.training_iters >= 1
                    and self.training_channels >= max(self.codebook_sizes)):
                raise ConfigError(
                    "lloyd codebooks need the moment rectifier, "
                    "training_iters >= 1 and training_channels >= the "
                    "largest codebook size")
        if self.pathloss_db_max < self.pathloss_db_min:
            raise ConfigError(f"pathloss_db_max {self.pathloss_db_max} < "
                              f"pathloss_db_min {self.pathloss_db_min}")
        # an N-tone grid's lowest tone lies B*(N-1)/(2N) below the carrier,
        # which nears B/2 as N grows
        if not self.center_frequency_hz > self.bandwidth_hz / 2:
            raise ConfigError(
                f"[grid] center_frequency_hz = {self.center_frequency_hz!r} "
                f"must exceed half of [grid] bandwidth_hz = "
                f"{self.bandwidth_hz!r}, or a tone lies at or below 0 Hz")
        # The parts a campaign builds own their value checks; building them
        # here makes a bad setting fail at load, not mid-run.  Every
        # strategy's WPT energy reads t_frame; only LIMITED sessions train
        # and feed back.
        try:
            if self.rectifier_model == "moment":
                _rect_model(self)
            for pathloss_db in (self.pathloss_db_min, self.pathloss_db_max):
                replace(self.channel_template, pathloss_db=pathloss_db)
            self.tone_grid(max(self.tone_counts))
            SmfParams(power_budget=self.transmit_power_w)
            timing = self.frame_config()
            if LIMITED in self.strategies:
                timing.t_p(max(self.codebook_sizes))
                self.link_model()
                self.adc_config()
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"invalid rectifier, channel, grid, power, "
                              f"frame, link or adc setting: {exc}") from exc

    def tone_grid(self, n_tones: int) -> ToneGrid:
        """The N-tone grid centered on the carrier."""
        return ToneGrid.centered(self.center_frequency_hz, self.bandwidth_hz,
                                 n_tones)

    def frame_config(self) -> FrameConfig:
        """The frame timing: every strategy's t_frame, LIMITED's t_s."""
        return FrameConfig(t_s=self.t_s, t_frame=self.t_frame)

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


#: every config file key: (section, key) -> (CampaignConfig field, parser);
#: a bool field parses by configparser's getboolean
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
    ("channel", "resample_per_frame"): ("resample_per_frame", bool),
    ("rectifier", "model"): ("rectifier_model", str.strip),
    ("rectifier", "k2"): ("k2", float),
    ("rectifier", "k4"): ("k4", float),
    ("rectifier", "alpha"): ("alpha", float),
    ("rectifier", "table_path"): ("table_path", str.strip),
    ("adc", "enabled"): ("adc_enabled", bool),
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

    Keys left out keep the CampaignConfig default.  Every ConfigError
    names the file: a value its parser or CampaignConfig rejects alike.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
                kwargs[field] = (parser.getboolean(section, key)
                                 if parse is bool else parse(raw))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for [{section}] {key} = {raw!r}: "
                    f"{exc}") from exc
    try:
        return CampaignConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# execution

#: the %-format of every float field of both CSVs, save the summary's gain
_FLOAT = "%.6g"


def _rect_model(config: CampaignConfig):
    if config.rectifier_model == "moment":
        return DiodeMomentModel(k2=config.k2, k4=config.k4, alpha=config.alpha)
    try:
        return EfficiencyTableModel.from_csv(config.table_path)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"[rectifier] table_path = {config.table_path!r}: "
                          f"{exc}") from exc


def _nested_book(config: CampaignConfig, m: int, grid: ToneGrid) -> Codebook:
    """The nested family's K_max book, drawn from (seed, CODEBOOK, M, N)."""
    return gen_nested(m, grid, config.transmit_power_w,
                      max(config.codebook_sizes), rngmod.stream(
                          config.seed, rngmod.CODEBOOK, m, grid.n_tones))


def codebooks(config: CampaignConfig, m: int, grid: ToneGrid) -> dict:
    """Each of the config's codebook sizes K mapped to its M-antenna book.

    A nested family is one K_max book (_nested_book) whose first K rows
    are K's book; a random book draws from (seed, CODEBOOK, M, N, K); a
    Lloyd book starts from (seed, TRAINING, M, N, K) and trains on the
    campaign's channel family at the midpoint of its pathloss range.  So
    K's book does not depend on the other sizes.
    """
    n, power, sizes = grid.n_tones, config.transmit_power_w, \
        config.codebook_sizes
    if config.codebook_method == "nested":
        full = _nested_book(config, m, grid)
        return {k: full.prefix(k) if k < full.k_codewords else full
                for k in sizes}
    if config.codebook_method == "random":
        return {k: gen_random(m, grid, power, k, rngmod.stream(
                    config.seed, rngmod.CODEBOOK, m, n, k))
                for k in sizes}
    params = replace(
        config.channel_template,
        pathloss_db=0.5 * (config.pathloss_db_min + config.pathloss_db_max),
        seed=rngmod.derive_seed(config.seed, rngmod.TRAINING, m, n))
    training = [realize_channel(params, m, grid, frame=i)
                for i in range(config.training_channels)]
    return {k: train_lloyd(training, k, _rect_model(config),
                           iters=config.training_iters,
                           rng=rngmod.stream(config.seed, rngmod.TRAINING,
                                             m, n, k),
                           power=power)
            for k in sizes}


def _books(config: CampaignConfig, m: int,
           grid: ToneGrid) -> tuple[Codebook, dict]:
    """The (M, N) point's sweep book and the columns each swept K reads.

    The sweep book holds every codeword the point sweeps once, and UP's
    codeword, which every campaign sweeps for its gain baseline and every
    LIMITED session falls back to, is column 0.  A nested family sweeps
    its K_max book, whose row 0 is UP's codeword byte for byte, and K's
    book is its columns 0..K-1; random and Lloyd books follow UP in K
    order.

    Returns:
        (sweep, takes): takes maps each K, when LIMITED is swept, to the
        index array of its sessions' sweep columns, UP's column 0 and then
        its book's K columns.
    """
    power, sizes = config.transmit_power_w, config.codebook_sizes
    if LIMITED not in config.strategies:
        return Codebook(up_weights(m, grid, power).weights[None], power), {}
    if config.codebook_method == "nested":
        return _nested_book(config, m, grid), {k: np.r_[0, :k] for k in sizes}
    starts = itertools.accumulate(sizes, initial=1)
    words = [up_weights(m, grid, power).weights[None]] + [
        book.weights for book in codebooks(config, m, grid).values()]
    return Codebook(np.concatenate(words), power), {
        k: np.r_[0, start:start + k] for k, start in zip(sizes, starts)}


def _taps(config: CampaignConfig, locations) -> np.ndarray:
    """Every location's tap draws at the largest antenna count.

    Returns an (S, D, M_max, L) array: location s's draw d, one draw per
    fade.  ``sample_taps`` draws antenna rows in order from one stream,
    so the m-antenna taps are the first m rows of the draw and a smaller
    array sees a subset of the same physical channel.  Under block fading
    one draw (D = 1) serves every frame.
    """
    draws = config.frames_per_location if config.resample_per_frame else 1
    return np.stack([[sample_taps(location.params,
                                  max(config.antenna_counts),
                                  rngmod.stream(location.params.seed,
                                                rngmod.TAPS, fade))
                      for fade in range(draws)] for location in locations])


def _point_channels(config: CampaignConfig, taps: np.ndarray, m: int,
                    grid: ToneGrid) -> ChannelRealization:
    """An (M, N) point's channels, from one frequency_response call.

    The call takes the first m rows of every draw in taps (from _taps)
    and gives each draw the bits of realize_channel's own m-antenna draw.
    Every location's tap profile has the template's n_taps and spacing;
    only its pathloss, already in the taps, differs.

    Returns:
        The stack of every draw's gains, (S, D, m, N): location s's draw d
        in row [s, d].
    """
    return ChannelRealization(grid=grid, gains=frequency_response(
        taps[:, :, :m], config.channel_template, grid))


def _point_sweep(book: Codebook, stack: ChannelRealization, frames: int,
                 rect_model) -> tuple:
    """Every location's sweep of book: two (locations, frames, K) arrays.

    One _sweep call per fade draw d covers every location's channel of
    that draw, stack.gains[:, d]; a frame reads its draw's row, so under
    block fading (one draw) one call serves every frame.  Per draw and
    not once over all draws, to bound the sweep's temporaries: on
    figure-joint's M=4, N=8 point (64 codewords, UP's the first; 15
    locations x 3 draws) one draw's call peaks at 0.73 MB under
    tracemalloc, one call over all 45 channels at 2.14 MB.
    """
    locations, draws = stack.gains.shape[:2]
    return tuple(np.broadcast_to(np.stack(powers, axis=1),
                                 (locations, frames, book.k_codewords))
                 for powers in zip(*(
                     _sweep(book, ChannelRealization(
                         grid=stack.grid, gains=stack.gains[:, d]),
                         rect_model)
                     for d in range(draws))))


def _make_dirs(out: str) -> list:
    """Create the directory out and its missing parents.

    Returns:
        The directories this call created, deepest first.
    """
    made, path = [], os.path.abspath(out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out, exist_ok=True)
    return made


def _detail_rows(config: CampaignConfig, rect_model) -> tuple[tuple, list]:
    """Every detail row of the campaign, one block per sweep point.

    A block is ((strategy, M, N, K), columns): the point's p_dc, p_rf,
    selected, applied, feedback_ok, e_train and e_wpt, each a (locations,
    frames) array whose rows follow the locations' label order, into which
    they are sorted before anything is built.  UP and SMF share constant
    selection, feedback and training columns (e_train a float column,
    written as every float is), and their e_wpt is p_dc * t_frame.  The
    blocks are sorted by their point, so their rows, read in order, are
    sorted by (strategy, M, N, K, location, frame).

    Returns:
        (index, blocks): index is (labels, frames), each line's location
        label and frame within a block, in line order.

    Raises:
        ConfigError: the ADC is on and reads 0 V for every LIMITED training
            measurement of some (M, N, K) point; the first such point is
            named.
    """
    locations = make_locations(config.n_locations, config.seed,
                               config.channel_template,
                               (config.pathloss_db_min, config.pathloss_db_max))
    # every array is built in the locations' label order; a location's
    # session stream stays keyed by its index
    order = sorted(range(len(locations)), key=lambda s: locations[s].label)
    locations = [locations[s] for s in order]
    smf_params = SmfParams(power_budget=config.transmit_power_w)
    taps = _taps(config, locations)
    frames = config.frames_per_location
    index = ([location.label for location in locations
              for _ in range(frames)], list(range(frames)) * len(locations))
    shape = (len(locations), frames)
    constant = (np.zeros(shape, int), np.zeros(shape, int),
                np.ones(shape, int), np.zeros(shape))
    if LIMITED in config.strategies:
        # every LIMITED session shares one frame timing, link and ADC; a
        # session that cannot draw gets no stream
        timing = config.frame_config()
        link, adc = config.link_model(), config.adc_config()
        draws = session_draws(link, adc)
    blocks = []
    for m, n in itertools.product(config.antenna_counts, config.tone_counts):
        grid = config.tone_grid(n)
        sweep, takes = _books(config, m, grid)
        stack = _point_channels(config, taps, m, grid)
        # a column equals that codeword's sweep in its own book to the
        # last bit
        dcs, p_rfs = _point_sweep(sweep, stack, frames, rect_model)
        # UP's codeword is the sweep book's column 0, copied so the block
        # does not keep the point's sweep alive
        fixed = {UP: (dcs[..., 0].copy(), p_rfs[..., 0].copy())}
        if SMF in config.strategies:
            # every location's draws in one stack; a row equals that
            # channel's own SMF evaluation to the last bit
            tones = effective_tones(stack, smf_weights(stack, smf_params))
            fixed[SMF] = tuple(
                np.broadcast_to(x, shape)
                for x in (_dc_power(rect_model, tones, grid),
                          received_rf_power(tones)))
        for strategy, (p_dc, p_rf) in fixed.items():
            blocks.append(((strategy, m, n, 0), (p_dc, p_rf) + constant
                           + (p_dc * config.t_frame,)))
        for k, take in takes.items():
            # every location's session of the point in one batch, each
            # on its own stream; UP's column, the fallback, leads the book's
            gens = [rngmod.stream(config.seed, rngmod.SESSION,
                                  _STRATEGY_IDS[LIMITED], m, n, k, loc_idx)
                    if draws else None for loc_idx in order]
            report = run_session(timing, (dcs[..., take], p_rfs[..., take]),
                                 adc, link, gens)
            if adc is not None and not report.measurements.any():
                raise ConfigError(
                    f"every LIMITED training reading is 0 V at M={m}, "
                    f"N={n}, K={k}: the {config.adc_resolution_bits}-bit "
                    f"ADC (v_ref {config.adc_v_ref} V, load "
                    f"{config.adc_load_resistance} ohm) resolves none of "
                    f"the harvested dc levels there, so every frame of "
                    f"that point would select codeword 1")
            blocks.append(((LIMITED, m, n, k), (
                report.p_dc_wpt, report.p_rf_wpt, report.selected_index,
                report.applied_index, report.feedback_delivered,
                report.energy_training, report.energy_wpt)))
    blocks.sort(key=operator.itemgetter(0))
    return index, blocks


def _block_groups(index: tuple, blocks: list, p_dcs: list):
    """Each block's (point, [(location, p_dc values)]) summary group.

    p_dcs holds each block's p_dc column as the detail file writes it, so
    the summary averages float() of those strings.  A block's lines run
    location by location in label order, then frame by frame: the order
    summarize's sorted rows give them.
    """
    for (point, columns), texts in zip(blocks, p_dcs):
        frames = columns[0].shape[1]
        values = list(map(float, texts))
        yield point, [(label, values[start:start + frames])
                      for start, label in zip(range(0, len(values), frames),
                                              index[0][::frames])]


def _write_detail(path: str, index: tuple, blocks: list,
                  p_dcs: list) -> None:
    """Write detail.csv: one %-template per line, one write per block.

    p_dcs holds each block's p_dc column already formatted with _FLOAT,
    and is written with %s.  The other values come from .tolist(), as
    Python scalars: "%.6g" and "%d" write the bytes of format(x, ".6g")
    and str(i), and feedback_ok's bools read 0 or 1.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(DETAIL_HEADER + "\n")
        for ((strategy, m, n, k), columns), texts in zip(blocks, p_dcs):
            line = (f"{strategy},{m},{n},{k},%s,%d,%s,{_FLOAT},%d,%d,"
                    f"%d,{_FLOAT},{_FLOAT}\n")
            fh.write("".join([line % values for values in zip(
                *index, texts,
                *(column.ravel().tolist() for column in columns[1:]))]))


def run_campaign(config: CampaignConfig, out_dir=None,
                 jobs: int = 1) -> tuple[str, str]:
    """Execute the campaign and write detail.csv and summary.csv.

    Both files come from the sweep points' blocks (_detail_rows), with
    each p_dc formatted once: the summary aggregates each block's
    per-location groups of those values as summarize aggregates the
    detail file's rows, so summarize of the detail rows writes the same
    summary.csv.  A run that fails before it writes a CSV, for one of
    the errors below or another, removes the output directories it
    created.

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
        ConfigError: the sweep lacks the summary's (UP, M=1, N=1) baseline.
        ConfigError: the rectifier's table file is missing or malformed.
        ConfigError: the ADC is on and reads 0 V for every LIMITED training
            measurement of some (M, N, K) point, so every frame of that
            point would pick codeword 1.
        SummaryError: a location's mean dc power, or its baseline's, is
            0 W, so it has no dB gain.
    """
    if jobs != 1:
        raise DomainError(f"run_campaign runs in one thread; jobs must be 1, "
                          f"got {jobs!r}")
    if (UP not in config.strategies or 1 not in config.antenna_counts
            or 1 not in config.tone_counts):
        raise ConfigError("the campaign must sweep the gain baseline: "
                          "strategy UP, antenna count 1 and tone count 1")
    # read the table first, so a bad one leaves no output directory behind
    rect_model = _rect_model(config)
    out = str(out_dir) if out_dir is not None else config.output_dir
    made = _make_dirs(out)
    try:
        probe = os.path.join(out, ".write_probe")
        try:
            with open(probe, "w") as fh:
                fh.write("ok")
            os.remove(probe)
        except OSError as exc:
            raise OSError(f"output directory {out!r} is not writable: "
                          f"{exc}") from exc
        index, blocks = _detail_rows(config, rect_model)
        # each p_dc is formatted once: the summary averages the values the
        # detail file writes
        p_dcs = [list(map(_FLOAT.__mod__, columns[0].ravel().tolist()))
                 for _, columns in blocks]
        # the summary is written first, so a summary that fails leaves no
        # CSV behind
        summary_path = os.path.join(out, "summary.csv")
        _summarize(_block_groups(index, blocks, p_dcs), summary_path)
    except BaseException:
        # a run that writes no CSV leaves no directory of its own behind
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    detail_path = os.path.join(out, "detail.csv")
    _write_detail(detail_path, index, blocks, p_dcs)
    return detail_path, summary_path


# ---------------------------------------------------------------------------
# aggregation

def db_gain(p: float, p_ref: float) -> float:
    """10*log10(p/p_ref); both arguments must be positive."""
    if not p > 0 or not p_ref > 0:
        raise DomainError(f"db_gain needs positive powers, got {p}, {p_ref}")
    return 10.0 * float(np.log10(p / p_ref))


def summarize(rows, out_path=None) -> list[SummaryRow]:
    """Aggregate detail rows into summary rows (and optionally a file).

    Each row is (strategy, M, N, K, location, frame, p_dc_w), as in the
    detail CSV; run_campaign averages p_dc_w as written there, so a
    campaign's summary.csv can be recomputed from its detail file alone,
    byte for byte.

    Rows are sorted lexicographically, which makes the output independent
    of input row order, and grouped by point and location into the
    groups run_campaign takes from its blocks; both run one aggregation
    (_summarize).  Per (strategy, M, N, K, location): mean dc power over
    frames.  Per (strategy, M, N, K): the ALL row, mean of the location
    means.  Gains are taken against the (UP, M=1, N=1) mean at the same
    location (or the ALL baseline for ALL rows), so baseline rows are
    exactly 0 dB.

    Raises:
        SummaryError: the (UP, M=1, N=1) baseline is missing, for the
            point or for a location.
        SummaryError: a location's mean dc power, or its baseline's, is 0 W
            (no ALL row can fail once every location row passes).
    """
    rows = sorted(rows, key=lambda row: row[:6])
    groups = ((point, [(location, [row[6] for row in location_rows])
                       for location, location_rows in itertools.groupby(
                           point_rows, key=operator.itemgetter(4))])
              for point, point_rows in itertools.groupby(
                  rows, key=lambda row: row[:4]))
    return [SummaryRow(*line) for line in _summarize(groups, out_path)]


def _summarize(groups, out_path=None) -> list:
    """The summary lines of (point, [(location, p_dc values)]) groups.

    The groups come in summary order: points sorted, each point's
    locations by label, each location's values in frame order.  Each mean
    is summed left to right in that order.  Every gain comes from one
    vectorized np.log10 call, which gives each ratio db_gain's own
    np.log10 bits; math.log10 cannot replace it, as it differs from
    numpy's in the last bit of some ratios.  Every check runs before
    out_path is written.

    Returns:
        Each line's (strategy, M, N, K, location, p_dc_mean_w, gain_db),
        in summary order.

    Raises:
        SummaryError: as summarize.
    """
    means = {}      # point -> ({location: mean}, mean of the location means)
    for point, point_groups in groups:
        locations, point_total = {}, 0.0
        for location, values in point_groups:
            total = 0.0
            for value in values:
                total += value
            locations[location] = total / len(values)
            point_total += locations[location]
        means[point] = locations, point_total / len(locations)

    baseline_point = (UP, 1, 1, 0)
    if baseline_point not in means:
        raise SummaryError(
            "missing baseline rows (strategy=UP, M=1, N=1, K=0)")
    base, base_all = means[baseline_point]

    # (point, location, mean, baseline mean) in summary order: a point's
    # ALL row sorts among its locations by its label
    entries = []
    for point, (locations, point_mean) in means.items():
        point_entries = []
        for location, mean in locations.items():
            if location not in base:
                raise SummaryError(
                    f"missing baseline row (strategy=UP, M=1, N=1, K=0, "
                    f"location={location})")
            if not (mean > 0 and base[location] > 0):
                strategy, m, n, k = point
                raise SummaryError(
                    f"no dB gain for (strategy={strategy}, M={m}, N={n}, "
                    f"K={k}, location={location}): mean dc {mean} W, "
                    f"baseline {base[location]} W")
            point_entries.append((point, location, mean, base[location]))
        point_entries.insert(bisect.bisect_right(list(locations),
                                                 ALL_LOCATIONS),
                             (point, ALL_LOCATIONS, point_mean, base_all))
        entries.extend(point_entries)
    gains = 10.0 * np.log10(np.array([e[2] for e in entries])
                            / np.array([e[3] for e in entries]))
    lines = [(*point, location, mean, gain)
             for (point, location, mean, _), gain in zip(entries,
                                                        gains.tolist())]

    if out_path is not None:
        line = f"%s,%s,%s,%s,%s,{_FLOAT},%.4f\n"
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            fh.write("".join([line % values for values in lines]))
    return lines


# ---------------------------------------------------------------------------
# pre-canned sweeps

#: each pre-canned sweep's (antenna counts, tone counts)
FIGURES = {
    "figure-bf": ((1, 2, 4), (1,)),
    "figure-wf": ((1,), (1, 2, 4, 8)),
    "figure-joint": ((1, 2, 4), (1, 2, 4, 8)),
}


def figure_config(name: str, seed: int | None = None) -> CampaignConfig:
    """Pre-canned campaign config for one of the sweeps in FIGURES.

    figure-bf: dc power vs antenna count (M in {1,2,4}, N=1).
    figure-wf: dc power vs tone count (M=1, N in {1,2,4,8}).
    figure-joint: the full M x N product (M in {1,2,4}, N in {1,2,4,8};
    M=1, N=1 doubles as the gain baseline).

    All three use 15 locations with pathloss uniform in [55, 70] dB (an
    assumption, not a measured geometry) and nested codebooks swept over
    K in {2,...,64}.
    """
    if name not in FIGURES:
        raise ConfigError(f"unknown sweep {name!r}; "
                          f"expected one of {sorted(FIGURES)}")
    antennas, tones = FIGURES[name]
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    return CampaignConfig(strategies=(UP, SMF, LIMITED),
                          antenna_counts=antennas, tone_counts=tones,
                          codebook_sizes=(2, 4, 8, 16, 32, 64),
                          output_dir=os.path.join("out", name), **kwargs)
