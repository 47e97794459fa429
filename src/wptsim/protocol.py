"""Closed-loop frame simulation: training sweep, feedback, WPT phase.

Each frame of length t_frame has two phases.  During training the
transmitter dwells t_s seconds on each of the K codewords while the
receiver measures the resulting dc level; the receiver then feeds back the
ceil(log2 K)-bit index of the best codeword over a lossy link.  The remaining
t_p = t_frame - K*t_s seconds are the WPT phase, transmitted with the
selected codeword if the feedback arrived, otherwise with a fallback: the
previous frame's applied codeword, or the uniform-power codeword on the
first frame (marker index 0).  The receiver harvests during both phases
and the report accounts each phase's energy separately.

A session's sweep is UP's codeword and the K codewords rated on each
frame's channel, UP in column 0 and codeword k in column k, so an
applied index, the fallback marker 0 included, is its own column: a
frame reads its WPT powers from the sweep and rates nothing of its own.

run_session is the one session path.  It takes the (S, F, 1+K) sweeps of
S sessions of F frames (run_campaign passes every location's session of
one (M, N, K) point) and computes them as (S, F) arrays: the sessions are
the batch axis, the frames the axis the fallback is threaded along.  Each
session keeps its own stream and draws from it frame by frame, in the
order one frame alone would.  run_frame sweeps its one channel and is
run_session's one-session, one-frame case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .channel import ChannelRealization
from .errors import (ConfigError, DomainError, ProtocolError, check_count,
                     check_shape)
from .rectenna import (AdcConfig, DiodeMomentModel, dc_power_moment,
                       dc_power_table, measure_dc)
from .strategies import feedback_bits, select_codeword, up_weights
from .waveform import EffectiveTones, effective_tones, received_rf_power

#: applied_index value meaning "open-loop uniform power fallback", and
#: the UP codeword's column of a session's sweep
UP_FALLBACK = 0


@dataclass(frozen=True)
class FrameConfig:
    """Frame timing: per-codeword dwell and total length, in seconds."""

    t_s: float = 0.010
    t_frame: float = 2.0

    def __post_init__(self):
        for name in ("t_s", "t_frame"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be > 0 and finite, got {value}")

    def t_p(self, k: int) -> float:
        """WPT phase length t_frame - K*t_s of a frame sweeping K codewords.

        Raises:
            DomainError: K is not a whole number >= 1.
            ConfigError: the K*t_s training phase fills the frame.
        """
        k = check_count("k", k)
        if not k * self.t_s < self.t_frame:
            raise ConfigError(
                f"training K*t_s = {k * self.t_s} must be "
                f"strictly less than t_frame = {self.t_frame}")
        return self.t_frame - k * self.t_s


@dataclass(frozen=True)
class LinkModel:
    """Feedback link: each index message arrives with a fixed probability."""

    delivery_probability: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delivery_probability <= 1.0:
            raise DomainError("delivery_probability must be in [0, 1]")


@dataclass(frozen=True)
class FrameReport:
    """One frame's observables, as run_frame and SessionReport.frame give."""

    measurements: tuple
    selected_index: int
    applied_index: int          # 1..K, or UP_FALLBACK (0)
    feedback_delivered: bool
    energy_training: float
    energy_wpt: float
    p_dc_wpt: float             # dc power during the WPT phase, watts
    p_rf_wpt: float             # received RF power during the WPT phase, watts


def encode_feedback(k_star: int, k_codewords: int) -> str:
    """Index report: (k* - 1) in feedback_bits(K) binary digits, MSB first."""
    n_bits = feedback_bits(k_codewords)
    k_star = check_count("k_star", k_star, 1, k_codewords)
    return format(k_star - 1, f"0{n_bits}b") if n_bits else ""


def decode_feedback(bits: str, k_codewords: int) -> int:
    """Recover the 1-based index; wrong bit length is a protocol error."""
    n_bits = feedback_bits(k_codewords)
    if len(bits) != n_bits:
        raise ProtocolError(
            f"expected {n_bits} bits for K={k_codewords}, got {len(bits)}")
    if n_bits == 0:
        return 1
    if any(b not in "01" for b in bits):
        raise ProtocolError(f"non-binary feedback payload {bits!r}")
    index = int(bits, 2) + 1
    if index > k_codewords:
        raise ProtocolError(f"decoded index {index} outside [1, {k_codewords}]")
    return index


def session_draws(link: LinkModel, adc: AdcConfig | None) -> bool:
    """Whether a session on this link and ADC reads its random stream.

    A lossy link draws each frame's delivery and a noisy ADC each
    reading's noise.  A session with neither may run with rng=None: its
    feedback always arrives.  A session given a stream still draws the
    certain link's delivery, so its noise draws keep their places.
    """
    return link.delivery_probability < 1 or (
        adc is not None and adc.noise_sigma > 0)


def _dc_power(rect_model, tones: EffectiveTones, grid):
    """dc power of one waveform, or an array of them for a stack of tones."""
    if isinstance(rect_model, DiodeMomentModel):
        return dc_power_moment(rect_model, tones, grid)
    return dc_power_table(rect_model, tones, grid)


def _sweep(codebook: Codebook, channels: ChannelRealization,
           rect_model) -> tuple:
    """Every codeword's dc and RF powers on each channel: two (..., K) arrays.

    channels holds one (M, N) channel or a stack, (..., M, N).  Each
    channel's (K, N) tones are formed in one multiply of their own, and
    their stack is rated in one call.  A row does not depend on the rows
    or codewords beside it, so it equals its channel's own sweep, and a
    codeword's column of a larger book's sweep equals its own book's
    sweep, to the last bit.
    """
    k, m, n = codebook.weights.shape
    gains = channels.gains
    check_shape("channel gains", gains.shape, (..., m, n))
    # each channel's (K, N) tones are formed alone, as in its own sweep,
    # and from operands of equal ndim, as effective_tones forms them:
    # numpy rounds a one-element complex multiply (M=N=K=1) whose operands
    # differ in ndim without the fused multiply-add it uses otherwise
    tones = EffectiveTones(np.stack([np.sum(g[None] * codebook.weights,
                                            axis=1)
                                     for g in gains.reshape(-1, m, n)]))
    shape = gains.shape[:-2] + (k,)
    return (_dc_power(rect_model, tones, channels.grid).reshape(shape),
            received_rf_power(tones).reshape(shape))


@dataclass(frozen=True, eq=False)
class SessionReport:
    """S sessions of F frames as arrays; frame f of session s is [s, f].

    Every field is an (S, F) array, save measurements, which holds each
    frame's K readings in an (S, F, K) array.
    """

    measurements: np.ndarray
    selected_index: np.ndarray
    applied_index: np.ndarray       # 1..K, or UP_FALLBACK (0)
    feedback_delivered: np.ndarray
    energy_training: np.ndarray
    energy_wpt: np.ndarray
    p_dc_wpt: np.ndarray
    p_rf_wpt: np.ndarray

    def frame(self, s: int, f: int) -> FrameReport:
        """Frame f of session s, as Python scalars and a readings tuple."""
        return FrameReport(
            measurements=tuple(self.measurements[s, f].tolist()),
            selected_index=int(self.selected_index[s, f]),
            applied_index=int(self.applied_index[s, f]),
            feedback_delivered=bool(self.feedback_delivered[s, f]),
            energy_training=float(self.energy_training[s, f]),
            energy_wpt=float(self.energy_wpt[s, f]),
            p_dc_wpt=float(self.p_dc_wpt[s, f]),
            p_rf_wpt=float(self.p_rf_wpt[s, f]))


def run_frame(config: FrameConfig, codebook: Codebook,
              channel: ChannelRealization, rect_model,
              adc: AdcConfig | None, link: LinkModel,
              fallback_state: int | None,
              rng: np.random.Generator | None) -> FrameReport:
    """One closed-loop frame on a constant channel: run_session's S=F=1 case.

    Its sweep is UP's codeword, rated through effective_tones, ahead of
    the book's.

    Args:
        fallback_state: applied_index of the previous frame, or None on the
            first frame (then the fallback is the UP codeword, marker 0).
        rng: the frame's stream, or None when it cannot draw (see
            session_draws).

    Raises:
        ConfigError: the book's K*t_s training phase fills the frame.
        DomainError: rng is None on a lossy link or with a noisy ADC.
        DimensionError: the channel is not one (M, N) matrix of the book's
            M and N.
    """
    check_shape("channel gains", channel.gains.shape,
                codebook.weights.shape[1:])
    up = effective_tones(channel, up_weights(
        codebook.m_antennas, channel.grid, codebook.power_budget))
    rated = (_dc_power(rect_model, up, channel.grid), received_rf_power(up))
    sweeps = tuple(np.r_[first, rest][None, None] for first, rest in zip(
        rated, _sweep(codebook, channel, rect_model)))
    return run_session(config, sweeps, adc, link, [rng],
                       fallback_state).frame(0, 0)


def run_session(config: FrameConfig, sweeps: tuple, adc: AdcConfig | None,
                link: LinkModel, rngs,
                fallback_state: int | None = None) -> SessionReport:
    """S closed-loop sessions of F frames, each threading its fallback.

    As the paper's receiver feeds back an index without estimating the
    channel, a session sees only its sweep.  Each frame trains for K*t_s
    and transmits for the rest of config.t_frame.  Its measurements are
    the ADC readings, or without an ADC the sweep's dc powers themselves.
    A session's frames are computed as arrays: selection is one
    select_codeword call over the last axis, a frame's applied index is
    the selection of the session's last delivered frame
    (np.maximum.accumulate over frame indices), and the training energy
    is np.cumsum of the K dc levels, which adds left to right (from
    Python 3.12 the builtin sum compensates float rounding, so it would
    give other bits than 3.10 and 3.11).  Only the random draws run frame
    by frame: each session reads its own stream, per frame one ADC
    reading per codeword (through measure_dc, in codeword order) and then
    one delivery draw.  Every applied power, the UP fallback's included,
    is read from the sweep's column of the applied index with one
    take_along_axis; the readings and the training energy read the K
    codeword columns.  So each session's reports equal those of run_frame
    called frame by frame on its stream.

    Args:
        sweeps: (dc powers, RF powers), two (S, F, 1+K) arrays: session
            s's frame f in row [s, f], UP's codeword in column 0 and
            codeword k in column k.
        link: the feedback link every frame reports over.
        rngs: each session's stream, or None for a session that cannot
            draw (see session_draws); its feedback always arrives.
        fallback_state: the applied_index before each session's first
            frame, or None for the UP codeword (marker 0).

    Raises:
        ConfigError: the K*t_s training phase fills the frame.
        DomainError: no codeword column, one rng per session missing, or
            a session without an rng on a lossy link or with a noisy ADC.
        DimensionError: sweeps that are not two (S, F, 1+K) arrays of one
            shape, or that have an empty axis.
    """
    dcs, p_rfs = map(np.asarray, sweeps)
    check_shape("sweeps", dcs.shape, (None, None, None))
    check_shape("sweeps", p_rfs.shape, dcs.shape)
    shape = dcs.shape
    if len(rngs) != shape[0]:
        raise DomainError(f"{len(rngs)} rngs for {shape[0]} sessions")
    if None in rngs and session_draws(link, adc):
        raise DomainError("a lossy link or a noisy ADC requires an rng")
    t_p = config.t_p(shape[2] - 1)
    # the K codewords' powers; UP's column 0 is only ever applied
    swept = dcs[..., 1:]
    delivered = np.ones(shape[:2], dtype=bool)
    readings = swept if adc is None else np.empty(swept.shape)
    for s, rng in enumerate(rngs):
        if adc is not None:
            for f, frame_dcs in enumerate(swept[s].tolist()):
                readings[s, f] = [measure_dc(adc, p, rng)[1]
                                  for p in frame_dcs]
                if rng is not None:
                    delivered[s, f] = rng.random() < link.delivery_probability
        elif rng is not None:
            delivered[s] = rng.random(shape[1]) < link.delivery_probability
    selected = select_codeword(readings)
    # each frame applies the selection of its session's last delivered
    # frame, or the fallback state before any delivery
    last = np.maximum.accumulate(
        np.where(delivered, np.arange(shape[1]), -1), axis=1)
    applied = np.where(last >= 0, np.take_along_axis(
        selected, np.maximum(last, 0), axis=1),
        UP_FALLBACK if fallback_state is None else fallback_state)
    # the applied index is its codeword's column, UP_FALLBACK UP's own
    p_dc = np.take_along_axis(dcs, applied[..., None], axis=-1)[..., 0]
    p_rf = np.take_along_axis(p_rfs, applied[..., None], axis=-1)[..., 0]
    return SessionReport(
        measurements=readings, selected_index=selected,
        applied_index=applied, feedback_delivered=delivered,
        energy_training=np.cumsum(swept, axis=-1)[..., -1] * config.t_s,
        energy_wpt=p_dc * t_p, p_dc_wpt=p_dc, p_rf_wpt=p_rf)
