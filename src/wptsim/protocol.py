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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .channel import ChannelRealization
from .errors import (ConfigError, DimensionError, DomainError, ProtocolError,
                     check_count)
from .rectenna import (AdcConfig, DiodeMomentModel, dc_power_moment,
                       dc_power_table, measure_dc)
from .strategies import feedback_bits, select_codeword, up_weights
from .waveform import (EffectiveTones, effective_tones, received_rf_power,
                       second_moment, tone_moments)

#: applied_index value meaning "open-loop uniform power fallback"
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
    """One frame's observables; a session's reports are in frame order."""

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
    """dc power of one waveform, or an array of them for a stack of tones.

    The moment model rates a stack in one call, the table model one
    dc_power_table call per waveform.
    """
    if isinstance(rect_model, DiodeMomentModel):
        return dc_power_moment(rect_model, tones, grid)
    if tones.amplitudes.ndim > 1:
        return np.array([_dc_power(rect_model, EffectiveTones(row), grid)
                         for row in tones.amplitudes])
    return dc_power_table(rect_model, tones, grid)


def _check_fits(codebook: Codebook, channel: ChannelRealization) -> None:
    """Raise unless channel is one (M, N) matrix of the book's M and N."""
    if channel.gains.shape != (codebook.m_antennas, codebook.n_tones):
        raise DimensionError(
            f"codebook ({codebook.m_antennas}, {codebook.n_tones}) vs "
            f"channel {channel.gains.shape}")


def _sweep(codebook: Codebook, channels, rect_model) -> list[tuple]:
    """Every codeword's (dc powers, RF powers) on each channel, as lists.

    Each distinct channel object is swept once: its (K, N) tones are
    formed in one multiply, and their m2 is the RF power.  The moment
    model takes every channel's dc in one moment call, the table model
    one dc_power_table call per codeword.  A row does not depend on the
    rows or codewords beside it, so a codeword's column of a larger
    book's sweep equals its own book's sweep to the last bit.
    """
    distinct = {id(ch): ch for ch in channels}
    for channel in distinct.values():
        _check_fits(codebook, channel)
    # each channel's (K, N) tones are formed alone, as in its own sweep,
    # and from operands of equal ndim, as effective_tones forms them:
    # numpy rounds a one-element complex multiply (M=N=K=1) whose operands
    # differ in ndim without the fused multiply-add it uses otherwise
    tones = [np.sum(ch.gains[None] * codebook.weights, axis=1)
             for ch in distinct.values()]
    if isinstance(rect_model, DiodeMomentModel):
        m2, m4 = tone_moments(np.stack(tones))
        rows = zip(rect_model.dc(m2, m4).tolist(), m2.tolist())
    else:
        rows = [([dc_power_table(rect_model, EffectiveTones(row), ch.grid)
                  for row in ch_tones], second_moment(ch_tones).tolist())
                for ch, ch_tones in zip(distinct.values(), tones)]
    swept = dict(zip(distinct, rows))
    return [swept[id(ch)] for ch in channels]


def run_frame(config: FrameConfig, codebook: Codebook,
              channel: ChannelRealization, rect_model,
              adc: AdcConfig | None, link: LinkModel,
              fallback_state: int | None, rng: np.random.Generator | None,
              sweep: tuple | None = None) -> FrameReport:
    """One closed-loop frame on a constant channel.

    The frame trains for K*t_s, K the codebook's size, and transmits for
    the rest of config.t_frame.  The report's measurements are the ADC
    readings, or without an ADC the sweep's dc powers themselves.

    Args:
        fallback_state: applied_index of the previous frame, or None on the
            first frame (then the fallback is the UP codeword, marker 0).
        rng: the session's stream, read by the ADC noise and the link's
            delivery draw; None when the frame cannot draw (see
            session_draws), and then the feedback is delivered.
        sweep: the K codewords' (dc powers, RF powers) on this channel
            when the caller already holds them, as run_session does for
            all its frames.

    Raises:
        ConfigError: the book's K*t_s training phase fills the frame.
        DomainError: rng is None on a lossy link or with a noisy ADC.
    """
    if rng is None and session_draws(link, adc):
        raise DomainError("a lossy link or a noisy ADC requires an rng")
    _check_fits(codebook, channel)
    t_p = config.t_p(codebook.k_codewords)
    # the training energy needs the dc levels themselves, not the readings
    dcs, p_rfs = (_sweep(codebook, [channel], rect_model)[0]
                  if sweep is None else sweep)
    measurements = (dcs if adc is None
                    else [measure_dc(adc, p, rng)[1] for p in dcs])
    k_star = select_codeword(measurements)
    bits = encode_feedback(k_star, codebook.k_codewords)
    delivered = rng is None or bool(rng.random() < link.delivery_probability)
    if delivered:
        applied = decode_feedback(bits, codebook.k_codewords)
    elif fallback_state is None:
        applied = UP_FALLBACK
    else:
        applied = fallback_state
    # a codeword's powers come from the sweep; only the UP fallback is new
    if applied == UP_FALLBACK:
        tones = effective_tones(channel, up_weights(
            codebook.m_antennas, channel.grid, codebook.power_budget))
        p_dc = _dc_power(rect_model, tones, channel.grid)
        p_rf = received_rf_power(tones)
    else:
        p_dc, p_rf = dcs[applied - 1], p_rfs[applied - 1]
    # summed left to right: from Python 3.12 the builtin sum compensates
    # float rounding, so it would give other bits than 3.10 and 3.11
    e_train = 0.0
    for dc in dcs:
        e_train += dc
    e_train *= config.t_s
    e_wpt = p_dc * t_p
    return FrameReport(measurements=tuple(measurements),
                       selected_index=k_star, applied_index=applied,
                       feedback_delivered=delivered,
                       energy_training=e_train, energy_wpt=e_wpt,
                       p_dc_wpt=p_dc, p_rf_wpt=p_rf)


def run_session(config: FrameConfig, codebook: Codebook, channels,
                rect_model, adc: AdcConfig | None, link: LinkModel,
                rng: np.random.Generator | None,
                sweeps: list | None = None) -> list[FrameReport]:
    """One closed-loop frame per channel, with the fallback state threaded.

    The session sweeps the codebook once on each distinct channel object
    (under block fading one object serves every frame), all in one batch,
    and hands each frame its channel's row; a row equals the frame's own
    sweep to the last bit, so the reports equal those of run_frame called
    frame by frame.

    Args:
        channels: each frame's ChannelRealization, in frame order.
        link: the feedback link every frame reports over.
        rng: the session's stream, which every frame draws from in turn;
            None when the session cannot draw (see session_draws).
        sweeps: each frame's sweep, as run_frame takes it, when the caller
            already holds them; run_campaign reads them from one sweep of
            all its books' codewords.
    """
    if not channels:
        raise DomainError("a session needs at least one channel")
    if sweeps is None:
        sweeps = _sweep(codebook, channels, rect_model)
    elif len(sweeps) != len(channels):
        raise DomainError(f"{len(sweeps)} sweeps for {len(channels)} frames")
    reports = []
    fallback: int | None = None
    for i, ch in enumerate(channels):
        report = run_frame(config, codebook, ch, rect_model, adc, link,
                           fallback_state=fallback, rng=rng, sweep=sweeps[i])
        reports.append(report)
        fallback = report.applied_index
    return reports
