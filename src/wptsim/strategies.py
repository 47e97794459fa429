"""Transmitter strategies: uniform power, scaled matched filter, selection.

UP spreads the budget evenly over antennas and tones with real weights and
needs no channel knowledge.  SMF matches the per-tone channel direction and
scales tone magnitudes by ||h_n||^beta, so larger beta concentrates power on
the strong tones; with a single tone it reduces to maximum ratio
transmission regardless of beta.  Codeword selection is a plain argmax over
each row of dc readings with a lowest-index tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import (DegenerateChannelError, DomainError, check_array,
                     check_count, check_positive)
from .waveform import ToneGrid, WaveformWeights, _sphere


@dataclass(frozen=True)
class SmfParams:
    """Scaled-matched-filter knobs: magnitude exponent and power budget."""

    beta: float = 3.0
    power_budget: float = 1.0

    def __post_init__(self):
        if not 1 <= self.beta < np.inf:
            raise DomainError(f"beta must be >= 1 and finite, got {self.beta}")
        check_positive("power_budget", self.power_budget)


def up_weights(m_antennas: int, grid: ToneGrid, power: float) -> WaveformWeights:
    """Open-loop uniform allocation: every weight sqrt(2P/(M*N)), real."""
    m_antennas = check_count("m_antennas", m_antennas)
    check_positive("power", power)
    n = grid.n_tones
    w = np.full((m_antennas, n), np.sqrt(2.0 * power / (m_antennas * n)),
                dtype=complex)
    return WaveformWeights(weights=w, power_budget=power)


def smf_weights(channel: ChannelRealization, params: SmfParams) -> WaveformWeights:
    """Scaled matched filter: s_n = c * ||h_n||^beta * h_n^H / ||h_n||.

    The scale c = sqrt(2P / sum_n ||h_n||^(2*beta)) meets the power budget
    with equality.  Tones with zero channel norm get zero weight; a channel
    that is zero on every tone has no matched direction and raises.  A
    stack of channels (..., M, N) gets a stack of weights, each matrix's
    norms and scale its own, and each equal to its channel's own call to
    the bit: the norms add a matrix's M terms in the order one channel
    alone adds them, and every product has operands of equal ndim.
    """
    h = channel.gains
    norms = np.linalg.norm(h, axis=-2)
    alive = norms > 0
    if not alive.any(axis=-1).all():
        raise DegenerateChannelError("channel is zero on every tone")
    c = np.sqrt(2.0 * params.power_budget
                / np.sum(norms ** (2.0 * params.beta), axis=-1))
    # s_n = c * ||h_n||^(beta-1) * conj(h_n), with 0 weight on dead tones
    scale = np.where(alive, c[..., None] * norms ** (params.beta - 1.0), 0.0)
    # the rescale removes the last few ulps of constraint slack, so
    # equality holds exactly
    s = _sphere(np.conj(h) * scale[..., None, :], params.power_budget)
    return WaveformWeights(weights=s, power_budget=params.power_budget)


def select_codeword(measurements):
    """1-based index of the largest reading of each row of shape (..., K).

    Ties go to the lowest index.  K readings give one index; a stack of
    rows gives an integer array of the stack's shape.
    """
    arr = check_array("measurements", measurements, (..., None), float)
    return np.argmax(arr, axis=-1) + 1


def feedback_bits(k_codewords: int) -> int:
    """Bits needed to feed back a codeword index: ceil(log2 K), 0 for K=1."""
    return (check_count("k_codewords", k_codewords) - 1).bit_length()
