"""Frequency-selective Rayleigh channel between transmit array and rectenna.

Each antenna sees an independent tapped delay line with L complex Gaussian
taps g[m, l] ~ CN(0, var_l).  Tap variances follow an exponential power
delay profile var_l proportional to pdp_decay^l (l = 0..L-1), normalized so
their sum equals the linear pathloss 10^(-pathloss_db/10).  The per-tone
gain of the channel is the delay line's transfer function sampled on the
tone grid:

    h[m, n] = sum_l g[m, l] * exp(-j * w_n * l * tap_spacing).

With one tap the channel is flat across tones; with the default profile
(L=8, 100 ns spacing, decay 0.7) tones spread over 10 MHz fade almost
independently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import (DomainError, check_array, check_count,
                     check_positive, check_shape)
from .waveform import ToneGrid


@dataclass(frozen=True)
class ChannelModelParams:
    """Tapped-delay-line model parameters.

    Attributes:
        n_taps: number of delay taps L >= 1.
        tap_spacing_s: delay between consecutive taps, seconds, > 0.
        pdp_decay: per-tap geometric decay of the power delay profile, (0, 1].
        pathloss_db: average attenuation; sum of tap variances is
            10^(-pathloss_db/10).
        seed: 64-bit seed owned by this parameter set; realizations derive
            their tap streams from it.
    """

    n_taps: int = 8
    tap_spacing_s: float = 100e-9
    pdp_decay: float = 0.7
    pathloss_db: float = 60.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_taps", check_count("n_taps", self.n_taps))
        check_positive("tap_spacing_s", self.tap_spacing_s)
        if not 0 < self.pdp_decay <= 1:
            raise DomainError(f"pdp_decay must be in (0, 1], got {self.pdp_decay}")
        if not 0 <= self.pathloss_db < np.inf:
            raise DomainError(
                f"pathloss_db must be >= 0 and finite, got {self.pathloss_db}")
        object.__setattr__(self, "seed",
                           check_count("seed", self.seed, 0, 2 ** 64 - 1))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of per-tone complex gains for an M-antenna link.

    gains is an (M, N) matrix over the grid's N tones, or a stack of them
    of shape (..., M, N) on that one grid, which smf_weights and
    effective_tones rate in one call.
    """

    grid: ToneGrid
    gains: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gains", check_array(
            "gains", self.gains, (..., None, self.grid.n_tones)))

    @property
    def m_antennas(self) -> int:
        return self.gains.shape[-2]


@dataclass(frozen=True)
class Location:
    """A labeled receiver position with its own channel statistics."""

    label: str
    params: ChannelModelParams


def tap_variances(params: ChannelModelParams) -> np.ndarray:
    """Per-tap variances of the exponential profile, summing to the pathloss."""
    profile = params.pdp_decay ** np.arange(params.n_taps)
    profile = profile / profile.sum()
    return profile * 10.0 ** (-params.pathloss_db / 10.0)


def sample_taps(params: ChannelModelParams, m_antennas: int,
                rng: np.random.Generator) -> np.ndarray:
    """Draw an (M, L) matrix of complex Gaussian taps from the profile.

    Variates are consumed row-major (all of antenna 1 first), so the first
    rows of a larger array equal a smaller array's draw from the same
    stream and per-antenna fades stay comparable across antenna counts.
    """
    m_antennas = check_count("m_antennas", m_antennas)
    std = np.sqrt(tap_variances(params) / 2.0)
    block = rng.standard_normal((m_antennas, 2 * params.n_taps))
    return (block[:, :params.n_taps] + 1j * block[:, params.n_taps:]) * std


def frequency_response(taps: np.ndarray, params: ChannelModelParams,
                       grid: ToneGrid) -> np.ndarray:
    """Per-tone gains h[m, n] = sum_l taps[m, l] e^{-j w_n l tap_spacing}.

    taps is one (M, L) matrix or a stack of them, (..., M, L), whose gains
    are (..., M, N).  The stack is one matmul, which multiplies each (M, L)
    slice as its own call would, so every slice keeps its own call's bits;
    a flattened (S*M, L) product would not at M=1.
    """
    # non-finite taps give non-finite gains, which ChannelRealization rejects
    taps = np.asarray(taps, dtype=complex)
    check_shape("taps", taps.shape, (..., None, params.n_taps))
    delays = np.arange(params.n_taps) * params.tap_spacing_s
    steering = np.exp(-1j * np.outer(delays, grid.angular_frequencies))
    return taps @ steering


def realize_channel(params: ChannelModelParams, m_antennas: int,
                    grid: ToneGrid, frame: int = 0) -> ChannelRealization:
    """Deterministic realization for (params.seed, frame).

    The tap stream is Philox-keyed by (seed, TAPS, frame), so the same
    arguments draw the same variates everywhere, and consecutive frames
    get independent fades.  The gains repeat to the bit only where numpy
    and OpenBLAS run the same code paths: with AVX-512 off, or another
    OpenBLAS core type, their last bits can move (README, Determinism).
    """
    gen = rngmod.stream(params.seed, rngmod.TAPS, frame)
    taps = sample_taps(params, m_antennas, gen)
    gains = frequency_response(taps, params, grid)
    return ChannelRealization(grid=grid, gains=gains)


def make_locations(count: int, base_seed: int,
                   params_template: ChannelModelParams,
                   pathloss_range_db: tuple[float, float]) -> list[Location]:
    """Labeled locations L1..Lcount with independent pathloss and seeds.

    Pathloss values are drawn uniformly from pathloss_range_db using the
    stream (base_seed, PATHLOSS); location i receives the child seed
    derive_seed(base_seed, LOCATION_SEED, i).  Both derivations are pure
    functions of base_seed, so a campaign's geometry is reproducible.
    """
    count = check_count("count", count)
    lo, hi = pathloss_range_db
    if not lo <= hi:
        raise DomainError(f"empty pathloss range [{lo}, {hi}]")
    # each bound passes the parameters' own pathloss rule before the
    # draw, which would fail on an infinite one with a bare OverflowError
    for pathloss_db in (lo, hi):
        dataclasses.replace(params_template, pathloss_db=pathloss_db)
    gen = rngmod.stream(base_seed, rngmod.PATHLOSS)
    losses = gen.uniform(lo, hi, count)
    locations = []
    for i in range(count):
        params = dataclasses.replace(
            params_template, pathloss_db=float(losses[i]),
            seed=rngmod.derive_seed(base_seed, rngmod.LOCATION_SEED, i + 1))
        locations.append(Location(label=f"L{i + 1}", params=params))
    return locations

