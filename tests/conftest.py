import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wptsim import (ChannelModelParams, ToneGrid, WaveformWeights,
                    realize_channel)
from wptsim.codebook import _amplitudes
from wptsim.waveform import tone_moments

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])
settings.load_profile("suite")


@pytest.fixture
def grid4() -> ToneGrid:
    return ToneGrid.centered(2.4e9, 10e6, 4)


@pytest.fixture
def grid1() -> ToneGrid:
    return ToneGrid.centered(2.4e9, 10e6, 1)


def make_channel(seed: int, m: int, grid: ToneGrid, n_taps: int = 8,
                 pathloss_db: float = 60.0, frame: int = 0):
    params = ChannelModelParams(n_taps=n_taps, pathloss_db=pathloss_db,
                                seed=seed)
    return realize_channel(params, m, grid, frame=frame)


def random_weights(gen: np.random.Generator, m: int, n: int,
                   power: float) -> WaveformWeights:
    raw = gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))
    raw *= np.sqrt(2.0 * power / np.sum(np.abs(raw) ** 2))
    return WaveformWeights(weights=raw, power_budget=power)


def dc_batch(gains: np.ndarray, weights: np.ndarray, model) -> np.ndarray:
    """dc power of one (M, N) codeword on (C, M, N) channel gains, shape (C,).

    The unpruned reference for Lloyd's ASSIGN: each channel's amplitudes
    are formed as ASSIGN forms them, so the values are the same bits.
    """
    return model.dc(*tone_moments(_amplitudes(gains, weights)))
