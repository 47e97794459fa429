import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import wptsim.rng as rngmod
from wptsim import (ChannelModelParams, ChannelRealization, Codebook,
                    DiodeMomentModel, ToneGrid, WaveformWeights, protocol,
                    realize_channel, stream, train_lloyd, up_weights)
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


def session_sweeps(book, channels, model) -> tuple:
    """The (S, F, 1+K) dc and RF sweeps of S sessions on their channels.

    channels[s][f] is session s's channel in frame f.  UP's codeword is
    column 0 and the book's K codewords follow, each channel rated alone,
    as run_frame rates its one channel.
    """
    grid = channels[0][0].grid
    up = up_weights(book.m_antennas, grid, book.power_budget)
    swept = Codebook(np.concatenate([up.weights[None], book.weights]),
                     book.power_budget)
    stack = ChannelRealization(grid, np.array(
        [[ch.gains for ch in frames] for frames in channels]))
    return protocol._sweep(swept, stack, model)


@pytest.fixture(scope="session")
def lloyd_k64():
    """The K=64 Lloyd book at M=4, N=8, trained once for the whole suite.

    Criterion 5 and the ceiling test of tests/test_bounds.py both measure
    it: 1000 training channels with seeds 300000+ at 60 dB and 8 taps,
    stream (9500, TRAINING), 30 iterations, power 2 W.  Returns the book
    and the seconds taken to draw its channels and train it.
    """
    start = time.perf_counter()
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    train = [make_channel(300_000 + i, 4, grid) for i in range(1000)]
    book = train_lloyd(train, 64, DiodeMomentModel(), iters=30,
                       rng=stream(9500, rngmod.TRAINING), power=2.0)
    return book, time.perf_counter() - start


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
