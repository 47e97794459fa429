"""Transmit strategies: uniform allocation, scaled matched filter, selection."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (ChannelRealization, DegenerateChannelError,
                    DimensionError, DomainError, SmfParams, ToneGrid,
                    effective_tones, feedback_bits, received_rf_power,
                    select_codeword, smf_weights, up_weights)
from wptsim.waveform import radiated_power

from conftest import make_channel


# ---------------------------------------------------------------------------
# uniform power

def test_up_weights_are_equal_and_real():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    w = up_weights(3, grid, 2.0)
    expected = np.sqrt(2.0 * 2.0 / 12.0)
    assert np.allclose(w.weights, expected, rtol=1e-15)
    assert np.all(w.weights.imag == 0.0)


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50)
def test_up_weights_meet_budget_exactly(m, n, power):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    w = up_weights(m, grid, power)
    assert radiated_power(w.weights) == pytest.approx(power, rel=1e-12)


# ---------------------------------------------------------------------------
# scaled matched filter

@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=8),
       st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=60)
def test_smf_meets_budget_exactly(seed, m, n, beta):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    ch = make_channel(seed, m, grid)
    w = smf_weights(ch, SmfParams(beta=beta, power_budget=1.7))
    assert radiated_power(w.weights) == pytest.approx(1.7, rel=1e-12)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=4),
       st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=60)
def test_smf_single_tone_is_mrt(seed, m, beta):
    # one tone: any beta collapses to matched beamforming at full power
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    ch = make_channel(seed, m, grid)
    w = smf_weights(ch, SmfParams(beta=beta, power_budget=2.0))
    p_rf = received_rf_power(effective_tones(ch, w))
    expected = 2.0 * float(np.sum(np.abs(ch.gains) ** 2))
    assert p_rf == pytest.approx(expected, rel=1e-12)


def test_smf_phase_aligns_tones():
    # every effective tone amplitude is real non-negative under SMF
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    ch = make_channel(33, 4, grid)
    w = smf_weights(ch, SmfParams(beta=3.0, power_budget=1.0))
    tones = effective_tones(ch, w)
    assert np.all(tones.amplitudes.real >= 0.0)
    assert np.allclose(tones.amplitudes.imag, 0.0, atol=1e-18)


def test_smf_favors_strong_tones_for_large_beta():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    gains = np.array([[2.0 + 0j, 0.5 + 0j]])
    ch = ChannelRealization(grid=grid, gains=gains)
    w1 = smf_weights(ch, SmfParams(beta=1.0, power_budget=1.0))
    w3 = smf_weights(ch, SmfParams(beta=3.0, power_budget=1.0))
    share1 = np.abs(w1.weights[0, 0]) / np.abs(w1.weights[0, 1])
    share3 = np.abs(w3.weights[0, 0]) / np.abs(w3.weights[0, 1])
    assert share3 > share1 > 1.0


def test_smf_beta_one_is_pure_matched_filter():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    ch = make_channel(44, 2, grid)
    w = smf_weights(ch, SmfParams(beta=1.0, power_budget=1.0))
    # weights proportional to conj(gains)
    ratio = w.weights / np.conj(ch.gains)
    assert np.allclose(ratio, ratio[0, 0], rtol=1e-10)


def test_smf_dead_tone_gets_zero_weight():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    gains = np.array([[1.0 + 0j, 0.0 + 0j]])
    ch = ChannelRealization(grid=grid, gains=gains)
    w = smf_weights(ch, SmfParams(beta=3.0, power_budget=1.0))
    assert np.all(w.weights[:, 1] == 0.0)
    assert radiated_power(w.weights) == pytest.approx(1.0, rel=1e-12)


def test_smf_all_zero_channel_rejected():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    ch = ChannelRealization(grid=grid,
                            gains=np.zeros((1, 2), dtype=complex))
    with pytest.raises(DegenerateChannelError):
        smf_weights(ch, SmfParams(beta=3.0, power_budget=1.0))


@pytest.mark.parametrize("dead", [0, 2])
def test_smf_stack_with_an_all_zero_channel_rejected(dead):
    # one all-zero matrix fails the whole stack, wherever it sits; a dead
    # tone in another matrix does not
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    gains = np.stack([make_channel(45 + i, 2, grid).gains for i in range(3)])
    gains[1, :, 0] = 0.0
    smf = SmfParams(beta=3.0, power_budget=1.0)
    w = smf_weights(ChannelRealization(grid=grid, gains=gains), smf)
    assert w.weights.shape == (3, 2, 2) and np.all(w.weights[1, :, 0] == 0)
    gains = gains.copy()
    gains[dead] = 0.0
    with pytest.raises(DegenerateChannelError):
        smf_weights(ChannelRealization(grid=grid, gains=gains), smf)


def test_smf_params_domain():
    with pytest.raises(DomainError):
        SmfParams(beta=0.5, power_budget=1.0)
    with pytest.raises(DomainError):
        SmfParams(beta=3.0, power_budget=0.0)
    # a non-finite beta used to pass here and fail in smf_weights
    for beta in (np.nan, np.inf):
        with pytest.raises(DomainError):
            SmfParams(beta=beta, power_budget=1.0)


# ---------------------------------------------------------------------------
# selection and feedback sizing

def test_select_codeword_argmax_one_based():
    assert select_codeword([0.1, 0.5, 0.3]) == 2
    assert select_codeword([0.9]) == 1


def test_select_codeword_tie_breaks_low():
    assert select_codeword([0.5, 0.5, 0.5]) == 1
    assert select_codeword([0.1, 0.7, 0.7]) == 2


def test_select_codeword_empty_rejected():
    with pytest.raises(DimensionError, match=re.escape(
            "measurements shape (0,) does not fit (..., *)")):
        select_codeword([])
    for empty in (np.zeros((3, 0)), np.zeros((2, 3, 0)), np.float64(1.0)):
        with pytest.raises(DimensionError, match=re.escape(
                f"measurements shape {np.shape(empty)} does not fit")):
            select_codeword(empty)


def test_select_codeword_picks_each_rows_winner():
    # readings of shape (..., K): each row's winner is the 1-D call's,
    # exact ties included; small integer readings tie often
    readings = np.random.default_rng(8).integers(0, 3, (5, 7, 4)) * 0.25
    winners = select_codeword(readings)
    assert winners.shape == (5, 7)
    tied = 0
    for index in np.ndindex(5, 7):
        row = readings[index].tolist()
        assert winners[index] == select_codeword(row) \
            == row.index(max(row)) + 1
        tied += row.count(max(row)) > 1
    assert tied > 5
    assert select_codeword([[0.5, 0.5], [0.1, 0.7]]).tolist() == [1, 2]


def test_feedback_bits_table():
    expected = {1: 0, 2: 1, 4: 2, 8: 3, 16: 4, 32: 5, 64: 6}
    for k, bits in expected.items():
        assert feedback_bits(k) == bits


def test_feedback_bits_non_power_of_two():
    assert feedback_bits(3) == 2
    assert feedback_bits(5) == 3
