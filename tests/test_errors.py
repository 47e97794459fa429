"""One rule per argument kind: every count, positive quantity and array.

A count (tones, taps, antennas, codebook size, iterations, ADC bits, a
seed or a random-stream path element) must be a whole number in its
range, and a positive quantity must be > 0 and finite.  Each row of the
scalar tables below is one argument of a public constructor or function;
it is fed the values that break its rule, and each must raise
DomainError, or ConfigError from CampaignConfig, never construct,
truncate or return nan.  An array must fit its shape pattern, and most
must hold finite entries: each row of the array table is fed a wrong
number of axes, an empty axis, a size off its fixed axis and non-finite
entries, which raise DimensionError or DomainError.
"""

import math
import re

import numpy as np
import pytest

from wptsim import (AdcConfig, CampaignConfig, ChannelModelParams,
                    ChannelRealization, Codebook, ConfigError,
                    DimensionError, DiodeMomentModel, DomainError,
                    EffectiveTones, EfficiencyTableModel, FrameConfig,
                    LinkModel, SmfParams, ToneGrid, WaveformWeights,
                    dc_ceiling, dc_power_moment, dc_power_table,
                    decode_feedback, derive_seed, effective_tones,
                    encode_feedback, feedback_bits, frequency_response,
                    gen_nested, gen_random, make_locations,
                    moments_by_averaging, papr, realize_channel,
                    received_waveform, run_session, sample_taps,
                    sample_times, select_codeword, stream, train_lloyd,
                    up_weights, waveform_moments)
from wptsim.errors import check_count, check_positive, check_shape

from conftest import session_sweeps

GRID = ToneGrid(2, 2.4e9, 10e6)
PARAMS = ChannelModelParams()
BOOK = gen_nested(1, GRID, 1.0, 4, stream(0, 4))
MODEL = DiodeMomentModel()
LIMITED_ADC = {"strategies": ("UP", "LIMITED"), "codebook_sizes": (4,),
               "adc_enabled": True}


CHANNELS = [realize_channel(PARAMS, 1, GRID, frame=i) for i in range(4)]
TABLE_MODEL = EfficiencyTableModel(p_dbm=np.array([-20.0, 0.0]),
                                   papr_axis=np.array([1.0, 3.0]),
                                   eta=np.full((2, 2), 0.2))


def _lloyd(k=2, iters=1, power=1.0, channels=CHANNELS):
    return train_lloyd(channels, k, MODEL, iters=iters, rng=stream(0, 5),
                       power=power)


def _session(channel=CHANNELS[0], sweeps=None):
    # one frame's session, on the sweep of BOOK on channel unless given
    if sweeps is None:
        sweeps = session_sweeps(BOOK, [[channel]], MODEL)
    return run_session(FrameConfig(), sweeps, None, LinkModel(), [None])


#: (argument, call with the probed value, a whole number out of range)
COUNTS = [
    ("ToneGrid.n_tones", lambda v: ToneGrid(v, 2.4e9, 10e6), 0),
    ("ChannelModelParams.n_taps", lambda v: ChannelModelParams(n_taps=v), 0),
    ("ChannelModelParams.seed", lambda v: ChannelModelParams(seed=v),
     2 ** 64),
    ("sample_taps.m_antennas",
     lambda v: sample_taps(PARAMS, v, stream(0, 1)), 0),
    ("realize_channel.frame",
     lambda v: realize_channel(PARAMS, 1, GRID, frame=v), -1),
    ("make_locations.count",
     lambda v: make_locations(v, 0, PARAMS, (55.0, 70.0)), 0),
    ("make_locations.base_seed",
     lambda v: make_locations(2, v, PARAMS, (55.0, 70.0)), -1),
    ("up_weights.m_antennas", lambda v: up_weights(v, GRID, 1.0), 0),
    ("feedback_bits.k_codewords", feedback_bits, 0),
    ("encode_feedback.k_star", lambda v: encode_feedback(v, 4), 5),
    ("encode_feedback.k_codewords", lambda v: encode_feedback(1, v), 0),
    ("decode_feedback.k_codewords", lambda v: decode_feedback("", v), 0),
    ("FrameConfig.t_p.k", FrameConfig().t_p, 0),
    ("AdcConfig.resolution_bits", lambda v: AdcConfig(resolution_bits=v),
     25),
    ("Codebook.prefix.k", BOOK.prefix, 5),
    ("gen_random.m", lambda v: gen_random(v, GRID, 1.0, 2, stream(0, 4)), 0),
    ("gen_random.k", lambda v: gen_random(1, GRID, 1.0, v, stream(0, 4)), 0),
    ("gen_nested.m", lambda v: gen_nested(v, GRID, 1.0, 2, stream(0, 4)), 0),
    ("gen_nested.k_max",
     lambda v: gen_nested(1, GRID, 1.0, v, stream(0, 4)), 0),
    ("train_lloyd.k", lambda v: _lloyd(k=v), 0),
    ("train_lloyd.iters", lambda v: _lloyd(iters=v), 0),
    ("dc_ceiling.k", lambda v: dc_ceiling(PARAMS, 1, GRID, v, MODEL, 1.0), 0),
    ("dc_ceiling.m_antennas",
     lambda v: dc_ceiling(PARAMS, v, GRID, 2, MODEL, 1.0), 0),
    ("stream.seed", stream, -1),
    ("stream.path", lambda v: stream(1, v), -1),
    ("derive_seed.path", lambda v: derive_seed(1, 2, v), -1),
    ("sample_times.oversampling", lambda v: sample_times(GRID, v), 7),
    ("papr.oversampling",
     lambda v: papr(EffectiveTones(np.ones(2)), GRID, v), 7),
    ("moments_by_averaging.oversampling",
     lambda v: moments_by_averaging(np.ones(2), GRID, v), 7),
    ("CampaignConfig.antenna_counts",
     lambda v: CampaignConfig(antenna_counts=(1, v)), 0),
    ("CampaignConfig.tone_counts",
     lambda v: CampaignConfig(tone_counts=(1, v)), 0),
    ("CampaignConfig.codebook_sizes",
     lambda v: CampaignConfig(codebook_sizes=(2, v)), 0),
    ("CampaignConfig.n_locations", lambda v: CampaignConfig(n_locations=v), 0),
    ("CampaignConfig.frames_per_location",
     lambda v: CampaignConfig(frames_per_location=v), 0),
    ("CampaignConfig.seed", lambda v: CampaignConfig(seed=v), -1),
    ("CampaignConfig.training_channels",
     lambda v: CampaignConfig(training_channels=v), -1),
    ("CampaignConfig.training_iters",
     lambda v: CampaignConfig(training_iters=v), -1),
    ("CampaignConfig.n_taps", lambda v: CampaignConfig(n_taps=v), 0),
    ("CampaignConfig.adc_resolution_bits",
     lambda v: CampaignConfig(adc_resolution_bits=v, **LIMITED_ADC), 25),
]

#: (argument, call with the probed value)
POSITIVES = [
    ("ToneGrid.center_frequency_hz", lambda v: ToneGrid(2, v, 10e6)),
    ("ToneGrid.bandwidth_hz", lambda v: ToneGrid(2, 2.4e9, v)),
    ("ChannelModelParams.tap_spacing_s",
     lambda v: ChannelModelParams(tap_spacing_s=v)),
    ("SmfParams.power_budget", lambda v: SmfParams(power_budget=v)),
    ("up_weights.power", lambda v: up_weights(1, GRID, v)),
    ("DiodeMomentModel.k2", lambda v: DiodeMomentModel(k2=v)),
    ("DiodeMomentModel.alpha", lambda v: DiodeMomentModel(alpha=v)),
    ("AdcConfig.v_ref", lambda v: AdcConfig(v_ref=v)),
    ("AdcConfig.load_resistance", lambda v: AdcConfig(load_resistance=v)),
    ("WaveformWeights.power_budget",
     lambda v: WaveformWeights(np.zeros((1, 2)), v)),
    ("Codebook.power_budget", lambda v: Codebook(BOOK.weights, v)),
    ("gen_random.power", lambda v: gen_random(1, GRID, v, 2, stream(0, 4))),
    ("gen_nested.power", lambda v: gen_nested(1, GRID, v, 2, stream(0, 4))),
    ("train_lloyd.power", lambda v: _lloyd(power=v)),
    ("dc_ceiling.power", lambda v: dc_ceiling(PARAMS, 1, GRID, 2, MODEL, v)),
    ("CampaignConfig.transmit_power_w",
     lambda v: CampaignConfig(transmit_power_w=v)),
    ("CampaignConfig.center_frequency_hz",
     lambda v: CampaignConfig(center_frequency_hz=v)),
    ("CampaignConfig.bandwidth_hz", lambda v: CampaignConfig(bandwidth_hz=v)),
    ("CampaignConfig.tap_spacing_s",
     lambda v: CampaignConfig(tap_spacing_s=v)),
    ("CampaignConfig.k2", lambda v: CampaignConfig(k2=v)),
    ("CampaignConfig.alpha", lambda v: CampaignConfig(alpha=v)),
    ("CampaignConfig.adc_v_ref",
     lambda v: CampaignConfig(adc_v_ref=v, **LIMITED_ADC)),
    ("CampaignConfig.adc_load_resistance",
     lambda v: CampaignConfig(adc_load_resistance=v, **LIMITED_ADC)),
]

# a campaign config names the field in a ConfigError
TABLE = [pytest.param(call, value, ConfigError
                      if name.startswith("CampaignConfig") else DomainError,
                      id=f"{name}-{value}")
         for rows, values in ((COUNTS, (2.5, math.nan, math.inf)),
                              (POSITIVES, (math.nan, math.inf, 0.0)))
         for name, call, *out_of_range in rows
         for value in values + tuple(out_of_range)]


#: (argument, call with the probed array, an array that fits, an array
#: of another size on a fixed axis or None when no axis is fixed, whether
#: the entries must be finite); the fitting array has the fewest axes its
#: pattern allows, so dropping its first axis leaves too few
ARRAYS = [
    ("ChannelRealization.gains", lambda v: ChannelRealization(GRID, v),
     np.ones((1, 2)), np.ones((1, 3)), True),
    ("WaveformWeights.weights", lambda v: WaveformWeights(v, 1.0),
     np.full((1, 2), 0.5), None, True),
    ("EffectiveTones.amplitudes", EffectiveTones, np.ones(2), None, True),
    ("Codebook.weights", lambda v: Codebook(v, 1.0), BOOK.weights, None,
     True),
    ("frequency_response.taps",
     lambda v: frequency_response(v, PARAMS, GRID),
     np.ones((1, PARAMS.n_taps)), np.ones((1, 1, PARAMS.n_taps + 1)),
     False),
    ("effective_tones.channel",
     lambda v: effective_tones(ChannelRealization(GRID, v),
                               up_weights(1, GRID, 1.0)),
     np.ones((1, 2)), np.ones((2, 2)), True),
    ("effective_tones.weights",
     lambda v: effective_tones(CHANNELS[0], WaveformWeights(v, 1.0)),
     np.full((1, 2), 0.5), np.full((1, 3), 0.5), True),
    ("waveform_moments.tones",
     lambda v: waveform_moments(EffectiveTones(v), GRID), np.ones(2),
     np.ones(3), True),
    ("dc_power_moment.tones",
     lambda v: dc_power_moment(MODEL, EffectiveTones(v), GRID), np.ones(2),
     np.ones(3), True),
    ("papr.tones", lambda v: papr(EffectiveTones(v), GRID), np.ones(2),
     np.ones(3), True),
    ("dc_power_table.tones",
     lambda v: dc_power_table(TABLE_MODEL, EffectiveTones(v), GRID),
     np.ones(2), np.ones(3), True),
    # a session's channels reach it only through their sweep
    ("run_session.channels",
     lambda v: _session(channel=ChannelRealization(GRID, v)),
     np.ones((1, 2)), np.ones((2, 2)), True),
    # the dc powers against RF powers of one session, one frame, UP's
    # column and 4 codewords': the two arrays must agree
    ("run_session.sweeps",
     lambda v: _session(sweeps=(v, np.ones((1, 1, 5)))),
     np.ones((1, 1, 5)), np.ones((1, 1, 4)), False),
    ("train_lloyd.training_channels",
     lambda v: _lloyd(channels=CHANNELS + [ChannelRealization(GRID, v)]),
     np.ones((1, 2)), np.ones((2, 2)), True),
    ("select_codeword.measurements", select_codeword, np.ones(3), None,
     True),
    ("received_waveform.a",
     lambda v: received_waveform(v, GRID, np.zeros(3)), np.ones(2),
     np.ones(3), True),
    ("received_waveform.time_points",
     lambda v: received_waveform(np.ones(2), GRID, v), np.zeros(3), None,
     True),
    ("moments_by_averaging.a", lambda v: moments_by_averaging(v, GRID),
     np.ones(2), np.ones(3), True),
]


def _array_cases(fits, off_grid, finite):
    """(case, probed array, expected error) of one row of ARRAYS."""
    cases = [("ndim", fits[0], DimensionError),
             ("empty", fits[:0], DimensionError)]
    if off_grid is not None:
        cases.append(("size", off_grid, DimensionError))
    for case, value in (("nan", math.nan), ("inf", math.inf)) if finite else ():
        bad = np.array(fits)
        bad.flat[0] = value
        cases.append((case, bad, DomainError))
    return cases


ARRAY_TABLE = [pytest.param(call, value, expected, id=f"{name}-{case}")
               for name, call, fits, off_grid, finite in ARRAYS
               for case, value, expected in _array_cases(fits, off_grid,
                                                         finite)]


@pytest.mark.parametrize("call, value, expected", TABLE)
def test_a_bad_count_or_positive_quantity_is_rejected(call, value, expected):
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("call, value, expected", ARRAY_TABLE)
def test_a_bad_array_is_rejected(call, value, expected):
    with pytest.raises(expected):
        call(value)


def test_the_rules_accept_their_whole_and_positive_values():
    assert check_count("n", 3.0) == 3 and type(check_count("n", 3.0)) is int
    assert check_count("n", np.int64(0), 0) == 0
    assert check_count("n", 2 ** 64 - 1, 0, 2 ** 64 - 1) == 2 ** 64 - 1
    check_positive("p", 1e-300)
    check_positive("p", 1e300)
    # a whole float is a count: these run as if given the int
    assert ToneGrid(2.0, 2.4e9, 10e6).n_tones == 2
    assert np.array_equal(stream(1, 2.0).random(3), stream(1, 2).random(3))
    assert CampaignConfig(seed=7.0, antenna_counts=(1.0, 2)).seed == 7


@pytest.mark.parametrize("name, call, fits", [row[:3] for row in ARRAYS],
                         ids=[row[0] for row in ARRAYS])
def test_each_array_row_accepts_its_fitting_array(name, call, fits):
    # so each rejection above is the probed argument's, not the call's
    call(fits)


def test_the_shape_rule():
    for shape in ((2, 4), (3, 2, 4), (1, 1, 5, 4)):
        check_shape("x", shape, (..., None, 4))
    check_shape("x", (2, 4), (2, 4))
    check_shape("x", (7,), (None,))
    for shape in ((4,), (0, 4), (0, 2, 4), (2, 3), ()):
        with pytest.raises(DimensionError, match=re.escape(
                f"x shape {shape} does not fit (..., *, 4)")):
            check_shape("x", shape, (..., None, 4))
    for shape, pattern, text in (((2, 4, 1), (2, 4), "(2, 4)"),
                                 ((3,), (2,), "(2,)"),
                                 ((0,), (None,), "(*,)")):
        with pytest.raises(DimensionError, match=re.escape(
                f"x shape {shape} does not fit {text}")):
            check_shape("x", shape, pattern)
