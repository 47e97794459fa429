"""Closed-loop multi-sine multi-antenna wireless power transfer simulator.

Deterministic waveform synthesis, frequency-selective channels, rectenna
output models, transmit strategies (uniform, matched-filter, limited
feedback with trained codebooks), a frame-level feedback protocol, and a
campaign harness with byte-reproducible CSV output.
"""

from .bounds import dc_ceiling
from .campaign import (ALL_LOCATIONS, FIGURES, CampaignConfig, SummaryRow,
                       db_gain, figure_config, load_config, run_campaign,
                       summarize)
from .channel import (ChannelModelParams, ChannelRealization, Location,
                      frequency_response, make_locations, realize_channel,
                      sample_taps, tap_variances)
from .codebook import (Codebook, gen_nested, gen_random, load_codebook,
                       save_codebook, train_lloyd)
from .errors import (CodebookIOError, ConfigError, DegenerateChannelError,
                     DimensionError, DomainError, ProtocolError,
                     SummaryError, WptsimError, ZeroWaveformError)
from .protocol import (UP_FALLBACK, FrameConfig, FrameReport, LinkModel,
                       SessionReport, decode_feedback, encode_feedback,
                       run_frame, run_session)
from .rectenna import (AdcConfig, DiodeMomentModel, EfficiencyTableModel,
                       TableDiagnostics, dc_power_moment, dc_power_table,
                       measure_dc)
from .rng import derive_seed, stream
from .strategies import (SmfParams, feedback_bits, select_codeword,
                         smf_weights, up_weights)
from .timedomain import moments_by_averaging, received_waveform, sample_times
from .waveform import (EffectiveTones, ToneGrid, WaveformWeights,
                       effective_tones, papr, received_rf_power,
                       waveform_moments)

__version__ = "0.1.0"

__all__ = [
    "ALL_LOCATIONS", "AdcConfig", "CampaignConfig", "ChannelModelParams",
    "ChannelRealization", "Codebook", "CodebookIOError", "ConfigError",
    "DegenerateChannelError", "DiodeMomentModel", "DimensionError",
    "DomainError", "EffectiveTones", "EfficiencyTableModel", "FIGURES",
    "FrameConfig", "FrameReport", "LinkModel", "Location", "ProtocolError",
    "SessionReport", "SmfParams", "SummaryError", "SummaryRow",
    "TableDiagnostics", "ToneGrid", "UP_FALLBACK", "WaveformWeights",
    "WptsimError", "ZeroWaveformError",
    "db_gain", "dc_ceiling", "dc_power_moment", "dc_power_table",
    "decode_feedback", "derive_seed", "effective_tones", "encode_feedback",
    "feedback_bits", "figure_config", "frequency_response", "gen_nested",
    "gen_random", "load_codebook", "load_config", "make_locations",
    "measure_dc", "moments_by_averaging", "papr", "realize_channel",
    "received_rf_power", "received_waveform", "run_campaign", "run_frame",
    "run_session", "sample_taps", "sample_times", "save_codebook",
    "select_codeword", "smf_weights", "stream", "summarize", "tap_variances",
    "train_lloyd", "up_weights", "waveform_moments",
]
