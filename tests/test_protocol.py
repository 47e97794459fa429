"""Frame protocol: timing, feedback encoding, fallback, energy accounting."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (AdcConfig, ChannelRealization, ConfigError,
                    DimensionError, DiodeMomentModel, DomainError,
                    EfficiencyTableModel, FrameConfig, FrameReport,
                    LinkModel, ProtocolError, ToneGrid, UP_FALLBACK,
                    decode_feedback, dc_power_moment, effective_tones,
                    encode_feedback, gen_nested, gen_random, measure_dc,
                    protocol, received_rf_power, run_frame, run_session,
                    stream, up_weights, waveform)

from conftest import make_channel, session_sweeps


# ---------------------------------------------------------------------------
# frame timing

def test_frame_config_split_is_exact():
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    assert 8 * cfg.t_s == 0.08
    assert cfg.t_p(8) == 1.92        # exact in binary floating point
    assert 8 * cfg.t_s + cfg.t_p(8) == cfg.t_frame


def test_frame_config_rejects_training_overrun():
    with pytest.raises(ConfigError):
        FrameConfig(t_s=0.010, t_frame=2.0).t_p(200)
    with pytest.raises(ConfigError):
        FrameConfig(t_s=0.010, t_frame=2.0 - 1e-12).t_p(200)


@pytest.mark.parametrize("field", ["t_s", "t_frame"])
def test_frame_config_rejects_non_finite_times(field):
    for value in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ConfigError,
                           match=f"{field} must be > 0 and finite"):
            FrameConfig(**{field: value})


def test_link_model_domain():
    with pytest.raises(DomainError):
        LinkModel(delivery_probability=1.5)
    with pytest.raises(DomainError):
        LinkModel(delivery_probability=-0.1)


# ---------------------------------------------------------------------------
# feedback encoding

@given(st.integers(min_value=0, max_value=6))
@settings(max_examples=7)
def test_feedback_round_trip_all_indices(log2k):
    k = 2 ** log2k
    for k_star in range(1, k + 1):
        bits = encode_feedback(k_star, k)
        assert len(bits) == log2k
        assert decode_feedback(bits, k) == k_star


def test_feedback_k1_empty_payload():
    bits = encode_feedback(1, 1)
    assert bits == ""
    assert decode_feedback(bits, 1) == 1


def test_feedback_msb_first():
    assert encode_feedback(5, 8) == "100"   # index 4 as 3 bits


def test_encode_rejects_out_of_range():
    with pytest.raises(DomainError):
        encode_feedback(0, 8)
    with pytest.raises(DomainError):
        encode_feedback(9, 8)


def test_decode_rejects_wrong_length():
    with pytest.raises(ProtocolError):
        decode_feedback("10", 8)


def test_decode_rejects_non_binary():
    with pytest.raises(ProtocolError):
        decode_feedback("1x0", 8)


def test_decode_rejects_overflow_index():
    # K=5 needs 3 bits but only indices 1..5 are valid
    with pytest.raises(ProtocolError):
        decode_feedback("111", 5)


# ---------------------------------------------------------------------------
# training sweep and frame execution

def _setup(k=4, m=2, n=2, seed=20):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    book = gen_nested(m, grid, 1.0, k, stream(seed, 4))
    ch = make_channel(seed, m, grid, pathloss_db=10.0)
    model = DiodeMomentModel()
    return grid, book, ch, model


_TABLE = EfficiencyTableModel(p_dbm=np.array([-60.0, 40.0]),
                              papr_axis=np.array([1.0, 20.0]),
                              eta=np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_run_training_ideal_returns_raw_dc():
    grid, book, ch, model = _setup()
    readings = run_frame(FrameConfig(), book, ch, model, None, LinkModel(),
                         None, None).measurements
    assert len(readings) == 4
    for e, r in zip(book.entries, readings):
        expected = dc_power_moment(model, effective_tones(ch, e), grid)
        assert r == pytest.approx(expected, rel=1e-12)


def test_run_training_adc_quantizes():
    _, book, ch, model = _setup()
    readings = run_frame(FrameConfig(), book, ch, model, AdcConfig(),
                         LinkModel(), None, None).measurements
    step = 3.3 / 4095
    for r in readings:
        assert r == pytest.approx(round(r / step) * step, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_batched_sweep_is_bit_identical_to_per_codeword_path(m, n):
    # selections at M=1, N=1 hang on last-bit rounding (every codeword ties
    # in exact arithmetic), so the batch must equal the scalar path exactly
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    book = gen_nested(m, grid, 1.0, 64, stream(40 + m, 4, n))
    model = DiodeMomentModel()
    for frame in range(20):
        ch = make_channel(41 + n, m, grid, pathloss_db=10.0, frame=frame)
        expected = [dc_power_moment(model, effective_tones(ch, e), grid)
                    for e in book.entries]
        assert protocol._sweep(book, ch, model)[0].tolist() == expected


def test_one_codeword_sweep_equals_effective_tones_at_m1_n1():
    # at M=N=K=1 the sweep's multiply has one element; numpy rounds it
    # with the fused multiply-add only when both operands share an ndim
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    model = DiodeMomentModel()
    for i in range(200):
        book = gen_random(1, grid, 1.0, 1, stream(60, 4, i))
        ch = make_channel(61 + i, 1, grid, pathloss_db=10.0)
        assert protocol._sweep(book, ch, model)[0][0] == dc_power_moment(
            model, effective_tones(ch, book.entries[0]), grid)


def test_codebook_stacks_its_entries_read_only():
    _, book, _, _ = _setup(k=4)
    weights = book.weights
    assert weights.shape == (4, 2, 2)
    for e, w in zip(book.entries, weights):
        assert np.array_equal(e.weights, w)
        assert not e.weights.flags.writeable
    assert not weights.flags.writeable
    assert book.weights is weights


def test_run_frame_energy_accounting():
    _, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    link = LinkModel(delivery_probability=1.0)
    report = run_frame(cfg, book, ch, model, None, link, None, stream(21, 6))
    raw = protocol._sweep(book, ch, model)[0]
    assert report.energy_training == pytest.approx(sum(raw) * 0.010,
                                                   rel=1e-12)
    assert report.energy_wpt == pytest.approx(report.p_dc_wpt * cfg.t_p(4),
                                              rel=1e-12)
    assert report.selected_index == int(np.argmax(raw)) + 1
    assert report.applied_index == report.selected_index
    assert report.feedback_delivered


def test_run_frame_applies_best_codeword_dc():
    grid, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    link = LinkModel(delivery_probability=1.0)
    report = run_frame(cfg, book, ch, model, None, link, None, stream(22, 6))
    best = max(dc_power_moment(model, effective_tones(ch, e), grid)
               for e in book.entries)
    assert report.p_dc_wpt == pytest.approx(best, rel=1e-12)


def test_run_frame_lost_feedback_first_frame_applies_uniform():
    grid, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    lost = LinkModel(delivery_probability=0.0)
    report = run_frame(cfg, book, ch, model, None, lost, None, stream(23, 6))
    assert not report.feedback_delivered
    assert report.applied_index == UP_FALLBACK
    up = up_weights(2, grid, 1.0)
    expected = dc_power_moment(model, effective_tones(ch, up), grid)
    assert report.p_dc_wpt == pytest.approx(expected, rel=1e-12)


def test_run_frame_evaluates_each_codeword_once(monkeypatch):
    # a frame that sweeps its own channel rates UP's codeword and each of
    # the K codewords once, K+1 waveforms, whatever it applies: the applied
    # powers, UP's fallback included, are read from that sweep
    grid, book, ch, _ = _setup(k=4)
    dcs = protocol._sweep(book, ch, _TABLE)[0]
    up = protocol._dc_power(_TABLE, effective_tones(ch, up_weights(
        2, grid, book.power_budget)), grid)
    real = protocol.dc_power_table
    rated = []

    def spy(rect_model, tones, grid, **kwargs):
        rated.append(tones.amplitudes[..., 0].size)
        return real(rect_model, tones, grid, **kwargs)

    monkeypatch.setattr(protocol, "dc_power_table", spy)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    for link, fallback, k_evals in ((LinkModel(1.0), None, 5),
                                    (LinkModel(0.0), 3, 5),
                                    (LinkModel(0.0), None, 5)):
        rated.clear()
        report = run_frame(cfg, book, ch, _TABLE, None, link, fallback,
                           stream(27, 6))
        assert sum(rated) == k_evals
        assert report.p_dc_wpt == (up if report.applied_index == UP_FALLBACK
                                   else dcs[report.applied_index - 1])
    assert report.applied_index == UP_FALLBACK


def test_run_frame_lost_feedback_keeps_previous_applied():
    _, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    lost = LinkModel(delivery_probability=0.0)
    report = run_frame(cfg, book, ch, model, None, lost, 3, stream(24, 6))
    assert report.applied_index == 3


def test_run_frame_rejects_a_book_whose_training_fills_the_frame():
    # K = 8 dwells of 0.25 s fill a 2 s frame; K = 4 leave 1 s of WPT
    _, book, ch, model = _setup(k=8)
    cfg = FrameConfig(t_s=0.25, t_frame=2.0)
    with pytest.raises(ConfigError):
        run_frame(cfg, book, ch, model, None, LinkModel(), None,
                  stream(25, 6))
    report = run_frame(cfg, book.prefix(4), ch, model, None, LinkModel(),
                       None, stream(25, 6))
    assert report.energy_wpt == report.p_dc_wpt * 1.0


def _frames(report, s=0):
    # session s of a SessionReport as its FrameReports, in frame order
    return [report.frame(s, f) for f in range(report.applied_index.shape[1])]


def _session(cfg, book, channels, model, adc, link, gen):
    # one session's reports from a batch of one
    return _frames(run_session(cfg, session_sweeps(book, [channels], model),
                               adc, link, [gen]))


def test_run_session_threads_fallback_state():
    # a delivered frame applies its decoded selection; a lost one carries
    # the previous frame's applied index, or UP on the first frame
    grid, book, _, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    channels = [make_channel(27, 2, grid, pathloss_db=10.0, frame=i)
                for i in range(8)]
    reports = _session(cfg, book, channels, model, None,
                       LinkModel(delivery_probability=0.5), stream(27, 6))
    previous = UP_FALLBACK
    for report in reports:
        if report.feedback_delivered:
            assert report.applied_index == report.selected_index >= 1
        else:
            assert report.applied_index == previous
        previous = report.applied_index
    # a selection carried across a lost frame that selected another one
    assert any(a.feedback_delivered and not b.feedback_delivered
               and b.selected_index != a.applied_index
               for a, b in zip(reports, reports[1:]))


def test_run_session_all_lost_stays_uniform():
    _, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    lost = LinkModel(delivery_probability=0.0)
    reports = _session(cfg, book, [ch] * 4, model, None, lost, stream(28, 6))
    assert [r.applied_index for r in reports] == [UP_FALLBACK] * 4


def test_run_session_rejects_zero_frames():
    # a sweep of no session or of no frame has an empty axis
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    for shape, gens in (((0, 1, 5), []), ((1, 0, 5), [stream(30, 6)])):
        with pytest.raises(DimensionError, match=re.escape(
                f"sweeps shape {shape} does not fit (*, *, *)")):
            run_session(cfg, (np.zeros(shape), np.zeros(shape)), None,
                        LinkModel(), gens)


def test_run_session_rejects_ragged_sessions_and_missing_rngs():
    _, book, ch, model = _setup()
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    with pytest.raises(DomainError, match="1 rngs for 2 sessions"):
        run_session(cfg, session_sweeps(book, [[ch] * 3] * 2, model), None,
                    LinkModel(), [None])


def test_run_session_rejects_sweeps_of_the_wrong_length(monkeypatch):
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    swept = []
    monkeypatch.setattr(protocol, "_sweep",
                        lambda *args: swept.append(args))
    # (sessions, frames, 1 + codewords): K is the last axis's length less
    # UP's column, and one rng stands for each session
    report = run_session(cfg, (np.ones((1, 3, 4)), np.ones((1, 3, 4))),
                         None, LinkModel(), [stream(33, 6)])
    assert report.measurements.shape == (1, 3, 3)
    with pytest.raises(DomainError, match="1 rngs for 2 sessions"):
        run_session(cfg, (np.zeros((2, 3, 5)), np.zeros((2, 3, 5))), None,
                    LinkModel(), [stream(33, 6)])
    with pytest.raises(DimensionError, match=re.escape(
            "sweeps shape (3, 5) does not fit (*, *, *)")):
        run_session(cfg, (np.zeros((3, 5)), np.zeros((3, 5))), None,
                    LinkModel(), [stream(33, 6)])
    with pytest.raises(DimensionError, match=re.escape(
            "sweeps shape (5,) does not fit (1, 3, 5)")):
        run_session(cfg, (np.zeros((1, 3, 5)), np.zeros(5)), None,
                    LinkModel(), [stream(33, 6)])
    # a session sweeps nothing of its own
    assert swept == []


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3)])
def test_session_rejects_a_book_off_the_channels_shape(m, n):
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_nested(2, ToneGrid.centered(2.4e9, 10e6, n), 1.0, 2,
                      stream(34, 4))
    channel = make_channel(34, m, grid)
    with pytest.raises(DimensionError, match=re.escape(
            f"channel gains shape ({m}, 2) does not fit (2, {n})")):
        run_frame(FrameConfig(), book, channel, DiodeMomentModel(), None,
                  LinkModel(), None, None)
    with pytest.raises(DimensionError, match=re.escape(
            f"channel gains shape ({m}, 2) does not fit (..., 2, {n})")):
        protocol._sweep(book, channel, DiodeMomentModel())


def test_a_stacked_channel_is_rejected_not_broadcast():
    # gains of shape (F, M, N) would broadcast against the (K, M, N) book;
    # a frame takes one (M, N) channel, and the sweep rates each channel
    # of a stack alone
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_nested(2, grid, 1.0, 2, stream(35, 4))
    stack = ChannelRealization(grid=grid, gains=np.stack(
        [make_channel(35 + i, 2, grid).gains for i in range(2)]))
    with pytest.raises(DimensionError, match=re.escape(
            "channel gains shape (2, 2, 2) does not fit (2, 2)")):
        run_frame(FrameConfig(), book, stack, DiodeMomentModel(), None,
                  LinkModel(), None, None)
    assert protocol._sweep(book, stack, DiodeMomentModel())[0].tolist() == [
        protocol._sweep(book, ChannelRealization(grid, gains),
                        DiodeMomentModel())[0].tolist()
        for gains in stack.gains]


def _frame_by_frame(cfg, book, channels, model, adc, link, gen):
    # a session as a chain of run_frame calls, each frame sweeping its own
    # channel and handing its applied index to the next; run_frame is
    # run_session's one-frame case, so _loop_frames below is the reference
    # that shares none of its code
    reports, fallback = [], None
    for ch in channels:
        report = run_frame(cfg, book, ch, model, adc, link, fallback, gen)
        reports.append(report)
        fallback = report.applied_index
    return reports


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_session_batch_equals_frame_by_frame(m, n):
    # at M=1, N=1 every codeword ties in exact arithmetic and rounding picks
    # the winner, so the batched sweep must equal each frame's own sweep.
    # At M=N=K=1 a frame's amplitudes are one element, which numpy
    # multiplies without the fused multiply-add of its array loops; a
    # random codeword has an imaginary part for that rounding to show in.
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    books = (gen_random(m, grid, 1.0, 1, stream(50 + m, 4, n)),
             gen_nested(m, grid, 1.0, 64, stream(50 + m, 4, n)))
    model = DiodeMomentModel()
    lossy = LinkModel(delivery_probability=0.5)
    fixed = [make_channel(51, m, grid, pathloss_db=10.0)] * 6
    fading = [make_channel(52, m, grid, pathloss_db=10.0, frame=i)
              for i in range(6)]
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    # a 0.1 ohm load keeps the readings below v_ref; the ADC noise draws
    # from the session's stream, interleaved with the link's draws
    adcs = (None, AdcConfig(load_resistance=0.1, noise_sigma=1e-3))
    for book, channels, adc in itertools.product(books, (fixed, fading),
                                                 adcs):
        batched = _session(cfg, book, channels, model, adc, lossy,
                           stream(53, 6, m, n))
        alone = _frame_by_frame(cfg, book, channels, model, adc, lossy,
                                stream(53, 6, m, n))
        assert batched == alone
        assert _loop_frames(cfg, book, channels, model, adc, lossy,
                            stream(53, 6, m, n)) == alone
        assert any(not r.feedback_delivered for r in batched)
        if book.k_codewords > 1:
            assert len(set(batched[0].measurements)) > 1
    # an (S, D, M, N) stack's sweep is each channel's own to the bit, on
    # either rectifier, for K = 1 and K = 64
    stack = ChannelRealization(grid, np.array(
        [[ch.gains for ch in frames] for frames in (fixed, fading)]))
    for book, rect_model in itertools.product(books, (model, _TABLE)):
        alone = [[protocol._sweep(book, ch, rect_model) for ch in frames]
                 for frames in (fixed, fading)]
        for i, powers in enumerate(protocol._sweep(book, stack, rect_model)):
            assert powers.shape == (2, 6, book.k_codewords)
            assert powers.tolist() == [[sweep[i].tolist() for sweep in row]
                                       for row in alone]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_a_session_that_cannot_draw_runs_without_a_stream(seed):
    # a certain link with no ADC or a noiseless one reads its stream only
    # in the always-true delivery draw, so no stream gives the same reports
    # as any stream
    grid, book, _, model = _setup(k=8, m=2, n=4, seed=70 + seed)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    channels = [make_channel(70 + seed, 2, grid, pathloss_db=10.0, frame=i)
                for i in range(4)]
    # a 0.1 ohm load keeps the readings below v_ref
    adcs = (None, AdcConfig(load_resistance=0.1))
    link = LinkModel()
    assert not any(protocol.session_draws(link, adc) for adc in adcs)
    for adc in adcs:
        alone = _session(cfg, book, channels, model, adc, link, None)
        assert all(r.feedback_delivered for r in alone)
        for path in range(3):
            assert _session(cfg, book, channels, model, adc, link,
                            stream(seed, 6, path)) == alone
        assert _frame_by_frame(cfg, book, channels, model, adc, link,
                               None) == alone
        assert _loop_frames(cfg, book, channels, model, adc, link,
                            None) == alone


def test_rng_none_raises_where_a_session_draws():
    _, book, ch, model = _setup(k=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    lossy, noisy = LinkModel(0.999), AdcConfig(noise_sigma=1e-3)
    for adc, link in ((None, lossy), (None, LinkModel(0.0)),
                      (noisy, LinkModel())):
        with pytest.raises(DomainError, match="requires an rng"):
            run_session(cfg, session_sweeps(book, [[ch] * 3], model), adc,
                        link, [None])
        # one session without a stream is enough
        with pytest.raises(DomainError, match="requires an rng"):
            run_session(cfg, session_sweeps(book, [[ch] * 3] * 2, model),
                        adc, link, [stream(29, 6), None])
    for adc, link in ((None, lossy), (noisy, LinkModel())):
        assert protocol.session_draws(link, adc)
        with pytest.raises(DomainError, match="requires an rng"):
            run_frame(cfg, book, ch, model, adc, link, None, None)


@pytest.mark.parametrize("delivery", [1.0, 0.5])
def test_a_session_given_a_stream_draws_in_frame_order(delivery):
    # each frame draws its K readings' noise in codeword order, then its
    # delivery, the certain link's included; the draws are written out
    # here from a second copy of the stream
    grid, book, _, model = _setup(k=8, m=2, n=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    channels = [make_channel(64, 2, grid, pathloss_db=10.0, frame=i)
                for i in range(8)]
    for adc in (None, AdcConfig(load_resistance=0.1, noise_sigma=1e-3)):
        gen, ref = stream(65, 6), stream(65, 6)
        reports = _session(cfg, book, channels, model, adc,
                           LinkModel(delivery), gen)
        for ch, report in zip(channels, reports):
            dcs = protocol._sweep(book, ch, model)[0].tolist()
            if adc is not None:
                dcs = [measure_dc(adc, p, ref)[1] for p in dcs]
            assert report.measurements == tuple(dcs)
            assert report.feedback_delivered == (ref.random() < delivery)
        assert any(not r.feedback_delivered for r in reports) == \
            (delivery < 1)
        # and the session leaves its stream where the reference is
        assert gen.random() == ref.random()


def test_session_batch_equals_frame_by_frame_on_the_table_model():
    grid, book, _, _ = _setup(k=8, m=2, n=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    fading = [make_channel(54, 2, grid, pathloss_db=10.0, frame=i)
              for i in range(6)]
    lossy = LinkModel(delivery_probability=0.5)
    batched = _session(cfg, book, fading, _TABLE, None, lossy, stream(55, 6))
    assert batched == _frame_by_frame(cfg, book, fading, _TABLE, None, lossy,
                                      stream(55, 6))
    assert batched == _loop_frames(cfg, book, fading, _TABLE, None, lossy,
                                   stream(55, 6))


def _loop_frames(cfg, book, channels, model, adc, link, gen):
    # a session as frames of Python scalars, the way a frame was computed
    # before sessions ran as arrays: argmax over the readings, the index
    # fed back as bits, the training dc added left to right
    k, reports, applied = book.k_codewords, [], UP_FALLBACK
    for ch in channels:
        dcs, p_rfs = (x.tolist() for x in protocol._sweep(book, ch, model))
        readings = (dcs if adc is None
                    else [measure_dc(adc, p, gen)[1] for p in dcs])
        selected = readings.index(max(readings)) + 1
        delivered = gen is None or gen.random() < link.delivery_probability
        if delivered:
            applied = decode_feedback(encode_feedback(selected, k), k)
        if applied == UP_FALLBACK:
            tones = effective_tones(ch, up_weights(
                book.m_antennas, ch.grid, book.power_budget))
            p_dc = protocol._dc_power(model, tones, ch.grid)
            p_rf = received_rf_power(tones)
        else:
            p_dc, p_rf = dcs[applied - 1], p_rfs[applied - 1]
        e_train = 0.0
        for dc in dcs:
            e_train += dc
        reports.append(FrameReport(tuple(readings), selected, applied,
                                   delivered, e_train * cfg.t_s,
                                   p_dc * cfg.t_p(k), p_dc, p_rf))
    return reports


@pytest.mark.parametrize("model", [DiodeMomentModel(), _TABLE],
                         ids=["moment", "table"])
@pytest.mark.parametrize("fading", ["block", "per-frame"])
def test_a_batch_of_sessions_equals_each_session_frame_by_frame(model,
                                                                 fading):
    # S = 4 sessions of F = 5 frames in one call equal each session run
    # as a chain of run_frame calls and as the scalar loop above, and
    # leave every stream where those runs leave it
    grid, book, _, _ = _setup(k=8, m=2, n=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    n_sessions, n_frames = 4, 5
    if fading == "block":
        channels = [[make_channel(80 + s, 2, grid, pathloss_db=10.0)]
                    * n_frames for s in range(n_sessions)]
        # two sessions on one channel
        channels[3] = channels[0]
    else:
        channels = [[make_channel(80 + s, 2, grid, pathloss_db=10.0,
                                  frame=f) for f in range(n_frames)]
                    for s in range(n_sessions)]
    # a 0.1 ohm load keeps the readings below v_ref
    noisy = AdcConfig(load_resistance=0.1, noise_sigma=1e-3)
    # (link, ADC, the sessions given a stream): a session that cannot
    # draw runs with or without one
    cases = ((LinkModel(0.5), None, {0, 1, 2, 3}),
             (LinkModel(0.5), noisy, {0, 1, 2, 3}),
             (LinkModel(), noisy, {0, 1, 2, 3}),
             (LinkModel(), AdcConfig(load_resistance=0.1), {0, 2}),
             (LinkModel(), None, {1, 3}))
    for case, (link, adc, drawn) in enumerate(cases):
        batch, chain, loop = ([stream(90, case, s) if s in drawn else None
                               for s in range(n_sessions)] for _ in range(3))
        report = run_session(cfg, session_sweeps(book, channels, model), adc,
                             link, batch)
        assert report.applied_index.shape == (n_sessions, n_frames)
        assert report.measurements.shape == (n_sessions, n_frames, 8)
        for s in range(n_sessions):
            alone = _frame_by_frame(cfg, book, channels[s], model, adc, link,
                                    chain[s])
            assert _frames(report, s) == alone
            assert _loop_frames(cfg, book, channels[s], model, adc, link,
                                loop[s]) == alone
            if s in drawn:
                assert batch[s].random() == chain[s].random() \
                    == loop[s].random()
        lost = ~report.feedback_delivered
        assert lost.any() == (link.delivery_probability < 1)
        if link.delivery_probability < 1:
            # some frame falls back to UP and some to a carried selection
            assert (report.applied_index[lost] == UP_FALLBACK).any()
            assert (report.applied_index[lost] != UP_FALLBACK).any()


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_sweep_rf_power_is_received_rf_power(m, n):
    # a frame reads the applied codeword's dc and RF power from the sweep,
    # which on either rectifier must equal those of the codeword's own
    # effective tones, for K = 1 and K = 64, on each channel of a
    # (locations, draws) stack
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    books = (gen_random(m, grid, 2.0, 1, stream(60 + m, 4, n)),
             gen_nested(m, grid, 2.0, 64, stream(60 + m, 4, n)))
    channels = [make_channel(61, m, grid, frame=i) for i in range(30)]
    stack = ChannelRealization(grid, np.array(
        [ch.gains for ch in channels]).reshape(5, 6, m, n))
    for book, model in itertools.product(books, (DiodeMomentModel(),
                                                 _TABLE)):
        swept = (x.reshape(30, -1) for x in protocol._sweep(book, stack,
                                                            model))
        for ch, dcs, p_rfs in zip(channels, *swept, strict=True):
            tones = [effective_tones(ch, e) for e in book.entries]
            assert dcs.tolist() == [protocol._dc_power(model, t, grid)
                                    for t in tones]
            assert p_rfs.tolist() == [received_rf_power(t) for t in tones]


def test_session_forms_tones_only_in_its_sweep(monkeypatch):
    # a session given its sweeps forms no tones and rates no waveform.  A
    # frame run alone forms the book's tones in its one _sweep call, which
    # rates the K = 8 codewords in one dc_power_table call, and rates UP,
    # its first frame's fallback, outside the sweep, delivered or not:
    # one effective_tones and one dc_power_table call of one waveform.
    # Calls are counted, and so are the waveforms each call rates.
    grid, book, _, _ = _setup(k=8, m=2, n=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    fades = [make_channel(62, 2, grid, pathloss_db=10.0, frame=i)
             for i in range(3)]
    sweeps = session_sweeps(book, [fades], _TABLE)
    depth, calls, rows = [], [], []
    real_sweep = protocol._sweep

    def sweep(*args):
        depth.append(1)
        try:
            return real_sweep(*args)
        finally:
            depth.pop()

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls.append((name, bool(depth)))
            if name.startswith("dc_power"):
                rows.append(args[1].amplitudes[..., 0].size)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(protocol, "_sweep", sweep)
    for name in ("effective_tones", "dc_power_table", "dc_power_moment"):
        monkeypatch.setattr(protocol, name, counted(protocol, name))
    monkeypatch.setattr(waveform, "tone_moments",
                        counted(waveform, "tone_moments"))
    for delivery, fallbacks in ((1.0, 0), (0.0, 3)):
        calls.clear()
        report = run_session(cfg, sweeps, None, LinkModel(delivery),
                             [stream(63, 6)])
        assert calls == []
        assert np.count_nonzero(report.applied_index == UP_FALLBACK) \
            == fallbacks
        for ch in fades:
            calls.clear()
            rows.clear()
            run_frame(cfg, book, ch, _TABLE, None, LinkModel(delivery), None,
                      stream(63, 6))
            assert calls.count(("dc_power_table", True)) == 1
            assert calls.count(("effective_tones", True)) == 0
            assert calls.count(("effective_tones", False)) == 1
            assert calls.count(("dc_power_table", False)) == 1
            assert len(calls) == 3
            # UP's call rates UP alone, then the sweep's the 8 codewords
            assert rows == [1, 8]


def test_adc_selection_can_differ_from_ideal_but_stays_valid():
    _, book, ch, model = _setup(k=8, seed=31)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    adc = AdcConfig()
    report = run_frame(cfg, book, ch, model, adc, LinkModel(), None,
                       stream(31, 6))
    assert 1 <= report.selected_index <= 8
    assert len(report.measurements) == 8


def test_measurements_are_reported_per_codeword():
    _, book, ch, model = _setup(k=4)
    cfg = FrameConfig(t_s=0.010, t_frame=2.0)
    report = run_frame(cfg, book, ch, model, None, LinkModel(), None,
                       stream(32, 6))
    assert len(report.measurements) == 4
    assert report.measurements[report.selected_index - 1] == \
        max(report.measurements)
