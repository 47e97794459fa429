"""Tone grids, weights, moments, and PAPR against independent references."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (ChannelRealization, DimensionError, DomainError,
                    EffectiveTones, EfficiencyTableModel, ToneGrid,
                    WaveformWeights, ZeroWaveformError, effective_tones,
                    gen_random, moments_by_averaging, papr,
                    received_rf_power, stream, waveform_moments)
from wptsim import waveform
from wptsim.waveform import radiated_power
from wptsim.timedomain import received_waveform, sample_times

from conftest import make_channel, random_weights


# ---------------------------------------------------------------------------
# tone grid

def test_centered_grid_tone_spacing():
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    f = grid.angular_frequencies / (2.0 * np.pi)
    assert len(f) == 8
    assert np.allclose(np.diff(f), 10e6 / 8)
    # tones straddle the carrier symmetrically
    assert abs(np.mean(f) - 2.4e9) < 1e-3


def test_single_tone_grid_sits_on_carrier():
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    assert grid.angular_frequencies[0] / (2.0 * np.pi) == pytest.approx(
        2.4e9, rel=1e-15)


def test_grid_delta_f():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    assert grid.delta_f == pytest.approx(2.5e6, rel=1e-15)


@pytest.mark.parametrize("center,bandwidth", [(2.4e9, 10e6), (1e6, 1e6)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_grid_computes_its_frequencies(center, bandwidth, n):
    grid = ToneGrid(n, center, bandwidth)
    offsets = np.arange(1, n + 1) - (n + 1) / 2.0
    expected = 2.0 * np.pi * (center + offsets * (bandwidth / n))
    assert grid.angular_frequencies.tobytes() == expected.tobytes()
    assert not grid.angular_frequencies.flags.writeable
    assert ToneGrid.centered(center, bandwidth, n) == grid


@pytest.mark.parametrize("n,center,bandwidth", [
    (0, 2.4e9, 10e6), (-1, 2.4e9, 10e6), (2.5, 2.4e9, 10e6),
    (4, 0.0, 10e6), (4, 2.4e9, 0.0), (4, 2.4e9, np.inf),
    (np.inf, 2.4e9, 10e6), (np.nan, 2.4e9, 10e6),
    # the lowest tone at -3.375 MHz, and at exactly 0 Hz
    (8, 1e6, 10e6), (2, 2.5e6, 10e6)])
def test_grid_rejects_bad_arguments(n, center, bandwidth):
    with pytest.raises(DomainError):
        ToneGrid(n, center, bandwidth)


def test_default_grids_are_commensurate():
    for n in range(1, 9):
        assert ToneGrid.centered(2.4e9, 10e6, n).is_commensurate()


def test_incommensurate_grid_detected():
    # carrier not a half-multiple of the tone spacing
    grid = ToneGrid.centered(2.4e9 + 137.0, 10e6, 4)
    assert not grid.is_commensurate()


# ---------------------------------------------------------------------------
# weights container

@pytest.mark.parametrize("make,field,dtype", [
    (lambda a: ChannelRealization(grid=ToneGrid.centered(2.4e9, 10e6, 2),
                                  gains=a), "gains", complex),
    (lambda a: WaveformWeights(weights=a, power_budget=10.0), "weights",
     complex),
    (EffectiveTones, "amplitudes", complex),
    (lambda a: EfficiencyTableModel(p_dbm=np.array([-60.0, 0.0]),
                                    papr_axis=np.array([1.0, 8.0]), eta=a),
     "eta", float)], ids=["channel", "weights", "tones", "table"])
def test_an_object_freezes_its_array_not_the_callers(make, field, dtype):
    # an array already of the object's dtype is not copied; the object
    # freezes a view of it, and the caller's array stays writeable
    given = np.full((2, 2), 0.5, dtype=dtype)
    held = getattr(make(given), field)
    assert np.shares_memory(held, given)
    assert given.flags.writeable
    assert not held.flags.writeable
    given[0, 0] = 0.25
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 0.25


def test_weights_reject_over_budget():
    w = np.full((1, 1), 2.0, dtype=complex)   # (1/2)*4 = 2 > 1
    with pytest.raises(DomainError):
        WaveformWeights(weights=w, power_budget=1.0)


def test_weights_reject_shape_mismatch():
    for bad in (np.zeros(3, dtype=complex), np.zeros((2, 0, 3)),
                np.zeros((0, 2))):
        with pytest.raises(DimensionError):
            WaveformWeights(weights=bad, power_budget=1.0)
    w = WaveformWeights(weights=np.zeros((2, 3)), power_budget=1.0)
    assert w.weights.shape == (2, 3)
    # a stack of (M, N) matrices is checked matrix by matrix
    w = WaveformWeights(weights=np.zeros((1, 2, 3)), power_budget=1.0)
    assert w.weights.shape == (1, 2, 3)
    over = np.zeros((2, 1, 1), dtype=complex)
    over[1] = 2.0
    with pytest.raises(DomainError, match="radiated power 2.0 exceeds"):
        WaveformWeights(weights=over, power_budget=1.0)


def _checked_before(s, budget):
    # WaveformWeights' finiteness and budget checks as np.all and np.sum
    # wrote them; None when the weights pass
    if not np.all(np.isfinite(s.view(float))):
        return "weights must be finite"
    p = 0.5 * float(np.sum(np.abs(s) ** 2))
    if p > budget * (1.0 + 1e-9):
        return f"radiated power {p!r} exceeds budget {budget!r}"
    return None


def test_weights_checks_pass_and_fail_as_before():
    gen = stream(5, 99)
    cases = []
    for m, n in ((1, 1), (2, 3), (4, 8)):
        book = gen_random(m, ToneGrid.centered(2.4e9, 10e6, n), 2.0, 16, gen)
        cases += [e.weights.copy() for e in book.entries]
        w = book.entries[0].weights
        # just inside and just past the relative tolerance, and far past
        cases += [w * np.sqrt(1.0 + 0.9e-9), w * np.sqrt(1.0 + 1.1e-9),
                  w * 1.5]
        for bad in (np.nan, np.inf, -np.inf):
            real, imag = w.copy(), w.copy()
            real[-1, -1] = complex(bad, 1.0)
            imag[0, 0] = complex(1.0, bad)
            cases += [real, imag]
    outcomes = set()
    for s in cases:
        expected = _checked_before(s, 2.0)
        outcomes.add(expected is None)
        if expected is None:
            w = WaveformWeights(weights=s, power_budget=2.0)
            assert w.weights.tobytes() == s.tobytes()
            continue
        with pytest.raises(DomainError) as info:
            WaveformWeights(weights=s, power_budget=2.0)
        assert str(info.value) == expected
    assert outcomes == {True, False}


def test_radiated_power_is_half_norm_squared():
    gen = stream(1, 99)
    w = random_weights(gen, 3, 4, 2.0)
    assert radiated_power(w.weights) == pytest.approx(
        0.5 * np.sum(np.abs(w.weights) ** 2), rel=1e-15)


# ---------------------------------------------------------------------------
# effective tones

def test_effective_tones_is_channel_weight_inner_product():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    ch = make_channel(5, 3, grid)
    gen = stream(5, 99)
    weights = random_weights(gen, 3, 2, 1.0)
    tones = effective_tones(ch, weights)
    manual = np.array([np.sum(ch.gains[:, n] * weights.weights[:, n])
                       for n in range(2)])
    assert np.allclose(tones.amplitudes, manual, rtol=1e-15)


@pytest.mark.parametrize("amplitudes,error,message", [
    (np.array(1.0), DimensionError,
     re.escape("amplitudes shape () does not fit (..., *)")),
    (np.ones(0), DimensionError,
     re.escape("amplitudes shape (0,) does not fit (..., *)")),
    (np.ones((2, 0)), DimensionError,
     re.escape("amplitudes shape (2, 0) does not fit (..., *)")),
    (np.array([1.0, np.nan]), DomainError, "amplitudes must be finite"),
    (np.array([1.0, complex(0.0, np.inf)]), DomainError,
     "amplitudes must be finite"),
    (np.array([[1.0], [complex(0.0, np.inf)]]), DomainError,
     "amplitudes must be finite"),
], ids=["0-D", "empty", "empty-stack", "nan", "inf", "inf-in-stack"])
def test_effective_tones_rejects_bad_amplitudes(amplitudes, error, message):
    with pytest.raises(error, match=message):
        EffectiveTones(amplitudes)


# waveform_moments rates a stack, papr one waveform
@pytest.mark.parametrize("kernel, pattern",
                         [(waveform_moments, "(..., 2)"), (papr, "(2,)")],
                         ids=["waveform_moments", "papr"])
def test_kernels_reject_a_tone_count_off_the_grid(kernel, pattern):
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    with pytest.raises(DimensionError, match=re.escape(
            f"amplitudes shape (3,) does not fit {pattern}")):
        kernel(EffectiveTones(np.ones(3)), grid)


def test_effective_tones_shape_mismatch():
    grid2 = ToneGrid.centered(2.4e9, 10e6, 2)
    grid3 = ToneGrid.centered(2.4e9, 10e6, 3)
    ch = make_channel(5, 2, grid2)
    gen = stream(5, 98)
    with pytest.raises(DimensionError):
        effective_tones(ch, random_weights(gen, 2, 3, 1.0))


# ---------------------------------------------------------------------------
# moments: frozen scalars, independent quadruple-sum oracle, time-domain oracle

def _tones(amps) -> EffectiveTones:
    a = np.asarray(amps, dtype=complex)
    return EffectiveTones(amplitudes=a)


def test_single_tone_moments_frozen():
    # |a| = sqrt(2): mean square 1, mean fourth power 1.5
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    m2, m4 = waveform_moments(_tones([np.sqrt(2.0)]), grid)
    assert m2 == pytest.approx(1.0, rel=1e-12)
    assert m4 == pytest.approx(1.5, rel=1e-12)


def test_single_tone_phase_invariance():
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    m2a, m4a = waveform_moments(_tones([np.sqrt(2.0)]), grid)
    m2b, m4b = waveform_moments(_tones([np.sqrt(2.0) * np.exp(0.7j)]), grid)
    assert m2a == pytest.approx(m2b, rel=1e-12)
    assert m4a == pytest.approx(m4b, rel=1e-12)


def _m4_quadruple_sum(a: np.ndarray) -> float:
    """Direct O(N^4) frequency-pairing sum, independent of the library."""
    n = len(a)
    total = 0.0
    for n1 in range(n):
        for n2 in range(n):
            for n3 in range(n):
                n4 = n1 + n2 - n3
                if 0 <= n4 < n:
                    total += (a[n1] * a[n2] * np.conj(a[n3])
                              * np.conj(a[n4])).real
    return 0.375 * total


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_m4_matches_quadruple_sum(seed, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gen = stream(seed, 7, n)
    a = gen.normal(size=n) + 1j * gen.normal(size=n)
    _, m4 = waveform_moments(_tones(a), grid)
    assert m4 == pytest.approx(_m4_quadruple_sum(a), rel=1e-10, abs=1e-30)


def test_rf_power_is_half_sum_of_squares():
    tones = _tones([1.0 + 1.0j, 2.0])
    assert received_rf_power(tones) == pytest.approx(3.0, rel=1e-15)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_moments_match_time_domain_average(seed, n, m):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    ch = make_channel(seed, m, grid, pathloss_db=10.0)
    gen = stream(seed, 8)
    tones = effective_tones(ch, random_weights(gen, m, n, 2.0))
    m2, m4 = waveform_moments(tones, grid)
    ref2, ref4 = moments_by_averaging(tones.amplitudes, grid)
    assert m2 == pytest.approx(ref2, rel=1e-9)
    assert m4 == pytest.approx(ref4, rel=1e-9)


def test_rf_power_matches_time_domain_average():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    ch = make_channel(11, 2, grid, pathloss_db=0.0)
    gen = stream(11, 8)
    tones = effective_tones(ch, random_weights(gen, 2, 4, 1.0))
    assert received_rf_power(tones) == pytest.approx(
        moments_by_averaging(tones.amplitudes, grid, 16)[0], rel=1e-9)


def test_time_domain_refuses_incommensurate_grid():
    grid = ToneGrid.centered(2.4e9 + 137.0, 10e6, 2)
    with pytest.raises(DomainError):
        moments_by_averaging(np.array([1.0, 1.0], dtype=complex), grid)


def test_received_waveform_is_real_cosine_sum():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    tones = _tones([1.0 + 0.5j, 0.25j])
    t = sample_times(grid, oversampling=8)[:16]
    y = received_waveform(tones.amplitudes, grid, t)
    manual = sum(np.abs(a) * np.cos(w * t + np.angle(a))
                 for a, w in zip(tones.amplitudes, grid.angular_frequencies))
    assert np.allclose(y, manual, atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_moments_nonnegative(seed, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gen = stream(seed, 9)
    a = gen.normal(size=n) + 1j * gen.normal(size=n)
    m2, m4 = waveform_moments(_tones(a), grid)
    assert m2 >= 0.0
    assert m4 >= 0.0


# ---------------------------------------------------------------------------
# the moment kernel's summation order: the tone-major kernel writes out the
# order in which numpy's pairwise sum adds complex terms, so a numpy whose
# order differs fails here rather than in a golden CSV

def _spread(gen, shape):
    # complex values with magnitudes spread over e^[-20, 5], where a
    # regrouped sum rounds differently
    return np.exp(gen.uniform(-20.0, 5.0, shape)) \
        * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def _signed_zeros(gen, shape):
    # exact zeros of both signs among values of both signs, so products and
    # sums of -0.0 occur; numpy's reduction adds to +0.0 and never ends -0.0
    pick = np.array([-0.0, 0.0, -1.5, 2.0])
    out = np.empty(shape, dtype=complex)
    out.real = pick[gen.integers(0, 4, shape)]
    out.imag = pick[gen.integers(0, 4, shape)]
    return out


def _by_diagonal(a):
    # the kernel before it went tone-major: one np.add.reduce per diagonal
    n = a.shape[-1]
    out = np.empty(a.shape[:-1] + (2 * n - 1,), dtype=complex)
    for k in range(2 * n - 1):
        i0 = max(0, k - n + 1)
        i1 = min(k, n - 1)
        out[..., k] = np.add.reduce(
            a[..., i0:i1 + 1] * a[..., k - i1:k - i0 + 1][..., ::-1], axis=-1)
    return out


def test_pairwise_sum_equals_numpy_reduce():
    gen = stream(1, 95)
    # 1..64 terms is numpy's one-block range; longer sums split recursively
    for n_terms in list(range(1, 65)) + [65, 71, 128, 129, 200]:
        for terms in (_spread(gen, (n_terms, 300)),
                      _signed_zeros(gen, (n_terms, 300))):
            expected = np.add.reduce(np.ascontiguousarray(terms.T), axis=-1)
            assert waveform.pairwise_sum(terms).tobytes() == \
                expected.tobytes(), n_terms


@pytest.mark.parametrize("n", range(1, 17))
def test_autoconvolution_equals_per_diagonal_reduce(n):
    gen = stream(n, 96)
    for batch in [(), (1,), (7,), (1000,), (5, 64)]:
        for a in (_spread(gen, batch + (n,)),
                  _signed_zeros(gen, batch + (n,))):
            conv = waveform.autoconvolution(a)
            assert conv.shape == batch + (2 * n - 1,)
            assert conv.flags.c_contiguous
            assert conv.tobytes() == _by_diagonal(a).tobytes()


@pytest.mark.parametrize("n", range(1, 17))
def test_m4_gradient_equals_per_tone_loop(n):
    gen = stream(n, 97)
    for batch in [(), (1,), (7,), (1000,), (5, 64)]:
        for a in (_spread(gen, batch + (n,)),
                  _signed_zeros(gen, batch + (n,))):
            conv = waveform.autoconvolution(a)
            # the gradient loop before it went tone-major
            expected = np.empty_like(a)
            for p in range(n):
                expected[..., p] = 0.75 * np.sum(
                    np.conj(a) * conv[..., p:p + n], axis=-1)
            grad = waveform.m4_gradient(a, conv)
            assert grad.shape == a.shape
            assert grad.flags.c_contiguous
            assert grad.tobytes() == expected.tobytes()


def test_autoconvolution_never_holds_all_products_at_once():
    # all N^2 products a_n1 a_n2 of 1000 rows at N=8 take N^2 * rows * 16 B;
    # one diagonal's products at a time stay below
    n, rows = 8, 1000
    a = _spread(stream(n, 99), (rows, n))
    tracemalloc.start()
    try:
        waveform.autoconvolution(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * rows * 16


def test_m4_gradient_never_holds_all_terms_at_once():
    # all N^2 terms conj(a_q) c_{p+q} of 1000 rows at N=8 take
    # N^2 * rows * 16 B; one (N, rows) block per output tone stays below
    n, rows = 8, 1000
    a = _spread(stream(n, 98), (rows, n))
    conv = waveform.autoconvolution(a)
    tracemalloc.start()
    try:
        waveform.m4_gradient(a, conv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * rows * 16


# the received tones: _antenna_sum adds each antenna's product in the order
# numpy's sum over the antenna axis does, for effective_tones' equal
# shapes and for a sweep's channels against a book

_ANTENNAS = (1, 2, 3, 4, 5, 8, 16)
_TONE_COUNTS = (1, 2, 3, 8)


@pytest.mark.parametrize("m", _ANTENNAS)
def test_antenna_sum_equals_numpy_sum_over_antennas(m):
    gen = stream(m, 93)
    for batch in [(), (1,), (7,), (5, 3)]:
        for n in _TONE_COUNTS:
            for make in (_spread, _signed_zeros):
                gains, weights = make(gen, batch + (m, n)), \
                    make(gen, batch + (m, n))
                assert waveform._antenna_sum(gains, weights).tobytes() == \
                    np.sum(gains * weights, axis=-2).tobytes(), (batch, n)


@pytest.mark.parametrize("m", _ANTENNAS)
def test_antenna_sum_equals_each_channels_own_sweep(m):
    # (C, 1, M, N) channels against a (1, K, M, N) book, as _sweep passes
    # them, row by row equal to a channel's own (K, N) tones
    gen = stream(m, 94)
    for c in (1, 2, 15):
        for k in (1, 2, 5, 65):
            for n in _TONE_COUNTS:
                for make in (_spread, _signed_zeros):
                    gains, book = make(gen, (c, m, n)), make(gen, (k, m, n))
                    expected = np.stack([np.sum(g[None] * book, axis=1)
                                         for g in gains])
                    tones = waveform._antenna_sum(gains[:, None], book[None])
                    assert tones.tobytes() == expected.tobytes(), (c, k, n)


@pytest.mark.parametrize("n", _TONE_COUNTS)
def test_antenna_sum_ends_on_the_identity(n):
    # each product 1j * -1 is (-0.0, -1.0), so the products' own sum has
    # real part -0.0; numpy's sum adds its identity +0.0 and reads +0.0
    m = 5
    gains, weights = np.full((2, m, n), 1j), np.full((2, m, n), -1 + 0j)
    products = gains * weights
    in_order = products[:, 0]
    for i in range(1, m):
        in_order = in_order + products[:, i]
    assert np.signbit(in_order.real).all()
    tones = waveform._antenna_sum(gains, weights)
    assert tones.tobytes() == np.sum(products, axis=-2).tobytes()
    assert not np.signbit(tones.real).any()


def test_antenna_sum_never_holds_the_antenna_products():
    # a draw of figure-joint's largest point: 15 channels, 64 codewords,
    # M=4, N=8.  The tones and one antenna's product are two (C, K, N)
    # arrays; numpy's iterator adds a buffer of up to getbufsize()
    # elements for each broadcast operand.  np.sum over the (C, K, M, N)
    # product holds M + 1 arrays and those buffers.
    c, k, m, n = 15, 64, 4, 8
    gen = stream(m, 92)
    gains, book = _spread(gen, (c, 1, m, n)), _spread(gen, (1, k, m, n))
    tracemalloc.start()
    try:
        tones = waveform._antenna_sum(gains, book)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * tones.nbytes + 2 * np.getbufsize() * tones.itemsize


# ---------------------------------------------------------------------------
# PAPR

def test_papr_equal_inphase_tones_is_twice_n():
    for n in (1, 2, 4, 8):
        grid = ToneGrid.centered(2.4e9, 10e6, n)
        tones = _tones(np.full(n, np.sqrt(2.0)))
        assert papr(tones, grid) == pytest.approx(2.0 * n, rel=1e-9)


def test_papr_single_tone_is_two():
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    assert papr(_tones([3.7]), grid) == pytest.approx(2.0, rel=1e-9)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30)
def test_papr_bounds(seed, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gen = stream(seed, 10)
    a = gen.normal(size=n) + 1j * gen.normal(size=n)
    value = papr(_tones(a), grid)
    assert 1.0 - 1e-9 <= value <= 2.0 * n * (1.0 + 1e-9)


def test_papr_zero_waveform_rejected():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    with pytest.raises(ZeroWaveformError):
        papr(_tones([0.0, 0.0]), grid)


def test_papr_needs_enough_oversampling():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    with pytest.raises(DomainError):
        papr(_tones([1.0, 1.0]), grid, oversampling=4)


# ---------------------------------------------------------------------------
# PAPR phasor cache

@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("oversampling", [8, 32])
def test_papr_equals_sampled_oracle_ratio_bit_for_bit(n, oversampling):
    # the first call builds the phasors, the second reuses them; both must
    # equal the oracle, which builds its own, to the last bit
    waveform._phasors.cache_clear()
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    t = sample_times(grid, oversampling)
    gen = stream(31, 10, n, oversampling)
    for _ in range(5):
        tones = _tones(gen.normal(size=n) + 1j * gen.normal(size=n))
        y = received_waveform(tones.amplitudes, grid, t)
        expected = float(np.max(y ** 2) / np.mean(y ** 2))
        assert papr(tones, grid, oversampling) == expected
        assert papr(tones, grid, oversampling) == expected
    assert waveform._phasors.cache_info().currsize == 1


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_papr_tail_gives_the_bits_of_max_over_mean(n):
    # papr reduces y*y with np.maximum.reduce and np.add.reduce / size; on
    # seeded amplitudes of scales 1e-6 to 1e3 that must be the bits of the
    # np.max(y ** 2) / np.mean(y ** 2) it replaced
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    e = waveform._phasors(grid, 32)
    gen = stream(37, 10, n)
    for scale in 10.0 ** gen.uniform(-6, 3, size=100):
        a = scale * (gen.normal(size=n) + 1j * gen.normal(size=n))
        y = np.real(e @ a)
        assert papr(_tones(a), grid) == float(np.max(y ** 2)
                                              / np.mean(y ** 2))


def test_phasor_cache_keys_on_grid_values_not_identity():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    e = waveform._phasors(grid, 32)
    assert waveform._phasors(ToneGrid.centered(2.4e9, 10e6, 4), 32) is e
    for other in (ToneGrid.centered(2.45e9, 10e6, 4),
                  ToneGrid.centered(2.4e9, 20e6, 4)):
        f = waveform._phasors(other, 32)
        assert f.shape != e.shape or not np.array_equal(f, e)
        assert np.array_equal(f, np.exp(1j * np.outer(
            sample_times(other, 32), other.angular_frequencies)))


def test_cached_phasors_are_read_only():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    waveform._phasors.cache_clear()
    # the matrix is written in place before it is frozen; built and
    # cached, it must refuse writes
    for e in (waveform._phasors(grid, 32), waveform._phasors(grid, 32)):
        assert not e.flags.writeable
        with pytest.raises(ValueError):
            e[0, 0] = 0.0
        with pytest.raises(ValueError):
            e.imag[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
@pytest.mark.parametrize("oversampling", [8, 32, 64])
@pytest.mark.parametrize("center_hz", [2.4e9, 6e6, 915e6])
def test_phasors_equal_one_shot_exp_by_bytes(n, oversampling, center_hz):
    # the matrix is cos and sin of its phases, written in place; it must
    # carry the bytes of the one-shot complex exp(1j * outer(t, w)), built
    # and read from the cache.  At 6 MHz the phases are small, and every
    # tone up to N=16 lies above 0 Hz (the lowest at 1.3125 MHz), as
    # ToneGrid requires; at 2.4 GHz they reach about 1.2e4 rad.  The exp
    # is elementwise, so it is taken a block of samples at a time
    grid = ToneGrid.centered(center_hz, 10e6, n)
    t = sample_times(grid, oversampling)
    waveform._phasors.cache_clear()
    built = waveform._phasors(grid, oversampling)
    cached = waveform._phasors(grid, oversampling)
    assert cached is built
    assert built.dtype == complex and built.shape == (t.size, n)
    for start in range(0, t.size, 8192):
        block = slice(start, start + 8192)
        expected = np.exp(1j * np.outer(t[block], grid.angular_frequencies))
        assert built[block].tobytes() == expected.tobytes()


def test_cold_phasor_build_peaks_near_one_matrix():
    # the one-shot exp(1j * outer(t, w)) peaks at two matrices; the build
    # in place must hold little beyond the matrix it returns
    grid = ToneGrid.centered(2.4e9, 10e6, 16)
    waveform._phasors.cache_clear()
    tracemalloc.start()
    try:
        e = waveform._phasors(grid, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.nbytes <= peak <= 1.1 * e.nbytes


def test_phasor_cache_stays_within_its_bound():
    bound = waveform._PHASOR_CACHE_SIZE
    assert waveform._phasors.cache_info().maxsize == bound
    for i in range(bound + 3):
        grid = ToneGrid.centered(2.4e9 + i * 1e6, 10e6, 2)
        papr(_tones([1.0, 0.5j]), grid)
    assert waveform._phasors.cache_info().currsize == bound
