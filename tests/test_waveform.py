"""Waveform synthesis, moments, and PAPR against independent references."""

import importlib.util
import json
import os
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (DimensionError, DomainError, EffectiveTones, ToneGrid,
                    WaveformWeights, ZeroWaveformError,
                    effective_tones, gen_random, moments_by_averaging, papr,
                    received_rf_power, rf_power_by_averaging, stream,
                    synthesize_transmit_waveform, waveform_moments)
from wptsim import waveform
from wptsim.timedomain import received_waveform, sample_times

from conftest import make_channel, random_weights


# ---------------------------------------------------------------------------
# tone grid

def test_centered_grid_tone_spacing():
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    f = grid.frequencies_hz
    assert len(f) == 8
    assert np.allclose(np.diff(f), 10e6 / 8)
    # tones straddle the carrier symmetrically
    assert abs(np.mean(f) - 2.4e9) < 1e-3


def test_single_tone_grid_sits_on_carrier():
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    assert grid.frequencies_hz[0] == pytest.approx(2.4e9, rel=1e-15)


def test_grid_delta_f():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    assert grid.delta_f == pytest.approx(2.5e6, rel=1e-15)


def test_grid_rejects_nonuniform_spacing():
    w = 2 * np.pi * np.array([1e9, 1.1e9, 1.3e9])
    with pytest.raises(DomainError):
        ToneGrid(n_tones=3, center_frequency_hz=1.1e9, bandwidth_hz=0.3e9,
                 angular_frequencies=w)


def test_grid_rejects_decreasing_frequencies():
    w = 2 * np.pi * np.array([1.2e9, 1.1e9])
    with pytest.raises(DomainError):
        ToneGrid(n_tones=2, center_frequency_hz=1.15e9, bandwidth_hz=0.2e9,
                 angular_frequencies=w)


def test_default_grids_are_commensurate():
    for n in range(1, 9):
        assert ToneGrid.centered(2.4e9, 10e6, n).is_commensurate()


def test_incommensurate_grid_detected():
    # carrier not a half-multiple of the tone spacing
    grid = ToneGrid.centered(2.4e9 + 137.0, 10e6, 4)
    assert not grid.is_commensurate()


# ---------------------------------------------------------------------------
# weights container

def test_weights_reject_over_budget():
    w = np.full((1, 1), 2.0, dtype=complex)   # (1/2)*4 = 2 > 1
    with pytest.raises(DomainError):
        WaveformWeights(m_antennas=1, n_tones=1, weights=w, power_budget=1.0)


def test_weights_reject_shape_mismatch():
    with pytest.raises(DimensionError):
        WaveformWeights(m_antennas=2, n_tones=3,
                        weights=np.zeros((3, 2), dtype=complex),
                        power_budget=1.0)


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
            w = WaveformWeights(m_antennas=s.shape[0], n_tones=s.shape[1],
                                weights=s, power_budget=2.0)
            assert w.weights.tobytes() == s.tobytes()
            continue
        with pytest.raises(DomainError) as info:
            WaveformWeights(m_antennas=s.shape[0], n_tones=s.shape[1],
                            weights=s, power_budget=2.0)
        assert str(info.value) == expected
    assert outcomes == {True, False}


def test_transmit_power_is_half_norm_squared():
    gen = stream(1, 99)
    w = random_weights(gen, 3, 4, 2.0)
    assert w.transmit_power == pytest.approx(
        0.5 * np.sum(np.abs(w.weights) ** 2), rel=1e-15)


# ---------------------------------------------------------------------------
# synthesis

def test_synthesis_matches_manual_cosine_sum():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    gen = stream(2, 99)
    weights = random_weights(gen, 2, 3, 1.5)
    t = sample_times(grid, oversampling=8)[:64]
    x = synthesize_transmit_waveform(weights, grid, antenna_index=2, time_points=t)
    manual = np.zeros_like(t)
    for n in range(3):
        s = weights.weights[1, n]
        manual += np.abs(s) * np.cos(grid.angular_frequencies[n] * t
                                     + np.angle(s))
    assert np.allclose(x, manual, atol=1e-12)


def test_synthesis_antenna_index_is_one_based():
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    gen = stream(3, 99)
    weights = random_weights(gen, 2, 1, 1.0)
    t = np.zeros(1)
    with pytest.raises(DomainError):
        synthesize_transmit_waveform(weights, grid, antenna_index=0,
                                     time_points=t)
    with pytest.raises(DomainError):
        synthesize_transmit_waveform(weights, grid, antenna_index=3,
                                     time_points=t)


def test_effective_tones_is_channel_weight_inner_product():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    ch = make_channel(5, 3, grid)
    gen = stream(5, 99)
    weights = random_weights(gen, 3, 2, 1.0)
    tones = effective_tones(ch, weights)
    manual = np.array([np.sum(ch.gains[:, n] * weights.weights[:, n])
                       for n in range(2)])
    assert np.allclose(tones.amplitudes, manual, rtol=1e-15)


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
    ref2, ref4 = moments_by_averaging(tones, grid)
    assert m2 == pytest.approx(ref2, rel=1e-9)
    assert m4 == pytest.approx(ref4, rel=1e-9)


def test_rf_power_matches_time_domain_average():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    ch = make_channel(11, 2, grid, pathloss_db=0.0)
    gen = stream(11, 8)
    tones = effective_tones(ch, random_weights(gen, 2, 4, 1.0))
    assert received_rf_power(tones) == pytest.approx(
        rf_power_by_averaging(tones, grid), rel=1e-9)


def test_time_domain_refuses_incommensurate_grid():
    grid = ToneGrid.centered(2.4e9 + 137.0, 10e6, 2)
    tones = _tones([1.0, 1.0])
    with pytest.raises(DomainError):
        moments_by_averaging(tones, grid)


def test_received_waveform_is_real_cosine_sum():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    tones = _tones([1.0 + 0.5j, 0.25j])
    t = sample_times(grid, oversampling=8)[:16]
    y = received_waveform(tones, grid, t)
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
    for rows in (1, 7, 1000):
        for a in (_spread(gen, (rows, n)), _signed_zeros(gen, (rows, n))):
            conv = waveform.autoconvolution(a)
            # the gradient loop before it went tone-major
            expected = np.empty_like(a)
            for p in range(n):
                expected[:, p] = 0.75 * np.sum(np.conj(a) * conv[:, p:p + n],
                                               axis=1)
            grad = waveform.m4_gradient(a, conv)
            assert grad.flags.c_contiguous
            assert grad.tobytes() == expected.tobytes()


def test_bench_kernel_script_writes_its_table(tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        "bench_kernel.py")
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "BENCH_kernel.json"
    assert script.main(["--out", str(out), "--repeat", "1",
                        "--number", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["numpy"] == np.__version__
    assert report["python"] == platform.python_version()
    rows = report["rows"]
    assert [(r["n_tones"], r["batch"]) for r in rows[:16]] == \
        [(n, c) for n in (1, 2, 4, 8) for c in (1, 64, 192, 1000)]
    assert rows[16]["layer"] == "codebook._dc_and_grad"
    assign = rows[17:19]
    assert [(r["layer"], r["pathloss_db"]) for r in assign] == \
        [("codebook._assign", 60.0), ("codebook._assign", 0.0)]
    session, campaign = rows[19:21]
    papr_rows = rows[21:]
    assert len(rows) == 24
    assert (session["layer"], session["m_antennas"], session["n_tones"],
            session["frames"], session["k_sizes"]) == \
        ("protocol.run_session", 4, 8, 3, [2, 4, 8, 16, 32, 64])
    assert session["per_k_sweep_us"] > 0
    assert (campaign["layer"], campaign["antenna_counts"],
            campaign["tone_counts"], campaign["frames"]) == \
        ("campaign.up_frames", [1, 2, 4], [1, 2, 4, 8], 3)
    assert campaign["per_frame_us"] > 0
    assert [(r["layer"], r["n_tones"], r["oversampling"])
            for r in papr_rows] == [("waveform.papr", n, 32)
                                    for n in (1, 8, 16)]
    # a cold build holds at least its matrix; at N=16 little more
    assert all(r["build_peak_mb"] >= r["matrix_mb"] for r in papr_rows)
    assert papr_rows[-1]["build_peak_mb"] <= 1.1 * papr_rows[-1]["matrix_mb"]
    assert all(r["build_ms"] > 0 and r["table_us"] > 0 for r in papr_rows)
    assert all(r["median_us"] > 0 for r in rows)
    assert all(r["full_matrix_us"] > 0 for r in assign)
    # every channel evaluates at least its winner; pruning leaves fewer
    # than K pairs at 60 dB
    assert all(1 <= r["pairs_per_channel"] <= r["k_codewords"]
               for r in assign)
    assert assign[0]["pairs_per_channel"] < assign[0]["k_codewords"]


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
    waveform._phasor_cache.clear()
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    t = sample_times(grid, oversampling)
    gen = stream(31, 10, n, oversampling)
    for _ in range(5):
        tones = _tones(gen.normal(size=n) + 1j * gen.normal(size=n))
        y = received_waveform(tones, grid, t)
        expected = float(np.max(y ** 2) / np.mean(y ** 2))
        assert papr(tones, grid, oversampling) == expected
        assert papr(tones, grid, oversampling) == expected
    assert len(waveform._phasor_cache) == 1


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
    waveform._phasor_cache.clear()
    # the matrix is written in place before it is frozen; built and
    # cached, it must refuse writes
    for e in (waveform._phasors(grid, 32), waveform._phasors(grid, 32)):
        assert not e.flags.writeable
        with pytest.raises(ValueError):
            e[0, 0] = 0.0
        with pytest.raises(ValueError):
            e.imag[0, 0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("oversampling", [8, 32])
@pytest.mark.parametrize("center_hz", [2.4e9, 1e6])
def test_phasors_equal_one_shot_exp_by_bytes(n, oversampling, center_hz):
    # the matrix is written in place; it must carry the bytes of the
    # one-shot exp(1j * outer(t, w)), built and read from the cache.  At
    # 1 MHz the grid's lower tones sit below 0 Hz, so phases are negative
    # and t=0 gives -0.0
    grid = ToneGrid.centered(center_hz, 10e6, n)
    expected = np.exp(1j * np.outer(sample_times(grid, oversampling),
                                    grid.angular_frequencies))
    waveform._phasor_cache.clear()
    built = waveform._phasors(grid, oversampling)
    cached = waveform._phasors(grid, oversampling)
    assert cached is built
    assert built.dtype == expected.dtype and built.shape == expected.shape
    assert built.tobytes() == expected.tobytes()


def test_cold_phasor_build_peaks_near_one_matrix():
    # the one-shot exp(1j * outer(t, w)) peaks at two matrices; the build
    # in place must hold little beyond the matrix it returns
    grid = ToneGrid.centered(2.4e9, 10e6, 16)
    waveform._phasor_cache.clear()
    tracemalloc.start()
    try:
        e = waveform._phasors(grid, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.nbytes <= peak <= 1.1 * e.nbytes


def test_phasor_cache_stays_within_its_bound():
    bound = waveform._PHASOR_CACHE_SIZE
    for i in range(bound + 3):
        grid = ToneGrid.centered(2.4e9 + i * 1e6, 10e6, 2)
        papr(_tones([1.0, 0.5j]), grid)
    assert len(waveform._phasor_cache) == bound
