"""Tapped-delay-line channel model: statistics and determinism."""

import re

import numpy as np
import pytest

from wptsim import (ChannelModelParams, ChannelRealization, DimensionError,
                    DomainError, ToneGrid, frequency_response, make_locations,
                    realize_channel, sample_taps, stream, tap_variances)
import wptsim.rng as rngmod


def test_tap_variances_sum_to_pathloss():
    params = ChannelModelParams(n_taps=8, pdp_decay=0.7, pathloss_db=60.0,
                                seed=0)
    v = tap_variances(params)
    assert len(v) == 8
    assert np.sum(v) == pytest.approx(10.0 ** (-6.0), rel=1e-12)


def test_tap_variances_follow_geometric_decay():
    params = ChannelModelParams(n_taps=5, pdp_decay=0.5, pathloss_db=0.0,
                                seed=0)
    v = tap_variances(params)
    assert np.allclose(v[1:] / v[:-1], 0.5, rtol=1e-12)


def test_tap_variances_flat_profile():
    params = ChannelModelParams(n_taps=4, pdp_decay=1.0, pathloss_db=0.0,
                                seed=0)
    v = tap_variances(params)
    assert np.allclose(v, 0.25, rtol=1e-12)


def test_sampled_tap_energy_matches_variance():
    # ensemble average of |g|^2 over many draws approaches the profile sum
    params = ChannelModelParams(n_taps=8, pathloss_db=0.0, seed=0)
    gen = stream(0, rngmod.TAPS)
    total = 0.0
    n_draws = 4000
    for _ in range(n_draws):
        taps = sample_taps(params, 1, gen)
        total += float(np.sum(np.abs(taps) ** 2))
    assert total / n_draws == pytest.approx(1.0, rel=0.05)


def test_frequency_response_matches_manual_sum():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    params = ChannelModelParams(n_taps=4, pathloss_db=20.0, seed=3)
    taps = sample_taps(params, 2, stream(3, rngmod.TAPS))
    h = frequency_response(taps, params, grid)
    for m in range(2):
        for n in range(3):
            manual = sum(
                taps[m, l] * np.exp(-1j * grid.angular_frequencies[n]
                                    * l * params.tap_spacing_s)
                for l in range(4))
            assert h[m, n] == pytest.approx(manual, rel=1e-12)


def test_single_tap_channel_is_frequency_flat():
    grid = ToneGrid.centered(2.4e9, 10e6, 8)
    params = ChannelModelParams(n_taps=1, pathloss_db=0.0, seed=4)
    ch = realize_channel(params, 2, grid)
    assert np.allclose(ch.gains, ch.gains[:, :1])


def test_realize_channel_is_reproducible():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    params = ChannelModelParams(seed=9)
    a = realize_channel(params, 2, grid)
    b = realize_channel(params, 2, grid)
    assert np.array_equal(a.gains, b.gains)


def test_realize_channel_frozen_values():
    # pinned Philox draws: protects the seed derivation scheme from drift
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    params = ChannelModelParams(n_taps=2, pathloss_db=0.0, seed=9)
    ch = realize_channel(params, 2, grid)
    expected = np.array(
        [[-0.47632494579331197 + 0.3585588801698921j,
          -1.040720450875249 - 0.2873060809533995j],
         [1.55665128160654 - 0.49450418232680676j,
          0.8592713587018377 - 0.1426005459703033j]])
    assert np.allclose(ch.gains, expected, rtol=0, atol=1e-15)


def test_stream_frozen_values():
    gen = stream(0, 1, 0)
    got = gen.standard_normal(3)
    expected = np.array([-0.004943895673640532, -0.7574195516873391,
                         0.06269759551455689])
    assert np.allclose(got, expected, rtol=0, atol=1e-18)


def test_frames_give_different_fades():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    params = ChannelModelParams(seed=9)
    a = realize_channel(params, 2, grid, frame=0)
    b = realize_channel(params, 2, grid, frame=1)
    assert not np.allclose(a.gains, b.gains)


def test_antenna_prefix_property():
    # taps for a larger array start with the taps of the smaller one
    params = ChannelModelParams(seed=12)
    t4 = sample_taps(params, 4, stream(12, rngmod.TAPS, 0))
    t2 = sample_taps(params, 2, stream(12, rngmod.TAPS, 0))
    assert np.array_equal(t4[:2], t2)


def test_param_validation():
    with pytest.raises(DomainError):
        ChannelModelParams(n_taps=0, seed=0)
    with pytest.raises(DomainError):
        ChannelModelParams(pdp_decay=0.0, seed=0)
    with pytest.raises(DomainError):
        ChannelModelParams(pdp_decay=1.5, seed=0)
    with pytest.raises(DomainError):
        ChannelModelParams(pathloss_db=-1.0, seed=0)
    with pytest.raises(DomainError):
        ChannelModelParams(tap_spacing_s=0.0, seed=0)
    # a fractional or non-finite tap count or seed used to pass, or to
    # escape as a bare TypeError, ValueError or OverflowError
    for bad in ({"n_taps": 2.5}, {"n_taps": np.inf}, {"n_taps": np.nan},
                {"seed": 2.5}, {"seed": np.nan}, {"seed": np.inf},
                {"seed": 2 ** 64}):
        with pytest.raises(DomainError):
            ChannelModelParams(**bad)


def test_make_locations_labels_and_range():
    params = ChannelModelParams(seed=0)
    locs = make_locations(5, 77, params, (55.0, 70.0))
    assert [l.label for l in locs] == ["L1", "L2", "L3", "L4", "L5"]
    for l in locs:
        assert 55.0 <= l.params.pathloss_db <= 70.0
    # distinct child seeds
    assert len({l.params.seed for l in locs}) == 5


def test_make_locations_deterministic():
    params = ChannelModelParams(seed=0)
    a = make_locations(3, 77, params, (55.0, 70.0))
    b = make_locations(3, 77, params, (55.0, 70.0))
    assert [(x.label, x.params.seed, x.params.pathloss_db) for x in a] == \
           [(x.label, x.params.seed, x.params.pathloss_db) for x in b]


@pytest.mark.parametrize("span, message", [
    ((70.0, 55.0), "empty pathloss range"),
    ((np.nan, 70.0), "empty pathloss range"),
    ((55.0, np.nan), "empty pathloss range"),
    ((0.0, np.inf), "pathloss_db must be >= 0 and finite")],
    ids=["reversed", "nan-low", "nan-high", "inf-high"])
def test_make_locations_rejects_an_empty_or_nan_pathloss_range(span, message):
    # a nan or inf bound would otherwise reach the uniform draw, which
    # raises numpy's OverflowError
    with pytest.raises(DomainError, match=message):
        make_locations(2, 0, ChannelModelParams(), span)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_channel_realization_rejects_non_finite_gains(bad):
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    gains = np.ones((2, 4), dtype=complex)
    gains[1, 2] = bad
    with pytest.raises(DomainError, match="gains must be finite"):
        ChannelRealization(grid=grid, gains=gains)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 2, 2)])
def test_frequency_response_rejects_a_taps_shape(shape):
    params = ChannelModelParams(n_taps=3)
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    with pytest.raises(DimensionError, match=re.escape(
            f"taps shape {shape} does not fit (..., *, 3)")):
        frequency_response(np.ones(shape), params, grid)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_each_slice_of_a_taps_stack_keeps_its_own_bits(m, n):
    # a stacked call gives every slice the bits of its own (M, L) call,
    # contiguous or, as the campaign passes it, the first m rows of larger
    # draws; M=1 is where a flattened (S*M, L) product rounds otherwise
    params = ChannelModelParams(seed=5)
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    draws = np.stack([[sample_taps(params, 4, stream(5, rngmod.TAPS, s, d))
                       for d in range(3)] for s in range(6)])
    for taps in (draws[:, :, :m], np.ascontiguousarray(draws[:, :, :m])):
        stack = frequency_response(taps, params, grid)
        assert stack.shape == (6, 3, m, n)
        for s, d in np.ndindex(6, 3):
            alone = frequency_response(draws[s, d, :m], params, grid)
            assert stack[s, d].tobytes() == alone.tobytes()
        # one batch axis or two: the same bits
        batch = frequency_response(taps.reshape(-1, m, params.n_taps),
                                   params, grid)
        assert batch.tobytes() == stack.tobytes()


def test_channel_realization_rejects_a_channel_with_no_antennas():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    with pytest.raises(DimensionError):
        ChannelRealization(grid=grid, gains=np.zeros((0, 4), dtype=complex))
