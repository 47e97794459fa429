"""The codebook ceiling of wptsim.bounds against closed forms and measurements.

dc_ceiling(K) bounds the mean best-of-K dc power of every K-entry codebook;
the proof is in docs/covering_bound.md.  The first tests check the numerics
of the bound on cases with a closed form.  The rest measure four kinds of
codebook on the held-out channels of acceptance criterion 5 and require
each to stay under the ceiling, up to the sampling error of 500 channels,
and show that the threshold criterion 5 derives from C(64) rejects the
books that fall short of it.
"""

from math import comb, factorial

import numpy as np
import pytest

from wptsim import (ChannelModelParams, Codebook, DiodeMomentModel,
                    DomainError, EfficiencyTableModel, SmfParams, ToneGrid,
                    dc_ceiling, dc_power_moment,
                    effective_tones, gen_nested, gen_random, smf_weights,
                    stream, tap_variances, train_lloyd)
import wptsim.rng as rngmod
from wptsim.bounds import _tone_cdf_floor

from conftest import dc_batch, make_channel

MODEL = DiodeMomentModel()
POWER = 2.0
FAMILY = ChannelModelParams(pathloss_db=60.0)
GRID = ToneGrid.centered(2.4e9, 10e6, 8)
SIZES = (2, 4, 8, 16, 32, 64)
# a sample mean of 500 channels may exceed the true mean by a few standard
# errors; the ceiling bounds the true mean
SAMPLE_MARGIN_SE = 3.0


def _mean_of_g_of_max(k, n, sigma2):
    """E[g(sigma^2 M_K)] for M_K the largest of K i.i.d. Exp(1) variables.

    g(x) = alpha (k2 x + c x^2)^2 with c = 1.5 N k4, and
    E[M_K^j] = j! sum_i (-1)^(i+1) C(K, i) / i^j.
    """
    def moment(j):
        return factorial(j) * sum((-1) ** (i + 1) * comb(k, i) / i ** j
                                  for i in range(1, k + 1))
    c = 1.5 * n * MODEL.k4
    return MODEL.alpha * (MODEL.k2 ** 2 * sigma2 ** 2 * moment(2)
                          + 2 * MODEL.k2 * c * sigma2 ** 3 * moment(3)
                          + c ** 2 * sigma2 ** 4 * moment(4))


@pytest.mark.parametrize("m, n", [(4, 8), (1, 1), (2, 4)])
def test_ceiling_at_one_codeword_is_the_exponential_mean(m, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    sigma2 = POWER * float(np.sum(tap_variances(FAMILY)))
    want = _mean_of_g_of_max(1, n, sigma2)
    assert dc_ceiling(FAMILY, m, grid, 1, MODEL, POWER) == \
        pytest.approx(want, rel=1e-8, abs=0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ceiling_for_few_codewords_is_the_independent_maximum(k):
    # up to M codewords can be independent (orthogonal beams on one tone),
    # and then the cell bound adds nothing to the correlation inequality
    sigma2 = POWER * float(np.sum(tap_variances(FAMILY)))
    assert dc_ceiling(FAMILY, 4, GRID, k, MODEL, POWER) == \
        pytest.approx(_mean_of_g_of_max(k, 8, sigma2), rel=1e-6,
                      abs=0)


def test_ceiling_grows_with_k_until_dimensions_run_out():
    ceilings = [dc_ceiling(FAMILY, 4, GRID, k, MODEL, POWER)
                for k in (1,) + SIZES]
    assert all(b > a for a, b in zip(ceilings, ceilings[1:]))
    # with one antenna and one tone every codeword is the same up to phase
    one = ToneGrid.centered(2.4e9, 10e6, 1)
    flat = [dc_ceiling(FAMILY, 1, one, k, MODEL, POWER) for k in (1, 2, 64)]
    assert flat[1] == pytest.approx(flat[0], rel=1e-12, abs=0)
    assert flat[2] == pytest.approx(flat[0], rel=1e-12, abs=0)


def test_ceiling_rejects_bad_arguments():
    with pytest.raises(DomainError):
        dc_ceiling(FAMILY, 4, GRID, 0, MODEL, POWER)
    with pytest.raises(DomainError):
        dc_ceiling(FAMILY, 0, GRID, 4, MODEL, POWER)
    with pytest.raises(DomainError):
        dc_ceiling(FAMILY, 4, GRID, 4, MODEL, 0.0)
    table = EfficiencyTableModel(p_dbm=[-10.0, 0.0], papr_axis=[1.0, 2.0],
                                 eta=[[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(DomainError):
        dc_ceiling(FAMILY, 4, GRID, 4, table, POWER)


def _beam_book(k, m=4, n=8):
    """k = 2^b single-tone codewords: 2^ceil(b/2) DFT beams on each of
    k / 2^ceil(b/2) evenly spaced tones."""
    beams = 2 ** -(-(k.bit_length() - 1) // 2)
    tones = k // beams
    words = np.zeros((tones, beams, m, n), dtype=complex)
    for t in range(tones):
        for j in range(beams):
            words[t, j, :, t * (n // tones)] = (
                np.sqrt(2.0 * POWER / m)
                * np.exp(2j * np.pi * np.arange(m) * j / beams))
    return Codebook(words.reshape(k, m, n), POWER)


@pytest.mark.parametrize("k, m", [(2, 2), (8, 4), (64, 4), (5, 3)])
def test_tone_floor_matches_quadrature(k, m):
    """The closed form of the cell bound against direct integration of
    E[min(1, k (1 - u/G)^(m-1))] over G ~ Gamma(m, 1)."""
    g = np.linspace(1e-9, 60.0, 120_001)
    density = g ** (m - 1) * np.exp(-g) / factorial(m - 1)
    u = np.linspace(0.1, 12.0, 13)
    share = np.clip(1.0 - u[:, None] / g[None, :], 0.0, None) ** (m - 1)
    f = density * np.minimum(1.0, k * share)
    tail = np.sum(0.5 * (f[:, 1:] + f[:, :-1]) * np.diff(g), axis=1)
    want = np.maximum((1.0 - np.exp(-u)) ** k, 1.0 - np.minimum(tail, 1.0))
    assert np.allclose(_tone_cdf_floor(k, m, u), want, rtol=0, atol=1e-6)


def test_tone_floor_holds_for_dft_beams():
    """Monte Carlo of one tone: the CDF of the best of 8 DFT beams in C^4
    stays above the per-tone floor the ceiling is built from."""
    gen = stream(9520, rngmod.ORACLE)
    draws = 20_000
    h = (gen.standard_normal((draws, 4))
         + 1j * gen.standard_normal((draws, 4))) / np.sqrt(2.0)
    beams = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(8)) / 8)
    best = np.max(np.abs(h @ beams) ** 2, axis=1) / 4.0  # unit-mean scale
    u = np.linspace(0.25, 8.0, 32)
    empirical = np.mean(best[:, None] <= u[None, :], axis=0)
    floor = _tone_cdf_floor(8, 4, u)
    slack = 4.0 * np.sqrt(floor * (1.0 - floor) / draws) + 1e-12
    assert np.all(empirical >= floor - slack)


@pytest.fixture(scope="module")
def measured(lloyd_k64):
    """Held-out best-of-K dc per (kind, K) and the mean SMF dc, criterion 5's
    channels and Lloyd recipe; the K=64 Lloyd book is criterion 5's own."""
    train = [make_channel(300_000 + i, 4, GRID) for i in range(1000)]
    held = [make_channel(400_000 + i, 4, GRID) for i in range(500)]
    smf = SmfParams(beta=3.0, power_budget=POWER)
    gains = np.stack([ch.gains for ch in held])
    smf_mean = float(np.mean([
        dc_power_moment(MODEL, effective_tones(ch, smf_weights(ch, smf)),
                        GRID) for ch in held]))
    nested = gen_nested(4, GRID, POWER, 64, stream(9510, rngmod.CODEBOOK))
    best = {}
    for k in SIZES:
        lloyd = lloyd_k64[0] if k == 64 else train_lloyd(
            train, k, MODEL, iters=30, rng=stream(9500, rngmod.TRAINING),
            power=POWER)
        books = {
            "random": gen_random(4, GRID, POWER, k,
                                 stream(9511, rngmod.CODEBOOK, k)),
            "nested": nested.prefix(k),
            "beams": _beam_book(k),
            "lloyd": lloyd,
        }
        for kind, book in books.items():
            dc = np.column_stack([dc_batch(gains, e.weights, MODEL)
                                  for e in book.entries])
            best[(kind, k)] = np.max(dc, axis=1)
    return smf_mean, best


def _db(x):
    return 10.0 * np.log10(x)


def test_ceiling_bounds_measured_best_of_k(measured):
    smf_mean, best = measured
    over = []
    for (kind, k), dc in sorted(best.items()):
        ceiling = dc_ceiling(FAMILY, 4, GRID, k, MODEL, POWER)
        mean = float(np.mean(dc))
        se = float(np.std(dc, ddof=1)) / np.sqrt(dc.size)
        print(f"{kind:>6} K={k:>2}: gap {_db(mean / smf_mean):+7.3f} dB, "
              f"C(K) {_db(ceiling / smf_mean):+7.3f} dB, "
              f"mean - {SAMPLE_MARGIN_SE:g} SE is "
              f"{_db((mean - SAMPLE_MARGIN_SE * se) / ceiling):+.3f} dB "
              f"from C(K)")
        if mean - SAMPLE_MARGIN_SE * se > ceiling:
            over.append((kind, k))
    assert over == []


def test_criterion_05_threshold_rejects_books_that_fall_short(measured):
    smf_mean, best = measured
    threshold = _db(dc_ceiling(FAMILY, 4, GRID, 64, MODEL, POWER)
                    / smf_mean) - 1.5
    random_gap = _db(np.mean(best[("random", 64)]) / smf_mean)
    lloyd16_gap = _db(np.mean(best[("lloyd", 16)]) / smf_mean)
    print(f"threshold {threshold:+.3f} dB: random K=64 {random_gap:+.3f} dB, "
          f"Lloyd K=16 {lloyd16_gap:+.3f} dB")
    assert random_gap < threshold
    assert lloyd16_gap < threshold
