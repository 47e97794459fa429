"""Codebook generation, training, gradients, and the file format."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptsim import (ChannelRealization, Codebook, CodebookIOError,
                    DimensionError, DiodeMomentModel, DomainError,
                    EfficiencyTableModel, ToneGrid, WaveformWeights,
                    dc_power_moment, effective_tones, gen_nested, gen_random,
                    load_codebook, save_codebook, stream, train_lloyd,
                    up_weights)
from wptsim import codebook as codebook_module
from wptsim.codebook import (_amplitudes, _assign, _dc_and_grad, _dc_upper,
                             _exact_dc, _screen, _sphere, _update)
from wptsim.waveform import (autoconvolution, radiated_power, second_moment,
                             tone_moments)

from conftest import dc_batch, make_channel


# ---------------------------------------------------------------------------
# generation

def test_gen_random_shapes_and_power():
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    book = gen_random(2, grid, 1.5, 8, stream(0, 4))
    assert book.k_codewords == 8
    assert not book.nested
    assert book.m_antennas == 2 and book.n_tones == 4
    for e in book.entries:
        assert radiated_power(e.weights) == pytest.approx(1.5, rel=1e-12)


def test_gen_nested_first_entry_is_uniform():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_nested(3, grid, 2.0, 8, stream(1, 4))
    assert book.nested
    up = up_weights(3, grid, 2.0)
    assert np.array_equal(book.entries[0].weights, up.weights)


def test_gen_nested_rejects_non_power_of_two():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    with pytest.raises(DomainError):
        gen_nested(2, grid, 1.0, 6, stream(1, 4))


def test_prefix_takes_leading_entries():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = dataclasses.replace(gen_nested(2, grid, 1.0, 16, stream(2, 4)),
                               provenance="p")
    sub = book.prefix(4)
    assert sub.k_codewords == 4
    assert sub.nested
    assert sub.weights.tobytes() == book.weights[:4].tobytes()
    assert not sub.weights.flags.writeable
    assert (sub.power_budget, sub.provenance) == (1.0, "p prefix[4]")
    for a, b in zip(sub.entries, book.entries[:4]):
        assert np.array_equal(a.weights, b.weights)


def test_prefix_requires_nested():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_random(2, grid, 1.0, 4, stream(3, 4))
    with pytest.raises(DomainError):
        book.prefix(2)


def test_prefix_bounds():
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_nested(2, grid, 1.0, 4, stream(4, 4))
    with pytest.raises(DomainError):
        book.prefix(0)
    with pytest.raises(DomainError):
        book.prefix(5)


def test_codebook_rejects_a_non_3d_array():
    with pytest.raises(DimensionError, match=re.escape(
            "codebook weights shape (2, 2) does not fit (*, *, *)")):
        Codebook(np.ones((2, 2), dtype=complex), 1.0)


def test_codebook_rejects_no_entries():
    # K = 0 is an empty axis of the (K, M, N) array
    with pytest.raises(DimensionError, match=re.escape(
            "codebook weights shape (0, 2, 2) does not fit (*, *, *)")):
        Codebook(np.empty((0, 2, 2), dtype=complex), 1.0)


@pytest.mark.parametrize("budget", [0.0, -1.0, np.nan])
def test_codebook_rejects_a_budget_that_is_not_positive(budget):
    # an all-zero book would otherwise sit on the zero-power sphere
    with pytest.raises(DomainError, match="power_budget must be > 0"):
        Codebook(np.zeros((1, 1, 1), dtype=complex), budget)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_codebook_rejects_non_finite_entry(bad):
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    words = gen_random(2, grid, 2.0, 5, stream(5, 4)).weights.copy()
    words[2, 1, 3] = bad
    with pytest.raises(DomainError, match=r"^entry 3 power "):
        Codebook(words, 2.0)


def test_codebook_rejects_off_sphere_entry():
    # an entry whose transmit power is below the budget
    with pytest.raises(DomainError):
        Codebook(np.array([[[1.0 + 0j]]]), 2.0)
    # all entries are checked in one reduction; the error still names one
    grid = ToneGrid.centered(2.4e9, 10e6, 4)
    words = gen_random(2, grid, 2.0, 5, stream(5, 4)).weights.copy()
    words[3] *= 0.5
    with pytest.raises(DomainError, match=r"^entry 4 power 0\.5\d* != "
                                          r"budget 2\.0$"):
        Codebook(words, 2.0)


def test_codebook_copies_its_weights_read_only():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    words = gen_random(2, grid, 1.5, 4, stream(6, 4)).weights.copy()
    book = Codebook(words, 1.5)
    assert book.weights.shape == (4, 2, 3)
    assert book.weights is not words and words.flags.writeable
    assert not book.weights.flags.writeable
    assert np.array_equal(book.weights, words)
    assert (book.k_codewords, book.m_antennas, book.n_tones) == (4, 2, 3)


def test_codebook_entries_are_its_rows_read_only():
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    book = gen_random(2, grid, 1.5, 4, stream(6, 4))
    assert len(book.entries) == 4
    for e, w in zip(book.entries, book.weights):
        assert isinstance(e, WaveformWeights)
        assert e.power_budget == 1.5
        assert np.array_equal(e.weights, w)
        assert not e.weights.flags.writeable
    # derived once per book
    assert book.entries is book.entries


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_codebook_power_check_reads_each_radiated_power(m, n):
    # the one reduction over the book equals each entry's radiated_power
    # to the bit, so the check accepts what it did per entry
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    book = gen_nested(m, grid, 2.0, 64, stream(m * 100 + n, 4))
    powers = 0.5 * np.sum(np.abs(book.weights) ** 2, axis=(1, 2))
    assert powers.tolist() == [radiated_power(e.weights)
                               for e in book.entries]
    assert not book.weights.flags.writeable


def _one_draw_per_codeword(m, n, power, k, gen):
    # the recipe before the books were drawn in one call: a real and an
    # imaginary (M, N) draw per codeword, each projected on its own
    return [_sphere(gen.standard_normal((m, n))
                    + 1j * gen.standard_normal((m, n)), power)
            for _ in range(k)]


@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_books_equal_the_per_codeword_draws(m, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    for k in (1, 2, 7, 64, 128):
        expected = _one_draw_per_codeword(m, n, 2.0, k, stream(k, 4, m, n))
        book = gen_random(m, grid, 2.0, k, stream(k, 4, m, n))
        assert [e.weights.tobytes() for e in book.entries] == \
            [w.tobytes() for w in expected]
        if k & (k - 1) == 0:
            expected = _one_draw_per_codeword(m, n, 2.0, k - 1,
                                              stream(k, 4, m, n))
            book = gen_nested(m, grid, 2.0, k, stream(k, 4, m, n))
            assert [e.weights.tobytes() for e in book.entries] == \
                [up_weights(m, grid, 2.0).weights.tobytes()] + \
                [w.tobytes() for w in expected]


# ---------------------------------------------------------------------------
# batched dc and its gradient

def _batch_setup(seed, c, m, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    channels = [make_channel(seed + i, m, grid, pathloss_db=0.0)
                for i in range(c)]
    gains = np.stack([ch.gains for ch in channels])
    gen = stream(seed, 90)
    w = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
    return grid, channels, gains, _sphere(w, 1.0)


def _one_segment(gains, w, model):
    # (mean dc, gradient) of one codeword over all of gains
    means, _, grads = _dc_and_grad(gains, w[None], [(0, len(gains))], model)
    return means[0], grads[0]


def test_dc_batch_matches_scalar_path():
    grid, channels, gains, w = _batch_setup(7, 5, 2, 3)
    model = DiodeMomentModel()
    batch = dc_batch(gains, w, model)
    weights = WaveformWeights(weights=w, power_budget=1.0)
    for i, ch in enumerate(channels):
        scalar = dc_power_moment(model, effective_tones(ch, weights), grid)
        assert batch[i] == pytest.approx(scalar, rel=1e-10)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=15)
def test_gradient_matches_finite_differences(seed):
    _, _, gains, w = _batch_setup(seed, 3, 2, 3)
    model = DiodeMomentModel(k2=1.0, k4=1.0)
    _, grad = _one_segment(gains, w, model)
    eps = 1e-7
    gen = stream(seed, 91)
    for _ in range(4):
        i = int(gen.integers(0, w.shape[0]))
        j = int(gen.integers(0, w.shape[1]))
        for direction, part in ((1.0, np.real), (1.0j, np.imag)):
            # central difference: a forward one errs by eps/2 * f'', which
            # exceeds 1e-4 relative on about 0.6% of seeds
            up = w.copy()
            up[i, j] += eps * direction
            down = w.copy()
            down[i, j] -= eps * direction
            numeric = (_one_segment(gains, up, model)[0]
                       - _one_segment(gains, down, model)[0]) / (2.0 * eps)
            analytic = 2.0 * float(part(grad[i, j]))
            assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-9)


def test_sphere_projection():
    w = np.array([[3.0 + 4.0j]])
    s = _sphere(w, 2.0)
    assert 0.5 * np.sum(np.abs(s) ** 2) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(DomainError):
        _sphere(np.zeros((1, 1), dtype=complex), 1.0)


# numpy's pairwise sum adds blocks of 8 and splits past 128 terms, so these
# sizes cross its block edges; a regrouped segment sum fails here
_SEGMENT_SIZES = (1, 3, 4, 7, 8, 9, 17, 130)


def _cluster_alone(gains, w, model):
    # one cluster's mean dc and gradient, written out on its own arrays
    a = np.einsum("cmn,mn->cn", gains, w)
    conv = autoconvolution(a)
    m2, m4 = tone_moments(a, conv)
    n = a.shape[1]
    dm4 = np.empty_like(a)
    for p in range(n):
        dm4[:, p] = 0.75 * np.sum(np.conj(a) * conv[:, p:p + n], axis=1)
    ddc = (2.0 * model.alpha) * model.proxy(m2, m4)[:, None] \
        * model.proxy(0.5 * a, dm4)
    grad = np.einsum("cn,cmn->mn", ddc, np.conj(gains)) / len(gains)
    return np.mean(model.dc(m2, m4)), grad


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 8])
def test_segmented_dc_and_grad_equals_each_segment_alone(m, n):
    gen = stream(11, 92, m, n)
    rows = sum(_SEGMENT_SIZES)
    gains = gen.standard_normal((rows, m, n)) \
        + 1j * gen.standard_normal((rows, m, n))
    words = _sphere(gen.standard_normal((len(_SEGMENT_SIZES), m, n))
                    + 1j * gen.standard_normal((len(_SEGMENT_SIZES), m, n)),
                    1.0)
    stops = np.cumsum(_SEGMENT_SIZES)
    bounds = np.column_stack([stops - _SEGMENT_SIZES, stops])
    model = DiodeMomentModel(k2=1.0, k4=1.0)
    alone = [_cluster_alone(gains[s:e], words[i], model)
             for i, (s, e) in enumerate(bounds)]
    means, _, grads = _dc_and_grad(gains, words, bounds, model)
    for i, (mean, grad) in enumerate(alone):
        assert means[i] == mean
        assert np.array_equal(grads[i], grad)
        s, e = bounds[i]
        one_mean, one_grad = _one_segment(gains[s:e], words[i], model)
        assert one_mean == mean and np.array_equal(one_grad, grad)
    # a subset in another order, as the line search evaluates pending ones
    pick = np.array([7, 0, 5, 2])
    means, _, grads = _dc_and_grad(gains, words[pick], bounds[pick], model)
    for j, i in enumerate(pick):
        assert means[j] == alone[i][0]
        assert np.array_equal(grads[j], alone[i][1])


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 8])
def test_update_rows_equal_each_pair_evaluated_exactly(m, n):
    # the objective, the re-seeds and the next ASSIGN's floor read each
    # channel's dc on its own updated codeword from the UPDATE's rows, so
    # they must be an exact evaluation's bits.  Channel 0 is all zero and
    # alone in codeword 2: its gradient vanishes and the segment never
    # moves.  Channel 1 is alone in codeword 5, channel 7 is all zero in a
    # large cluster, codeword 6 has no channel, and 300 rows cross the
    # UPDATE's row blocks.
    gen = stream(16, 98, m, n)
    c, k = 300, 7
    gains = gen.standard_normal((c, m, n)) \
        + 1j * gen.standard_normal((c, m, n))
    gains[[0, 7]] = 0.0
    words = _sphere(gen.standard_normal((k, m, n))
                    + 1j * gen.standard_normal((k, m, n)), 2.0)
    assign = gen.choice([0, 1, 3, 4], size=c)
    assign[:2] = (2, 5)
    model = DiodeMomentModel(k2=1.0, k4=1.0)
    updated, fresh = _update(gains, words, assign, model, 2.0)
    exact = _exact_dc(gains, updated, np.arange(c), assign, model)
    assert _same_bits(fresh, exact)
    assert fresh[0] == 0.0 and fresh[7] == 0.0
    assert np.array_equal(updated[[2, 6]], words[[2, 6]])
    if m * n > 1:
        assert not any(np.array_equal(updated[kk], words[kk])
                       for kk in (0, 1, 3, 4, 5))


def test_sphere_projects_each_matrix_of_a_batch():
    gen = stream(12, 93)
    w = gen.standard_normal((5, 3, 4)) + 1j * gen.standard_normal((5, 3, 4))
    batch = _sphere(w, 1.5)
    for i in range(5):
        assert np.array_equal(batch[i], _sphere(w[i], 1.5))
    w[3] = 0.0
    with pytest.raises(DomainError):
        _sphere(w, 1.5)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("c", [1, 2, 17, 1000])
def test_amplitude_rows_do_not_depend_on_the_batch(m, n, c):
    # Lloyd's ASSIGN evaluates subsets of rows, and train_lloyd forms each
    # channel's own amplitudes through one gathered einsum
    gen = stream(13, 95, m, n, c)
    gains = gen.standard_normal((c, m, n)) + 1j * gen.standard_normal((c, m, n))
    words = _sphere(gen.standard_normal((3, m, n))
                    + 1j * gen.standard_normal((3, m, n)), 1.0)
    for w in words:
        full = _amplitudes(gains, w)
        for rows in (np.arange(c)[::-1], gen.permutation(c)[:max(1, c // 3)],
                     np.array([c - 1])):
            assert _same_bits(_amplitudes(gains[rows], w), full[rows])
    pick = gen.integers(0, len(words), size=c)
    gathered = np.einsum("cmn,cmn->cn", gains, words[pick])
    for kk, w in enumerate(words):
        rows = pick == kk
        assert _same_bits(gathered[rows], _amplitudes(gains, w)[rows])


def _screen_case(m, n, c, k, pathloss_db, seed):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gains = np.stack([make_channel(seed + i, m, grid,
                                   pathloss_db=pathloss_db).gains
                      for i in range(c)])
    gen = stream(seed, 97, m, n)
    words = _sphere(gen.standard_normal((k, m, n))
                    + 1j * gen.standard_normal((k, m, n)), 2.0)
    return gains, words


def _screened_m2(gains, words):
    # the m2 of every (codeword, channel) pair as ASSIGN computes it exactly,
    # and the screen's bounds: no m2 may exceed its pair's upper bound
    m2 = np.stack([second_moment(_amplitudes(gains, w)) for w in words])
    upper = _screen(gains, words)
    assert upper.shape == m2.shape
    return m2, upper


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("pathloss_db", [0.0, 30.0, 60.0])
def test_screen_contains_every_computed_m2(m, n, pathloss_db):
    gains, words = _screen_case(m, n, 150, 24, pathloss_db, 600)
    gains[::7] = 0.0    # all-zero channels: every product is an exact zero
    m2, upper = _screened_m2(gains, words)
    assert np.all(m2 <= upper)
    assert np.all(upper[:, ::7] == 0.0)
    # the widening is a few 1e-12 of a typical m2, so the screen is sharp
    live = m2 > 0
    assert np.median(upper[live] / m2[live]) < 1.0 + 1e-10


def test_screen_contains_cancelling_codewords():
    # at M = 2 the codeword w[:, n] = (g1n, -g0n) of a channel gives it
    # a = g0 g1 - g1 g0 = 0 in exact arithmetic, so the screen's BLAS
    # product and the einsum each leave their own rounding residue, and
    # only the slack's ||g||_F ||w||_F term can cover the difference
    gains, _ = _screen_case(2, 8, 120, 1, 0.0, 700)
    words = _sphere(np.stack([gains[:, 1], -gains[:, 0]], axis=1), 2.0)
    m2, upper = _screened_m2(gains, words)
    own = np.diagonal(m2)
    assert np.all(own <= 1e-25 * np.median(m2))
    assert np.all(m2 <= upper)
    assert np.all(np.diagonal(upper) <= 1e-20 * np.median(m2))


# (M, N, K, C, pathloss dB, k4, twist); twist "dup" repeats 10 channels
# over the batch, "zero" zeroes every fifth channel, and "shadow" gives no
# channel gain on the last antenna and makes each odd codeword the even
# one before it with that antenna filled: the two tie exactly, but the
# larger norm ranks the odd one first in the screen, so its channel's
# evaluation starts there and the first-index rule must move the pick
_ASSIGN_CASES = {
    "60dB": (4, 8, 64, 300, 60.0, 19.1, None),
    "45dB": (4, 8, 64, 300, 45.0, 19.1, None),
    "30dB": (4, 8, 64, 300, 30.0, 19.1, None),
    "0dB": (4, 8, 64, 300, 0.0, 19.1, None),
    "ties-m1n1-0dB": (1, 1, 64, 200, 0.0, 19.1, None),
    "ties-m1n1-60dB": (1, 1, 64, 200, 60.0, 19.1, None),
    "duplicates": (2, 4, 16, 120, 20.0, 19.1, "dup"),
    "zero-rows": (2, 4, 16, 120, 20.0, 19.1, "zero"),
    "k4-zero": (4, 8, 32, 200, 30.0, 0.0, None),
    "k1": (4, 8, 1, 100, 60.0, 19.1, None),
    "shadow": (3, 4, 16, 120, 20.0, 19.1, "shadow"),
}


@pytest.mark.parametrize("case", list(_ASSIGN_CASES), ids=list(_ASSIGN_CASES))
def test_assign_equals_the_full_dc_matrix(case, monkeypatch):
    m, n, k, c, pathloss_db, k4, twist = _ASSIGN_CASES[case]
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gains = np.stack([make_channel(500 + i, m, grid,
                                   pathloss_db=pathloss_db).gains
                      for i in range(c)])
    if twist == "dup":
        gains = gains[np.arange(c) % 10]
    if twist == "zero":
        gains[::5] = 0.0
    gen = stream(14, 96, m, n)
    words = list(_sphere(gen.standard_normal((k, m, n))
                         + 1j * gen.standard_normal((k, m, n)), 2.0))
    if twist == "shadow":
        gains[:, -1] = 0.0
        for j in range(0, k, 2):
            words[j][-1] = 0.0
            words[j + 1] = words[j].copy()
            words[j + 1][-1] = 1.0
        assert np.all(np.argmax(_screen(gains, np.stack(words)),
                                axis=0) % 2 == 1)
    model = DiodeMomentModel(k4=k4)
    full = np.column_stack([dc_batch(gains, w, model) for w in words])
    best = np.argmax(full, axis=1)

    evaluated = []
    real = codebook_module.fourth_moment
    monkeypatch.setattr(codebook_module, "fourth_moment",
                        lambda a: evaluated.append(len(a)) or real(a))
    assign, dc = _assign(gains, words, model)
    assert np.array_equal(assign, best)
    assert _same_bits(dc, full[np.arange(c), best])
    if twist == "shadow":
        assert np.all(best % 2 == 0)

    # the upper bound the pruning rests on, and the lower bound m4 = 0,
    # hold for every computed dc
    m2 = np.stack([second_moment(_amplitudes(gains, w)) for w in words])
    lower, upper = model.dc(m2, 0.0), _dc_upper(m2, n, model)
    assert np.all(lower <= full.T) and np.all(full.T <= upper)
    # no exact batch exceeds C rows, and the exact pass sees no more pairs
    # than a running maximum of the lower bounds keeps; where m4 dominates
    # the exact values raise the floor and rule out more
    assert max(evaluated) <= c
    kept = np.count_nonzero(upper >= np.maximum.accumulate(lower, axis=0))
    assert sum(evaluated) <= kept
    if pathloss_db <= 30.0 and k4 > 0 and n > 1:
        assert sum(evaluated) < kept


def _assign_inputs(case):
    # the gains, codewords and model of one _ASSIGN_CASES entry
    m, n, k, c, pathloss_db, k4, twist = _ASSIGN_CASES[case]
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    gains = np.stack([make_channel(500 + i, m, grid,
                                   pathloss_db=pathloss_db).gains
                      for i in range(c)])
    if twist == "zero":
        gains[::5] = 0.0
    gen = stream(14, 96, m, n)
    words = _sphere(gen.standard_normal((k, m, n))
                    + 1j * gen.standard_normal((k, m, n)), 2.0)
    if twist == "shadow":
        gains[:, -1] = 0.0
        words[0::2, -1] = 0.0
        words[1::2] = words[0::2]
        words[1::2, -1] = 1.0
    return gains, words, DiodeMomentModel(k4=k4)


@pytest.mark.parametrize("case", ["60dB", "0dB", "ties-m1n1-0dB",
                                  "zero-rows", "shadow"])
def test_assign_from_known_pairs_equals_the_full_dc_matrix(case, monkeypatch):
    # train_lloyd hands ASSIGN each channel's own pair with the dc the
    # UPDATE computed for it, in place of a seed evaluation.  A known pair
    # off the best, or (shadow) the best's exact twin one index above it,
    # must still give the full matrix's first-index argmax and its bits
    gains, words, model = _assign_inputs(case)
    c, k = len(gains), len(words)
    channels = np.arange(c)
    full = np.column_stack([dc_batch(gains, w, model) for w in words])
    best = np.argmax(full, axis=1)
    off = (best + stream(15, 96).integers(1, k, size=c)) % k
    assert np.all(off != best)
    knowns = {"off": off, "best": best}
    if case == "shadow":
        assert np.all(best % 2 == 0)
        assert _same_bits(full[channels, best + 1], full[channels, best])
        knowns["twin"] = best + 1
    evaluated = []
    real = codebook_module.fourth_moment
    monkeypatch.setattr(codebook_module, "fourth_moment",
                        lambda a: evaluated.append(len(a)) or real(a))
    for name, known in knowns.items():
        evaluated.clear()
        assign, dc = _assign(gains, words, model,
                             (known, full[channels, known]))
        assert np.array_equal(assign, best), name
        assert _same_bits(dc, full[channels, best]), name
        if case == "60dB" and name == "best":
            # the known pairs are not evaluated again: at 60 dB the bound
            # leaves few other pairs
            assert sum(evaluated) < 0.1 * c


# ---------------------------------------------------------------------------
# training

def _training_channels(seed, count, m, n):
    grid = ToneGrid.centered(2.4e9, 10e6, n)
    return [make_channel(seed * 1000 + i, m, grid, pathloss_db=0.0)
            for i in range(count)]


def test_train_lloyd_objective_is_monotone():
    channels = _training_channels(1, 40, 2, 2)
    model = DiodeMomentModel()
    trace = []
    train_lloyd(channels, 4, model, iters=12, rng=stream(1, 5), power=1.0,
                on_iteration=lambda it, obj: trace.append(obj))
    assert len(trace) >= 1
    assert all(b >= a * (1 - 1e-12) for a, b in zip(trace, trace[1:]))


def test_train_lloyd_beats_random_codebook():
    channels = _training_channels(2, 60, 2, 2)
    model = DiodeMomentModel()
    grid = channels[0].grid
    trained = train_lloyd(channels, 8, model, iters=15, rng=stream(2, 5),
                          power=1.0)
    random_book = gen_random(2, grid, 1.0, 8, stream(2, 6))

    def mean_best(book):
        total = 0.0
        for ch in channels:
            total += max(dc_power_moment(model, effective_tones(ch, e), grid)
                         for e in book.entries)
        return total / len(channels)

    assert mean_best(trained) > mean_best(random_book)


def test_train_lloyd_deterministic():
    channels = _training_channels(3, 30, 2, 2)
    model = DiodeMomentModel()
    a = train_lloyd(channels, 4, model, iters=8, rng=stream(3, 5), power=1.0)
    b = train_lloyd(channels, 4, model, iters=8, rng=stream(3, 5), power=1.0)
    for ea, eb in zip(a.entries, b.entries):
        assert np.array_equal(ea.weights, eb.weights)


def test_train_lloyd_entries_meet_budget():
    channels = _training_channels(4, 30, 2, 3)
    model = DiodeMomentModel()
    book = train_lloyd(channels, 4, model, iters=6, rng=stream(4, 5),
                       power=2.5)
    for e in book.entries:
        assert radiated_power(e.weights) == pytest.approx(2.5, rel=1e-12)


def test_train_lloyd_handles_duplicate_channels():
    # identical training channels leave clusters empty; reseeding must cope
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    base = make_channel(6, 2, grid, pathloss_db=0.0)
    channels = [base] * 12
    model = DiodeMomentModel()
    book = train_lloyd(channels, 4, model, iters=5, rng=stream(6, 5),
                       power=1.0)
    assert book.k_codewords == 4


def test_train_lloyd_argument_errors():
    channels = _training_channels(7, 10, 2, 2)
    model = DiodeMomentModel()
    with pytest.raises(DomainError):
        train_lloyd(channels, 12, model, rng=stream(7, 5), power=1.0)
    # rng and power are required and keyword-only
    with pytest.raises(TypeError):
        train_lloyd(channels, 4, model)
    with pytest.raises(TypeError):
        train_lloyd(channels, 4, model, power=1.0)
    with pytest.raises(TypeError):
        train_lloyd(channels, 4, model, 30, stream(7, 5), 1.0)
    table = EfficiencyTableModel(p_dbm=np.array([-20.0, 0.0]),
                                 papr_axis=np.array([1.0, 3.0]),
                                 eta=np.full((2, 2), 0.2))
    with pytest.raises(DomainError):
        train_lloyd(channels, 4, table, rng=stream(7, 5), power=1.0)
    mixed = channels[:5] + _training_channels(7, 1, 2, 4)
    with pytest.raises(DimensionError, match=re.escape(
            "training channel gains shape (2, 4) does not fit (2, 2)")):
        train_lloyd(mixed, 4, model, rng=stream(7, 5), power=1.0)
    # a stack of channels in one realization is not a training set
    stacked = [ChannelRealization(grid=ch.grid, gains=np.stack(
        [ch.gains, ch.gains])) for ch in channels]
    with pytest.raises(DimensionError, match=re.escape(
            "training channel gains shape (2, 2, 2) does not fit (2, 2)")):
        train_lloyd(stacked, 4, model, rng=stream(7, 5), power=1.0)


def test_train_lloyd_provenance_mentions_setup():
    channels = _training_channels(8, 20, 2, 2)
    model = DiodeMomentModel()
    book = train_lloyd(channels, 4, model, iters=3, rng=stream(8, 5),
                       power=1.0)
    assert "k=4" in book.provenance
    assert "n_train=20" in book.provenance


def _saved_digest(book, path):
    save_codebook(book, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (seed, M, N, K, channels): sha256 of the saved book and the float.hex of
# every on_iteration objective, recorded from the one-cluster-at-a-time
# trainer that the lock-step UPDATE replaced; the last case, at the
# benchmark's M and N, from the trainer that evaluated every channel's
# own pair again after the UPDATE and before each ASSIGN
_GOLDEN_BOOKS = [
    ((0, 1, 1, 4, 40),
     "a604de723446c6d38354049817bde7be121a7bbc05b800319177300025522dd3",
     ["0x1.d7859a0519ef6p+18", "0x1.d7859a0519ef6p+18",
      "0x1.d7859a0519ef6p+18"]),
    ((1, 2, 2, 16, 60),
     "4b9eae0a4651247048aaec6c00e7121fbd356b440638f1824f1a68050853f9f9",
     ["0x1.054b62d631c57p+21", "0x1.0bff40b877ab2p+21",
      "0x1.0d5d447ca5e2ep+21", "0x1.0dfbd5b4b6aa2p+21",
      "0x1.0e96154c2218cp+21"]),
    ((2, 4, 1, 32, 100),
     "67a306c7b31ee9ce2015763176c2b7917ed70ce31a699555945c55100c0a63d2",
     ["0x1.827bc262e3643p+22", "0x1.8cd0b98ed7e28p+22",
      "0x1.947064af42b37p+22", "0x1.966b31413fe2fp+22",
      "0x1.97dde0f15edf7p+22", "0x1.97e0f8671a038p+22"]),
    ((0, 1, 8, 8, 200),
     "18103ec05d46bbc948439dd4754b50688c55c569e98cb7be1f0e031064cd88b5",
     ["0x1.5f90e40d30498p+20", "0x1.acfe0f9c777bfp+20",
      "0x1.b7c74a71eda5cp+20", "0x1.ba8d2808ca28cp+20",
      "0x1.bbbe613ba95fdp+20", "0x1.bc8f2417a08dbp+20",
      "0x1.bd464edb29c5ap+20", "0x1.bdfe62bb40cf6p+20",
      "0x1.bfe4b7036d5f7p+20", "0x1.c047a62d78fa4p+20"]),
    ((3, 4, 8, 16, 200),
     "67c766147c9998ccf573c19215af709cfca88affed8c2370c339c09333d792bf",
     ["0x1.a3032d2434621p+23", "0x1.73a05e63e0e6fp+24",
      "0x1.91d7d7df19149p+24", "0x1.adf7416eff42fp+24",
      "0x1.e741721c0e003p+24", "0x1.f4215d4a07e6fp+24",
      "0x1.f9ae40a4eada9p+24", "0x1.fcb638481d080p+24",
      "0x1.005baaa685346p+25", "0x1.0b2e8bee72c40p+25",
      "0x1.10bf426727830p+25", "0x1.116289086e051p+25",
      "0x1.116c6e059bd0ap+25", "0x1.116ec2a3feb36p+25",
      "0x1.11749c802c634p+25"]),
]


@pytest.mark.parametrize(
    "setup,digest,objectives", _GOLDEN_BOOKS,
    ids=[f"seed{s}-m{m}-n{n}-k{k}" for (s, m, n, k, _), _, _ in _GOLDEN_BOOKS])
def test_train_lloyd_golden_bytes(tmp_path, setup, digest, objectives):
    seed, m, n, k, count = setup
    trace = []
    book = train_lloyd(_training_channels(seed, count, m, n), k,
                       DiodeMomentModel(), iters=30, rng=stream(seed, 5),
                       power=2.0,
                       on_iteration=lambda it, obj: trace.append(obj.hex()))
    assert trace == objectives
    assert _saved_digest(book, tmp_path / "book.cb") == digest


def test_train_lloyd_golden_bytes_with_reseeds(tmp_path, monkeypatch):
    # 30 of the 50 training channels are one channel, so the K = 8 starting
    # channels repeat it and their codewords coincide; ties go to the
    # lowest index, so the copies get no members and are re-seeded through
    # codebook.smf_weights
    distinct = _training_channels(0, 20, 2, 4)
    channels = distinct + [distinct[0]] * 30
    calls = []
    real = codebook_module.smf_weights

    def spy(channel, params):
        calls.append(channel)
        return real(channel, params)

    monkeypatch.setattr(codebook_module, "smf_weights", spy)
    trace = []
    book = train_lloyd(channels, 8, DiodeMomentModel(), iters=10,
                       rng=stream(0, 5), power=1.0,
                       on_iteration=lambda it, obj: trace.append(obj.hex()))
    # K starting codewords, then one call per re-seed
    assert len(calls) == 30 > book.k_codewords
    assert trace == ["0x1.1d7dd341aa0c5p+18", "0x1.2bba74527e24cp+18",
                     "0x1.3c192afac010bp+18", "0x1.407dd62f48be8p+18",
                     "0x1.464cbcc511134p+18", "0x1.498a47d79f506p+18"]
    assert _saved_digest(book, tmp_path / "book.cb") == \
        "57a2a38c2cbd7c77ba6efe6d4a5ec3df9514bd82f870167d584c26d4a7f9333c"


# ---------------------------------------------------------------------------
# file format

def test_save_load_round_trip(tmp_path):
    grid = ToneGrid.centered(2.4e9, 10e6, 3)
    book = gen_nested(2, grid, 1.75, 8, stream(9, 4))
    path = tmp_path / "book.txt"
    save_codebook(book, path)
    back = load_codebook(path)
    assert back.k_codewords == book.k_codewords
    assert back.nested == book.nested
    assert back.power_budget == book.power_budget
    assert back.provenance == book.provenance
    for a, b in zip(back.entries, book.entries):
        assert np.array_equal(a.weights, b.weights)


def test_save_load_is_byte_stable(tmp_path):
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_random(2, grid, 1.0, 4, stream(10, 4))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_codebook(book, p1)
    save_codebook(load_codebook(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_collapses_provenance_newlines(tmp_path):
    grid = ToneGrid.centered(2.4e9, 10e6, 1)
    book = dataclasses.replace(gen_random(1, grid, 1.0, 2, stream(11, 4)),
                               provenance="line one\nline two")
    path = tmp_path / "book.txt"
    save_codebook(book, path)
    back = load_codebook(path)
    assert back.provenance == "line one line two"


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "book.txt"
    path.write_text("wrong v1 1 1 1 1.0 0\nprovenance x\n1 1 1.0 0.0\n")
    with pytest.raises(CodebookIOError):
        load_codebook(path)


def test_load_rejects_truncation(tmp_path):
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_random(2, grid, 1.0, 2, stream(12, 4))
    path = tmp_path / "book.txt"
    save_codebook(book, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CodebookIOError):
        load_codebook(path)


def test_load_rejects_out_of_order_entries(tmp_path):
    grid = ToneGrid.centered(2.4e9, 10e6, 2)
    book = gen_random(1, grid, 1.0, 1, stream(13, 4))
    path = tmp_path / "book.txt"
    save_codebook(book, path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodebookIOError):
        load_codebook(path)


def test_load_rejects_a_file_that_is_not_ascii(tmp_path):
    path = tmp_path / "book.txt"
    path.write_bytes(b"wptcb v1 1 1 1 1.0 0\nprovenance \xe9\n1 1 1.0 0.0\n")
    with pytest.raises(CodebookIOError, match=re.escape(f"{path}:")):
        load_codebook(path)


@pytest.mark.parametrize("power", ["inf", "0.0", "nan", "-2.0"])
def test_load_names_the_file_for_a_header_power_that_is_not_positive(
        tmp_path, power):
    # a budget of inf would otherwise load this entry of |s|^2 = 25
    path = tmp_path / "book.txt"
    path.write_text(f"wptcb v1 1 1 1 {power} 0\nprovenance x\n1 1 5.0 0.0\n")
    with pytest.raises(CodebookIOError, match=re.escape(f"{path}:1:")):
        load_codebook(path)


@pytest.mark.parametrize("text,where,message", [
    ("", "", "empty file"),
    ("wptcb v2 1 1 1 1.0 0\nprovenance x\n1 1 1.0 0.0\n", ":1",
     "unsupported version 'v2'"),
    ("wptcb v1 1 1 1 1.0 0\norigin x\n1 1 1.0 0.0\n", ":2",
     "missing provenance line"),
    ("wptcb v1 1 1 1 1.0 0\nprovenance x\n1 1 1.0\n", ":3",
     "expected 'm n real imag'"),
    ("wptcb v1 1 1 1 1.0 0\nprovenance x\n1 1 one 0.0\n", ":3",
     "could not convert"),
    ("wptcb v1 1 1 1 1.0 7\nprovenance x\n1 1 1.0 0.0\n", ":1",
     "nested flag '7' not 0/1"),
    ("wptcb v1 1 1 1 1.0 -1\nprovenance x\n1 1 1.0 0.0\n", ":1",
     "nested flag '-1' not 0/1"),
    (None, "", "cannot read: "),
    ("directory", "", "cannot read: "),
], ids=["empty", "version", "provenance", "fields", "number", "nested-7",
        "nested-minus-1", "missing", "directory"])
def test_load_names_the_line_of_a_malformed_file(tmp_path, text, where,
                                                 message):
    # a path that cannot be opened is named too, with the OS error kept
    # as the cause
    path = tmp_path / "book.txt"
    if text == "directory":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    with pytest.raises(CodebookIOError,
                       match=re.escape(f"{path}{where}: {message}")) as err:
        load_codebook(path)
    if text is None or text == "directory":
        assert isinstance(err.value.__cause__, OSError)


@pytest.mark.parametrize("m, n, k", [(2, 2, 0), (0, 2, 2), (2, 0, 2)])
def test_load_names_the_file_for_an_empty_header(tmp_path, m, n, k):
    # every entry line is missing, so the line count matches the header;
    # the header itself is at fault
    path = tmp_path / "book.txt"
    path.write_text(f"wptcb v1 {m} {n} {k} 2.0 0\nprovenance x\n")
    with pytest.raises(CodebookIOError, match=re.escape(f"{path}:1:")):
        load_codebook(path)
