"""Codebook construction and Lloyd-style training.

A codebook is an ordered set of K waveform/beamforming codewords, all on
the same power sphere, held as one read-only (K, M, N) array that is
validated once, in one pass.  Nested codebooks keep the prefix property
(the first K rows of the big book are the exported K-book) with the
uniform power codeword pinned at entry 1, which makes best-of-K dc power
non-decreasing in K for every single channel realization.

train_lloyd alternates two monotone steps against a training set of channel
realizations and the smooth moment rectifier:

  ASSIGN  each channel to the codeword maximizing its dc power
          (ties to the lowest index);
  UPDATE  each codeword by projected gradient ascent on its cluster's
          average dc power, starting from the incumbent, with backtracking
          step halving until the objective does not decrease and projection
          back onto the power sphere.

ASSIGN computes the fourth moment only for the (channel, codeword) pairs
whose dc upper bound from m2 can still reach the channel's best, and its
assignment and dc values equal those of the full (C, K) matrix bit for
bit, whatever BLAS computed its screen; _assign gives the argument.

The UPDATE of one cluster reads only its own codeword and its members'
channels, so the UPDATE steps of one iteration are independent: they run
together in lock-step over the training channels sorted by cluster, with
every reduction kept per cluster, and give the same bytes as one cluster
at a time.  Empty clusters are then re-seeded, in index order, with the
SMF solution of the currently worst-served training channel.  Both steps
can only raise the average training objective, so it is non-decreasing
across iterations.

Each channel's dc on its own updated codeword is computed once, by the
UPDATE's last accepted evaluation of its cluster, with the bits an exact
evaluation gives.  The objective and the re-seeds read it, and the next
ASSIGN starts each channel from that known pair instead of evaluating a
seed of its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (CodebookIOError, DomainError, check_count,
                     check_positive, check_shape)
from .rectenna import DiodeMomentModel
from .strategies import SmfParams, smf_weights, up_weights
from .waveform import (ToneGrid, WaveformWeights, _sphere, autoconvolution,
                       fourth_moment, m4_gradient, radiated_power,
                       second_moment, tone_moments)

_POWER_REL_TOL = 1e-9
#: relative slack on the bound m4 <= 1.5*N*m2^2 that ASSIGN prunes with.
#: Computed from the same amplitudes, m4 exceeds the bound only by
#: rounding: the computed |c_k| is at most 1 + O(N u) times
#: sum_i |a_i||a_{k-i}|, whose squares the bound's proof already caps, and
#: the squares, sums and scalings of m2, m4 and the bound add relative
#: errors of order N u, with u = 2^-53: about 1e-13 at N = 1000.  At N = 1
#: the bound holds with equality, and without slack the computed m4
#: exceeds it by an ulp about half the time.
_M4_BOUND_SLACK = 1e-9
#: relative slack of ASSIGN's screen on each pair's amplitude norm; the
#: rounding it covers is below 1e-13 for M + N up to about 1000 (_assign)
_SCREEN_SLACK = 1e-12
#: training channels ASSIGN handles at once, and the pairs whose gathered
#: gains and codewords _pair_amplitudes holds at once.  Every temporary of
#: a block (the screen's products, the gathered gains and codewords, one
#: autoconvolution diagonal's products) then stays near 0.5 MB at M=4,
#: N=8, K=64; with whole (K, C) temporaries, Lloyd training at C = 1000
#: peaked about 0.5 MB higher in RSS than with blocks.
_ASSIGN_BLOCK = 256
_MAX_HALVINGS = 40      # step halvings a line search tries before giving up
_INNER_STEPS = 4        # gradient-ascent steps per cluster per iteration


@dataclass(frozen=True, eq=False)
class Codebook:
    """K codewords of one (M, N) shape, all on one power sphere.

    weights is the read-only (K, M, N) array of the codewords, entry k
    being weights[k - 1]; every entry's radiated power equals power_budget
    within a relative _POWER_REL_TOL.
    """

    weights: np.ndarray = field(repr=False)
    power_budget: float
    nested: bool = False
    provenance: str = ""

    def __post_init__(self):
        check_positive("power_budget", self.power_budget)
        words = np.array(self.weights, dtype=complex)
        check_shape("codebook weights", words.shape, (None, None, None))
        # each entry's radiated_power, to the bit, in one reduction; an
        # entry with an inf or nan weight has a power of inf or nan, which
        # the negated test catches
        powers = radiated_power(words)
        budget = self.power_budget
        off = np.flatnonzero(
            ~(np.abs(powers - budget) <= _POWER_REL_TOL * budget))
        if off.size:
            raise DomainError(f"entry {off[0] + 1} power "
                              f"{float(powers[off[0]])!r} != budget {budget!r}")
        words.flags.writeable = False
        object.__setattr__(self, "weights", words)

    @cached_property
    def entries(self) -> tuple:
        """Each codeword as a WaveformWeights, for per-codeword callers."""
        return tuple(WaveformWeights(weights=w, power_budget=self.power_budget)
                     for w in self.weights)

    @property
    def k_codewords(self) -> int:
        return self.weights.shape[0]

    @property
    def m_antennas(self) -> int:
        return self.weights.shape[1]

    @property
    def n_tones(self) -> int:
        return self.weights.shape[2]

    def prefix(self, k: int) -> "Codebook":
        """The codebook formed by the first k entries (requires nested)."""
        if not self.nested:
            raise DomainError("prefix export requires a nested codebook")
        k = check_count("k", k, 1, self.k_codewords)
        return Codebook(self.weights[:k], self.power_budget, nested=True,
                        provenance=f"{self.provenance} prefix[{k}]")


def _random_words(m: int, n: int, power: float, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """k complex-Gaussian (M, N) codewords on the sphere, drawn in one call.

    Index 0 of axis 1 is the real part and index 1 the imaginary part, so
    the stream is read in the order of a per-codeword pair of (M, N) draws.
    """
    z = rng.standard_normal((k, 2, m, n))
    return _sphere(z[:, 0] + 1j * z[:, 1], power)


def gen_random(m: int, grid: ToneGrid, power: float, k: int,
               rng: np.random.Generator) -> Codebook:
    """K i.i.d. complex-Gaussian codewords rescaled onto the power sphere."""
    k = check_count("k", k)
    words = _random_words(check_count("m", m), grid.n_tones, power, k, rng)
    return Codebook(words, power, provenance=f"gen_random k={k}")


def gen_nested(m: int, grid: ToneGrid, power: float, k_max: int,
               rng: np.random.Generator) -> Codebook:
    """Prefix-nested codebook: entry 1 is the UP codeword, the rest random."""
    k_max = check_count("k_max", k_max)
    if k_max & (k_max - 1):
        raise DomainError(f"k_max must be a power of two, got {k_max}")
    words = np.concatenate([up_weights(m, grid, power).weights[None],
                            _random_words(m, grid.n_tones, power, k_max - 1,
                                          rng)])
    return Codebook(words, power, nested=True,
                    provenance=f"gen_nested k_max={k_max}")


# ---------------------------------------------------------------------------
# batched dc evaluation and its gradient (moment model)

def _amplitudes(gains: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # (C, M, N) x (M, N) -> per-channel effective tones (C, N)
    return np.einsum("cmn,mn->cn", gains, weights)


def _dc_upper(m2: np.ndarray, n_tones: int, model: DiodeMomentModel
              ) -> np.ndarray:
    """Upper bound on the computed dc of amplitudes whose m2 is given.

    It sets m4 to 1.5*N*m2^2 (docs/covering_bound.md, step 1) widened by
    _M4_BOUND_SLACK for rounding; it holds while m2*m2 stays a normal
    float (m2 above about 1e-154 W).
    """
    ceiling = (1.5 * n_tones * (1.0 + _M4_BOUND_SLACK)) * (m2 * m2)
    return model.dc(m2, ceiling)


def _screen(gains: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Upper bounds on the m2 that second_moment computes for every pair.

    For each tone t, one BLAS product words[:, :, t] @ gains[:, :, t].T
    forms the amplitudes of all (K, C) pairs, and their squared moduli
    are summed over the tones in place, so no (N, K, C) array is held.
    With r the norm of a pair's screened amplitudes, the interval
    [r - delta, r + delta], delta = _SCREEN_SLACK*(||g||_F ||w||_F + r),
    holds the norm sqrt(2*m2) of the einsum's amplitudes; _assign gives
    the argument.  Only its top is needed.

    Returns:
        (K, C) array: every pair's upper bound on m2, (r + delta)^2 / 2.
    """
    c, _, n = gains.shape
    k = len(words)
    p = np.empty((k, c), dtype=complex)
    parts = p.view(float)   # (K, 2C): each real part beside its imaginary
    acc = np.zeros_like(parts)
    for t in range(n):
        np.matmul(words[:, :, t], gains[:, :, t].T, out=p)
        np.multiply(parts, parts, out=parts)
        acc += parts
    r = np.sqrt(np.add(acc[:, 0::2], acc[:, 1::2]))
    delta = np.multiply.outer(np.linalg.norm(words.reshape(k, -1), axis=1),
                              np.linalg.norm(gains.reshape(c, -1), axis=1))
    delta += r
    delta *= _SCREEN_SLACK
    r += delta
    np.square(r, out=r)
    r *= 0.5
    return r


def _pair_amplitudes(gains: np.ndarray, words: np.ndarray, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Tones of each pair (channel rows[i], codeword cols[i]), shape (P, N).

    The gathered einsum forms the pairs _ASSIGN_BLOCK at a time and gives
    each pair the amplitude bits _amplitudes gives it
    (tests/test_codebook.py pins that).
    """
    a = np.empty((len(rows), gains.shape[2]), dtype=complex)
    for start in range(0, len(rows), _ASSIGN_BLOCK):
        block = slice(start, start + _ASSIGN_BLOCK)
        np.einsum("cmn,cmn->cn", gains[rows[block]], words[cols[block]],
                  out=a[block])
    return a


def _exact_dc(gains: np.ndarray, words: np.ndarray, rows: np.ndarray,
              cols: np.ndarray, model: DiodeMomentModel) -> np.ndarray:
    """dc of each pair (channel rows[i], codeword cols[i]), shape (P,).

    The pairs are evaluated in batches of as many pairs as gains has
    channels; a row's amplitudes, m2 and m4 do not depend on its batch.
    """
    dc = np.empty(rows.size)
    for start in range(0, rows.size, len(gains)):
        batch = slice(start, start + len(gains))
        a = _pair_amplitudes(gains, words, rows[batch], cols[batch])
        dc[batch] = model.dc(second_moment(a), fourth_moment(a))
    return dc


def _assign(gains: np.ndarray, words, model: DiodeMomentModel, known=None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's ASSIGN: each channel's best codeword and its dc power.

    A channel's assignment reads no other channel, so the channels are
    taken in blocks of _ASSIGN_BLOCK.  In a block, _screen bounds every
    pair's m2 from above, with one BLAS product per tone.  Each channel
    starts from one pair, its seed: the pair with the highest upper bound,
    evaluated exactly first, or the known pair when one is given.  The
    seed's dc is one of the channel's computed dc values, so the best one
    is at least as large; a pair whose dc upper bound from _dc_upper (m4
    at most 1.5*N*m2^2, docs/covering_bound.md, step 1, widened for the
    rounding of m4) falls below it can neither win nor tie.  Only the
    pairs whose bound reaches it are evaluated exactly after the seed, in
    batches no larger than the block; every other entry of the block's
    (C, K) dc matrix is -inf.  At 60 dB pathloss about 1.02 of 64 pairs
    per channel are evaluated in all, at 0 dB about 22.

    A known pair is a codeword index and the dc that _dc_and_grad
    computed for the channel on that codeword (train_lloyd passes each
    channel's own cluster and the UPDATE's row for it).  _dc_and_grad
    forms the row's amplitudes with the same gathered einsum, and its m2
    and m4 with the same kernels, so that dc has the bits an exact
    evaluation here would give: it is one of the channel's computed dc
    values, and the argument above holds unchanged.  The known pair need
    not be the channel's best, nor rank first in the screen; every pair
    whose bound reaches its dc, ties included, is still evaluated, so a
    lower index that ties the best still wins.

    The screen only decides which pairs are evaluated.  BLAS sums in its
    own order, blocking and fused multiply-adds, so its amplitudes differ
    from the einsum's; the slack covers that.  Each amplitude is an M-term
    complex inner product, so any such evaluation lies within
    gamma_{M+2} * sum_m |g_m||w_m| of the exact value, gamma_j =
    j*u/(1 - j*u) with u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, sections 3.1 and 3.6).  Summed over the tones
    in norm and by Cauchy-Schwarz, the screened and the einsum's
    amplitude vectors differ by at most 2*gamma_{M+2}*||g||_F*||w||_F.
    The computed norm r and sqrt(2*m2) add relative errors of order
    (N + 4)*u.  So |sqrt(2*m2) - r| <= _SCREEN_SLACK*(||g||_F ||w||_F + r)
    with room to spare while (M + N)*u stays far below 1e-12, that is for
    any M + N up to about 1000.  Like _dc_upper, the argument assumes
    that no product or square leaves the normal range (m2 above about
    1e-154 W, or exact zeros such as an all-zero channel).

    Every pair that can win or tie is evaluated, and a row's amplitudes,
    m2 and m4 are the same bits whatever rows share its batch, so the
    first-index argmax and its value equal those of the full (C, K)
    matrix of every pair's dc bit for bit, whatever BLAS library, thread
    count or machine computed the screen.

    Args:
        known: optional (assign, dc) of shape (C,) each: every channel's
            known pair, evaluated already.

    Returns:
        (assign, dc) of shape (C,): codeword indices and their dc powers.
    """
    words = np.asarray(words)
    n = gains.shape[2]
    assign = np.empty(len(gains), dtype=np.intp)
    dc = np.empty(len(gains))
    for start in range(0, len(gains), _ASSIGN_BLOCK):
        block = slice(start, start + _ASSIGN_BLOCK)
        g = gains[block]
        upper_m2 = _screen(g, words)
        channels = np.arange(len(g))
        if known is None:
            seed = np.argmax(upper_m2, axis=0)
            seed_dc = _exact_dc(g, words, channels, seed, model)
        else:
            seed, seed_dc = known[0][block], known[1][block]
        reach = _dc_upper(upper_m2, n, model) >= seed_dc
        reach[seed, channels] = False
        cols, rows = np.nonzero(reach)
        pairs = np.full((len(g), len(words)), -np.inf)
        pairs[channels, seed] = seed_dc
        pairs[rows, cols] = _exact_dc(g, words, rows, cols, model)
        assign[block] = np.argmax(pairs, axis=1)
        dc[block] = pairs[channels, assign[block]]
    return assign, dc


def _segment_rows(bounds: np.ndarray) -> np.ndarray:
    """The gains row behind each row of the segments laid end to end."""
    counts = bounds[:, 1] - bounds[:, 0]
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(bounds[:, 0] - (ends - counts),
                                               counts)


def _dc_and_grad(gains: np.ndarray, words: np.ndarray, bounds,
                 model: DiodeMomentModel, gradient: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-segment mean dc, every row's dc and the Wirtinger ascent direction.

    Segment i pairs codeword words[i] with the channels
    gains[bounds[i][0]:bounds[i][1]], and the rows of all segments are
    laid end to end.  Their amplitudes come from _pair_amplitudes, so a
    row's dc equals _exact_dc's for its pair.  The elementwise math runs
    once over all rows; the reductions over channels (the mean and the
    gradient sum) run per segment, so each segment's result equals its
    evaluation alone to the last bit.

    The gradient is d(mean dc)/d(conj s): with a_n = sum_m h[m,n] s[m,n],
    d m2/d conj(a_p) = a_p / 2 and
    d m4/d conj(a_p) = (3/4) sum_q conj(a_q) c_{p+q} with c the
    autoconvolution of a; the chain rule multiplies by conj(h[m,p]).
    autoconvolution runs tone-major over all rows at once, and
    m4_gradient over all rows one output tone at a time, as one (N, R)
    block per tone; both equal a per-row evaluation to the last bit.

    Returns:
        (means, dc, grads) of shapes (S,), (R,) and (S, M, N) for S
        segments of R rows in all; grads is None unless gradient is set.
    """
    bounds = np.asarray(bounds)
    counts = bounds[:, 1] - bounds[:, 0]
    a = _pair_amplitudes(gains, words, _segment_rows(bounds),
                         np.repeat(np.arange(len(bounds)), counts))
    conv = autoconvolution(a)
    m2, m4 = tone_moments(a, conv)
    dc = model.dc(m2, m4)
    spans = [(slice(stop - count, stop), count) for stop, count in
             zip(np.cumsum(counts).tolist(), counts.tolist())]
    # np.mean's sum and division without its Python-level dispatch; a
    # reduceat or zero-padded sum would regroup numpy's pairwise sum
    means = np.array([np.add.reduce(dc[seg]) / count
                      for seg, count in spans])
    if not gradient:
        return means, dc, None
    z = model.proxy(m2, m4)
    dm4 = m4_gradient(a, conv)
    dz = model.proxy(0.5 * a, dm4)
    ddc = (2.0 * model.alpha) * z[:, None] * dz
    grads = np.empty_like(words)
    for i, ((start, stop), (seg, count)) in enumerate(zip(bounds, spans)):
        grads[i] = np.einsum("cn,cmn->mn", ddc[seg],
                             np.conj(gains[start:stop])) / count
    return means, dc, grads


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each complex (M, N) matrix of x (K, M, N), per row.

    norm runs one BLAS dot on a matrix's real and one on its imaginary
    view; a matmul of (K, 1, M*N) rows by their (K, M*N, 1) transposes
    runs that dot per row, so each value equals norm's to the bit.
    """
    v = x.reshape(len(x), 1, -1)
    re, im = v.real, v.imag
    sq = (np.matmul(re, re.transpose(0, 2, 1))
          + np.matmul(im, im.transpose(0, 2, 1)))
    return np.sqrt(sq[:, 0, 0])


def _update(gains: np.ndarray, words: np.ndarray, assign: np.ndarray,
            model: DiodeMomentModel, power: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's UPDATE of every non-empty cluster, and each channel's dc.

    All non-empty clusters ascend together, by projected gradient ascent
    in lock-step, on the cluster-sorted gains; the stable sort keeps each
    cluster's channels in index order, so every cluster is one segment of
    the sorted rows.  Each codeword climbs its own cluster's mean dc from
    the incumbent with its own step, halved while its trial does not
    reach the current value; it stops once its gradient vanishes or a
    step does not improve it, so no codeword ever decreases.  The last
    step's trials skip the gradient, which nothing reads.

    Returns:
        (words, fresh): the (K, M, N) codewords, empty clusters' unchanged,
        and, shape (C,), each channel's dc on its own updated codeword as
        the UPDATE computed it.  A cluster that never moved keeps the
        incumbent's dc, and an accepted trial brings its own, also when it
        did not improve.
    """
    counts = np.bincount(assign, minlength=len(words))
    stops = np.cumsum(counts)
    occupied = np.flatnonzero(counts)
    order = np.argsort(assign, kind="stable")
    ordered = gains[order]
    bounds = np.column_stack([stops - counts, stops])[occupied]
    counts = counts[occupied]
    best = words[occupied]
    f_cur, rows, grad = _dc_and_grad(ordered, best, bounds, model)
    active = np.ones(len(best), dtype=bool)
    for inner in range(_INNER_STEPS):
        gradient = inner < _INNER_STEPS - 1
        g_norm = _norms(grad)
        active &= g_norm != 0
        step = np.divide(_norms(best), g_norm, out=np.zeros(len(best)),
                         where=active)
        pending = active.copy()
        improved = np.zeros(len(best), dtype=bool)
        for _ in range(_MAX_HALVINGS):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            trial = _sphere(best[idx] + step[idx, None, None] * grad[idx],
                            power)
            f_trial, dc, g_trial = _dc_and_grad(ordered, trial, bounds[idx],
                                                model, gradient)
            ok = f_trial >= f_cur[idx]
            done = idx[ok]
            improved[done] = f_trial[ok] > f_cur[done]
            best[done] = trial[ok]
            f_cur[done] = f_trial[ok]
            rows[_segment_rows(bounds[done])] = dc[np.repeat(ok, counts[idx])]
            if gradient:
                grad[done] = g_trial[ok]
            pending[done] = False
            step[idx[~ok]] *= 0.5
        active &= improved
        if not active.any():
            break
    words = words.copy()
    words[occupied] = best
    fresh = np.empty(len(gains))
    fresh[order] = rows
    return words, fresh


def train_lloyd(training_channels, k: int, rect_model: DiodeMomentModel,
                iters: int = 30, *, rng: np.random.Generator, power: float,
                on_iteration=None) -> Codebook:
    """Alternating assign/ascend codebook training on the moment model.

    Args:
        training_channels: sequence of ChannelRealization, length >= k.
        k: codebook size.
        rect_model: smooth moment rectifier the objective is built on.
        iters: maximum alternations; stops early if the assignment is stable.
        rng: picks the k distinct training channels whose SMF solutions
            are the initial codewords.
        power: codeword power budget.
        on_iteration: optional callback (iteration, mean training dc power),
            called once per iteration with a non-decreasing value.  The
            value is the in-sample objective on the training channels the
            book is fitted to; it overstates, and does not estimate, the
            dc power the book delivers on fresh channels.

    Returns:
        Trained codebook (not nested).
    """
    channels = list(training_channels)
    k = check_count("k", k)
    if len(channels) < k:
        raise DomainError(
            f"training set of {len(channels)} is smaller than k={k}")
    iters = check_count("iters", iters)
    if not isinstance(rect_model, DiodeMomentModel):
        raise DomainError("training requires the smooth moment model")
    # one (M, N) matrix per channel, all of the first one's (M, N)
    for shape in {ch.gains.shape for ch in channels}:
        check_shape("training channel gains", shape,
                    channels[0].gains.shape[-2:])
    gains = np.stack([ch.gains for ch in channels])

    smf = SmfParams(power_budget=power)
    # seed with the SMF solutions of k distinct training channels
    words = np.stack([smf_weights(channels[int(i)], smf).weights
                      for i in rng.choice(len(channels), size=k,
                                          replace=False)])

    assign, served = _assign(gains, words, rect_model)
    for it in range(iters):
        words, fresh = _update(gains, words, assign, rect_model, power)
        # the re-seeds touch only empty clusters, which no channel is
        # assigned to, so fresh stays current through them
        for kk in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            # the worst-served channel as seen while re-seeding in index
            # order: codewords below kk are updated, those above are not
            worst = int(np.argmin(np.where(assign < kk, fresh, served)))
            words[kk] = smf_weights(channels[worst], smf).weights
        if on_iteration is not None:
            on_iteration(it, float(np.mean(fresh)))
        # each channel's own pair is evaluated already: fresh is its dc
        new_assign, served = _assign(gains, words, rect_model,
                                     (assign, fresh))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    cfg = f"k={k} iters={iters} n_train={len(channels)} inner={_INNER_STEPS}"
    digest = hashlib.sha256(cfg.encode()).hexdigest()[:8]
    return Codebook(_sphere(words, power), power,
                    provenance=f"train_lloyd {cfg} ran={it + 1} "
                               f"cfg={digest}")


# ---------------------------------------------------------------------------
# file format: "wptcb v1 M N K P nested" header, provenance line,
# then K blocks of M*N lines "m n real imag"

def save_codebook(book: Codebook, path) -> None:
    """Write the versioned text format; floats as repr for bit-exactness."""
    lines = [f"wptcb v1 {book.m_antennas} {book.n_tones} {book.k_codewords} "
             f"{float(book.power_budget)!r} {int(book.nested)}",
             "provenance " + " ".join(book.provenance.split())]
    for kk, mi, ni in np.ndindex(book.weights.shape):
        w = book.weights[kk, mi, ni]
        lines.append(f"{mi + 1} {ni + 1} {float(w.real)!r} {float(w.imag)!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    """Read a codebook written by save_codebook; strict, line-diagnosed."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CodebookIOError(f"{path}: cannot read: {exc}") from exc
    if not lines:
        raise CodebookIOError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 7 or header[0] != "wptcb":
        raise CodebookIOError(f"{path}:1: malformed header")
    if header[1] != "v1":
        raise CodebookIOError(f"{path}:1: unsupported version {header[1]!r}")
    if header[6] not in ("0", "1"):
        raise CodebookIOError(f"{path}:1: nested flag {header[6]!r} not 0/1")
    try:
        m, n, k = int(header[2]), int(header[3]), int(header[4])
        power = float(header[5])
        nested = header[6] == "1"
        # a DomainError is a ValueError, so it names the header line too
        check_positive("power", power)
    except ValueError as exc:
        raise CodebookIOError(f"{path}:1: {exc}") from exc
    if min(m, n, k) < 1:
        raise CodebookIOError(
            f"{path}:1: M, N and K must be >= 1, got {m}, {n}, {k}")
    if len(lines) < 2 or not lines[1].startswith("provenance"):
        raise CodebookIOError(f"{path}:2: missing provenance line")
    provenance = lines[1][len("provenance"):].strip()
    expected = 2 + k * m * n
    if len(lines) != expected:
        raise CodebookIOError(
            f"{path}: expected {expected} lines for K={k}, M={m}, N={n}; "
            f"got {len(lines)}")
    words = np.empty((k, m, n), dtype=complex)
    lineno = 2
    for kk, mi, ni in np.ndindex(k, m, n):
        parts = lines[lineno].split()
        lineno += 1
        if len(parts) != 4:
            raise CodebookIOError(f"{path}:{lineno}: expected 'm n real imag'")
        try:
            fm, fn = int(parts[0]), int(parts[1])
            val = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise CodebookIOError(f"{path}:{lineno}: {exc}") from exc
        if (fm, fn) != (mi + 1, ni + 1):
            raise CodebookIOError(
                f"{path}:{lineno}: expected entry ({mi + 1}, {ni + 1}),"
                f" found ({fm}, {fn})")
        words[kk, mi, ni] = val
    return Codebook(words, power, nested=nested, provenance=provenance)
