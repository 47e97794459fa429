"""Codebook construction and Lloyd-style training.

A codebook is an ordered set of K waveform/beamforming codewords, all on
the same power sphere.  Nested codebooks keep the prefix property (the
first K entries of the big book are the exported K-book) with the uniform
power codeword pinned at entry 1, which makes best-of-K dc power
non-decreasing in K for every single channel realization.

train_lloyd alternates two monotone steps against a training set of channel
realizations and the smooth moment rectifier:

  ASSIGN  each channel to the codeword maximizing its dc power
          (ties to the lowest index);
  UPDATE  each codeword by projected gradient ascent on its cluster's
          average dc power, starting from the incumbent, with backtracking
          step halving until the objective does not decrease and projection
          back onto the power sphere.

ASSIGN computes the fourth moment only where the argmax can land.  m4
lies between 0 and 1.5*N*m2^2 (docs/covering_bound.md, step 1), so m2
alone bounds every (channel, codeword) dc.  A pair is evaluated exactly
only if its upper bound reaches its channel's floor, the running maximum
of the lower bounds and of the exact dc values computed so far; at 60 dB
pathloss about 5 of 64 pairs per channel reach that step, at 0 dB about
30.  The pruning is exact.  Rounding is monotone, so the computed dc never
falls below its lower bound, and a 1e-9 slack on the upper bound covers
the rounding of m4 against it.  Every pair that can win or tie is
evaluated, and a row's m2 and m4 do not depend on the rows beside it, so
the assignment and its dc values equal the full (C, K) matrix's bit for
bit.

The UPDATE of one cluster reads only its own codeword and its members'
channels, so the UPDATE steps of one iteration are independent: they run
together in lock-step over the training channels sorted by cluster, with
every reduction kept per cluster, and give the same bytes as one cluster
at a time.  Empty clusters are then re-seeded, in index order, with the
SMF solution of the currently worst-served training channel.  Both steps
can only raise the average training objective, so it is non-decreasing
across iterations.  The objective and the re-seeds read each channel's dc
on its own updated codeword.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CodebookIOError, DimensionError, DomainError
from .rectenna import DiodeMomentModel
from .strategies import SmfParams, smf_weights, up_weights
from .waveform import (ToneGrid, WaveformWeights, autoconvolution,
                       fourth_moment, m4_gradient, second_moment,
                       tone_moments)

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
_MAX_HALVINGS = 40      # step halvings a line search tries before giving up
_INNER_STEPS = 4        # gradient-ascent steps per cluster per iteration


@dataclass(frozen=True)
class Codebook:
    """K codewords of identical dimensions, all meeting the budget exactly."""

    k_codewords: int
    entries: tuple
    nested: bool = False
    provenance: str = ""
    #: all weights as one read-only (K, M, N) array
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if self.k_codewords < 1 or len(entries) != self.k_codewords:
            raise DomainError(
                f"expected {self.k_codewords} entries, got {len(entries)}")
        first = entries[0]
        for i, e in enumerate(entries):
            if not isinstance(e, WaveformWeights):
                raise DomainError(f"entry {i + 1} is not a WaveformWeights")
            if (e.m_antennas, e.n_tones) != (first.m_antennas, first.n_tones):
                raise DimensionError(
                    f"entry {i + 1} has shape ({e.m_antennas}, {e.n_tones}), "
                    f"expected ({first.m_antennas}, {first.n_tones})")
            if e.power_budget != first.power_budget:
                raise DomainError("entries must share one power budget")
        stacked = np.stack([e.weights for e in entries])
        stacked.flags.writeable = False
        # each entry's transmit_power, to the bit, in one reduction
        powers = 0.5 * np.sum(np.abs(stacked) ** 2, axis=(1, 2))
        budget = first.power_budget
        off = np.flatnonzero(np.abs(powers - budget) > _POWER_REL_TOL * budget)
        if off.size:
            raise DomainError(f"entry {off[0] + 1} power "
                              f"{float(powers[off[0]])!r} != budget {budget!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "stacked", stacked)

    @property
    def m_antennas(self) -> int:
        return self.entries[0].m_antennas

    @property
    def n_tones(self) -> int:
        return self.entries[0].n_tones

    @property
    def power_budget(self) -> float:
        return self.entries[0].power_budget

    def prefix(self, k: int) -> "Codebook":
        """The codebook formed by the first k entries (requires nested)."""
        if not self.nested:
            raise DomainError("prefix export requires a nested codebook")
        if not 1 <= k <= self.k_codewords:
            raise DomainError(f"k must be in [1, {self.k_codewords}], got {k}")
        return Codebook(k_codewords=k, entries=self.entries[:k], nested=True,
                        provenance=f"{self.provenance} prefix[{k}]")


def _sphere(weights: np.ndarray, power: float) -> np.ndarray:
    """Rescale each (M, N) matrix onto the sphere (1/2)||s||^2 = power."""
    norm_sq = np.sum(np.abs(weights) ** 2, axis=(-2, -1), keepdims=True)
    if np.any(norm_sq == 0):
        raise DomainError("cannot project the zero matrix onto the power sphere")
    return weights * np.sqrt(2.0 * power / norm_sq)


def _entries(words: np.ndarray, power: float) -> list:
    """Codewords of the (K, M, N) words projected onto the sphere."""
    _, m, n = words.shape
    return [WaveformWeights(m_antennas=m, n_tones=n, weights=w,
                            power_budget=power)
            for w in _sphere(words, power)]


def _random_entries(m: int, n: int, power: float, k: int,
                    rng: np.random.Generator) -> list:
    """k complex-Gaussian codewords on the sphere, drawn in one call.

    Index 0 of axis 1 is the real part and index 1 the imaginary part, so
    the stream is read in the order of a per-codeword pair of (M, N) draws.
    """
    z = rng.standard_normal((k, 2, m, n))
    return _entries(z[:, 0] + 1j * z[:, 1], power)


def gen_random(m: int, grid: ToneGrid, power: float, k: int,
               rng: np.random.Generator, provenance: str = "") -> Codebook:
    """K i.i.d. complex-Gaussian codewords rescaled onto the power sphere."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    entries = _random_entries(m, grid.n_tones, power, k, rng)
    return Codebook(k_codewords=k, entries=tuple(entries), nested=False,
                    provenance=provenance or f"gen_random k={k}")


def gen_nested(m: int, grid: ToneGrid, power: float, k_max: int,
               rng: np.random.Generator, provenance: str = "") -> Codebook:
    """Prefix-nested codebook: entry 1 is the UP codeword, the rest random."""
    if k_max < 1 or (k_max & (k_max - 1)) != 0:
        raise DomainError(f"k_max must be a power of two, got {k_max}")
    entries = [up_weights(m, grid, power)] + _random_entries(
        m, grid.n_tones, power, k_max - 1, rng)
    return Codebook(k_codewords=k_max, entries=tuple(entries), nested=True,
                    provenance=provenance or f"gen_nested k_max={k_max}")


# ---------------------------------------------------------------------------
# batched dc evaluation and its gradient (moment model)

def _amplitudes(gains: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # (C, M, N) x (M, N) -> per-channel effective tones (C, N)
    return np.einsum("cmn,mn->cn", gains, weights)


def _dc_bounds(m2: np.ndarray, n_tones: int, model: DiodeMomentModel
               ) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the computed dc of amplitudes whose m2 is given.

    The lower bound sets m4 = 0.  Rounding is monotone and k4*m4 >= 0, so
    model.dc(m2, m4) is never below model.dc(m2, 0) in floating point
    either.  The upper bound sets m4 to 1.5*N*m2^2 (docs/covering_bound.md,
    step 1) widened by _M4_BOUND_SLACK for rounding; it holds while m2*m2
    stays a normal float (m2 above about 1e-154 W).
    """
    ceiling = (1.5 * n_tones * (1.0 + _M4_BOUND_SLACK)) * (m2 * m2)
    return model.dc(m2, 0.0), model.dc(m2, ceiling)


def _assign(gains: np.ndarray, words, model: DiodeMomentModel
            ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's ASSIGN: each channel's best codeword and its dc power.

    A pair (channel, codeword) can win, or tie, only if its upper bound
    from _dc_bounds reaches the channel's floor: the largest value known
    not to exceed the channel's best computed dc.  The floor is the
    running maximum of the lower bounds and of the exact dc values
    computed so far.  One pass over the codewords forms each one's
    amplitudes and m2 and stashes the pairs that reach the floor; the
    stash is evaluated exactly, in batches of at most C rows, whenever it
    holds C rows and after the last codeword, and each exact value raises
    its channel's floor.  Every other entry of the (C, K) matrix is -inf.

    A row's amplitudes, m2 and m4 are the same bits whatever rows share
    its batch, and every pair that can win or tie is evaluated, so the
    first-index argmax and its value equal those of the full (C, K) matrix
    of every pair's dc bit for bit.

    Returns:
        (assign, dc) of shape (C,): codeword indices and their dc powers.
    """
    c, _, n = gains.shape
    dc = np.full((c, len(words)), -np.inf)
    floor = np.zeros(c)
    stash, held = [], 0     # blocks of (rows, codewords, amplitudes, m2)
    for kk, w in enumerate(words):
        a = _amplitudes(gains, w)
        m2 = second_moment(a)
        lower, upper = _dc_bounds(m2, n, model)
        np.maximum(floor, lower, out=floor)
        keep = np.flatnonzero(upper >= floor)
        stash.append((keep, np.full(keep.size, kk), a[keep], m2[keep]))
        held += keep.size
        if held < c and kk < len(words) - 1:
            continue
        rows, cols, a, m2 = map(np.concatenate, zip(*stash))
        for start in range(0, held, c):
            batch = slice(start, start + c)
            exact = model.dc(m2[batch], fourth_moment(a[batch]))
            dc[rows[batch], cols[batch]] = exact
            np.maximum.at(floor, rows[batch], exact)
        stash, held = [], 0
    assign = np.argmax(dc, axis=1)
    return assign, dc[np.arange(c), assign]


def _dc_and_grad(gains: np.ndarray, words: np.ndarray, bounds,
                 model: DiodeMomentModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment mean dc and Wirtinger ascent direction.

    Segment i pairs codeword words[i] with the channels
    gains[bounds[i][0]:bounds[i][1]].  The elementwise math runs once over
    the rows of all segments; the reductions over channels (the mean and
    the gradient sum) run per segment, so each segment's result equals
    its evaluation alone to the last bit.

    The gradient is d(mean dc)/d(conj s): with a_n = sum_m h[m,n] s[m,n],
    d m2/d conj(a_p) = a_p / 2 and
    d m4/d conj(a_p) = (3/4) sum_q conj(a_q) c_{p+q} with c the
    autoconvolution of a; the chain rule multiplies by conj(h[m,p]).
    autoconvolution and m4_gradient run tone-major over all rows at once
    and equal a per-row evaluation to the last bit.

    Returns:
        (means, grads) of shapes (S,) and (S, M, N) for S segments.
    """
    n = gains.shape[2]
    rows = [0]
    for start, stop in bounds:
        rows.append(rows[-1] + stop - start)
    a = np.empty((rows[-1], n), dtype=complex)
    for i, (start, stop) in enumerate(bounds):
        a[rows[i]:rows[i + 1]] = _amplitudes(gains[start:stop], words[i])
    conv = autoconvolution(a)
    m2, m4 = tone_moments(a, conv)
    z = model.proxy(m2, m4)
    dc = model.dc(m2, m4)
    dm4 = m4_gradient(a, conv)
    dz = model.proxy(0.5 * a, dm4)
    ddc = (2.0 * model.alpha) * z[:, None] * dz
    means = np.empty(len(rows) - 1)
    grads = np.empty_like(words)
    for i, (start, stop) in enumerate(bounds):
        # a reduceat or zero-padded sum would regroup numpy's pairwise sum
        means[i] = np.mean(dc[rows[i]:rows[i + 1]])
        grads[i] = np.einsum("cn,cmn->mn", ddc[rows[i]:rows[i + 1]],
                             np.conj(gains[start:stop])) / int(stop - start)
    return means, grads


def _ascend_clusters(words: np.ndarray, gains: np.ndarray,
                     bounds: np.ndarray, model: DiodeMomentModel,
                     power: float) -> np.ndarray:
    """Projected gradient ascent of every segment's codeword, in lock-step.

    Segment i of the (C, M, N) gains is rows bounds[i, 0]:bounds[i, 1] and
    belongs to words[i].  Each codeword climbs its own segment's mean dc
    from the incumbent with its own step, halved while its trial does not
    reach the current value; it stops once its gradient vanishes or a step
    does not improve it, so no codeword ever decreases.  Returns the
    ascended (S, M, N) codewords.
    """
    best = words.copy()
    f_cur, grad = _dc_and_grad(gains, best, bounds, model)
    active = np.ones(len(best), dtype=bool)
    for _ in range(_INNER_STEPS):
        step = np.zeros(len(best))
        for i in np.flatnonzero(active):
            g_norm = np.linalg.norm(grad[i])
            if g_norm == 0:
                active[i] = False
            else:
                step[i] = np.linalg.norm(best[i]) / g_norm
        pending = active.copy()
        improved = np.zeros(len(best), dtype=bool)
        for _ in range(_MAX_HALVINGS):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            trial = _sphere(best[idx] + step[idx, None, None] * grad[idx],
                            power)
            f_trial, g_trial = _dc_and_grad(gains, trial, bounds[idx], model)
            ok = f_trial >= f_cur[idx]
            done = idx[ok]
            improved[done] = f_trial[ok] > f_cur[done]
            best[done] = trial[ok]
            f_cur[done] = f_trial[ok]
            grad[done] = g_trial[ok]
            pending[done] = False
            step[idx[~ok]] *= 0.5
        active &= improved
        if not active.any():
            break
    return best


def train_lloyd(training_channels, k: int, rect_model: DiodeMomentModel,
                iters: int = 30, rng: np.random.Generator | None = None,
                init: Codebook | None = None, power: float | None = None,
                on_iteration=None) -> Codebook:
    """Alternating assign/ascend codebook training on the moment model.

    Args:
        training_channels: sequence of ChannelRealization, length >= k.
        k: codebook size.
        rect_model: smooth moment rectifier the objective is built on.
        iters: maximum alternations; stops early if the assignment is stable.
        rng: picks the initial codewords when no init codebook is given.
        init: optional starting codebook (e.g. an SMF solution to refine);
            its power budget is reused.
        power: codeword power budget, required when init is None.
        on_iteration: optional callback (iteration, mean training dc power),
            called once per iteration with a non-decreasing value.  The
            value is the in-sample objective on the training channels the
            book is fitted to; it overstates, and does not estimate, the
            dc power the book delivers on fresh channels.

    Returns:
        Trained codebook (not nested).
    """
    channels = list(training_channels)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if len(channels) < k:
        raise DomainError(
            f"training set of {len(channels)} is smaller than k={k}")
    if iters < 1:
        raise DomainError(f"iters must be >= 1, got {iters}")
    if not isinstance(rect_model, DiodeMomentModel):
        raise DomainError("training requires the smooth moment model")
    gains = np.stack([ch.gains for ch in channels])
    _, m, n = gains.shape
    grid = channels[0].grid
    for ch in channels:
        if ch.gains.shape != (m, n):
            raise DimensionError("training channels must share dimensions")

    if init is not None:
        if (init.m_antennas, init.n_tones) != (m, n):
            raise DimensionError("init codebook does not match the channels")
        if init.k_codewords != k:
            raise DomainError(
                f"init codebook has {init.k_codewords} entries, expected {k}")
        power = init.power_budget
        words = [e.weights.copy() for e in init.entries]
    else:
        if power is None:
            raise DomainError("power is required when no init codebook is given")
        if rng is None:
            raise DomainError("rng is required when no init codebook is given")
        # seed with the SMF solutions of k distinct training channels
        picks = rng.choice(len(channels), size=k, replace=False)
        smf = SmfParams(beta=3.0, power_budget=power)
        words = [smf_weights(channels[int(i)], smf).weights.copy()
                 for i in picks]

    assign, served = _assign(gains, words, rect_model)
    smf = SmfParams(beta=3.0, power_budget=power)
    iterations_run = 0
    for it in range(iters):
        iterations_run = it + 1
        # UPDATE: all non-empty clusters together on cluster-sorted gains;
        # the stable sort keeps each cluster's channels in index order
        counts = np.bincount(assign, minlength=k)
        stops = np.cumsum(counts)
        occupied = np.flatnonzero(counts)
        ascended = _ascend_clusters(
            np.stack([words[kk] for kk in occupied]),
            gains[np.argsort(assign, kind="stable")],
            np.column_stack([stops - counts, stops])[occupied],
            rect_model, power)
        for kk, w in zip(occupied, ascended):
            words[kk] = w
        # the dc of each channel's own codeword, updated; the re-seeds
        # below touch only empty clusters, so it stays current through them
        fresh = rect_model.dc(*tone_moments(np.einsum(
            "cmn,cmn->cn", gains, np.stack(words)[assign])))
        for kk in np.flatnonzero(counts == 0):
            # the worst-served channel as seen while re-seeding in index
            # order: codewords below kk are updated, those above are not
            worst = int(np.argmin(np.where(assign < kk, fresh, served)))
            words[kk] = smf_weights(channels[worst], smf).weights.copy()
        if on_iteration is not None:
            on_iteration(it, float(np.mean(fresh)))
        new_assign, served = _assign(gains, words, rect_model)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    cfg = f"k={k} iters={iters} n_train={len(channels)} inner={_INNER_STEPS}"
    digest = hashlib.sha256(cfg.encode()).hexdigest()[:8]
    entries = tuple(_entries(np.stack(words), power))
    return Codebook(k_codewords=k, entries=entries, nested=False,
                    provenance=f"train_lloyd {cfg} ran={iterations_run} "
                               f"cfg={digest}")


# ---------------------------------------------------------------------------
# file format: "wptcb v1 M N K P nested" header, provenance line,
# then K blocks of M*N lines "m n real imag"

def save_codebook(book: Codebook, path) -> None:
    """Write the versioned text format; floats as repr for bit-exactness."""
    lines = [f"wptcb v1 {book.m_antennas} {book.n_tones} {book.k_codewords} "
             f"{float(book.power_budget)!r} {int(book.nested)}",
             "provenance " + " ".join(book.provenance.split())]
    for entry in book.entries:
        for mi in range(book.m_antennas):
            for ni in range(book.n_tones):
                w = entry.weights[mi, ni]
                lines.append(f"{mi + 1} {ni + 1} "
                             f"{float(w.real)!r} {float(w.imag)!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    """Read a codebook written by save_codebook; strict, line-diagnosed."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CodebookIOError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 7 or header[0] != "wptcb":
        raise CodebookIOError(f"{path}:1: malformed header")
    if header[1] != "v1":
        raise CodebookIOError(f"{path}:1: unsupported version {header[1]!r}")
    try:
        m, n, k = int(header[2]), int(header[3]), int(header[4])
        power = float(header[5])
        nested = bool(int(header[6]))
    except ValueError as exc:
        raise CodebookIOError(f"{path}:1: {exc}") from exc
    if len(lines) < 2 or not lines[1].startswith("provenance"):
        raise CodebookIOError(f"{path}:2: missing provenance line")
    provenance = lines[1][len("provenance"):].strip()
    expected = 2 + k * m * n
    if len(lines) != expected:
        raise CodebookIOError(
            f"{path}: expected {expected} lines for K={k}, M={m}, N={n}; "
            f"got {len(lines)}")
    entries = []
    lineno = 2
    for _ in range(k):
        w = np.empty((m, n), dtype=complex)
        for mi in range(m):
            for ni in range(n):
                parts = lines[lineno].split()
                lineno += 1
                if len(parts) != 4:
                    raise CodebookIOError(
                        f"{path}:{lineno}: expected 'm n real imag'")
                try:
                    fm, fn = int(parts[0]), int(parts[1])
                    val = complex(float(parts[2]), float(parts[3]))
                except ValueError as exc:
                    raise CodebookIOError(f"{path}:{lineno}: {exc}") from exc
                if (fm, fn) != (mi + 1, ni + 1):
                    raise CodebookIOError(
                        f"{path}:{lineno}: expected entry ({mi + 1}, {ni + 1}),"
                        f" found ({fm}, {fn})")
                w[mi, ni] = val
        entries.append(WaveformWeights(m_antennas=m, n_tones=n, weights=w,
                                       power_budget=power))
    return Codebook(k_codewords=k, entries=tuple(entries), nested=nested,
                    provenance=provenance)
