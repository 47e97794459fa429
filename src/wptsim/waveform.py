"""Multi-sine signal core: tone grids, transmit weights, received tones.

A transmitter with M antennas radiates N sinusoids at uniformly spaced
angular frequencies w_1 < ... < w_N.  The complex weight s[m, n] fixes the
magnitude and phase of tone n on antenna m, so antenna m transmits

    x_m(t) = Re{ sum_n s[m, n] * exp(j w_n t) }.

After a linear channel with per-tone gains h[m, n] the receiver observes a
single multi-sine with effective amplitudes a_n = sum_m h[m, n] s[m, n], and
every power quantity of interest reduces to a closed form in the a_n:

    received RF power   P_RF = (1/2) sum_n |a_n|^2
    second moment       m2 = <y(t)^2> = (1/2) sum_n |a_n|^2
    fourth moment       m4 = <y(t)^4>
                           = (3/8) sum_{n1+n2=n3+n4} a_n1 a_n2 conj(a_n3) conj(a_n4)

The moment closed forms hold exactly when the time average runs over one
fundamental period 1/df of the uniformly spaced grid; see `timedomain` for
the brute-force counterpart used to cross-check them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, ZeroWaveformError, check_array,
                     check_count, check_positive, check_shape)

_REL_TOL = 1e-9

#: phasor matrices papr keeps, one per (grid, oversampling); the standard
#: sweeps use 4 tone counts, and the N=8 matrix at oversampling 32 is 7.9 MB
_PHASOR_CACHE_SIZE = 8


@dataclass(frozen=True)
class ToneGrid:
    """Uniformly spaced tone frequencies centered on a carrier.

    Attributes:
        n_tones: number of sinusoids N >= 1.
        center_frequency_hz: carrier the grid is centered on, Hz; it is the
            mean of the tone frequencies.
        bandwidth_hz: total occupied bandwidth B > 0, Hz; tone spacing is B/N.
        angular_frequencies: the N values w_n in rad/s, strictly increasing,
            computed from the three fields above.
    """

    n_tones: int
    center_frequency_hz: float
    bandwidth_hz: float
    angular_frequencies: np.ndarray = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        n = check_count("n_tones", self.n_tones)
        object.__setattr__(self, "n_tones", n)
        check_positive("bandwidth_hz", self.bandwidth_hz)
        check_positive("center_frequency_hz", self.center_frequency_hz)
        offsets = np.arange(1, n + 1) - (n + 1) / 2.0
        w = 2.0 * np.pi * (self.center_frequency_hz
                           + offsets * (self.bandwidth_hz / n))
        if not w[0] > 0:
            raise DomainError(f"lowest tone at {w[0] / 2 / np.pi} Hz, not > 0")
        w.flags.writeable = False
        object.__setattr__(self, "angular_frequencies", w)

    @classmethod
    def centered(cls, center_frequency_hz: float, bandwidth_hz: float,
                 n_tones: int) -> "ToneGrid":
        """Grid with spacing B/N whose mean frequency equals the carrier."""
        return cls(n_tones, center_frequency_hz, bandwidth_hz)

    @property
    def delta_f(self) -> float:
        """Tone spacing B/N in Hz; 1/delta_f is the fundamental period."""
        return self.bandwidth_hz / self.n_tones

    def is_commensurate(self) -> bool:
        """True when 2*f_c is an integer multiple of the tone spacing.

        Under this condition every spectral line of y(t)^2 and y(t)^4 falls
        on the delta_f lattice, so averaging over exactly one fundamental
        period is exact rather than approximate.  The defaults (2.4 GHz
        carrier, 10 MHz band) satisfy it for every N.  The multiple is
        matched to a relative 1e-9, which absorbs the rounding of f_c/df.
        """
        ratio = 2.0 * self.center_frequency_hz / self.delta_f
        return abs(ratio - round(ratio)) <= 1e-9 * ratio


@dataclass(frozen=True)
class WaveformWeights:
    """Per-antenna, per-tone complex transmit weights under a power budget.

    weights is an (M, N) matrix, or a stack of them of shape (..., M, N);
    the radiated power radiated_power(weights) of each matrix must not
    exceed power_budget (strategies allocate it with equality).
    """

    weights: np.ndarray = field(repr=False)
    power_budget: float

    def __post_init__(self):
        check_positive("power_budget", self.power_budget)
        s = check_array("weights", self.weights, (..., None, None))
        p = np.max(radiated_power(s))
        if p > self.power_budget * (1.0 + _REL_TOL):
            raise DomainError(f"radiated power {float(p)!r} exceeds budget "
                              f"{self.power_budget!r}")
        object.__setattr__(self, "weights", s)


def radiated_power(s: np.ndarray) -> np.ndarray:
    """(1/2) sum |s[m, n]|^2 of weights of shape (..., M, N), in watts.

    Every power check and rescaling of transmit weights reads it, so a
    book's one-reduction check and the check of each entry alone agree
    to the bit.
    """
    # np.add.reduce is np.sum without its Python-level dispatch
    return 0.5 * np.add.reduce(np.abs(s) ** 2, axis=(-2, -1))


def _sphere(weights: np.ndarray, power: float) -> np.ndarray:
    """Rescale each (M, N) matrix onto the sphere (1/2)||s||^2 = power."""
    p = radiated_power(weights)
    # the reduction np.any runs, without its Python dispatch
    if (p == 0).any():
        raise DomainError("cannot project the zero matrix onto the power sphere")
    return weights * np.sqrt(power / p)[..., None, None]


@dataclass(frozen=True)
class EffectiveTones:
    """Per-tone complex amplitudes a_n of the waveform seen by the receiver.

    amplitudes has shape (N,), or (..., N) for a stack of waveforms.
    """

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", check_array(
            "amplitudes", self.amplitudes, (..., None)))


def effective_tones(channel, weights: WaveformWeights) -> EffectiveTones:
    """Combine channel gains and weights into received per-tone amplitudes.

    Gains and weights of one shape (..., M, N) give amplitudes (..., N),
    formed by _antenna_sum: a row's M terms add in the order one channel
    alone adds them, so a stack's row equals that channel's own call to
    the bit.
    """
    gains = channel.gains
    check_shape("weights", weights.weights.shape, gains.shape)
    return EffectiveTones(amplitudes=_antenna_sum(gains, weights.weights))


def received_rf_power(tones: EffectiveTones) -> np.ndarray:
    """RF power (1/2) sum |a_n|^2 = m2 of each received multi-sine, watts.

    One waveform gives a numpy float64 scalar, a stack an array.
    """
    return second_moment(tones.amplitudes)


def pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the complex terms[0] + ... + terms[L-1] in numpy's order.

    np.add.reduce over a contiguous last axis of L complex terms adds them
    pairwise (``pairwise_sum`` in numpy's ``loops_utils.h.src``): fewer
    than 4 terms in order; 4 to 64 terms in 4 lanes, lane j taking terms
    j, j+4, ..., combined as (r0 + r1) + (r2 + r3), then the remainder
    in order; past 64 terms the first (L - L % 8) // 2 and the rest
    summed apart and added.  The reduction then adds that to its identity
    +0.0, which only turns a -0.0 sum into +0.0.  Here each term is a
    whole array, so one elementwise add serves a batch, and the result
    equals np.add.reduce(np.moveaxis(terms, 0, -1), axis=-1) bit for bit.

    Args:
        terms: complex array of shape (L, ...), L >= 1, summed over axis 0.
    """
    n = len(terms)
    if n > 64:
        # neither half is -0.0, so neither is their sum
        half = (n - n % 8) // 2
        return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])
    if n < 4:
        s, stop = terms[0], 1
    else:
        stop = n - n % 4
        lanes = terms[0:4]
        for i in range(4, stop, 4):
            lanes = lanes + terms[i:i + 4]
        lanes = lanes[0::2] + lanes[1::2]
        s = lanes[0] + lanes[1]
    for i in range(stop, n):
        s = s + terms[i]
    return s + 0.0


def _antenna_sum(gains: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Received tones sum_m gains[..., m, n] * weights[..., m, n], (..., N).

    gains and weights are complex arrays of equal ndim whose last two axes
    are both (M, N) and whose leading axes broadcast.  The result equals
    np.sum(gains * weights, axis=-2) bit for bit, the M products adding
    in the order numpy's reduction adds them.  At N = 1 the M axis of
    that product is contiguous, so numpy adds it pairwise: the product
    is formed whole, M elements a row, and pairwise_sum adds it.  At
    N > 1 numpy adds antenna by antenna, left to right: each antenna's
    product is one elementwise multiply, added in place into antenna 0's,
    and the identity +0.0 comes last (it only turns a -0.0 into +0.0,
    as it does when numpy adds it first).  So no more than two (..., N)
    arrays are held at once, besides the buffers numpy's iterator takes
    for broadcast operands.  The operands must have equal ndim: numpy
    rounds a one-element complex multiply (M = N = K = 1 in a sweep) whose
    operands differ in ndim without the fused multiply-add it uses
    otherwise.
    """
    if gains.shape[-1] == 1:
        return pairwise_sum(np.moveaxis(gains * weights, -2, 0))
    tones = gains[..., 0, :] * weights[..., 0, :]
    for m in range(1, gains.shape[-2]):
        tones += gains[..., m, :] * weights[..., m, :]
    tones += 0.0
    return tones


def autoconvolution(a: np.ndarray) -> np.ndarray:
    """Autoconvolution c_k = sum_{n1+n2=k} a_n1 a_n2 along the last axis.

    Amplitudes of shape (..., N) give a C-ordered array of shape
    (..., 2N-1).  The kernel is tone-major: the amplitudes are copied to a
    contiguous (N, ...) array, and each diagonal k is formed on its own,
    its terms a_n1 a_{k-n1} one elementwise multiply over the whole batch,
    summed over n1 in increasing order by pairwise_sum.  So no more than N
    products per row are held at once, and the result equals a
    per-diagonal np.add.reduce over the last axis bit for bit: a batch row
    and the same amplitudes evaluated alone agree to the last bit.  Other
    formulations (np.convolve, an FFT, a zero-padded gather) round
    differently, and a last-bit change can move a codeword selection.
    The result must stay C-ordered: tone_moments sums |c_k|^2 along the
    last axis, and numpy adds a strided axis in another order.
    """
    # .T reverses every axis: the tones come first, the batch axes follow
    # in reverse, and the closing .T puts them back in place
    at = np.ascontiguousarray(a.T)
    n = at.shape[0]
    conv = np.empty((2 * n - 1,) + at.shape[1:], dtype=complex)
    for k in range(2 * n - 1):
        i0 = max(0, k - n + 1)
        i1 = min(k, n - 1)
        # term i of diagonal k is at[i] * at[k - i], in that operand
        # order: numpy's complex multiply is not commutative to the bit
        # (a*b and b*a differ in the last bit for about a third of random
        # pairs on AVX-512)
        conv[k] = pairwise_sum(at[i0:i1 + 1] * at[k - i1:k - i0 + 1][::-1])
    return np.ascontiguousarray(conv.T)


def tone_moments(a: np.ndarray, conv: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (m2, m4) of received amplitudes of shape (..., N).

    m2 = (1/2) sum_n |a_n|^2 and m4 = (3/8) * sum over all index quadruples
    with n1 + n2 = n3 + n4 of a_n1 a_n2 conj(a_n3) conj(a_n4).  The quadruple
    sum factors over the diagonals k = n1 + n2 into the autoconvolution
    c_k, giving m4 = (3/8) sum_k |c_k|^2, which is manifestly real and
    non-negative.  This is the one implementation of the moment math: every
    codeword sweep, Lloyd step and single-waveform query runs through it.

    Args:
        a: complex amplitudes, the last axis over tones; any leading axes
            (channels, codewords) are a batch.
        conv: autoconvolution(a) when the caller already holds it.

    Returns:
        (m2, m4) arrays of shape a.shape[:-1], in W and W^2.
    """
    return second_moment(a), fourth_moment(a, conv)


def second_moment(a: np.ndarray) -> np.ndarray:
    """m2 = (1/2) sum_n |a_n|^2 of amplitudes of shape (..., N), per row.

    tone_moments takes its m2 from here, so a caller that needs m2 first
    (the bound Lloyd's ASSIGN prunes with) gets the same bits.
    """
    # np.add.reduce is np.sum without its Python-level dispatch
    return 0.5 * np.add.reduce(np.abs(a) ** 2, axis=-1)


def fourth_moment(a: np.ndarray, conv: np.ndarray | None = None
                  ) -> np.ndarray:
    """m4 = (3/8) sum_k |c_k|^2 of amplitudes of shape (..., N), per row.

    tone_moments takes its m4 from here; conv is autoconvolution(a) when
    the caller already holds it.
    """
    if conv is None:
        conv = autoconvolution(a)
    return 0.375 * np.add.reduce(np.abs(conv) ** 2, axis=-1)


def m4_gradient(a: np.ndarray, conv: np.ndarray) -> np.ndarray:
    """Wirtinger derivative d m4 / d conj(a_p) of amplitudes of shape (..., N).

    d m4 / d conj(a_p) = (3/4) sum_q conj(a_q) c_{p+q}, with c the
    autoconvolution of a.  Like autoconvolution the kernel is tone-major,
    one output tone p at a time: p's N terms conj(a_q) c_{p+q} are one
    (N, ...) block, a single elementwise multiply over the batch in that
    operand order, which pairwise_sum adds over q into row p of the
    result.  So every value equals
    (3/4) * np.sum(conj(a) * conv[..., p:p + N], axis=-1) bit for bit, and
    no block holds more than N terms per row.

    Args:
        a: complex amplitudes, the last axis over tones.
        conv: autoconvolution(a), of shape (..., 2N-1).

    Returns:
        C-ordered array of a's shape.
    """
    n = a.shape[-1]
    # tones first, batch axes reversed, as in autoconvolution
    conj_t = np.conj(np.ascontiguousarray(a.T))
    conv_t = np.ascontiguousarray(conv.T)
    grad = np.empty(conj_t.shape, dtype=complex)
    for p in range(n):
        # row q of the block is conj(a_q) * c_{p+q}
        grad[p] = pairwise_sum(conj_t * conv_t[p:p + n])
    return np.multiply(0.75, grad.T, out=np.empty(a.shape, dtype=complex))


def waveform_moments(tones: EffectiveTones, grid: ToneGrid
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Second and fourth moments of received waveforms; see tone_moments.

    Args:
        tones: received per-tone amplitudes, one waveform or a stack.
        grid: tone grid; only used to check the amplitudes match its size
            (uniform spacing, which the closed forms rely on, is a ToneGrid
            construction invariant).

    Returns:
        (m2, m4) in W and W^2 respectively, of shape
        tones.amplitudes.shape[:-1]: numpy float64 scalars for one waveform.
    """
    check_shape("amplitudes", tones.amplitudes.shape, (..., grid.n_tones))
    return tone_moments(tones.amplitudes)


def sample_times(grid: ToneGrid, oversampling: int = 32) -> np.ndarray:
    """Uniform sample instants covering one fundamental period [0, 1/delta_f).

    The count is oversampling * ceil(f_max / delta_f), i.e. ``oversampling``
    samples per cycle of the highest tone, which for oversampling >= 8
    safely exceeds the 4*f_max/delta_f harmonics of y^4.
    """
    oversampling = check_count("oversampling", oversampling, 8)
    f_max = grid.angular_frequencies[-1] / (2.0 * np.pi)
    n = int(oversampling * np.ceil(f_max / grid.delta_f))
    period = 1.0 / grid.delta_f
    return np.arange(n) * (period / n)


@functools.lru_cache(maxsize=_PHASOR_CACHE_SIZE)
def _phasors(grid: ToneGrid, oversampling: int) -> np.ndarray:
    # read-only exp(j w t) at sample_times, from a small LRU keyed by value:
    # run_campaign builds one ToneGrid per (M, N) point, so the grids of one
    # N at different M are equal but distinct objects.  A ToneGrid hashes
    # and compares on its three fields, which fix its frequencies
    t = sample_times(grid, oversampling)
    # one matrix, written in place: the phases w t go into its imaginary
    # parts, their cosines into the real parts and their sines over the
    # phases, which is bit for bit np.exp(1j * np.outer(t, w)) (pinned in
    # tests/test_waveform.py) without its temporaries or its complex exp
    e = np.empty((t.size, grid.n_tones), dtype=complex)
    np.multiply(t[:, None], grid.angular_frequencies, out=e.imag)
    np.cos(e.imag, out=e.real)
    np.sin(e.imag, out=e.imag)
    e.flags.writeable = False
    return e


def papr(tones: EffectiveTones, grid: ToneGrid, oversampling: int = 32) -> float:
    """Peak-to-average power ratio of the received waveform.

    Samples y(t) at sample_times(grid, oversampling), uniformly over one
    fundamental period 1/delta_f at ``oversampling`` points per cycle of the
    highest tone, and returns max(y^2) / mean(y^2).  A single tone gives 2
    (peak cos^2 = 1 against a mean of 1/2); N equal in-phase tones give 2N.
    The (samples, N) phasor matrix depends only on the grid and is built
    once per (grid, oversampling), so a call costs one matrix-vector product.

    Args:
        tones: received per-tone amplitudes of one waveform, shape (N,).
        grid: tone grid supplying frequencies and the fundamental period.
        oversampling: samples per cycle of the highest tone, >= 8.  The
            sampled peak underestimates the true peak by O(1/oversampling^2).
    """
    check_shape("amplitudes", tones.amplitudes.shape, (grid.n_tones,))
    e = _phasors(grid, oversampling)
    a = tones.amplitudes
    if not np.any(np.abs(a) > 0):
        raise ZeroWaveformError("papr of the zero waveform is undefined")
    y = (e @ a).real
    y2 = y * y
    return float(np.maximum.reduce(y2) / (np.add.reduce(y2) / y2.size))
