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

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, ZeroWaveformError

_REL_TOL = 1e-9

#: phasor matrices papr keeps, one per (grid, oversampling); the standard
#: sweeps use 4 tone counts, and the N=8 matrix at oversampling 32 is 7.9 MB
_PHASOR_CACHE_SIZE = 8
_phasor_cache: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class ToneGrid:
    """Uniformly spaced tone frequencies centered on a carrier.

    Attributes:
        n_tones: number of sinusoids N >= 1.
        center_frequency_hz: carrier the grid is centered on, Hz.
        bandwidth_hz: total occupied bandwidth B > 0, Hz; tone spacing is B/N.
        angular_frequencies: the N values w_n in rad/s, strictly increasing.
    """

    n_tones: int
    center_frequency_hz: float
    bandwidth_hz: float
    angular_frequencies: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_tones < 1:
            raise DomainError(f"n_tones must be >= 1, got {self.n_tones}")
        if not self.bandwidth_hz > 0:
            raise DomainError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz}")
        if not self.center_frequency_hz > 0:
            raise DomainError("center_frequency_hz must be > 0")
        w = np.asarray(self.angular_frequencies, dtype=float)
        if w.shape != (self.n_tones,):
            raise DimensionError(
                f"angular_frequencies shape {w.shape} != ({self.n_tones},)")
        if self.n_tones > 1:
            gaps = np.diff(w)
            if np.any(gaps <= 0):
                raise DomainError("angular_frequencies must be strictly increasing")
            expected = 2.0 * np.pi * self.bandwidth_hz / self.n_tones
            if np.any(np.abs(gaps - expected) > _REL_TOL * expected):
                raise DomainError("tone spacing must equal 2*pi*B/N")
        w.flags.writeable = False
        object.__setattr__(self, "angular_frequencies", w)

    @classmethod
    def centered(cls, center_frequency_hz: float, bandwidth_hz: float,
                 n_tones: int) -> "ToneGrid":
        """Grid with spacing B/N whose mean frequency equals the carrier."""
        df = bandwidth_hz / n_tones
        offsets = np.arange(1, n_tones + 1) - (n_tones + 1) / 2.0
        freqs = center_frequency_hz + offsets * df
        return cls(n_tones=n_tones, center_frequency_hz=center_frequency_hz,
                   bandwidth_hz=bandwidth_hz,
                   angular_frequencies=2.0 * np.pi * freqs)

    @property
    def delta_f(self) -> float:
        """Tone spacing B/N in Hz; 1/delta_f is the fundamental period."""
        return self.bandwidth_hz / self.n_tones

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.angular_frequencies / (2.0 * np.pi)

    def is_commensurate(self, rel_tol: float = 1e-9) -> bool:
        """True when 2*f_c is an integer multiple of the tone spacing.

        Under this condition every spectral line of y(t)^2 and y(t)^4 falls
        on the delta_f lattice, so averaging over exactly one fundamental
        period is exact rather than approximate.  The defaults (2.4 GHz
        carrier, 10 MHz band) satisfy it for every N.
        """
        ratio = 2.0 * self.center_frequency_hz / self.delta_f
        return abs(ratio - round(ratio)) <= rel_tol * ratio


@dataclass(frozen=True)
class WaveformWeights:
    """Per-antenna, per-tone complex transmit weights under a power budget.

    The radiated power of the weight matrix is (1/2) * sum |s[m, n]|^2 and
    must not exceed power_budget (strategies allocate it with equality).
    """

    m_antennas: int
    n_tones: int
    weights: np.ndarray = field(repr=False)
    power_budget: float

    def __post_init__(self):
        if self.m_antennas < 1 or self.n_tones < 1:
            raise DomainError("m_antennas and n_tones must be >= 1")
        if not self.power_budget > 0:
            raise DomainError(f"power_budget must be > 0, got {self.power_budget}")
        s = np.asarray(self.weights, dtype=complex)
        if s.shape != (self.m_antennas, self.n_tones):
            raise DimensionError(
                f"weights shape {s.shape} != ({self.m_antennas}, {self.n_tones})")
        # the reductions np.all and np.sum run, without their Python dispatch
        if not np.isfinite(s.view(float)).all():
            raise DomainError("weights must be finite")
        p = 0.5 * float(np.add.reduce(np.abs(s) ** 2, axis=None))
        if p > self.power_budget * (1.0 + _REL_TOL):
            raise DomainError(
                f"radiated power {p!r} exceeds budget {self.power_budget!r}")
        s.flags.writeable = False
        object.__setattr__(self, "weights", s)

    @property
    def transmit_power(self) -> float:
        """Radiated power (1/2) sum |s|^2 in watts."""
        return 0.5 * float(np.sum(np.abs(self.weights) ** 2))


@dataclass(frozen=True)
class EffectiveTones:
    """Per-tone complex amplitudes a_n of the waveform seen by the receiver."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 1:
            raise DimensionError("amplitudes must be a non-empty 1-D array")
        if not np.all(np.isfinite(a.view(float))):
            raise DomainError("amplitudes must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_tones(self) -> int:
        return self.amplitudes.size


def synthesize_transmit_waveform(weights: WaveformWeights, grid: ToneGrid,
                                 antenna_index: int,
                                 time_points) -> np.ndarray:
    """Time-domain waveform of one antenna, x_m(t) = Re{sum_n s[m,n] e^{j w_n t}}.

    Args:
        weights: transmit weight matrix.
        grid: tone grid supplying the w_n.
        antenna_index: 1-based antenna selector in [1, M].
        time_points: sample instants in seconds.

    Returns:
        Real samples of x_m at the given instants.
    """
    if weights.n_tones != grid.n_tones:
        raise DimensionError(
            f"weights carry {weights.n_tones} tones, grid has {grid.n_tones}")
    if not 1 <= antenna_index <= weights.m_antennas:
        raise DomainError(
            f"antenna_index {antenna_index} outside [1, {weights.m_antennas}]")
    t = np.asarray(time_points, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("time_points must be finite")
    s = weights.weights[antenna_index - 1]
    phases = np.exp(1j * np.outer(t, grid.angular_frequencies))
    return np.real(phases @ s)


def effective_tones(channel, weights: WaveformWeights) -> EffectiveTones:
    """Combine channel gains and weights into received per-tone amplitudes."""
    gains = channel.gains
    if gains.shape != weights.weights.shape:
        raise DimensionError(
            f"channel gains {gains.shape} vs weights {weights.weights.shape}")
    return EffectiveTones(amplitudes=np.sum(gains * weights.weights, axis=0))


def received_rf_power(tones: EffectiveTones) -> float:
    """RF power of the received multi-sine, (1/2) sum |a_n|^2 = m2, watts."""
    return float(second_moment(tones.amplitudes))


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
    return _pairwise(terms) + 0.0


def _pairwise(terms):
    n = len(terms)
    if n < 4:
        s = terms[0]
        for i in range(1, n):
            s = s + terms[i]
        return s
    if n > 64:
        half = (n - n % 8) // 2
        return _pairwise(terms[:half]) + _pairwise(terms[half:])
    stop = n - n % 4
    lanes = terms[0:4]
    for i in range(4, stop, 4):
        lanes = lanes + terms[i:i + 4]
    lanes = lanes[0::2] + lanes[1::2]
    s = lanes[0] + lanes[1]
    for i in range(stop, n):
        s = s + terms[i]
    return s


def autoconvolution(a: np.ndarray) -> np.ndarray:
    """Autoconvolution c_k = sum_{n1+n2=k} a_n1 a_n2 along the last axis.

    Amplitudes of shape (..., N) give a C-ordered array of shape
    (..., 2N-1).  The kernel is tone-major: the amplitudes are copied to a
    contiguous (N, ...) array, every product a_n1 a_n2 is one elementwise
    multiply over the whole batch, and each diagonal k is summed over n1
    in increasing order as pairwise_sum adds.  It equals a per-diagonal
    np.add.reduce over the last axis bit for bit, so a batch row and the
    same amplitudes evaluated alone agree to the last bit.  Other
    formulations (np.convolve, an FFT, a zero-padded gather) round
    differently, and a last-bit change can move a codeword selection.
    The result must stay C-ordered: tone_moments sums |c_k|^2 along the
    last axis, and numpy adds a strided axis in another order.
    """
    # .T reverses every axis: the tones come first, the batch axes follow
    # in reverse, and the closing .T puts them back in place
    at = np.ascontiguousarray(a.T)
    n = at.shape[0]
    # term i of diagonal k is at[i] * at[k - i], in that operand order:
    # numpy's complex multiply is not commutative to the bit (a*b and b*a
    # differ in the last bit for about a third of random pairs on AVX-512).
    # In the flattened (N*N, ...) products, diagonal k is the rows
    # k + i*(N-1) for i0 <= i <= i1.
    prods = (at[:, None] * at[None, :]).reshape((n * n,) + at.shape[1:])
    step = max(n - 1, 1)
    conv = np.empty((2 * n - 1,) + at.shape[1:], dtype=complex)
    for k in range(2 * n - 1):
        i0 = max(0, k - n + 1)
        i1 = min(k, n - 1)
        conv[k] = _pairwise(prods[k + i0 * step:k + i1 * step + 1:step])
    # adding the reduction's identity +0.0 is also the copy back to C order
    return np.add(conv.T, 0.0, out=np.empty(conv.T.shape, dtype=complex))


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
    autoconvolution of a.  Like autoconvolution the kernel is tone-major:
    the N^2 terms conj(a_q) c_{p+q} are one elementwise multiply over the
    batch, in that operand order, and each p sums its terms over q as
    pairwise_sum adds, so every value equals
    (3/4) * np.sum(conj(a) * conv[..., p:p + N], axis=-1) bit for bit.

    Args:
        a: complex amplitudes, the last axis over tones.
        conv: autoconvolution(a), of shape (..., 2N-1).

    Returns:
        C-ordered array of a's shape.
    """
    n = a.shape[-1]
    # tones first, batch axes reversed, as in autoconvolution
    conv_t = np.ascontiguousarray(conv.T)
    # terms[q, p] = conj(a_q) * c_{p+q}, each of the batch's shape
    terms = np.conj(a.T)[:, None] \
        * np.moveaxis(sliding_window_view(conv_t, n, axis=0), -1, 0)
    return np.multiply(0.75, pairwise_sum(terms).T,
                       out=np.empty(a.shape, dtype=complex))


def waveform_moments(tones: EffectiveTones, grid: ToneGrid) -> tuple[float, float]:
    """Second and fourth moments of one received waveform; see tone_moments.

    Args:
        tones: received per-tone amplitudes.
        grid: tone grid; only used to check the amplitudes match its size
            (uniform spacing, which the closed forms rely on, is a ToneGrid
            construction invariant).

    Returns:
        (m2, m4) in W and W^2 respectively.
    """
    if tones.n_tones != grid.n_tones:
        raise DimensionError(
            f"tones carry {tones.n_tones} amplitudes, grid has {grid.n_tones}")
    m2, m4 = tone_moments(tones.amplitudes)
    return float(m2), float(m4)


def sample_times(grid: ToneGrid, oversampling: int = 32) -> np.ndarray:
    """Uniform sample instants covering one fundamental period [0, 1/delta_f).

    The count is oversampling * ceil(f_max / delta_f), i.e. ``oversampling``
    samples per cycle of the highest tone, which for oversampling >= 8
    safely exceeds the 4*f_max/delta_f harmonics of y^4.
    """
    if oversampling < 8:
        raise DomainError(f"oversampling must be >= 8, got {oversampling}")
    f_max = grid.angular_frequencies[-1] / (2.0 * np.pi)
    n = int(oversampling * np.ceil(f_max / grid.delta_f))
    period = 1.0 / grid.delta_f
    return np.arange(n) * (period / n)


def _phasors(grid: ToneGrid, oversampling: int) -> np.ndarray:
    # read-only exp(j w t) at sample_times, from a small LRU keyed by value:
    # run_campaign builds one ToneGrid per (M, N) point, so the grids of one
    # N at different M are equal but distinct objects
    key = (grid.angular_frequencies.tobytes(), grid.delta_f, oversampling)
    if key in _phasor_cache:
        _phasor_cache.move_to_end(key)
        return _phasor_cache[key]
    t = sample_times(grid, oversampling)
    # one matrix, written in place, bit for bit np.exp(1j * np.outer(t, w))
    # without its two full-size temporaries.  1j * x has imaginary part
    # x + 0.0, which turns the -0.0 of t=0 times a tone below 0 Hz into
    # +0.0; its real part is a signed zero, and exp(+-0 + jx) is one value
    e = np.zeros((t.size, grid.n_tones), dtype=complex)
    np.multiply(t[:, None], grid.angular_frequencies, out=e.imag)
    e.imag += 0.0
    np.exp(e, out=e)
    e.flags.writeable = False
    _phasor_cache[key] = e
    while len(_phasor_cache) > _PHASOR_CACHE_SIZE:
        _phasor_cache.popitem(last=False)
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
        tones: received per-tone amplitudes.
        grid: tone grid supplying frequencies and the fundamental period.
        oversampling: samples per cycle of the highest tone, >= 8.  The
            sampled peak underestimates the true peak by O(1/oversampling^2).
    """
    if tones.n_tones != grid.n_tones:
        raise DimensionError(
            f"tones carry {tones.n_tones} amplitudes, grid has {grid.n_tones}")
    e = _phasors(grid, oversampling)
    a = tones.amplitudes
    if not np.any(np.abs(a) > 0):
        raise ZeroWaveformError("papr of the zero waveform is undefined")
    y = np.real(e @ a)
    y2 = y ** 2
    return float(np.max(y2) / np.mean(y2))
