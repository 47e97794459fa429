"""Ceiling on the mean dc power that any K-entry codebook can deliver.

A limited-feedback transmitter picks the best of K fixed codewords, so its
mean dc power is E[max_k dc(s_k, H)].  `dc_ceiling` returns an upper bound
on that mean which holds for every codebook of K entries on the power sphere
(1/2)||s||^2 = P, every Rayleigh tapped-delay-line channel of
`ChannelModelParams` and the moment rectifier.  The proof is in
docs/covering_bound.md; in outline:

1. m4 <= 1.5 N m2^2 (Young's inequality), so dc <= g(m2) with
   g(x) = alpha (k2 x + 1.5 N k4 x^2)^2, convex and increasing.
2. m2 is linear in the per-tone Gram blocks (1/2) s_n s_n^H, and
   E[g(max_k m2_k)] is convex in each block matrix, so the mean is largest
   when every codeword puts all its power on one tone with one beam.  Such
   a codeword sees m2 = P |v^H h_n|^2, an exponential variable of mean
   sigma^2 = P * (sum of tap variances).
3. The event {max over the codewords of one tone <= t} is a symmetric
   convex set of the Gaussian channel, so by the Gaussian correlation
   inequality the tones (and the beams of one tone) are at worst
   independent.  Within a tone, the M-antenna beams obey the cell bound
   P(max_k |<v_k, d>|^2 > y) <= min(1, K_n (1 - y)^(M - 1)).
4. The worst split of the K codewords over the N tones is found exactly
   by dynamic programming, and the bound on P(max m2 > t) is integrated
   against g'(t).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelModelParams, tap_variances
from .errors import DomainError, check_count, check_positive
from .rectenna import DiodeMomentModel
from .waveform import ToneGrid

# Integration runs over u = t / sigma^2 in [0, ln K + _SPAN]: beyond it the
# survival bound is below K e^{-u} < e^{-_SPAN}, negligible against the mean.
_SPAN = 50.0
_STEP = 0.01


def _gamma_sf(m: int, x: np.ndarray) -> np.ndarray:
    """P(G > x) for G ~ Gamma(m, 1) with integer shape m >= 1."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    for j in range(1, m):
        term = term * x / j
        total = total + term
    return np.exp(-x) * total


def _tone_cdf_floor(k_tone: int, m: int, u: np.ndarray) -> np.ndarray:
    """Lower bound on P(best of k_tone one-tone beams has m2 <= sigma^2 u)."""
    if k_tone == 0:
        return np.ones_like(u)
    independent = (1.0 - np.exp(-u)) ** k_tone
    if m == 1 or k_tone == 1:
        tail = np.exp(-u)
    else:
        # cell bound given the tone's channel gain G ~ Gamma(m, 1): the best
        # beam keeps a share Y of it with P(Y > y) <= min(1, K (1-y)^(m-1));
        # the cap at 1 binds once G exceeds g_star
        r = k_tone ** (-1.0 / (m - 1))
        g_star = u / (1.0 - r)
        tail = (_gamma_sf(m, g_star)
                + k_tone * np.exp(-u) * (1.0 - _gamma_sf(m, g_star - u)))
    return np.maximum(independent, 1.0 - np.minimum(tail, 1.0))


def _max_m2_survival(k: int, m: int, n: int, u: np.ndarray) -> np.ndarray:
    """Upper bound on P(max_k m2_k > sigma^2 u), worst split over n tones."""
    with np.errstate(divide="ignore"):
        log_floor = np.log([_tone_cdf_floor(j, m, u) for j in range(k + 1)])
    worst = log_floor
    for _ in range(n - 1):
        worst = np.array([np.min(worst[j::-1] + log_floor[:j + 1], axis=0)
                          for j in range(k + 1)])
    return 1.0 - np.exp(worst[k])


def dc_ceiling(params: ChannelModelParams, m_antennas: int, grid: ToneGrid,
               k: int, model: DiodeMomentModel, power: float) -> float:
    """Upper bound on E[max over K codewords of dc power], in watts.

    Holds for every codebook of k entries with power budget `power` on
    channels drawn from `params` with m_antennas antennas on `grid`.  The
    channel family enters only through the per-tone gain variance, the sum
    of its tap variances.  Cost grows as k^2 * n_tones.

    Args:
        params: channel family the channels are drawn from.
        m_antennas: transmit antennas M >= 1.
        grid: tone grid; only its size N is used.
        k: codebook size K >= 1.
        model: moment rectifier the dc power is measured with.
        power: codeword power budget P > 0, watts.
    """
    k = check_count("k", k)
    m_antennas = check_count("m_antennas", m_antennas)
    check_positive("power", power)
    if not isinstance(model, DiodeMomentModel):
        raise DomainError("the ceiling is proven for the moment model only")
    n = grid.n_tones
    sigma2 = power * float(np.sum(tap_variances(params)))
    c4 = 1.5 * n * model.k4
    intervals = 2 * int(np.ceil((np.log(k) + _SPAN) / (2.0 * _STEP)))
    u = np.linspace(0.0, intervals * _STEP, intervals + 1)
    x = sigma2 * u
    # E[g(Y)] = integral of g'(t) P(Y > t) dt with t = sigma^2 u
    dg = (2.0 * model.alpha * sigma2 * (model.k2 * x + c4 * x * x)
          * (model.k2 + 2.0 * c4 * x))
    f = dg * _max_m2_survival(k, m_antennas, n, u)
    simpson = f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
    return float(simpson * _STEP / 3.0)
