"""Brute-force time-domain evaluation of multi-sine quantities.

Everything here is obtained by synthesizing the received waveform y(t) on a
dense uniform grid over one fundamental period and averaging powers of the
samples.  No result is taken from the closed forms in `waveform`; the two
paths are kept independent so each can certify the other.  The sample
instants are `waveform.sample_times`, the ones `papr` uses, but the oracles
build their phasors afresh on every call and never read papr's cache.

Exactness: uniform-rectangle averaging of a trigonometric polynomial over
one period is exact (to rounding) once the sample count exceeds the highest
harmonic order present.  y^4 contains lines up to 4*f_max plus carrier
mixes at 2*f_c and 4*f_c; all of them land on the delta_f lattice exactly
when 2*f_c is an integer multiple of delta_f (ToneGrid.is_commensurate).
On such grids the oracle matches the closed forms to machine precision; on
incommensurate grids it would be biased at O(delta_f/f_c), so it refuses.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_array
from .waveform import ToneGrid, sample_times


def received_waveform(a: np.ndarray, grid: ToneGrid,
                      time_points) -> np.ndarray:
    """y(t) = Re{sum_n a_n e^{j w_n t}} of (N,) amplitudes at the instants."""
    a = check_array("a", a, (grid.n_tones,))
    t = check_array("time_points", time_points, (None,), float)
    return np.real(np.exp(1j * np.outer(t, grid.angular_frequencies)) @ a)


def moments_by_averaging(a: np.ndarray, grid: ToneGrid,
                         oversampling: int = 32) -> tuple[float, float]:
    """(mean of y^2, mean of y^4) of (N,) amplitudes over one period.

    These equal the closed-form m2 and m4 exactly on commensurate grids.
    """
    if not grid.is_commensurate():
        raise DomainError(
            "time averaging over 1/delta_f is only exact when 2*f_c is an "
            "integer multiple of delta_f; refusing an incommensurate grid")
    t = sample_times(grid, oversampling)
    y = received_waveform(a, grid, t)
    return float(np.mean(y ** 2)), float(np.mean(y ** 4))
