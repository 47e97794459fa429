"""Exception types used across the package, and its three argument rules.

Everything derives from WptsimError so callers can catch the package's own
failures without swallowing genuine bugs.  DomainError doubles as ValueError
because most bad-argument cases are just that.

Every count (tones, taps, antennas, codebook size, iterations, ADC bits)
and every seed or random-stream path element passes check_count: a whole
number in its range, never truncated, so a fractional, nan or infinite
one is a DomainError rather than another run.  Every quantity that must
be positive and finite (a power budget, a bandwidth, a carrier, a tap
spacing, a rectifier gain, an ADC reference or load) passes
check_positive.  Every array argument (gains, weights, amplitudes, a
codebook, taps, readings, a sweep) passes check_shape, through check_array
where the package keeps it: a misfit is the DimensionError no other module
raises.
"""

import math

import numpy as np


class WptsimError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(WptsimError):
    """Array shapes or counts do not line up."""


class DomainError(WptsimError, ValueError):
    """An argument value is outside the valid domain."""


class DegenerateChannelError(DomainError):
    """A channel with zero gain on every tone cannot be matched."""


class ZeroWaveformError(DomainError):
    """Peak-to-average ratio of an identically zero waveform is undefined."""


class ConfigError(WptsimError):
    """A config file, table file, or parameter set failed validation."""


class CodebookIOError(WptsimError):
    """A codebook file is missing, corrupt, or of the wrong version."""


class ProtocolError(WptsimError):
    """Feedback encoding/decoding violated the frame contract."""


class SummaryError(WptsimError):
    """Campaign summary could not be computed (e.g. missing baseline row)."""


def check_count(name: str, value, low: int = 1, high: float = math.inf
                ) -> int:
    """value as an int, when it is a whole number in [low, high].

    nan, +-inf and fractions raise, also when they lie in the range, so
    2.7 is never read as 2.
    """
    try:
        whole = int(value)
    except (OverflowError, ValueError):     # inf or nan
        whole = None
    if whole == value and low <= whole <= high:
        return whole
    span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    raise DomainError(f"{name} must be {span} and a whole number, "
                      f"got {value}")


def check_positive(name: str, value) -> None:
    """Raise unless 0 < value < inf; nan fails too."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be > 0 and finite, got {value}")


def check_shape(name: str, shape: tuple, pattern: tuple) -> None:
    """Raise DimensionError unless shape fits pattern.

    A pattern holds exact sizes and None, any size >= 1.  It may start
    with ..., which admits any number of leading batch axes, each of size
    >= 1.  So (..., None, 4) fits (2, 4) and (3, 2, 4) but neither (4,)
    nor (0, 4).  In messages None reads *.
    """
    if shape == pattern:        # an exact pattern's fast path
        return
    batch = pattern[:1] == (...,)
    axes = pattern[1:] if batch else pattern
    lead = len(shape) - len(axes)
    if (lead == 0 or batch and lead > 0) and 0 not in shape:
        # a loop, not all() over a generator: half the cost per call
        for got, want in zip(shape[lead:], axes):
            if want is not None and got != want:
                break
        else:
            return
    text = str(tuple(pattern)).replace("Ellipsis", "...").replace("None", "*")
    raise DimensionError(f"{name} shape {tuple(shape)} does not fit {text}")


def check_array(name: str, value, pattern: tuple, dtype=complex
                ) -> np.ndarray:
    """value as a read-only view of dtype (so the caller's array stays
    writeable), when its shape fits pattern and every entry is finite."""
    array = np.asarray(value, dtype=dtype).view()
    check_shape(name, array.shape, pattern)
    # the reduction np.all runs, without its Python dispatch
    if not np.isfinite(array).all():
        raise DomainError(f"{name} must be finite")
    array.flags.writeable = False
    return array
