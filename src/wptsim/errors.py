"""Exception types used across the package, and its two scalar rules.

Everything derives from WptsimError so callers can catch the package's own
failures without swallowing genuine bugs.  DomainError doubles as ValueError
because most bad-argument cases are just that.

Every count (tones, taps, antennas, codebook size, iterations, ADC bits)
and every seed or random-stream path element passes check_count: a whole
number in its range, never truncated, so a fractional, nan or infinite
one is a DomainError rather than another run.  Every quantity that must
be positive and finite (a power budget, a bandwidth, a carrier, a tap
spacing, a rectifier gain, an ADC reference or load) passes
check_positive.
"""

import math


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
