"""Deterministic streams: the SeedSequence recipe behind stream/derive_seed."""

import math

import numpy as np
import pytest

from wptsim import DomainError, derive_seed, stream


def test_stream_is_philox_keyed_by_seed_sequence():
    ss = np.random.SeedSequence(entropy=42, spawn_key=(5, 3, 7))
    expected = np.random.Generator(np.random.Philox(ss)).random(4)
    assert np.array_equal(stream(42, 5, 3, 7).random(4), expected)


def test_derive_seed_uses_the_same_seed_sequence():
    ss = np.random.SeedSequence(entropy=42, spawn_key=(3, 1))
    assert derive_seed(42, 3, 1) == int(ss.generate_state(1, np.uint64)[0])
    assert derive_seed(42, 3, 1) == 12600661634385724904


@pytest.mark.parametrize("make", [stream, derive_seed])
@pytest.mark.parametrize("key", [(-1,), (0, -2), (5, 3, -7), (1, 2.7),
                                 (2.5,), (math.nan,)],
                         ids=["seed", "purpose", "index", "fraction",
                              "fractional-seed", "nan-seed"])
def test_a_negative_seed_or_path_element_is_a_domain_error(make, key):
    # numpy's own ValueError would escape the CLI as a traceback, and a
    # fraction truncated by int() would replay another stream's draws
    with pytest.raises(DomainError, match="must be >= 0"):
        make(*key)
