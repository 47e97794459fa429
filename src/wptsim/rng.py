"""Deterministic random streams.

All randomness in the package flows through counter-based Philox generators
keyed by an integer path: ``stream(seed, purpose, *indices)``.  Two calls
with the same (seed, path) return generators that produce identical draws on
every platform and in every process, and distinct paths give statistically
independent streams.  This is what makes campaign output byte-reproducible
regardless of execution order.

Concretely, the path is fed to ``numpy.random.SeedSequence(entropy=seed,
spawn_key=path)`` and the resulting state keys a ``numpy.random.Philox``
bit generator.  ``derive_seed`` exposes the same mixing to produce child
64-bit seeds (used when a location needs a seed of its own).

A protocol session's SESSION stream feeds its ADC noise and its
feedback-loss draws.  A session that can draw neither (a lossless link,
no ADC noise; ``protocol.session_draws``) is run with no stream at all.
Given one, it would read it only in the link's always-true draw, whose
value reaches no output, so going without moves no byte.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count

# purpose namespaces; first element of every derived path
TAPS = 1            # channel tap draws, sub-keyed by frame index
PATHLOSS = 2        # per-location pathloss draws
LOCATION_SEED = 3   # child seeds handed to locations
CODEBOOK = 4        # random codebook entries
TRAINING = 5        # codebook training (init selection)
SESSION = 6         # protocol sessions that draw (ADC noise, feedback loss)
ORACLE = 7          # self-check case generation


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    key = [check_count("a seed or path element", p, 0) for p in (seed, *path)]
    return np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and integer path."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for (seed, path)."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
