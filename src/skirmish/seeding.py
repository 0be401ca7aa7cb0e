"""Deterministic seed derivation for independent RNG streams.

Every stochastic consumer (spawn jitter, exploration, opponent sampling,
evaluation, the ``bench`` command's random policies) draws from its own
stream derived from the run seed plus a stream tag, so adding or removing
draws in one place never perturbs the others.
"""

from __future__ import annotations

import numpy as np

STREAM_EPISODE = 1
STREAM_EXPLORE = 2
STREAM_EVAL = 3
STREAM_POOL = 4
STREAM_INIT = 5
STREAM_BENCH = 7


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one well-distributed 63-bit seed.

    Parts that differ only by trailing zeros give the same seed:
    ``SeedSequence`` pads short entropy with zeros, so
    ``derive_seed(5, 7, 0) == derive_seed(5, 7)``.
    """
    state = np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(1))


def episode_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th episode of an evaluation or serving run."""
    return derive_seed(STREAM_EPISODE, seed, index)
