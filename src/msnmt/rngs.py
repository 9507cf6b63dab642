"""Named random substreams.

All randomness in a run flows from one seed; each consumer (init, dropout,
shuffle, synth, ...) gets its own independent stream so component tests can
pin streams without replaying the whole pipeline.
"""

import zlib

import numpy as np

from .errors import ConfigError


def rng_stream(seed, name):
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    )
