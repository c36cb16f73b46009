"""Counter-based random streams.

Replica randomness is derived from a base seed plus a replica index, giving
streams that are independent, reproducible, and independent of execution
order.  The bit generator is Philox (counter-based), keyed through
``numpy.random.SeedSequence`` so distinct indices give distinct keys.
"""
from __future__ import annotations

import numpy as np


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for replica ``index`` of base seed ``seed``."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise ValueError("replica index must be an integer")
    if seed < 0 or index < 0:
        raise ValueError("seed and replica index must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))

