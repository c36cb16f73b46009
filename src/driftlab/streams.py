"""Counter-based random streams.

Replica randomness is derived from a base seed plus a replica index, giving
streams that are independent, reproducible, and independent of execution
order.  The bit generator is Philox (counter-based), keyed through
``numpy.random.SeedSequence`` so distinct indices give distinct keys: the
substream of index k has ``spawn_key=(k,)``, and stream j of replica k's
split streams has ``spawn_key=(k, j)``.
"""
from __future__ import annotations

import numpy as np


def _philox(seed: int, key: tuple) -> np.random.Generator:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if any(not isinstance(k, (int, np.integer)) or isinstance(k, bool) for k in key):
        raise ValueError("replica index must be an integer")
    if seed < 0 or min(key) < 0:
        raise ValueError("seed and replica index must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, key)))
    return np.random.Generator(np.random.Philox(ss))


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for replica ``index`` of base seed ``seed``."""
    return _philox(seed, (index,))


def split_streams(seed: int, index: int, count: int) -> tuple[np.random.Generator, ...]:
    """Return replica ``index``'s ``count`` split streams of base seed
    ``seed``, stream j keyed ``spawn_key=(index, j)``: one per kind of draw,
    so that each kind can be drawn in blocks of any length without moving
    another."""
    return tuple(_philox(seed, (index, j)) for j in range(count))
