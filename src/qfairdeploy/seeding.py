"""Deterministic named random streams derived from one master seed.

Every source of randomness in the package draws from `spawn(master, *key)`,
so runs are reproducible across platforms and independent of call order.
"""
from __future__ import annotations

import hashlib

import numpy as np


def spawn(master_seed: int, *key) -> np.random.Generator:
    """Generator for the named stream `key` under `master_seed`: a
    SeedSequence over the master's low 32 bits, then the first four
    little-endian 32-bit words of the key's SHA-256. The words go in as one
    uint32 array, which SeedSequence takes as is; a list of the same ints
    gives the same stream, converted one int at a time."""
    digest = hashlib.sha256("/".join(str(p) for p in key).encode()).digest()
    entropy = np.empty(5, dtype=np.uint32)
    entropy[0] = int(master_seed) & 0xFFFFFFFF
    entropy[1:] = np.frombuffer(digest, dtype="<u4", count=4)
    return np.random.default_rng(np.random.SeedSequence(entropy))
