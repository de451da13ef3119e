"""Deterministic, splittable random streams.

Every stream in the project is derived from a master seed plus a tuple of
purpose tags (strings or ints) via SHA-256, feeding a counter-based Philox
generator.  Identical keys give identical streams on every platform and
call site; unrelated keys give independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

# the ints a key can hold: stream_key packs the master seed and each int tag in 16 signed bytes
SEED_RANGE = range(-(2**127), 2**127)


def stream_key(master_seed: int, *tags: int | str) -> int:
    """Collapse (master_seed, *tags) into a 128-bit integer key."""
    h = hashlib.sha256()
    h.update(b"quantplan")
    h.update(int(master_seed).to_bytes(16, "little", signed=True))
    for t in tags:
        if isinstance(t, str):
            h.update(b"s" + t.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(t).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest()[:16], "little")


def stream(master_seed: int, *tags: int | str) -> np.random.Generator:
    """A fresh Generator keyed only by (master_seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *tags)))
