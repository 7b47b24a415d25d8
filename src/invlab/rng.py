"""Deterministic, splittable random streams.

Every consumer derives its own counter-based generator from a master seed
plus a tuple of string/int labels, so the amount or order of parallelism can
never change what any single stream produces.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import is_int, require


def derive_key(master_seed: int, *parts: int | str) -> int:
    """128-bit Philox key from SHA-256 over the seed and labels.

    Labels are compared by their string form, so 1 and "1" name the same
    stream; call sites use fixed literal tags, never user data. The seed must be
    an integer: 1.5 or True is refused, not read as 1.
    """
    require(is_int(master_seed), "seed", master_seed, "an integer")
    h = hashlib.sha256()
    h.update(str(master_seed).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")  # unit separator keeps ("ab",) != ("a","b")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "little")


def derive_rng(master_seed: int, *parts: int | str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *parts)))
