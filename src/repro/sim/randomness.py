"""Deterministic, named random-number streams.

Every stochastic component of the simulation (placement hashes, overhead
jitter, repetition-to-repetition variation) draws from its own named
child stream of a single root seed, so that

- runs are exactly reproducible given a seed,
- adding a new consumer of randomness does not perturb existing streams,
- the harness can re-run repetitions by bumping only the repetition key.

Streams are derived with :class:`numpy.random.SeedSequence` spawn keys
hashed from the stream name, which is the NumPy-recommended scheme for
parallel reproducible streams.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

__all__ = ["RngStreams", "stable_hash64", "stable_hash64_with_prefix"]


def stable_hash64(*parts: object) -> int:
    """A process-stable 64-bit hash of the given parts.

    Python's builtin ``hash`` is salted per interpreter run; placement
    decisions must not depend on it, so all hashed placement (DAOS shard
    selection, Ceph PG mapping, Lustre OST choice) routes through this.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def stable_hash64_with_prefix(*prefix: object) -> Callable[[object], int]:
    """``stable_hash64_with_prefix(*prefix)(part) == stable_hash64(*prefix, part)``.

    ``prefix`` is fed to the hash once; each call feeds its ``part`` to
    a copy of that state.  The bytes fed are :func:`stable_hash64`'s,
    so the hash is too, at the cost of one part instead of all of them.
    """
    head = hashlib.blake2b(digest_size=8)
    for part in prefix:
        head.update(repr(part).encode())
        head.update(b"\x1f")

    def hash64(part: object) -> int:
        h = head.copy()
        h.update(repr(part).encode() + b"\x1f")
        return int.from_bytes(h.digest(), "little")

    return hash64


class RngStreams:
    """Factory for named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoised) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            key = stable_hash64(name) & 0xFFFFFFFF
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def child(self, name: str) -> "RngStreams":
        """A derived factory whose streams are independent of the parent's."""
        return RngStreams(seed=stable_hash64(self.seed, "child", name))

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative jitter factor with median 1.0.

        Used to perturb per-run service overheads so the three paper-style
        repetitions of each experiment differ realistically.  ``sigma=0``
        returns exactly 1.0.
        """
        if sigma <= 0.0:
            return 1.0
        return float(np.exp(self.stream(name).normal(0.0, sigma)))
