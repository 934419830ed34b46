"""Seeded, platform-stable random streams."""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "Rng",
    "derive_seed",
]


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label); stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Counter-based pseudo-random stream (Philox 4x64-10, fixed constants).

    Identical seed plus identical call sequence yields an identical stream
    on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, label: str) -> "Rng":
        """Independent stream derived deterministically from this seed."""
        return Rng(derive_seed(self.seed, label))

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        return lo + (hi - lo) * self._gen.random(size=tuple(shape))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=tuple(shape))

    def integers(self, lo: int, hi: int, shape=()) -> np.ndarray:
        return self._gen.integers(lo, hi, size=tuple(shape))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
