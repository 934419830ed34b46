"""Seeded RNG and the finite-difference gradient oracle."""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "finite_diff",
    "Rng",
    "derive_seed",
]


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Used as the independent oracle for analytic gradients; evaluates f at
    x +- eps*e_i for every coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite_diff: non-finite objective value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


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
