"""Central-difference gradients: the independent oracle the analytic
gradient tests compare against."""

import numpy as np


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Evaluates f at x +- eps*e_i for every coordinate.
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
