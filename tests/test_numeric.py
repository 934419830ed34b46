import numpy as np
import pytest

from gradient_oracle import finite_diff
from qatlab.numeric import Rng


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff(lambda x: float(np.sum(x**2)), np.array([3.0]), eps=1e-5)
        np.testing.assert_allclose(g, [6.0], atol=1e-6)

    def test_constant(self):
        g = finite_diff(lambda x: 1.5, np.array([1.0, -2.0, 0.3]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_quadratic_error_order(self):
        # Central difference of a cubic has O(eps^2) error.
        x = np.array([1.3])
        f = lambda t: float(t[0] ** 3)
        for eps in (1e-3, 1e-4):
            g = finite_diff(f, x, eps=eps)
            assert abs(g[0] - 3 * 1.3**2) < 10 * eps**2 + 1e-10

    def test_non_finite_objective(self):
        with pytest.raises(ValueError):
            finite_diff(lambda x: float("nan"), np.array([1.0]))


class TestRng:
    def test_deterministic_stream(self):
        a = Rng(0).uniform((4,), 0.0, 1.0)
        b = Rng(0).uniform((4,), 0.0, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            Rng(0).uniform((4,), 0.5, 0.5)

    def test_large_sample_mean(self):
        x = Rng(123).uniform((100_000,), 0.0, 1.0)
        assert abs(x.mean() - 0.5) < 0.01
        assert x.min() >= 0.0 and x.max() < 1.0

    def test_call_sequence_determinism(self):
        r1, r2 = Rng(42), Rng(42)
        for shape in [(3,), (2, 2), (5,)]:
            np.testing.assert_array_equal(r1.uniform(shape), r2.uniform(shape))

    def test_children_are_independent_and_stable(self):
        a = Rng(9).child("data").uniform((3,))
        b = Rng(9).child("data").uniform((3,))
        c = Rng(9).child("init").uniform((3,))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
