import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import reference_quantize_backward
from qatlab.numeric import Rng
from qatlab.quantizer import (
    PER_CHANNEL,
    QuantizerState,
    SoftRoundConfig,
    init_scale,
    integer_code,
    quantize,
    quantize_backward,
    round_half_away,
    round_to_grid,
    soft_round,
)


def qs(s, bits=4, signed=True, **kw):
    return QuantizerState(s=np.asarray(float(s)), bits=bits, signed=signed, **kw)


def nearest_level_oracle(w: float, q: QuantizerState) -> float:
    """Exhaustive search over every representable level.

    Ties in float distance go to the level of larger magnitude, matching the
    frozen half-away-from-zero rounding rule.
    """
    s = float(q.s)
    codes = np.arange(q.u, q.v + 1)
    dist = np.abs(w - s * codes)
    best = dist.min()
    tied = codes[dist == best]
    k = tied[np.argmax(np.abs(tied))]
    return s * k


def scale_contrib(w, q, g_out=None):
    """Per-element scale contribution, un-normalized."""
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if g_out is None:
        g_out = np.ones_like(w)
    _, g_s = quantize_backward(round_to_grid(w, q)[2], q, g_out)
    norm = 1.0 / np.sqrt(w.size * max(q.v, 1))
    return g_s / norm


class TestRounding:
    @pytest.mark.parametrize(
        "z,expect",
        [(2.5, 3.0), (-2.5, -3.0), (2.4, 2.0), (-0.5, -1.0), (0.5, 1.0), (0.0, 0.0)],
    )
    def test_half_away_from_zero(self, z, expect):
        assert round_half_away(np.float64(z)) == expect

    def test_pinned_values_and_signed_zeros(self):
        # sign(z) * floor(|z| + (0.5 - ulp)): -0.0 rounds to +0.0, and
        # 0.5 - ulp rounds to a zero of its own sign.
        below_half = np.nextafter(0.5, 0.0)
        z = np.array([0.0, -0.0, 0.5, -0.5, below_half, -below_half, 2.5, -2.5, 1e300])
        r = round_half_away(z)
        np.testing.assert_array_equal(r, [0.0, 0.0, 1.0, -1.0, 0.0, -0.0, 3.0, -3.0, 1e300])
        np.testing.assert_array_equal(
            np.signbit(r), [False, False, False, True, False, True, False, True, False]
        )

    def test_integers_are_fixed_points_up_to_2_53(self):
        # An odd integer in [2**52, 2**53) plus 0.5 is a tie that rounds up
        # to the next integer; plus 0.5 - ulp it stays put.
        z = np.array([2.0**52 + 1, -(2.0**52 + 1), 2.0**53 - 1, 2.0**52 - 0.5])
        np.testing.assert_array_equal(round_half_away(z), [z[0], z[1], z[2], 2.0**52])


class TestQuantize:
    def test_direct_arithmetic(self):
        assert quantize(np.array(0.26), qs(0.1)) == pytest.approx(0.3)

    def test_clip_case(self):
        assert quantize(np.array(100.0), qs(0.1)) == pytest.approx(0.7)

    def test_zero(self):
        assert quantize(np.array(0.0), qs(0.3, bits=7)) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([np.nan]), qs(0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_rejects_non_finite_anywhere(self, bad, pos):
        w = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        w[pos] = bad
        with pytest.raises(ValueError, match="^quantizer rejects non-finite input$"):
            round_to_grid(w, qs(0.1))

    def test_accepts_values_whose_sum_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, code, _ = round_to_grid(np.array([1e308, 1e308]), qs(1.0, bits=4))
        np.testing.assert_array_equal(code, [7.0, 7.0])
        np.testing.assert_array_equal(value, [7.0, 7.0])

    def test_exhaustive_level_oracle(self):
        # 10^4 random (w, s, bits) points against brute-force nearest level.
        rng = Rng(2024)
        bits_stream = rng.integers(1, 9, (10_000,))
        for i in range(10_000):
            bits = int(bits_stream[i])
            signed = bool(rng.integers(0, 2) == 1)
            s = float(np.exp(rng.uniform((), np.log(1e-3), np.log(10.0))))
            q = qs(s, bits=bits, signed=signed)
            z = float(rng.uniform((), q.u - 2.0, q.v + 2.0))
            w = s * z
            got = float(quantize(np.array(w), q))
            assert got == nearest_level_oracle(w, q), (w, s, bits, signed)

    def test_tie_break_on_exact_midpoint(self):
        # Dyadic values keep the midpoint exact in floating point.
        q = qs(0.25)
        assert float(quantize(np.array(0.625), q)) == 0.75  # between 0.5 and 0.75
        assert float(quantize(np.array(-0.625), q)) == -0.75

    def test_idempotent_bitwise(self):
        rng = Rng(5)
        for bits in range(1, 9):
            q = qs(0.13, bits=bits)
            w = rng.uniform((257,), -3.0, 3.0)
            once = quantize(w, q)
            twice = quantize(once, q)
            np.testing.assert_array_equal(once, twice)

    def test_level_count_bound(self):
        q = qs(0.07, bits=3)
        w = Rng(1).uniform((4096,), -2.0, 2.0)
        assert len(np.unique(quantize(w, q))) <= 2**3

    def test_per_channel(self):
        s = np.array([0.1, 0.2])
        q = QuantizerState(s=s, bits=4, signed=True, granularity=PER_CHANNEL, axis=0)
        w = np.array([[0.26, 0.26], [0.26, 0.26]])
        out = quantize(w, q)
        np.testing.assert_allclose(out[0], [0.3, 0.3])
        np.testing.assert_allclose(out[1], [0.2, 0.2])  # round(1.3) = 1 at s = 0.2


class TestQuantizeBackward:
    def test_in_range_contribution(self):
        # round(2.6) = 3 in range: STE weight grad 1, scale contribution 3 - 2.6.
        w = np.array([0.26])
        g_w, g_s = quantize_backward(round_to_grid(w, qs(0.1))[2], qs(0.1), np.array([1.0]))
        assert g_w[0] == 1.0
        assert scale_contrib(w, qs(0.1))[()] == pytest.approx(0.4, abs=1e-12)

    def test_clipped_contribution(self):
        w = np.array([100.0])
        g_w, _ = quantize_backward(round_to_grid(w, qs(0.1))[2], qs(0.1), np.array([1.0]))
        assert g_w[0] == 0.0
        assert scale_contrib(w, qs(0.1))[()] == pytest.approx(7.0)
        assert scale_contrib(np.array([-100.0]), qs(0.1))[()] == pytest.approx(-8.0)

    def test_zero_upstream(self):
        w = Rng(3).uniform((8,), -1.0, 1.0)
        g_w, g_s = quantize_backward(round_to_grid(w, qs(0.1))[2], qs(0.1), np.zeros(8))
        assert not g_w.any()
        assert float(g_s) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantize_backward(round_to_grid(np.zeros(3), qs(0.1))[2], qs(0.1), np.zeros(4))

    def test_scale_grad_matches_joint_path_finite_diff(self):
        # The straight-through backward reports a (w, s) gradient pair whose
        # joint directional derivative along scale-preserving paths (w/s held
        # fixed) is exact: rounding is locally constant there.  A central
        # difference along that path, minus the definitional weight part,
        # therefore recovers the scale gradient.
        rng = Rng(77)
        eps = 1e-5
        checked = 0
        agreements = 0
        while checked < 1000:
            bits = int(rng.integers(2, 9))
            s = float(np.exp(rng.uniform((), np.log(0.01), np.log(2.0))))
            q = qs(s, bits=bits)
            z = float(rng.uniform((), q.u + 0.05, q.v - 0.05))
            if abs(z - round_half_away(np.float64(z))) < 1e-3:
                continue  # skip rounding boundaries
            if min(abs(z - q.u), abs(z - q.v)) < 1e-3:
                continue  # skip clip boundaries
            w = s * z
            checked += 1

            def along_path(t):
                return float(quantize(np.array(w + t * z), qs(s + t, bits=bits)))

            fd_joint = (along_path(eps) - along_path(-eps)) / (2 * eps)
            fd_scale = fd_joint - z * 1.0  # subtract definitional STE weight part
            got = float(scale_contrib(np.array([w]), q))
            if abs(got - fd_scale) <= 1e-4 * max(1.0, abs(fd_scale)):
                agreements += 1
        assert agreements >= 950

    def test_clipped_scale_grad_matches_plain_finite_diff(self):
        # In the clipped branches the forward is exactly s * u (or s * v), so
        # an ordinary central difference in s alone is already exact.
        for w, expect in [(100.0, 7.0), (-100.0, -8.0)]:
            eps = 1e-6
            fd = (
                float(quantize(np.array(w), qs(0.1 + eps)))
                - float(quantize(np.array(w), qs(0.1 - eps)))
            ) / (2 * eps)
            assert fd == pytest.approx(expect, rel=1e-9)
            assert scale_contrib(np.array([w]), qs(0.1))[()] == pytest.approx(expect)

    def test_per_channel_scale_grad_shape(self):
        s = np.array([0.1, 0.2, 0.3])
        q = QuantizerState(s=s, bits=4, signed=True, granularity=PER_CHANNEL, axis=0)
        w = Rng(11).uniform((3, 5), -1.0, 1.0)
        g_w, g_s = quantize_backward(round_to_grid(w, q)[2], q, np.ones_like(w))
        assert g_w.shape == w.shape
        assert g_s.shape == (3,)
        # Channel sums must match per-tensor backward run channel by channel.
        for c in range(3):
            lone = scale_contrib(w[c], qs(s[c]))
            norm = 1.0 / np.sqrt(5 * 7)
            assert g_s[c] == pytest.approx(float(lone) * norm)


class TestQuantizeBackwardReference:
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("granularity", ["per_tensor", PER_CHANNEL])
    def test_equals_three_where_reference(self, granularity, signed):
        rng = Rng(31)
        w = rng.uniform((6, 40), -3.0, 3.0)
        if granularity == PER_CHANNEL:
            q = QuantizerState(
                s=rng.uniform((6,), 0.2, 0.5), bits=3, signed=signed,
                granularity=PER_CHANNEL, axis=0,
            )
        else:
            q = qs(0.3, bits=3, signed=signed)
        g = rng.normal((6, 40))
        rounding = round_to_grid(w, q)[2]
        assert (rounding.r > q.v).any() and rounding.in_range.any()
        assert not signed or (rounding.r < q.u).any()
        got = quantize_backward(rounding, q, g)
        want = reference_quantize_backward(rounding, q, g)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


class TestSoftRound:
    def test_snaps_inside_threshold(self):
        got = soft_round(np.array(0.26), qs(0.1), SoftRoundConfig(k=0.45))
        assert got == pytest.approx(0.3)

    def test_stays_latent_outside_threshold(self):
        # |2.5 - round(2.5)| = 0.5 > 0.45, so the latent value survives.
        got = soft_round(np.array(0.25), qs(0.1), SoftRoundConfig(k=0.45))
        assert got == pytest.approx(0.25)

    def test_k_half_equals_quantize(self):
        rng = Rng(8)
        w = rng.uniform((4096,), -2.0, 2.0)
        q = qs(0.17, bits=3)
        np.testing.assert_array_equal(soft_round(w, q, SoftRoundConfig(k=0.5)), quantize(w, q))

    def test_k_zero_is_clip_only(self):
        rng = Rng(9)
        q = qs(0.1)
        w = rng.uniform((1024,), -0.3, 0.3)  # inside [s*u, s*v] = [-0.8, 0.7]
        off_grid = w[np.abs(w / 0.1 - round_half_away(w / 0.1)) > 1e-9]
        # Latent values pass through a divide/multiply round trip, so equality
        # holds to one ulp rather than bitwise.
        np.testing.assert_allclose(
            soft_round(off_grid, q, SoftRoundConfig(k=0.0)), off_grid, rtol=4e-16
        )
        clipped = soft_round(np.array([5.0, -5.0]), q, SoftRoundConfig(k=0.0))
        np.testing.assert_allclose(clipped, [0.7, -0.8])

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SoftRoundConfig(k=0.6)


class TestIntegerCode:
    def test_basic(self):
        assert integer_code(np.array(0.26), qs(0.1)) == 3

    def test_clip(self):
        assert integer_code(np.array(-5.0), qs(0.1)) == -8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # Like quantize: no int64 code stands for NaN or an infinity.
        with pytest.raises(ValueError, match="non-finite"):
            integer_code(np.array([0.26, bad]), qs(0.1))

    def test_round_to_grid_is_quantize_and_code(self):
        q = qs(0.09, bits=3)
        w = Rng(5).uniform((256,), -1.0, 1.0)
        value, code, rounding = round_to_grid(w, q)
        np.testing.assert_array_equal(value, quantize(w, q))
        np.testing.assert_array_equal(code.astype(np.int64), integer_code(w, q))
        np.testing.assert_array_equal(rounding.z, w / 0.09)
        np.testing.assert_array_equal(rounding.r, round_half_away(w / 0.09))

    def test_code_of_quantized_equals_code_of_raw(self):
        rng = Rng(21)
        for bits in (2, 4, 8):
            q = qs(0.09, bits=bits)
            w = rng.uniform((2048,), -2.0, 2.0)
            np.testing.assert_array_equal(integer_code(quantize(w, q), q), integer_code(w, q))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 8))
    def test_code_changes_iff_quantize_changes(self, seed, bits):
        rng = Rng(seed)
        q = qs(0.13, bits=bits)
        w1 = rng.uniform((64,), -2.0, 2.0)
        w2 = rng.uniform((64,), -2.0, 2.0)
        same_code = integer_code(w1, q) == integer_code(w2, q)
        same_value = quantize(w1, q) == quantize(w2, q)
        np.testing.assert_array_equal(same_code, same_value)


class TestInitScale:
    def test_weight_max_over_v(self):
        w = np.array([0.7, -0.2, 0.1])
        q = init_scale(w, bits=4, signed=True)
        assert float(q.s) == pytest.approx(0.1)

    def test_all_zero_degenerate(self):
        q = init_scale(np.zeros(5), bits=4)
        assert float(q.s) == 1e-8

    def test_per_channel(self):
        w = np.array([[0.7, -0.1], [1.4, 0.2]])
        q = init_scale(w, bits=4, granularity=PER_CHANNEL, axis=0)
        np.testing.assert_allclose(q.s, [0.1, 0.2])

    def test_activation_percentile(self):
        a = np.concatenate([np.full(9990, 0.5), np.full(10, 100.0)])
        q = init_scale(a, bits=4, signed=False, kind="activation")
        # 99.9th percentile sits at the step between 0.5 and the outliers.
        assert float(q.s) <= 100.0 / 15
        assert float(q.s) >= 0.5 / 15

    def test_one_bit_signed_uses_low_bound(self):
        q = init_scale(np.array([0.8]), bits=1, signed=True)
        assert float(q.s) == pytest.approx(0.8)  # v = 0, |u| = 1 stands in

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_scale(np.zeros((0,)), bits=4)
