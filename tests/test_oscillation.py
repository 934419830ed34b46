import numpy as np
import pytest

from qatlab import oscillation
from qatlab.ema import EMAState, ema_update
from qatlab.numeric import Rng
from qatlab.oscillation import (
    DIVERGENCE_LIMIT,
    OscillationTracker,
    ToyProblem,
    boundary_histogram,
    flip_frequency,
    record_step,
    run_toy,
    run_toys,
    toy_objective,
)
from qatlab.quantizer import (
    SCALE_FLOOR,
    QuantizerState,
    integer_code,
    quantize,
    quantize_backward,
    round_to_grid,
)


def qw(s, bits=1):
    return QuantizerState(s=np.asarray(float(s)), bits=bits, signed=True)


def qx(s, bits=1):
    return QuantizerState(s=np.asarray(float(s)), bits=bits, signed=False)


def reference_run_toy(p, rng):
    """The toy loop written with one quantize call per use: each step
    quantizes w three times and x twice, takes w's codes with integer_code,
    rebuilds both quantizers after the update, and rounds each input again
    for the STE backward.  The reference for bit identity: run_toy must
    equal it exactly."""

    def residual(w, q_w, q_x, x):
        qx, qw = quantize(x, q_x), quantize(w, q_w)
        return x[:, None] * p.w_star[None, :] - qx[:, None] * qw[None, :]

    def ste(v, q, g):
        return quantize_backward(round_to_grid(v, q)[2], q, g)

    q_w = QuantizerState(s=np.asarray(float(p.s_w0)), bits=p.bits_w, signed=True)
    q_x = QuantizerState(s=np.asarray(float(p.s_x0)), bits=p.bits_x, signed=False)
    w = p.w_star.copy()
    tracker = OscillationTracker()
    ema = EMAState(alpha=p.ema_alpha, warmup_iters=int(p.ema_warmup_frac * p.steps))
    keys = ("w", "q_w", "s_w", "s_x", "loss", "codes", "flips",
            "ema_w", "ema_s_w", "ema_s_x", "ema_codes")
    rows = {k: [] for k in keys}
    for step in range(p.steps):
        x = rng.uniform((p.batch_size,), p.x_lo, p.x_hi)
        e = residual(w, q_w, q_x, x)
        loss = float(np.mean(np.sqrt(np.sum(e * e, axis=1))))
        assert np.isfinite(loss) and loss <= DIVERGENCE_LIMIT
        codes = integer_code(w, q_w)
        record_step(tracker, codes)
        rows["w"].append(w.copy())
        rows["q_w"].append(quantize(w, q_w))
        rows["s_w"].append(float(q_w.s))
        rows["s_x"].append(float(q_x.s))
        rows["loss"].append(loss)
        rows["flips"].append(int((codes != rows["codes"][-1]).sum()) if step else 0)
        rows["codes"].append(codes)
        sh_w = ema.shadows.get("w", w)
        sh_sw = float(ema.shadows.get("s_w", q_w.s))
        sh_sx = float(ema.shadows.get("s_x", q_x.s))
        sh_q = QuantizerState(s=np.asarray(sh_sw), bits=p.bits_w, signed=True)
        rows["ema_w"].append(np.asarray(sh_w).copy())
        rows["ema_s_w"].append(sh_sw)
        rows["ema_s_x"].append(sh_sx)
        rows["ema_codes"].append(integer_code(sh_w, sh_q))
        qx = quantize(x, q_x)
        g_w, g_sw = ste(w, q_w, -2.0 / x.size * (qx @ e))
        _, g_sx = ste(x, q_x, -2.0 / x.size * (e @ quantize(w, q_w)))
        w = w - p.lr * g_w
        q_w = QuantizerState(
            s=np.maximum(q_w.s - p.lr * g_sw, SCALE_FLOOR), bits=p.bits_w, signed=True
        )
        q_x = QuantizerState(
            s=np.maximum(q_x.s - p.lr * g_sx, SCALE_FLOOR), bits=p.bits_x, signed=False
        )
        ema_update(ema, {"w": w, "s_w": q_w.s, "s_x": q_x.s})
    trace = {k: np.asarray(v) for k, v in rows.items()}
    eval_x = rng.child("toy_eval").uniform((4096,), p.x_lo, p.x_hi)
    trace["final_eval_loss"] = toy_objective(w, q_w, q_x, eval_x, p.w_star)
    sh_q_w = QuantizerState(s=np.asarray(float(ema.shadows["s_w"])), bits=p.bits_w)
    sh_q_x = QuantizerState(s=np.asarray(float(ema.shadows["s_x"])), bits=p.bits_x, signed=False)
    trace["final_eval_loss_ema"] = toy_objective(
        ema.shadows["w"], sh_q_w, sh_q_x, eval_x, p.w_star
    )
    return trace, tracker


def assert_same_run(got, want):
    """Two ``(trace, tracker)`` results hold the same bits: every trace
    key's values, dtype and shape, and the tracker's counts, last codes and
    number of snapshots."""
    (trace, tracker), (ref, ref_tracker) = got, want
    assert trace.keys() == ref.keys()
    for key in ref:
        assert np.shape(trace[key]) == np.shape(ref[key]), key
        assert np.asarray(trace[key]).dtype == np.asarray(ref[key]).dtype, key
        assert np.array_equal(trace[key], ref[key]), key
    assert tracker.recorded == ref_tracker.recorded
    for got_arr, want_arr in ((tracker.flip_counts, ref_tracker.flip_counts),
                              (tracker._last, ref_tracker._last)):
        assert got_arr.dtype == want_arr.dtype and got_arr.shape == want_arr.shape
        assert np.array_equal(got_arr, want_arr)


def windowed_recount(stream, window):
    """Naive flip recount over the last `window` snapshots of a code stream."""
    tail = np.asarray(stream)[-window:]
    return (np.diff(tail, axis=0) != 0).sum(axis=0)


class TestToyObjective:
    def test_exact_representation_is_zero(self):
        # w equal to w_star on the weight grid, x batch on the input grid.
        w_star = np.array([-0.5, 0.0, -0.5])
        x = np.array([0.5, 0.0, 0.5])
        assert toy_objective(w_star.copy(), qw(0.5), qx(0.5), x, w_star) == 0.0

    def test_zero_target_zero_weights(self):
        x = np.array([1.0, 1.0, 1.0])
        w_star = np.zeros(3)
        assert toy_objective(np.zeros(3), qw(1.0), qx(1.0), x, w_star) == 0.0

    def test_hand_evaluated_batch(self):
        rng = Rng(123)
        w = np.array([-0.7, -0.2, -1.1])
        w_star = np.array([-0.55, -0.3, -1.2])
        s_w, s_x = qw(0.6), qx(0.4)
        x = rng.uniform((5,), 0.0, 1.0)

        from qatlab.quantizer import quantize

        total = 0.0
        for b in range(5):
            sq = 0.0
            for j in range(3):
                e = x[b] * w_star[j] - float(quantize(np.array(x[b]), s_x)) * float(
                    quantize(np.array(w[j]), s_w)
                )
                sq += e * e
            total += np.sqrt(sq)
        expect = total / 5
        assert toy_objective(w, s_w, s_x, x, w_star) == pytest.approx(expect, abs=1e-12)


class TestTracker:
    def test_identical_codes_no_flips(self):
        t = OscillationTracker()
        for _ in range(5):
            record_step(t, np.array([1, -1, 0]))
        assert not t.flip_counts.any()
        assert flip_frequency(t).tolist() == [0.0, 0.0, 0.0]

    def test_alternating_full_window(self):
        t = OscillationTracker()
        for i in range(100):
            record_step(t, np.array([i % 2]))
        freq = flip_frequency(t)[0]
        assert 0.99 <= freq <= 1.0

    def test_random_stream_vs_recount_oracle(self):
        rng = Rng(42)
        t = OscillationTracker()
        stream = []
        for _ in range(200):
            codes = rng.integers(-2, 3, (4,))
            stream.append(codes)
            record_step(t, codes)
        np.testing.assert_array_equal(t.flip_counts, windowed_recount(stream, len(stream)))

    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_every_step_vs_recount_oracle(self, seed):
        rng = Rng(seed)
        t = OscillationTracker()
        stream = []
        for _ in range(5 * seed):
            codes = rng.integers(-2, 3, (6,))
            stream.append(codes)
            record_step(t, codes)
            assert t.recorded == len(stream)
            np.testing.assert_array_equal(t.flip_counts, windowed_recount(stream, len(stream)))

    def test_shape_change_rejected(self):
        t = OscillationTracker()
        record_step(t, np.array([0, 1]))
        with pytest.raises(ValueError):
            record_step(t, np.array([0, 1, 2]))

    def test_too_few_steps(self):
        t = OscillationTracker()
        record_step(t, np.array([0]))
        with pytest.raises(RuntimeError):
            flip_frequency(t)


class TestBoundaryHistogram:
    def test_on_levels_mass_at_half(self):
        q = qw(0.5, bits=4)
        w = 0.5 * np.arange(-8, 8).astype(np.float64)
        counts, _ = boundary_histogram(w, q, bins=10)
        assert counts[-1] == 16
        assert counts[:-1].sum() == 0

    def test_on_thresholds_mass_at_zero(self):
        q = qw(0.5, bits=4)
        w = 0.5 * (np.arange(-7, 7) + 0.5)
        counts, _ = boundary_histogram(w, q, bins=10)
        assert counts[0] == 14
        assert counts[1:].sum() == 0

    def test_counts_conserved_with_clipping(self):
        q = qw(0.1, bits=4)
        w = np.array([0.26, -0.79, 5.0, 0.0, 0.31])  # 5.0 clips above
        counts, _ = boundary_histogram(w, q, bins=5)
        assert counts.sum() == 4

    def test_uniform_cell_is_flat(self):
        rng = Rng(7)
        q = qw(1.0, bits=8)
        w = rng.uniform((200_000,), 3.0, 4.0)
        counts, _ = boundary_histogram(w, q, bins=10)
        expect = 20_000
        assert np.abs(counts - expect).max() < 5 * np.sqrt(expect)

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            boundary_histogram(np.zeros(3), qw(1.0), bins=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            boundary_histogram(np.array([0.1, np.nan, np.inf, 0.3]), qw(0.1, bits=4), 4)

    def test_rounds_once_through_the_quantizer(self, rounding_calls):
        boundary_histogram(np.zeros((3, 2)), qw(0.1, bits=4), bins=4)
        assert rounding_calls == [(3, 2)]


class TestRunToy:
    def test_already_optimal_never_flips(self):
        p = ToyProblem(w_star=np.zeros(3), steps=300)
        trace, tracker = run_toy(p, rng=Rng(0))
        assert not tracker.flip_counts.any()
        assert np.all(trace["loss"] == 0.0)
        assert np.all(trace["s_w"] == trace["s_w"][0])

    def test_same_seed_bit_identical(self):
        p = ToyProblem(steps=400)
        t1, _ = run_toy(p, rng=Rng(9))
        t2, _ = run_toy(p, rng=Rng(9))
        for key in t1:
            np.testing.assert_array_equal(t1[key], t2[key])

    def test_divergence_aborts(self):
        p = ToyProblem(w_star=np.array([-1e7, 0.0, 0.0]), steps=50)
        with pytest.raises(RuntimeError, match="diverged"):
            run_toy(p, rng=Rng(0))

    def test_default_config_oscillates(self):
        p = ToyProblem(steps=1500)
        trace, tracker = run_toy(p, rng=Rng(0))
        freq = flip_frequency(tracker)
        assert (freq > 0.05).any()

    @pytest.mark.parametrize(
        "seed, steps", [(3, 300), (17, 300), (5, ToyProblem().steps)], ids=["3", "17", "default"]
    )
    def test_bit_identical_to_reference_loop(self, seed, steps):
        p = ToyProblem(steps=steps)
        assert_same_run(run_toy(p, rng=Rng(seed)), reference_run_toy(p, Rng(seed)))

    def test_counts_flips_without_record_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oscillation, "record_step", lambda *args: calls.append(args))
        _, tracker = run_toy(ToyProblem(steps=300), rng=Rng(3))
        assert calls == []
        assert tracker.recorded == 300 and tracker.flip_counts.any()

    def test_one_rounding_per_quantizer_per_step(self, rounding_calls):
        # Each step rounds x and w once; the shadow codes are one rounding
        # of all the shadow rows; the final evals round x and w for the live
        # and the shadow model.  So 7 roundings at 1 step, 2 more per step.
        for steps in (1, 2, 5):
            rounding_calls.clear()
            run_toy(ToyProblem(steps=steps), rng=Rng(0))
            assert len(rounding_calls) == 7 + 2 * (steps - 1)
            assert rounding_calls == (
                [(1, 16, 1), (1, 1, 3)] * steps + [(steps, 3)] + [(4096,), (3,)] * 2
            )

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            run_toy(ToyProblem(steps=10))

    def test_ema_trace_keys_and_lower_flips(self):
        p = ToyProblem(steps=1500)
        trace, tracker = run_toy(p, rng=Rng(1))
        for key in ("ema_w", "ema_s_w", "ema_s_x", "ema_codes", "final_eval_loss_ema"):
            assert key in trace
        live = (np.diff(trace["codes"], axis=0) != 0).sum()
        shadow = (np.diff(trace["ema_codes"], axis=0) != 0).sum()
        assert shadow < live

    def test_ema_scale_trace_less_variable(self):
        # Shadow scale wiggles less than the live scale over the final stretch.
        wins = 0
        for seed in range(5):
            p = ToyProblem(steps=2500)
            trace, _ = run_toy(p, rng=Rng(seed))
            raw = np.var(trace["s_w"][-500:])
            smooth = np.var(trace["ema_s_w"][-500:])
            wins += smooth <= raw
        assert wins >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyProblem(steps=0)
        with pytest.raises(ValueError):
            ToyProblem(bits_w=0)
        with pytest.raises(ValueError):
            ToyProblem(lr=-0.1)
        with pytest.raises(ValueError):
            ToyProblem(x_lo=1.0, x_hi=0.0)
        with pytest.raises(ValueError):
            ToyProblem(w_star=np.zeros((2, 2)))


class TestRunToys:
    """Seeds stepped together in one loop get the bits each gets alone."""

    @staticmethod
    def check_each_seed(p, seeds):
        results = run_toys(p, [Rng(seed) for seed in seeds])
        assert len(results) == len(seeds)
        for seed, result in zip(seeds, results):
            assert_same_run(result, run_toy(p, rng=Rng(seed)))
            assert_same_run(result, reference_run_toy(p, Rng(seed)))

    @pytest.mark.parametrize("ema_alpha", [0.999, 0.0], ids=["ema", "no_ema"])
    @pytest.mark.parametrize(
        "seeds", [[3], [3, 17], [0, 1, 2], list(range(40, 48))], ids=["1", "2", "3", "8"]
    )
    def test_each_seed_matches_its_own_run(self, seeds, ema_alpha):
        self.check_each_seed(ToyProblem(steps=300, ema_alpha=ema_alpha), seeds)

    def test_each_seed_matches_its_own_run_at_default_steps(self):
        self.check_each_seed(ToyProblem(), [5, 6, 7])

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_rounding_per_quantizer_per_step_for_all_seeds(self, rounding_calls, n):
        # The gain of stepping seeds together: a step rounds x and w once
        # each, whatever the number of seeds.  After the loop, one rounding
        # makes every seed's shadow codes, and each seed's final evals
        # round x and w for the live and the shadow model.
        for steps in (1, 2, 5):
            rounding_calls.clear()
            run_toys(ToyProblem(steps=steps), [Rng(seed) for seed in range(n)])
            assert rounding_calls == (
                [(n, 16, 1), (n, 1, 3)] * steps + [(n * steps, 3)] + [(4096,), (3,)] * 2 * n
            )

    def test_divergence_aborts_the_loop(self):
        p = ToyProblem(w_star=np.array([-1e7, 0.0, 0.0]), steps=50)
        with pytest.raises(RuntimeError, match="diverged at step 0"):
            run_toys(p, [Rng(0), Rng(1)])

    def test_requires_an_rng_per_seed(self):
        with pytest.raises(ValueError):
            run_toys(ToyProblem(steps=10), [])
        with pytest.raises(ValueError):
            run_toys(ToyProblem(steps=10), [Rng(0), None])
