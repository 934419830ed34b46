import copy
import pickle

import numpy as np
import pytest

from kernel_reference import (
    reference_activate,
    reference_adam_step,
    reference_bn_forward,
    reference_ema_update,
    reference_quantize_backward,
    reference_round_to_grid,
)
from qatlab import network, quantizer, training
from qatlab.datasets import gen_classification, gen_regression
from qatlab.ema import materialize_ema
from qatlab.network import build_mlp, forward
from qatlab.numeric import Rng
from qatlab.quantizer import SCALE_FLOOR
from qatlab.training import (
    AdamState,
    TrainConfig,
    adam_batch,
    adam_step,
    attach_quantizers,
    evaluate,
    shape_inputs,
    train_latent,
    train_qat,
)
from test_oscillation import windowed_recount


class TestAdam:
    def test_first_step_closed_form(self):
        # With zero moments the first update is lr * g / (|g| + eps).
        st = AdamState(lr=0.5)
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.array([0.3, -4.0])}
        adam_step(st, p, g)
        expect = np.array([1.0, -2.0]) - 0.5 * g["w"] / (np.abs(g["w"]) + st.eps)
        np.testing.assert_allclose(p["w"], expect, rtol=1e-12)

    def test_two_steps_hand_check(self):
        st = AdamState(lr=0.1, beta1=0.5, beta2=0.5, eps=1e-8)
        p = {"w": np.array([0.0])}
        adam_step(st, p, {"w": np.array([1.0])})
        adam_step(st, p, {"w": np.array([2.0])})
        # m2 = .5*.5 + .5*2 = 1.25; v2 = .5*.5 + .5*4 = 2.25
        # mhat = 1.25/.75, vhat = 2.25/.75 = 3
        step1 = 0.1 * 1.0 / (1.0 + 1e-8)
        step2 = 0.1 * (1.25 / 0.75) / (np.sqrt(3.0) + 1e-8)
        assert p["w"][0] == pytest.approx(-(step1 + step2), rel=1e-10)

    def test_quadratic_convergence(self):
        st = AdamState(lr=0.1)
        p = {"w": np.array([5.0, -3.0, 0.5])}
        for _ in range(500):
            adam_step(st, p, {"w": 2.0 * p["w"]})
        assert np.abs(p["w"]).max() < 1e-3

    def test_nonfinite_gradient_rejected(self):
        st = AdamState()
        with pytest.raises(RuntimeError, match="w"):
            adam_step(st, {"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])})

    def test_scale_params_clamped(self):
        st = AdamState(lr=10.0)
        p = {"layer0.w_scale": np.array(0.1)}
        adam_step(st, p, {"layer0.w_scale": np.array(5.0)})
        assert p["layer0.w_scale"] == SCALE_FLOOR

    def test_plain_params_not_clamped(self):
        st = AdamState(lr=10.0)
        p = {"w": np.array(0.1)}
        adam_step(st, p, {"w": np.array(5.0)})
        assert p["w"] < 0.0

    def test_subset_trains_only_subset(self):
        st = AdamState(lr=0.1)
        a, b = np.array([1.0]), np.array([1.0])
        adam_step(st, {"a": a}, {"a": np.array([1.0]), "b": np.array([1.0])})
        assert a[0] != 1.0 and b[0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_updates_in_place(self):
        st = AdamState(lr=0.1)
        p = np.array([1.0])
        out = adam_step(st, {"w": p}, {"w": np.array([1.0])})
        assert out["w"] is p

    def test_validation(self):
        with pytest.raises(ValueError):
            AdamState(beta1=1.0)
        with pytest.raises(ValueError):
            AdamState(lr=0.0)


# Names and shapes of a small net's parameters: 0-d and per-channel scales,
# which Adam clamps to the floor, among plain arrays.
ADAM_SHAPES = {
    "layer0.weight": (5, 3),
    "layer0.bias": (5,),
    "layer0.w_scale": (),
    "layer0.a_scale": (),
    "layer1.bn.gain": (4,),
    "layer1.w_scale": (3,),
    "layer1.qc_beta": (),
}
SUBSET = ("layer0.bias", "layer0.w_scale", "layer1.w_scale")


def _random_params(rng):
    return {
        name: np.array(
            rng.uniform(shape, 0.01, 0.2) if name.endswith("_scale") else rng.normal(shape)
        )
        for name, shape in ADAM_SHAPES.items()
    }


def _random_grads(rng):
    # Scale gradients lean positive, so lr 0.05 drives the scales onto the
    # floor, and the negative draws lift them off again.
    return {
        name: np.array(rng.normal(shape, mean=0.5 if name.endswith("_scale") else 0.0))
        for name, shape in ADAM_SHAPES.items()
    }


def _assert_same_adam(flat, ref, flat_params, ref_params):
    assert flat.step == ref.step
    for got, want in ((flat_params, ref_params), (flat.m, ref.m), (flat.v, ref.v)):
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestFlatAdamOracle:
    """adam_step on flat buffers equals the name-by-name reference."""

    @pytest.mark.parametrize("seed, lr", [(0, 1e-3), (1, 0.05), (2, 0.3)])
    def test_thousand_steps_bit_identical(self, seed, lr):
        rng = Rng(seed)
        start = _random_params(rng)
        flat_params = {k: v.copy() for k, v in start.items()}
        ref_params = {k: v.copy() for k, v in start.items()}
        flat, ref = AdamState(lr=lr), AdamState(lr=lr)
        floored = 0
        for _ in range(1000):
            grads = _random_grads(rng)
            adam_step(flat, flat_params, grads)
            reference_adam_step(ref, ref_params, grads)
            _assert_same_adam(flat, ref, flat_params, ref_params)
            floored += int((flat_params["layer1.w_scale"] == SCALE_FLOOR).sum())
        assert lr < 0.05 or floored > 0

    def _trained(self, steps=10):
        rng = Rng(9)
        params, st = _random_params(rng), AdamState(lr=0.01)
        for _ in range(steps):
            adam_step(st, params, _random_grads(rng))
        return rng, params, st

    def _rejects(self, misuse, error=ValueError, match=None):
        """``misuse`` of a running state raises and leaves it as it was."""
        rng, params, st = self._trained()
        before = [{k: v.copy() for k, v in d.items()} for d in (params, st.m, st.v)]
        with pytest.raises(error, match=match):
            misuse(st, params, _random_grads(rng))
        assert st.step == 10
        for got, want in zip((params, st.m, st.v), before):
            assert list(got) == list(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), name
        adam_step(st, params, _random_grads(rng))
        assert st.step == 11

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: {**p, "layer2.bias": np.zeros(3)},  # a new name
            lambda p: {k: v for k, v in p.items() if k != "layer0.bias"},  # one left out
            lambda p: {k.replace("layer0.bias", "layer0.b"): v for k, v in p.items()},
            lambda p: {**p, "layer0.weight": np.zeros((3, 5))},  # same size, new shape
        ],
        ids=["new", "left_out", "renamed", "reshaped"],
    )
    def test_another_name_set_or_shape_rejected(self, change):
        def step(st, params, grads):
            changed = change(params)
            adam_step(st, changed, {**grads, **{k: np.zeros_like(v) for k, v in changed.items()}})

        self._rejects(step, match="Adam moments do not match the parameter names and shapes")

    @pytest.mark.parametrize("moments", ["m", "v"])
    def test_rebinding_a_moment_raises(self, moments):
        def rebind(st, params, grads):
            getattr(st, moments)["layer0.bias"] = np.zeros(5)

        self._rejects(rebind, TypeError)

    @pytest.mark.parametrize("clone", [copy.deepcopy, pickle.dumps])
    def test_laid_out_state_cannot_be_copied(self, clone):
        self._rejects(lambda st, params, grads: clone(st), TypeError)

    def test_laid_out_state_cannot_be_shallow_copied(self):
        self._rejects(lambda st, params, grads: copy.copy(st), TypeError, match="cannot be copied")

    @pytest.mark.parametrize("moments", ["m", "v"])
    def test_rebound_moments_rejected(self, moments):
        """Rebinding ``m`` or ``v`` after the first step makes the next step
        raise and change nothing; binding the laid-out mapping back lets
        training go on."""
        rng, params, st = self._trained()
        laid_out = getattr(st, moments)
        before = [{k: v.copy() for k, v in d.items()} for d in (params, st.m, st.v)]
        setattr(st, moments, {k: np.zeros_like(v) for k, v in laid_out.items()})
        with pytest.raises(ValueError, match="moments were rebound"):
            adam_step(st, params, _random_grads(rng))
        setattr(st, moments, laid_out)
        assert st.step == 10
        for got, want in zip((params, st.m, st.v), before):
            for name in want:
                assert np.array_equal(got[name], want[name]), name
        adam_step(st, params, _random_grads(rng))
        assert st.step == 11

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda st: pickle.loads(pickle.dumps(st))])
    def test_fresh_state_copies(self, clone):
        rng = Rng(5)
        params = _random_params(rng)
        twin_params = {k: v.copy() for k, v in params.items()}
        st = AdamState(lr=0.01)
        twin = clone(st)
        for _ in range(3):
            grads = _random_grads(rng)
            adam_step(st, params, grads)
            adam_step(twin, twin_params, grads)
        _assert_same_adam(twin, st, twin_params, params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["layer0.weight", "layer0.a_scale", "layer1.qc_beta"])
    def test_non_finite_gradient_named_mid_run(self, bad, name):
        rng, params, st = self._trained()
        before = {k: v.copy() for k, v in params.items()}
        grads = _random_grads(rng)
        grads[name].reshape(-1)[-1] = bad
        with pytest.raises(RuntimeError, match=f"non-finite gradient for {name}$"):
            adam_step(st, params, grads)
        assert st.step == 10
        for k, v in params.items():
            assert np.array_equal(v, before[k])

    def test_overflowing_gradient_sum_is_finite(self):
        params = {"w": np.zeros(2), "b": np.zeros(1)}
        flat, ref = AdamState(lr=0.1), AdamState(lr=0.1)
        ref_params = {k: v.copy() for k, v in params.items()}
        grads = {"w": np.array([1e308, 1e308]), "b": np.array([1e308])}
        with np.errstate(over="ignore"):  # g * g overflows in v
            adam_step(flat, params, grads)
            reference_adam_step(ref, ref_params, grads)
        _assert_same_adam(flat, ref, params, ref_params)

    def test_first_error_in_name_order(self):
        # A shape error on an earlier name wins over a later non-finite one.
        rng, params, st = self._trained()
        grads = _random_grads(rng)
        grads["layer0.bias"] = np.zeros(6)
        grads["layer1.qc_beta"] = np.array(np.nan)
        with pytest.raises(ValueError, match="layer0.bias"):
            adam_step(st, params, grads)

    @pytest.mark.parametrize("shape", [(3, 5), (16,)])
    def test_gradient_shape_mismatch_mid_run(self, shape):
        # (3, 5) has the size of the (5, 3) weight, so only the shape differs.
        rng, params, st = self._trained()
        grads = _random_grads(rng)
        grads["layer0.weight"] = rng.normal(shape)
        with pytest.raises(ValueError, match="layer0.weight"):
            adam_step(st, params, grads)


class TestShapeInputs:
    def test_flat_to_image(self):
        x = np.arange(32.0).reshape(2, 16)
        assert shape_inputs(x, (1, 4, 4)).shape == (2, 1, 4, 4)

    def test_flat_stays_flat(self):
        x = np.zeros((3, 5))
        assert shape_inputs(x, (5,)).shape == (3, 5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            shape_inputs(np.zeros((2, 15)), (1, 4, 4))


class TestAttachQuantizers:
    def _net(self, seed=0):
        return build_mlp(4, 3, hidden=(6, 5), rng=Rng(seed), loss="softmax_ce")

    def test_bit_widths(self):
        net = self._net()
        x = Rng(1).normal((32, 4))
        q = attach_quantizers(net, x, bits_w=3, bits_a=3, first_last_bits=8)
        bits = [l.w_quant.bits for l in q.layers]
        assert bits == [8, 3, 8]
        assert [l.a_quant.bits for l in q.layers] == [8, 3, 8]

    def test_signedness_follows_data(self):
        net = build_mlp(
            4, 2, hidden=(6,), rng=Rng(0), loss="mse", nonlinearity="relu"
        )
        x = Rng(1).normal((32, 4))  # raw input has negatives
        q = attach_quantizers(net, x)
        assert q.layers[0].a_quant.signed is True
        assert q.layers[1].a_quant.signed is False  # after relu

    def test_silu_keeps_signed(self):
        net = self._net()
        q = attach_quantizers(net, Rng(1).normal((32, 4)))
        assert q.layers[1].a_quant.signed is True

    def test_per_channel_weights(self):
        net = self._net()
        q = attach_quantizers(net, Rng(1).normal((32, 4)), granularity="per_channel")
        assert q.layers[1].w_quant.s.shape == (5,)

    def test_original_untouched(self):
        net = self._net()
        attach_quantizers(net, Rng(1).normal((32, 4)))
        assert all(l.w_quant is None for l in net.layers)

    def test_scales_positive_and_deterministic(self):
        net = self._net()
        x = Rng(1).normal((32, 4))
        a = attach_quantizers(net, x)
        b = attach_quantizers(net, x)
        for la, lb in zip(a.layers, b.layers):
            assert float(np.min(la.w_quant.s)) > 0
            np.testing.assert_array_equal(la.w_quant.s, lb.w_quant.s)
            np.testing.assert_array_equal(la.a_quant.s, lb.a_quant.s)


class TestEvaluate:
    def test_identity_regression_loss(self):
        from qatlab.network import DENSE, LayerSpec, NetworkSpec

        net = NetworkSpec(
            layers=[LayerSpec(kind=DENSE, weight=np.eye(3), bias=np.zeros(3))],
            input_shape=(3,),
            loss="mse",
        )
        x = Rng(0).normal((10, 3))
        r = evaluate(net, x, np.zeros((10, 3)), mode="latent", batch=4)
        assert r["loss"] == pytest.approx(np.mean(x**2))

    def test_partial_batches_match_full(self):
        net = build_mlp(4, 3, hidden=(5,), rng=Rng(2), loss="softmax_ce")
        x = Rng(3).normal((10, 4))
        y = Rng(4).integers(0, 3, (10,))
        a = evaluate(net, x, y, mode="latent", batch=3)
        b = evaluate(net, x, y, mode="latent", batch=10)
        assert a["loss"] == pytest.approx(b["loss"])
        assert a["accuracy"] == b["accuracy"]

    def test_does_not_mutate_bn_mode(self):
        net = build_mlp(4, 2, hidden=(5,), rng=Rng(0), loss="mse")
        evaluate(net, np.zeros((4, 4)), np.zeros((4, 2)), mode="latent")
        assert net.layers[0].bn.mode == "train"


class TestAdamBatch:
    def _net(self):
        d = gen_classification(seed=0, n=200, classes=3, dim=2)
        net = build_mlp(2, 3, hidden=(5,), rng=Rng(0), loss="softmax_ce")
        return net, d.train_x[:16], d.train_y[:16]

    def test_steps_only_the_given_params(self):
        net, x, y = self._net()
        before = {k: v.copy() for k, v in net.parameters().items()}
        expect, _ = network.loss_and_grad(net.loss, forward(net.copy(), x, mode="latent"), y)
        params = {"layer0.bias": net.parameters()["layer0.bias"]}
        loss = adam_batch(net, AdamState(lr=0.1), params, x, y, "latent", "test")
        assert loss == expect
        for name, p in net.parameters().items():
            changed = not np.array_equal(p, before[name])
            assert changed == (name == "layer0.bias"), name

    def test_dampening_adds_the_penalty(self):
        net, x, y = self._net()
        qnet = attach_quantizers(net, x, bits_w=3, bits_a=3)
        plain, damped = qnet.copy(), qnet.copy()
        penalty, _ = network.dampening_penalty(qnet, 0.5)
        loss = adam_batch(plain, AdamState(), plain.parameters(), x, y, "quantized", "test")
        loss_d = adam_batch(damped, AdamState(), damped.parameters(), x, y, "quantized", "test",
                            dampening=0.5)
        assert penalty > 0.0 and loss_d == loss + penalty
        with pytest.raises(RuntimeError, match=r"^test diverged \(loss="):
            adam_batch(qnet, AdamState(), qnet.parameters(), x, y, "quantized", "test",
                       dampening=1e12)


class TestTrainLatent:
    def test_blobs_reach_high_accuracy(self):
        d = gen_classification(seed=0, n=1000, classes=3, dim=2)
        net = build_mlp(2, 3, hidden=(16, 16), rng=Rng(0), loss="softmax_ce")
        train_latent(net, d, epochs=30, batch=32, lr=1e-2, seed=0)
        acc = evaluate(net, d.eval_x, d.eval_y, mode="latent")["accuracy"]
        assert acc >= 0.99

    def test_regression_loss_drops(self):
        d = gen_regression(seed=1, n=400, dim=4, teacher=(8,), noise=0.01)
        net = build_mlp(4, 4, hidden=(12,), rng=Rng(1), loss="mse")
        before = evaluate(net, d.eval_x, d.eval_y, mode="latent")["loss"]
        train_latent(net, d, epochs=20, batch=32, lr=1e-2, seed=0)
        after = evaluate(net, d.eval_x, d.eval_y, mode="latent")["loss"]
        assert after < before * 0.5

    def test_divergence_guard(self, monkeypatch):
        d = gen_classification(seed=0, n=200, classes=3, dim=2)
        net = build_mlp(2, 3, hidden=(5,), rng=Rng(0), loss="softmax_ce")
        before = {k: v.copy() for k, v in net.parameters().items()}
        monkeypatch.setattr(training, "DIVERGENCE_LIMIT", 1e-9)
        with pytest.raises(RuntimeError, match=r"pretraining diverged \(loss="):
            train_latent(net, d, epochs=1)
        for name, p in net.parameters().items():  # stopped before the first Adam step
            np.testing.assert_array_equal(p, before[name], err_msg=name)


class TestTrainQat:
    def _setup(self, seed=0, bits=4):
        d = gen_classification(seed=seed, n=600, classes=3, dim=4)
        net = build_mlp(4, 3, hidden=(12,), rng=Rng(seed), loss="softmax_ce")
        train_latent(net, d, epochs=10, batch=32, lr=1e-2, seed=seed)
        qnet = attach_quantizers(net, d.calib_x, bits_w=bits, bits_a=bits)
        return d, qnet

    def test_zero_epochs_is_identity(self):
        d, qnet = self._setup()
        before = {k: v.copy() for k, v in qnet.parameters().items()}
        _, _, tracker, history = train_qat(qnet, d, TrainConfig(epochs=0, seed=0))
        assert history == []
        assert tracker.recorded == 0
        for k, v in qnet.parameters().items():
            np.testing.assert_array_equal(v, before[k])

    def test_history_and_tracker_shapes(self):
        d, qnet = self._setup()
        cfg = TrainConfig(epochs=3, batch=32, lr=1e-3, seed=0)
        _, ema, tracker, history = train_qat(qnet, d, cfg)
        iters = 3 * (len(d.train_idx) // 32)
        assert len(history) == 3
        assert tracker.recorded == iters
        assert ema.iter == iters
        assert {"epoch", "train_loss", "eval_loss", "eval_accuracy"} <= set(history[0])
        assert "ema_eval_loss" in history[-1]

    @pytest.mark.parametrize("window", [2, 7])
    def test_tracker_counts_over_the_last_window_steps(self, monkeypatch, window):
        # The codes of every step of one run, then the same run with a
        # window shorter than it: only the window's steps take codes.
        d, qnet = self._setup(bits=3)
        cfg = TrainConfig(epochs=2, batch=32, lr=1e-2, seed=0)
        stream, taken = [], []
        record, weight_codes = training.record_step, training._weight_codes

        def recording(t, codes):
            stream.append(codes.copy())
            return record(t, codes)

        def counted(net, qlayers):
            taken.append(1)
            return weight_codes(net, qlayers)

        monkeypatch.setattr(training, "record_step", recording)
        monkeypatch.setattr(training, "FLIP_WINDOW", 10**6)
        train_qat(qnet.copy(), d, cfg)
        total = 2 * (len(d.train_idx) // 32)
        assert len(stream) == total > window
        assert windowed_recount(stream, 7).any()  # the window sees flips

        monkeypatch.setattr(training, "record_step", record)
        monkeypatch.setattr(training, "_weight_codes", counted)
        monkeypatch.setattr(training, "FLIP_WINDOW", window)
        _, _, tracker, _ = train_qat(qnet.copy(), d, cfg)
        assert len(taken) == tracker.recorded == min(total, window)
        np.testing.assert_array_equal(tracker.flip_counts, windowed_recount(stream, window))
        np.testing.assert_array_equal(tracker._last, stream[-1])

    def test_accuracy_holds_up(self):
        d, qnet = self._setup()
        cfg = TrainConfig(epochs=8, batch=32, lr=1e-3, seed=0)
        _, _, _, history = train_qat(qnet, d, cfg)
        assert history[-1]["eval_accuracy"] >= 0.95

    def test_deterministic(self):
        d, a = self._setup()
        _, b = self._setup()
        cfg = TrainConfig(epochs=2, batch=32, seed=5)
        _, _, _, ha = train_qat(a, d, cfg)
        _, _, _, hb = train_qat(b, d, cfg)
        assert ha == hb
        for ka, kb in zip(a.parameters().values(), b.parameters().values()):
            np.testing.assert_array_equal(ka, kb)

    def test_ema_materialized_net_differs_from_live(self):
        d, qnet = self._setup()
        _, ema, _, _ = train_qat(qnet, d, TrainConfig(epochs=3, ema_alpha=0.99, seed=0))
        shadow = materialize_ema(qnet, ema)
        assert not np.array_equal(
            shadow.layers[0].weight, qnet.layers[0].weight
        )

    def test_ema_disabled(self):
        d, qnet = self._setup()
        _, ema, _, history = train_qat(qnet, d, TrainConfig(epochs=1, ema_enabled=False))
        assert ema is None
        assert "ema_eval_loss" not in history[0]

    def test_decay_sweep_matches_separate_runs(self):
        # One live run with a shadow set per decay == one run per decay.
        d, qnet = self._setup()
        alphas = [0.9, 0.99, 0.999]
        cfg = TrainConfig(epochs=2, seed=0)
        live, emas, tracker, histories = train_qat(qnet.copy(), d, cfg, ema_alphas=alphas)
        for alpha in alphas:
            ref = qnet.copy()
            _, ema, ref_tracker, history = train_qat(
                ref, d, TrainConfig(epochs=2, seed=0, ema_alpha=alpha)
            )
            assert histories[alpha] == history
            assert emas[alpha].iter == ema.iter
            for name, shadow in ema.shadows.items():
                np.testing.assert_array_equal(emas[alpha].shadows[name], shadow)
            np.testing.assert_array_equal(tracker.flip_counts, ref_tracker.flip_counts)
            for a, b in zip(live.parameters().values(), ref.parameters().values()):
                np.testing.assert_array_equal(a, b)

    def test_too_few_rows_for_a_batch(self):
        d, qnet = self._setup()
        batch = len(d.train_x) + 1
        with pytest.raises(ValueError, match=f"cannot fill one batch of {batch}"):
            train_qat(qnet, d, TrainConfig(epochs=1, batch=batch))
        with pytest.raises(ValueError, match=f"cannot fill one batch of {batch}"):
            train_latent(qnet, d, epochs=1, batch=batch)
        train_qat(qnet, d, TrainConfig(epochs=0, batch=batch))  # no epoch, no step wanted

    def test_divergence_guard(self, monkeypatch):
        d, qnet = self._setup()
        monkeypatch.setattr(training, "DIVERGENCE_LIMIT", 1e-9)
        with pytest.raises(RuntimeError, match="diverged"):
            train_qat(qnet, d, TrainConfig(epochs=1))

    def test_dampening_pulls_weights_toward_grid(self):
        # The penalty minimizes |w - q(w)|, so the trained latent weights
        # should sit closer to their grid points than without it.
        from qatlab.quantizer import quantize

        def grid_dist(net):
            per_layer = []
            for layer in net.layers:
                q = quantize(layer.weight, layer.w_quant)
                s = layer.w_quant.broadcast_scale(layer.weight)
                per_layer.append((np.abs(layer.weight - q) / s).ravel())
            return float(np.concatenate(per_layer).mean())

        dists = {}
        for lam in (0.0, 5.0):
            total = 0.0
            for seed in (3, 4):
                d, qnet = self._setup(seed=seed, bits=2)
                train_qat(qnet, d, TrainConfig(epochs=15, seed=seed, dampening_lambda=lam))
                total += grid_dist(qnet)
            dists[lam] = total
        assert dists[5.0] < dists[0.0]

    def test_scales_stay_positive(self):
        d, qnet = self._setup()
        train_qat(qnet, d, TrainConfig(epochs=2, lr=0.05, seed=1))
        for layer in qnet.layers:
            assert float(np.min(layer.w_quant.s)) >= SCALE_FLOOR
            assert float(np.min(layer.a_quant.s)) >= SCALE_FLOOR

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch=0)
        with pytest.raises(ValueError):
            TrainConfig(dampening_lambda=-0.1)


class TestLeanKernelsKeepBits:
    @pytest.mark.parametrize("granularity", ["per_tensor", "per_channel"])
    def test_train_qat_equals_reference_kernels(self, monkeypatch, granularity):
        # Two epochs of quantized MLP training with two shadow sets, once as
        # shipped and once through the name-by-name references.
        d = gen_classification(seed=7, n=400, classes=3, dim=6)
        net = build_mlp(6, 3, hidden=(10, 8), rng=Rng(7), loss="softmax_ce")
        qnet = attach_quantizers(net, d.calib_x, bits_w=3, bits_a=3, granularity=granularity)
        cfg = TrainConfig(epochs=2, batch=16, lr=0.01, seed=7, ema_warmup_frac=0.1)
        alphas = [0.9, 0.99]
        shipped = train_qat(qnet.copy(), d, cfg, ema_alphas=alphas)
        monkeypatch.setattr(training, "adam_step", reference_adam_step)
        monkeypatch.setattr(training, "ema_update", reference_ema_update)
        monkeypatch.setattr(quantizer, "round_to_grid", reference_round_to_grid)
        monkeypatch.setattr(network, "round_to_grid", reference_round_to_grid)
        monkeypatch.setattr(network, "quantize_backward", reference_quantize_backward)
        monkeypatch.setattr(network, "_bn_forward", reference_bn_forward)
        monkeypatch.setattr(network, "_activate", reference_activate)
        reference = train_qat(qnet.copy(), d, cfg, ema_alphas=alphas)

        (net_a, emas_a, tracker_a, hist_a), (net_b, emas_b, tracker_b, hist_b) = shipped, reference
        state_a, state_b = net_a.state_arrays(), net_b.state_arrays()
        assert list(state_a) == list(state_b)
        for name in state_b:  # weights, scales, BN parameters and statistics
            assert np.array_equal(state_a[name], state_b[name]), name
        for alpha in alphas:
            assert emas_a[alpha].iter == emas_b[alpha].iter
            assert sorted(emas_a[alpha].shadows) == sorted(emas_b[alpha].shadows)
            for name, shadow in emas_b[alpha].shadows.items():
                assert np.array_equal(emas_a[alpha].shadows[name], shadow), name
        assert np.array_equal(tracker_a.flip_counts, tracker_b.flip_counts)
        assert tracker_a.flip_counts.any()
        assert hist_a == hist_b
