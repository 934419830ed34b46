import numpy as np
import pytest

from qatlab import training
from qatlab.datasets import gen_classification, gen_regression
from qatlab.network import (
    CONV2D,
    DENSE,
    LayerSpec,
    NetworkSpec,
    apply_correction,
    build_mlp,
    forward,
    make_bn,
)
from qatlab.numeric import Rng
from qatlab.qc import (
    QCConfig,
    absorb_corrections,
    absorb_into_bn,
    fit_qc,
    fold_bn_into_quant_scale,
    fold_network,
    qc_ablation,
)
from qatlab.quantizer import PER_CHANNEL, PER_TENSOR, init_scale, quantize
from qatlab.training import attach_quantizers, evaluate, train_latent


def snapshot(net):
    arrs = dict(net.state_arrays())
    return {k: v.copy() for k, v in arrs.items()}


def assert_same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestCorrectionParams:
    """A correction is the two arrays on LayerSpec, checked there and
    applied by network.apply_correction."""

    def test_identity(self):
        h = Rng(0).normal((3, 4))
        np.testing.assert_array_equal(apply_correction(h, np.ones(4), np.zeros(4)), h)

    def test_per_tensor_identity_is_scalar(self):
        # One factor shared by all four channels; the identity moves no output.
        rng = Rng(1)
        w, b = rng.normal((4, 3)), rng.normal((4,))
        corrected = LayerSpec(kind=DENSE, weight=w, bias=b, qc_gamma=[1.0], qc_beta=[0.0])
        assert corrected.qc_gamma.shape == (1,)
        plain = LayerSpec(kind=DENSE, weight=w, bias=b)
        x = rng.normal((5, 3))
        out = [forward(NetworkSpec([l], (3,), "mse"), x, "latent") for l in (plain, corrected)]
        np.testing.assert_array_equal(out[1], out[0])

    def test_apply_per_channel(self):
        h = np.array([[1.0, 3.0], [0.0, -2.0]])
        np.testing.assert_allclose(
            apply_correction(h, np.array([2.0, -1.0]), np.array([0.5, 0.0])),
            [[2.5, -3.0], [0.5, 2.0]],
        )

    def test_apply_conv_layout(self):
        h = np.ones((1, 2, 2, 2))
        out = apply_correction(h, np.array([2.0, 3.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out[0, 0], np.full((2, 2), 2.0))
        np.testing.assert_array_equal(out[0, 1], np.full((2, 2), 4.0))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            apply_correction(np.ones((2, 3)), np.ones(2), np.zeros(2))

    def test_shape_validation(self):
        def layer(gamma, beta):
            return LayerSpec(kind=DENSE, weight=np.ones((3, 2)), bias=np.zeros(3),
                             qc_gamma=gamma, qc_beta=beta)

        with pytest.raises(ValueError, match="shapes must match"):
            layer([1.0, 2.0, 3.0], [0.0])
        with pytest.raises(ValueError, match="per-tensor or per-channel"):
            layer([1.0, 2.0], [0.0, 0.0])
        for gamma, beta in (([1.0, 1.0, 1.0], None), (None, [0.0])):
            with pytest.raises(ValueError, match="set together"):
                layer(gamma, beta)

    @pytest.mark.parametrize("kind, weight", [(DENSE, (3, 2)), (CONV2D, (3, 2, 1, 1))])
    def test_forward_applies_it_after_the_linear_op(self, kind, weight):
        rng = Rng(2)
        layer = LayerSpec(kind=kind, weight=rng.normal(weight), bias=rng.normal((3,)))
        shape = (2,) if kind == DENSE else (2, 2, 2)
        x = rng.normal((4, *shape))
        h = forward(NetworkSpec([layer], shape, "mse"), x, "latent")
        layer.qc_gamma, layer.qc_beta = rng.normal((3,)), rng.normal((3,))
        out = forward(NetworkSpec([layer], shape, "mse"), x, "latent")
        np.testing.assert_array_equal(out, apply_correction(h, layer.qc_gamma, layer.qc_beta))


def quantized_blob_net(seed=0, bits=3):
    d = gen_classification(seed=seed, n=800, classes=3, dim=4)
    net = build_mlp(4, 3, hidden=(12,), rng=Rng(seed), loss="softmax_ce")
    train_latent(net, d, epochs=12, batch=32, lr=1e-2, seed=seed)
    return d, attach_quantizers(net, d.calib_x, bits_w=bits, bits_a=bits)


class TestFitQC:
    def test_empty_calibration_rejected(self):
        d, qnet = quantized_blob_net()
        with pytest.raises(ValueError, match="empty"):
            fit_qc(qnet, d.calib_x[:0], d.calib_y[:0], QCConfig())

    def test_unquantized_net_rejected(self):
        d = gen_regression(seed=0, n=100, dim=3)
        net = build_mlp(3, 3, hidden=(5,), rng=Rng(0), loss="mse")
        with pytest.raises(ValueError, match="quantized"):
            fit_qc(net, d.calib_x, d.calib_y, QCConfig())

    def test_never_mutates_source_net(self):
        d, qnet = quantized_blob_net()
        before = snapshot(qnet)
        modes = [l.bn.mode for l in qnet.layers if l.bn is not None]
        fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01))
        assert_same(before, snapshot(qnet))
        assert [l.bn.mode for l in qnet.layers if l.bn is not None] == modes
        assert all(l.qc_gamma is None for l in qnet.layers)

    def test_divergence_guard(self, monkeypatch):
        d, qnet = quantized_blob_net()
        monkeypatch.setattr(training, "DIVERGENCE_LIMIT", 1e-9)
        with pytest.raises(RuntimeError, match=r"correction fitting diverged \(loss="):
            fit_qc(qnet, d.calib_x, d.calib_y, QCConfig())

    def test_reduces_calibration_loss(self):
        d, qnet = quantized_blob_net(seed=1)
        before = evaluate(qnet, d.calib_x, d.calib_y)["loss"]
        corrected, _ = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01))
        after = evaluate(corrected, d.calib_x, d.calib_y)["loss"]
        assert after < before

    def test_recovers_planted_affine_error(self):
        # Single quantized layer whose targets are an exact affine map of
        # its own quantized output: a perfect correction exists, and one
        # epoch over a generous calibration set should get close.
        rng = Rng(2)
        w = rng.normal((2, 3))
        layer = LayerSpec(
            kind=DENSE, weight=w, bias=np.zeros(2), w_quant=init_scale(w, bits=4)
        )
        net = NetworkSpec(layers=[layer], input_shape=(3,), loss="mse")
        x = rng.normal((2000, 3))
        h = forward(net, x, "quantized")
        y = 1.5 * h + np.array([0.25, -0.4])
        corrected, params = fit_qc(net, x, y, QCConfig(lr=0.05, batch=8))
        out = forward(corrected, x, "quantized")
        assert np.mean((out - y) ** 2) < 1e-3
        gamma, beta = params[0]
        np.testing.assert_allclose(gamma, [1.5, 1.5], atol=0.05)
        np.testing.assert_allclose(beta, [0.25, -0.4], atol=0.05)

    def test_scale_only(self):
        d, qnet = quantized_blob_net()
        corrected, params = fit_qc(
            qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01, use_shift=False)
        )
        for gamma, beta in params.values():
            assert not beta.any()
            assert (gamma != 1.0).any()

    def test_shift_only(self):
        d, qnet = quantized_blob_net()
        _, params = fit_qc(
            qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01, use_scale=False)
        )
        for gamma, beta in params.values():
            assert (gamma == 1.0).all()
            assert beta.any()

    def test_neither_toggle_is_identity(self):
        d, qnet = quantized_blob_net()
        corrected, params = fit_qc(
            qnet, d.calib_x, d.calib_y, QCConfig(use_scale=False, use_shift=False)
        )
        for gamma, beta in params.values():
            assert (gamma == 1.0).all() and not beta.any()
        a = forward(corrected, d.calib_x[:16], "quantized")
        b = forward(qnet.frozen(), d.calib_x[:16], "quantized")
        np.testing.assert_array_equal(a, b)

    def test_per_tensor_granularity(self):
        d, qnet = quantized_blob_net()
        _, params = fit_qc(
            qnet, d.calib_x, d.calib_y, QCConfig(granularity=PER_TENSOR)
        )
        for gamma, beta in params.values():
            assert gamma.shape == beta.shape == (1,)

    def test_deterministic(self):
        d, qnet = quantized_blob_net()
        _, pa = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01), seed=7)
        _, pb = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01), seed=7)
        for i in pa:
            np.testing.assert_array_equal(pa[i], pb[i])

    def test_every_quantized_layer_corrected(self):
        d, qnet = quantized_blob_net()
        _, params = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig())
        assert sorted(params) == list(range(len(qnet.layers)))


class TestAbsorb:
    def _bn(self, channels, rng, eps=1e-5):
        bn = make_bn(channels, eps=eps)
        bn.mode = "eval"
        bn.gain = rng.normal((channels,)) + 1.5
        bn.bias = rng.normal((channels,))
        bn.running_mean = rng.normal((channels,))
        bn.running_var = rng.uniform((channels,), 0.1, 2.0)
        return bn

    def test_exact_algebra_per_channel(self):
        rng = Rng(3)
        bn = self._bn(5, rng)
        gamma, beta = rng.normal((5,)) + 1.0, rng.normal((5,))
        h = rng.normal((200, 5))
        std = np.sqrt(bn.running_var + bn.eps)
        direct = bn.gain * (apply_correction(h, gamma, beta) - bn.running_mean) / std + bn.bias
        merged = absorb_into_bn(gamma, beta, bn)
        absorbed = merged.gain * (h - merged.running_mean) / np.sqrt(
            merged.running_var + merged.eps
        ) + merged.bias
        np.testing.assert_allclose(absorbed, direct, atol=1e-10)

    def test_exact_algebra_per_tensor(self):
        rng = Rng(4)
        bn = self._bn(3, rng)
        gamma, beta = np.array([1.7]), np.array([-0.3])
        h = rng.normal((50, 3))
        std = np.sqrt(bn.running_var + bn.eps)
        direct = bn.gain * (apply_correction(h, gamma, beta) - bn.running_mean) / std + bn.bias
        merged = absorb_into_bn(gamma, beta, bn)
        absorbed = merged.gain * (h - merged.running_mean) / std + merged.bias
        np.testing.assert_allclose(absorbed, direct, atol=1e-10)

    def test_train_mode_rejected(self):
        bn = make_bn(2)
        with pytest.raises(RuntimeError, match="eval"):
            absorb_into_bn(np.ones(2), np.zeros(2), bn)

    def test_width_mismatch(self):
        bn = make_bn(3)
        bn.mode = "eval"
        with pytest.raises(ValueError, match="width|channels"):
            absorb_into_bn(np.ones(2), np.zeros(2), bn)

    def test_absorb_corrections_network(self):
        d, qnet = quantized_blob_net(seed=5)
        corrected, _ = fit_qc(qnet, d.calib_x, d.calib_y, QCConfig(lr=0.01))
        x = d.eval_x[:32]
        before = forward(corrected, x, "quantized")
        merged = absorb_corrections(corrected)
        after = forward(merged, x, "quantized")
        np.testing.assert_allclose(after, before, atol=1e-10)
        # BN layers lost their corrections; the BN-less head kept its own.
        for layer in merged.layers:
            if layer.bn is not None:
                assert layer.qc_gamma is None
        assert merged.layers[-1].qc_gamma is not None


def folded_ready_layer(rng, negative_gain=False):
    w = rng.normal((4, 3))
    layer = LayerSpec(
        kind=DENSE,
        weight=w,
        bias=rng.normal((4,)),
        w_quant=init_scale(w, bits=4),
        bn=make_bn(4),
    )
    layer.bn.mode = "eval"
    gains = rng.uniform((4,), 0.5, 2.0)
    if negative_gain:
        gains[::2] *= -1.0
    layer.bn.gain = gains
    layer.bn.bias = rng.normal((4,))
    layer.bn.running_mean = rng.normal((4,))
    layer.bn.running_var = rng.uniform((4,), 0.2, 1.5)
    return layer


class TestFold:
    def _check_equal(self, layer, rng, atol=1e-6):
        net_pre = NetworkSpec(layers=[layer], input_shape=(3,), loss="mse")
        folded = fold_bn_into_quant_scale(layer)
        net_post = NetworkSpec(layers=[folded], input_shape=(3,), loss="mse")
        x = rng.normal((64, 3))
        np.testing.assert_allclose(
            forward(net_post, x, "quantized"), forward(net_pre, x, "quantized"), atol=atol
        )
        return folded

    def test_quantized_outputs_preserved(self):
        rng = Rng(6)
        folded = self._check_equal(folded_ready_layer(rng), rng)
        assert folded.bn is None
        assert folded.w_quant.granularity == PER_CHANNEL
        assert folded.w_quant.s.shape == (4,)

    def test_negative_gain_flips_sign(self):
        rng = Rng(7)
        layer = folded_ready_layer(rng, negative_gain=True)
        folded = self._check_equal(layer, rng)
        assert (np.sign(folded.weight[0]) == -np.sign(layer.weight[0])).all()
        assert (folded.w_quant.s > 0).all()

    def test_identity_bn_leaves_layer_alone(self):
        rng = Rng(8)
        w = rng.normal((3, 3))
        layer = LayerSpec(
            kind=DENSE,
            weight=w,
            bias=rng.normal((3,)),
            w_quant=init_scale(w, bits=4),
            bn=make_bn(3, eps=0.0),
        )
        layer.bn.mode = "eval"
        folded = fold_bn_into_quant_scale(layer)
        np.testing.assert_array_equal(folded.weight, layer.weight)
        np.testing.assert_array_equal(folded.bias, layer.bias)
        np.testing.assert_allclose(folded.w_quant.s, float(layer.w_quant.s))

    def test_train_mode_is_state_error(self):
        layer = folded_ready_layer(Rng(9))
        layer.bn.mode = "train"
        with pytest.raises(RuntimeError, match="eval"):
            fold_bn_into_quant_scale(layer)

    def test_missing_bn_rejected(self):
        rng = Rng(10)
        w = rng.normal((2, 2))
        layer = LayerSpec(
            kind=DENSE, weight=w, bias=np.zeros(2), w_quant=init_scale(w, bits=4)
        )
        with pytest.raises(ValueError, match="batch norm"):
            fold_bn_into_quant_scale(layer)

    def test_per_channel_quantizer_folds(self):
        for negative_gain in (False, True):
            rng = Rng(11)
            layer = folded_ready_layer(rng, negative_gain=negative_gain)
            layer.w_quant = init_scale(layer.weight, bits=4, granularity=PER_CHANNEL, axis=0)
            folded = self._check_equal(layer, rng)
            t = layer.bn.gain / np.sqrt(layer.bn.running_var + layer.bn.eps)
            np.testing.assert_array_equal(folded.w_quant.s, layer.w_quant.s * np.abs(t))
            assert folded.w_quant.granularity == PER_CHANNEL and folded.w_quant.axis == 0

    def test_pending_correction_rejected(self):
        layer = folded_ready_layer(Rng(12))
        layer.qc_gamma = np.ones(4)
        layer.qc_beta = np.zeros(4)
        with pytest.raises(ValueError, match="absorb"):
            fold_bn_into_quant_scale(layer)

    def test_fold_network_end_to_end(self):
        d, qnet = quantized_blob_net(seed=6)
        qnet = qnet.frozen()
        x = d.eval_x[:48]
        before = forward(qnet, x, "quantized")
        folded = fold_network(qnet)
        after = forward(folded, x, "quantized")
        np.testing.assert_allclose(after, before, atol=1e-6)
        assert all(l.bn is None for l in folded.layers if l.w_quant is not None)


class TestAblation:
    def test_grid_complete(self):
        d, qnet = quantized_blob_net(seed=7)
        table = qc_ablation(qnet, d, lr=0.01)
        assert sorted(table) == [PER_CHANNEL, PER_TENSOR]
        for gran in table:
            assert sorted(table[gran]) == ["both", "scale", "shift"]
            for cell in table[gran].values():
                assert np.isfinite(cell["eval_loss"])
                assert np.isfinite(cell["calib_loss_after"])
                assert 0.0 <= cell["eval_accuracy"] <= 1.0
