import numpy as np
import pytest

from kernel_reference import reference_bn_forward, reference_nonlin, reference_nonlin_grad
from qatlab import network
from qatlab.network import (
    CONV2D,
    DENSE,
    DEPTHWISE,
    FORWARD_MODES,
    ROW_BLOCK,
    BNParams,
    LayerSpec,
    NetworkSpec,
    backward,
    build_cnn,
    build_mlp,
    col2im,
    dampening_penalty,
    forward,
    im2col,
    loss_and_grad,
    make_bn,
)
from qatlab.network import _activate, _bn_backward, _bn_forward
from qatlab.numeric import Rng
from qatlab.quantizer import QuantizerState, init_scale, quantize, quantize_backward, round_to_grid
from qatlab.training import attach_quantizers
from test_datasets import traced_peak


def per_tensor(s, bits=4, signed=True):
    return QuantizerState(s=np.asarray(float(s)), bits=bits, signed=signed)


def dense_layer(w, b=None, **kw):
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return LayerSpec(kind=DENSE, weight=w, bias=b, **kw)


def conv_oracle(x, w, bias, stride, pad):
    """Direct loop convolution used as the im2col reference."""
    b, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    xp = np.zeros((b, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((b, co, oh, ow))
    for n in range(b):
        for o in range(co):
            for y in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for cc in range(ci):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    w[o, cc, i, j]
                                    * xp[n, cc, y * stride + i, xx * stride + j]
                                )
                    out[n, o, y, xx] = acc + bias[o]
    return out


def batch_major_im2col(x, kh, kw, stride, pad):
    """Batch-major (B, C, KH, KW, OH, OW) patches for ``reference_conv_pass``."""
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = np.empty((b, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols


def batch_major_col2im(dcols, x_shape, stride, pad):
    b, c, h, w = x_shape
    _, _, kh, kw, oh, ow = dcols.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                dcols[:, :, i, j]
            )
    return xp[:, :, pad : pad + h, pad : pad + w]


def reference_conv_pass(net, x, loss_grad, mode):
    """Output and parameter gradients of a chain of conv2d/depthwise layers,
    contracted with the 6-D einsums on batch-major patches.  The reference
    for bit identity: forward and backward must equal it exactly."""
    quantized = mode == "quantized"
    a, ctxs = x, []
    for layer in net.layers:
        a_used = quantize(a, layer.a_quant) if quantized and layer.a_quant else a
        w = quantize(layer.weight, layer.w_quant) if quantized and layer.w_quant else layer.weight
        cols = batch_major_im2col(a_used, w.shape[2], w.shape[3], layer.stride, layer.pad)
        if layer.kind == CONV2D:
            h = np.einsum("ocij,bcijyx->boyx", w, cols)
        else:
            h = np.einsum("cij,bcijyx->bcyx", w[:, 0], cols)
        h = h + layer.bias[None, :, None, None]
        bn_ctx = None
        if layer.bn is not None:
            h, bn_ctx = _bn_forward(layer.bn, h, update_running=False)
        ctxs.append((a, a_used, w, cols, h, bn_ctx))
        a = reference_nonlin(h, layer.nonlinearity)
    grads, d = {}, loss_grad
    for i in reversed(range(len(net.layers))):
        layer, (a_in, a_used, w, cols, h, bn_ctx), p = net.layers[i], ctxs[i], f"layer{i}"
        d = d * reference_nonlin_grad(h, layer.nonlinearity)
        if layer.bn is not None:
            d, grads[f"{p}.bn.gain"], grads[f"{p}.bn.bias"] = _bn_backward(layer.bn, bn_ctx, d)
        grads[f"{p}.bias"] = d.sum(axis=(0, 2, 3))
        if layer.kind == CONV2D:
            d_w = np.einsum("boyx,bcijyx->ocij", d, cols)
            dcols = np.einsum("boyx,ocij->bcijyx", d, w)
        else:
            d_w = np.einsum("bcyx,bcijyx->cij", d, cols)[:, None]
            dcols = np.einsum("bcyx,cij->bcijyx", d, w[:, 0])
        d_a = batch_major_col2im(dcols, a_used.shape, layer.stride, layer.pad)
        if quantized and layer.w_quant:
            grads[f"{p}.weight"], grads[f"{p}.w_scale"] = quantize_backward(
                round_to_grid(layer.weight, layer.w_quant)[2], layer.w_quant, d_w
            )
        else:
            grads[f"{p}.weight"] = d_w
        if quantized and layer.a_quant:
            d, grads[f"{p}.a_scale"] = quantize_backward(
                round_to_grid(a_in, layer.a_quant)[2], layer.a_quant, d_a
            )
        else:
            d = d_a
    return a, grads


class TestForward:
    def test_silu_far_below_zero_warns_nothing(self):
        # exp(800) overflows to inf, so the sigmoid is exactly 0; the suite
        # turns any RuntimeWarning into an error.
        out, d = _activate(np.array([-800.0, 0.0, 3.0]), "silu", grad=True)
        want_out = [-0.0, 0.0, float.fromhex("0x1.6dc9d8d293c0ep+1")]
        want_d = [-0.0, 0.5, float.fromhex("0x1.168dfd9dfa7cfp+0")]
        assert out.tobytes() == np.array(want_out).tobytes()
        assert d.tobytes() == np.array(want_d).tobytes()

    def test_identity_network(self):
        net = NetworkSpec(
            layers=[dense_layer(np.eye(4))], input_shape=(4,), loss="mse"
        )
        x = Rng(0).normal((5, 4))
        np.testing.assert_array_equal(forward(net, x, mode="latent"), x)
        np.testing.assert_array_equal(forward(net, x, mode="quantized"), x)

    def test_on_grid_quantized_equals_latent(self):
        s = 0.25
        w = s * np.array([[1.0, -2.0], [3.0, 0.0]])
        layers = [
            dense_layer(
                w,
                w_quant=per_tensor(s),
                a_quant=per_tensor(s),
                nonlinearity="relu",
            ),
            # Products of s-grid values land on the s^2 grid.
            dense_layer(
                s * np.array([[2.0, -1.0]]),
                w_quant=per_tensor(s),
                a_quant=per_tensor(s * s),
            ),
        ]
        net = NetworkSpec(layers=layers, input_shape=(2,), loss="mse")
        x = s * np.array([[1.0, 2.0], [-1.0, 0.0]])
        np.testing.assert_allclose(
            forward(net, x, "quantized"), forward(net, x, "latent"), atol=1e-15
        )

    def test_soft_round_k_half_is_quantized(self):
        rng = Rng(1)
        net = build_mlp(3, 2, hidden=(5,), rng=rng, loss="mse")
        for layer in net.layers:
            layer.w_quant = init_scale(layer.weight, bits=4)
        x = rng.normal((4, 3))
        np.testing.assert_array_equal(
            forward(net, x, "soft_round", k=0.5), forward(net, x, "quantized")
        )

    def test_two_layer_composition_oracle(self):
        rng = Rng(2)
        w1, w2 = rng.normal((4, 3)), rng.normal((2, 4))
        q1, q2 = init_scale(w1, bits=4), init_scale(w2, bits=4)
        a1 = per_tensor(0.05, bits=8, signed=True)
        net = NetworkSpec(
            layers=[
                dense_layer(w1, w_quant=q1, a_quant=a1, nonlinearity="relu"),
                dense_layer(w2, w_quant=q2),
            ],
            input_shape=(3,),
            loss="mse",
        )
        x = rng.normal((6, 3))
        h = np.maximum(quantize(x, a1) @ quantize(w1, q1).T, 0.0)
        expect = h @ quantize(w2, q2).T
        np.testing.assert_allclose(forward(net, x, "quantized"), expect, atol=1e-12)

    def test_conv_matches_loop_oracle(self):
        rng = Rng(3)
        x = rng.normal((2, 3, 5, 5))
        w = rng.normal((4, 3, 3, 3))
        b = rng.normal((4,))
        layer = LayerSpec(kind=CONV2D, weight=w, bias=b, stride=2, pad=1)
        net = NetworkSpec(layers=[layer], input_shape=(3, 5, 5), loss="mse")
        np.testing.assert_allclose(
            forward(net, x, "latent"), conv_oracle(x, w, b, 2, 1), atol=1e-12
        )

    def test_depthwise_matches_loop_oracle(self):
        rng = Rng(4)
        x = rng.normal((2, 3, 4, 4))
        w = rng.normal((3, 1, 3, 3))
        b = rng.normal((3,))
        layer = LayerSpec(kind=DEPTHWISE, weight=w, bias=b, stride=1, pad=1)
        net = NetworkSpec(layers=[layer], input_shape=(3, 4, 4), loss="mse")
        # Depthwise is a grouped conv: channel c sees only input channel c.
        expect = np.zeros((2, 3, 4, 4))
        for c in range(3):
            expect[:, c : c + 1] = conv_oracle(
                x[:, c : c + 1], w[c : c + 1], b[c : c + 1], 1, 1
            )
        np.testing.assert_allclose(forward(net, x, "latent"), expect, atol=1e-12)

    def test_shape_mismatch(self):
        net = NetworkSpec(layers=[dense_layer(np.eye(3))], input_shape=(3,), loss="mse")
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 4)))

    def test_unknown_mode(self):
        net = NetworkSpec(layers=[dense_layer(np.eye(3))], input_shape=(3,), loss="mse")
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 3)), mode="int8")

    def test_in_cell_weight_perturbation_invariant(self):
        rng = Rng(5)
        w = rng.normal((4, 3))
        q = init_scale(w, bits=4)
        net = NetworkSpec(
            layers=[dense_layer(w, w_quant=q)], input_shape=(3,), loss="mse"
        )
        x = rng.normal((5, 3))
        base = forward(net, x, "quantized")
        # Nudge every weight by a quarter cell toward its level center.
        z = net.layers[0].weight / float(q.s)
        frac = z - np.floor(z)
        shift = np.where(np.abs(frac - 0.5) < 0.4, 0.0, 0.1) * float(q.s)
        net.layers[0].weight += np.where(frac < 0.5, shift, -shift)
        np.testing.assert_array_equal(forward(net, x, "quantized"), base)

    def test_high_bits_converges_to_latent(self):
        rng = Rng(6)
        net = build_mlp(4, 3, hidden=(8,), rng=rng, loss="mse", batch_norm=False)
        x = rng.normal((10, 4))
        for i, layer in enumerate(net.layers):
            layer.w_quant = init_scale(layer.weight, bits=16)
            layer.a_quant = per_tensor(2e-4, bits=16, signed=True)
        diff = np.abs(forward(net, x, "quantized") - forward(net, x, "latent")).max()
        assert diff < 1e-3

    def test_bn_train_normalizes(self):
        rng = Rng(7)
        layer = dense_layer(np.eye(3), bn=make_bn(3))
        net = NetworkSpec(layers=[layer], input_shape=(3,), loss="mse")
        x = rng.normal((64, 3)) * 5.0 + 2.0
        out = forward(net, x, "latent")
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-3

    def test_bn_eval_is_affine(self):
        layer = dense_layer(np.eye(2), bn=make_bn(2))
        layer.bn.mode = "eval"
        layer.bn.running_mean[...] = [1.0, -1.0]
        layer.bn.running_var[...] = [4.0, 0.25]
        net = NetworkSpec(layers=[layer], input_shape=(2,), loss="mse")
        xa, xb = np.ones((1, 2)), np.full((1, 2), -2.0)
        fa, fb = forward(net, xa, "latent"), forward(net, xb, "latent")
        fmix = forward(net, 0.3 * xa + 0.7 * xb, "latent")
        f0 = forward(net, np.zeros((1, 2)), "latent")
        np.testing.assert_allclose(
            fmix - f0, 0.3 * (fa - f0) + 0.7 * (fb - f0), atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(16, 5), (8, 5, 3, 3)])
    def test_bn_train_variance_is_np_var(self, shape):
        h = Rng(19).normal(shape) * 3.0 + 1.5
        axes = (0,) if len(shape) == 2 else (0, 2, 3)
        bn, ref_bn = make_bn(5), make_bn(5)
        out, ctx = _bn_forward(bn, h, update_running=True)
        ref_out, ref_ctx = reference_bn_forward(ref_bn, h, update_running=True)
        assert np.array_equal(ctx["std"], np.sqrt(np.var(h, axis=axes) + bn.eps))
        assert np.array_equal(ctx["x_hat"], ref_ctx["x_hat"])
        assert np.array_equal(out, ref_out)
        assert np.array_equal(bn.running_mean, ref_bn.running_mean)
        assert np.array_equal(bn.running_var, ref_bn.running_var)

    def test_bn_running_stats_update(self):
        layer = dense_layer(np.eye(2), bn=make_bn(2, momentum=0.1))
        net = NetworkSpec(layers=[layer], input_shape=(2,), loss="mse")
        x = np.array([[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
        forward(net, x, "latent", update_running=True)
        bn = layer.bn
        assert bn.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert bn.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 4.0)  # unbiased


def fd_check_params(net, x, target, names, rng, n_per_tensor=4, rel=1e-4, mode="latent"):
    """Central-difference check on randomly chosen entries of named params."""
    params = net.parameters()
    _, cache = forward(net, x, mode, cache=True)
    out = forward(net, x, mode)
    loss, g = loss_and_grad(net.loss, out, target)
    grads = backward(net, cache, g)
    for name in names:
        p = params[name]
        flat = p.reshape(-1)
        idx = rng.integers(0, flat.size, (min(n_per_tensor, flat.size),))
        for i in idx:
            i = int(i)

            def f(v):
                old = flat[i]
                flat[i] = v
                val = loss_and_grad(net.loss, forward(net, x, mode), target)[0]
                flat[i] = old
                return val

            eps = 1e-5
            fd = (f(flat[i] + eps) - f(flat[i] - eps)) / (2 * eps)
            got = grads[name].reshape(-1)[i]
            assert got == pytest.approx(fd, rel=rel, abs=1e-7), (name, i)


class TestBackward:
    def test_zero_loss_grad(self):
        rng = Rng(8)
        net = build_mlp(3, 2, hidden=(4,), rng=rng, loss="mse")
        x = rng.normal((5, 3))
        _, cache = forward(net, x, "latent", cache=True)
        grads = backward(net, cache, np.zeros((5, 2)))
        for g in grads.values():
            assert not g.any()

    def test_missing_cache(self):
        net = build_mlp(3, 2, hidden=(4,), rng=Rng(0), loss="mse")
        with pytest.raises(RuntimeError):
            backward(net, None, np.zeros((1, 2)))

    def test_soft_round_cache_rejected(self):
        rng = Rng(9)
        net = build_mlp(3, 2, hidden=(4,), rng=rng, loss="mse", batch_norm=False)
        for layer in net.layers:
            layer.w_quant = init_scale(layer.weight, bits=4)
        x = rng.normal((2, 3))
        _, cache = forward(net, x, "soft_round", k=0.45, cache=True)
        with pytest.raises(RuntimeError):
            backward(net, cache, np.zeros((2, 2)))

    def test_single_dense_matches_fd(self):
        rng = Rng(10)
        w = rng.normal((3, 4))
        net = NetworkSpec(
            layers=[dense_layer(w, b=rng.normal((3,)))], input_shape=(4,), loss="mse"
        )
        x = rng.normal((6, 4))
        t = rng.normal((6, 3))
        fd_check_params(net, x, t, ["layer0.weight", "layer0.bias"], rng, rel=1e-5)

    def test_mlp_with_bn_silu_matches_fd(self):
        rng = Rng(11)
        net = build_mlp(4, 2, hidden=(6, 5), rng=rng, loss="softmax_ce")
        x = rng.normal((8, 4))
        t = rng.integers(0, 2, (8,))
        names = [n for n in net.parameters()]
        fd_check_params(net, x, t, names, rng, n_per_tensor=3)

    def test_conv_and_depthwise_match_fd(self):
        rng = Rng(12)
        layers = [
            LayerSpec(
                kind=CONV2D,
                weight=rng.normal((4, 2, 3, 3)) * 0.5,
                bias=rng.normal((4,)),
                stride=1,
                pad=1,
                nonlinearity="silu",
                bn=make_bn(4),
            ),
            LayerSpec(
                kind=DEPTHWISE,
                weight=rng.normal((4, 1, 3, 3)) * 0.5,
                bias=rng.normal((4,)),
                stride=1,
                pad=1,
                nonlinearity="relu",
            ),
            dense_layer(rng.normal((2, 4 * 3 * 3)) * 0.3),
        ]
        net = NetworkSpec(layers=layers, input_shape=(2, 3, 3), loss="mse")
        x = rng.normal((4, 2, 3, 3))
        t = rng.normal((4, 2))
        names = [n for n in net.parameters()]
        fd_check_params(net, x, t, names, rng, n_per_tensor=3)

    def test_quantized_chain_matches_hand_composition(self):
        # One dense layer, no BN: backward must equal the hand-chained
        # quantize_backward / matmul gradients.
        from qatlab.quantizer import quantize_backward

        rng = Rng(13)
        w = rng.normal((3, 4))
        wq = init_scale(w, bits=4)
        aq = per_tensor(0.1, bits=4, signed=True)
        net = NetworkSpec(
            layers=[dense_layer(w, w_quant=wq, a_quant=aq)],
            input_shape=(4,),
            loss="mse",
        )
        x = rng.normal((5, 4))
        t = rng.normal((5, 3))
        out, cache = forward(net, x, "quantized", cache=True)
        _, g_out = loss_and_grad("mse", out, t)
        grads = backward(net, cache, g_out)

        d_qw = g_out.T @ quantize(x, aq)
        g_w, g_sw = quantize_backward(round_to_grid(w, wq)[2], wq, d_qw)
        d_aq = g_out @ quantize(w, wq)
        g_a, g_sa = quantize_backward(round_to_grid(x, aq)[2], aq, d_aq)
        np.testing.assert_allclose(grads["layer0.weight"], g_w, atol=1e-14)
        np.testing.assert_allclose(grads["layer0.w_scale"], g_sw, atol=1e-14)
        np.testing.assert_allclose(grads["layer0.a_scale"], g_sa, atol=1e-14)
        np.testing.assert_allclose(grads["layer0.bias"], g_out.sum(0), atol=1e-14)

    def test_wanted_subset_matches_full_backward(self):
        rng = Rng(15)
        net = build_cnn(in_shape=(1, 4, 4), out_dim=3, channels=(4, 6, 6, 8), rng=rng)
        for layer in net.layers:
            layer.w_quant = init_scale(layer.weight, bits=3)
            layer.a_quant = per_tensor(0.2, bits=3)
            layer.qc_gamma = 1.0 + 0.1 * rng.normal((layer.out_channels,))
            layer.qc_beta = 0.1 * rng.normal((layer.out_channels,))
        x = rng.normal((6, 1, 4, 4))
        t = rng.integers(0, 3, (6,))
        for bn_mode in ("train", "eval"):
            for layer in net.layers[:-1]:
                layer.bn.mode = bn_mode
            out, cache = forward(net, x, "quantized", cache=True)
            g = loss_and_grad(net.loss, out, t)[1]
            full = backward(net, cache, g)
            qc_names = {n for n in full if ".qc_" in n}
            for wanted in (qc_names, {"layer0.a_scale", "layer3.bias", "layer1.bn.gain"}):
                part = backward(net, cache, g, wanted=wanted)
                assert set(part) == wanted
                for name in wanted:
                    assert np.array_equal(part[name], full[name]), name

    def test_input_gradient_only_for_the_first_activation_scale(self, monkeypatch):
        # Only layer0.a_scale reads the gradient of the net's input, so
        # without it the first conv layer folds back no patch gradients.
        folds = []

        def counting(dcols, x_shape, stride, pad):
            folds.append(x_shape)
            return col2im(dcols, x_shape, stride, pad)

        monkeypatch.setattr(network, "col2im", counting)
        rng = Rng(17)
        x = rng.normal((8, 1, 4, 4))
        net = attach_quantizers(build_cnn(rng=rng), x, bits_w=3, bits_a=3)
        t = rng.integers(0, 3, (8,))
        for mode, wanted, count in (
            ("latent", None, 3),
            ("quantized", None, 4),
            ("quantized", ["layer0.weight", "layer1.a_scale"], 3),
            ("quantized", ["layer0.a_scale"], 4),
        ):
            out, cache = forward(net, x, mode, cache=True)
            folds.clear()
            grads = backward(net, cache, loss_and_grad(net.loss, out, t)[1], wanted=wanted)
            assert len(folds) == count, (mode, wanted)
            assert all(np.isfinite(g).all() for g in grads.values())

    def test_training_step_rounds_each_quantizer_once(self, rounding_calls):
        # The forward rounds every weight and activation quantizer's input
        # once and keeps it; the straight-through backward rounds nothing.
        rng = Rng(16)
        x = rng.normal((8, 1, 4, 4))
        net = attach_quantizers(build_cnn(rng=rng), x, bits_w=3, bits_a=3)
        rounding_calls.clear()
        out, cache = forward(net, x, "quantized", cache=True, update_running=True)
        expected = []
        for layer, ctx in zip(net.layers, cache["layers"]):
            expected += [ctx["a_used"].shape, layer.weight.shape]
        assert rounding_calls == expected and len(expected) == 10
        backward(net, cache, loss_and_grad(net.loss, out, rng.integers(0, 3, (8,)))[1])
        assert len(rounding_calls) == 10

    def test_duplicated_rows_leave_gradient_unchanged(self):
        rng = Rng(14)
        net = build_mlp(3, 2, hidden=(4,), rng=rng, loss="mse", batch_norm=False)
        x = rng.normal((1, 3))
        t = rng.normal((1, 2))
        out1, c1 = forward(net, x, "latent", cache=True)
        g1 = backward(net, c1, loss_and_grad("mse", out1, t)[1])
        xd, td = np.repeat(x, 4, axis=0), np.repeat(t, 4, axis=0)
        out2, c2 = forward(net, xd, "latent", cache=True)
        g2 = backward(net, c2, loss_and_grad("mse", out2, td)[1])
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], atol=1e-13)


# (batch, input shape, [(kind, out channels, stride, pad), ...])
BIT_IDENTITY_CASES = {
    "trend": (
        32,
        (1, 4, 4),
        [(CONV2D, 8, 1, 1), (CONV2D, 16, 1, 1), (DEPTHWISE, 16, 1, 1), (CONV2D, 32, 1, 1)],
    ),
    "batch1": (1, (2, 5, 5), [(CONV2D, 3, 1, 1), (DEPTHWISE, 3, 1, 1)]),
    "odd_batch_stride2": (7, (3, 6, 6), [(CONV2D, 4, 2, 1), (DEPTHWISE, 4, 1, 1)]),
    "pad0": (5, (2, 9, 9), [(CONV2D, 4, 2, 0), (DEPTHWISE, 4, 1, 0), (CONV2D, 1, 1, 1)]),
}


def bit_identity_net(case, granularity, rng):
    """The quantized conv chain of BIT_IDENTITY_CASES[case], with batch norm
    in train mode."""
    _, in_shape, spec = BIT_IDENTITY_CASES[case]
    layers, c_in = [], in_shape[0]
    for kind, c_out, stride, pad in spec:
        w = rng.normal((c_out, 1 if kind == DEPTHWISE else c_in, 3, 3)) * 0.4
        layers.append(
            LayerSpec(
                kind=kind,
                weight=w,
                bias=rng.normal((c_out,)) * 0.1,
                w_quant=init_scale(
                    w,
                    bits=3,
                    granularity=granularity,
                    axis=0 if granularity == "per_channel" else None,
                ),
                a_quant=per_tensor(0.2, bits=3),
                bn=make_bn(c_out),
                nonlinearity="silu",
                stride=stride,
                pad=pad,
            )
        )
        c_in = c_out
    return NetworkSpec(layers=layers, input_shape=in_shape, loss="mse")


def trend_net_with_corrections(rng):
    """The trend CNN, quantized at 3 bits, with a per-channel output
    correction on every layer and non-trivial BN statistics."""
    net = attach_quantizers(build_cnn(rng=rng), rng.normal((64, 1, 4, 4)), bits_w=3, bits_a=3)
    for layer in net.layers:
        layer.qc_gamma = 1.0 + 0.1 * rng.normal((layer.out_channels,))
        layer.qc_beta = 0.1 * rng.normal((layer.out_channels,))
        if layer.bn is not None:
            layer.bn.running_mean[...] = 0.1 * rng.normal((layer.out_channels,))
            layer.bn.running_var[...] = rng.uniform((layer.out_channels,), 1.0, 1.5)
    return net


class TestConvBitIdentity:
    """The conv path must reproduce the 6-D einsum reference bit for bit:
    a change of summation order (a BLAS call, a new layout, a numpy whose
    einsum reorders) fails here before it moves a trained checkpoint."""

    @pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
    @pytest.mark.parametrize("mode", ["latent", "quantized"])
    @pytest.mark.parametrize("granularity", ["per_tensor", "per_channel"])
    def test_matches_einsum_reference(self, case, mode, granularity):
        batch, in_shape, _ = BIT_IDENTITY_CASES[case]
        rng = Rng(23)
        net = bit_identity_net(case, granularity, rng)
        x = rng.normal((batch, *in_shape))
        out, cache = forward(net, x, mode, cache=True)
        g = rng.normal(out.shape)
        grads = backward(net, cache, g)
        ref_out, ref_grads = reference_conv_pass(net, x, g, mode)
        assert out.flags.c_contiguous
        assert np.array_equal(out, ref_out)
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name
        for name in set(grads) - set(ref_grads):  # scales are untouched in latent mode
            assert mode == "latent" and not grads[name].any()


class TestCacheFreeForward:
    """A forward without a cache unfolds conv layers ROW_BLOCK rows at a
    time, and with frozen batch norm runs the whole conv stem block by
    block; its output must equal the cached forward's bit for bit on
    either side of a block boundary.  The last row count is odd, so a
    dense layer run in blocks would change bits there too."""

    ROWS = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3)

    @pytest.mark.parametrize("case", [*sorted(BIT_IDENTITY_CASES), "trend_head_qc"])
    @pytest.mark.parametrize("mode", FORWARD_MODES)
    @pytest.mark.parametrize("bn_mode", ["train", "eval"])
    def test_matches_cached_forward(self, case, mode, bn_mode):
        rng = Rng(29)
        if case == "trend_head_qc":
            net = trend_net_with_corrections(rng)
        else:
            net = bit_identity_net(case, "per_channel", rng)
        for layer in net.layers:
            if layer.bn is not None:
                layer.bn.mode = bn_mode
        for rows in self.ROWS:
            x = rng.normal((rows, *net.input_shape))
            out = forward(net, x, mode)
            cached, _ = forward(net, x, mode, cache=True)
            assert out.flags.c_contiguous
            assert np.array_equal(out, cached), rows

    def test_frozen_trend_forward_is_bounded(self):
        rng = Rng(30)
        x = rng.normal((2000, 1, 4, 4))
        net = attach_quantizers(build_cnn(rng=rng), x, bits_w=3, bits_a=3).frozen()
        batch = x[:256].copy()
        _, peak = traced_peak(forward, net, batch)
        assert peak <= 8 * 2**20  # 13.7 MiB when every row was unfolded at once

    def test_frozen_wide_mlp_forward_rounds_in_one_array(self):
        # The input layer's rounding set the peak: 4.0x the batch when it
        # kept z, r and the code beside the value.
        rng = Rng(31)
        x = rng.normal((256, 784))
        net = attach_quantizers(build_mlp(784, 3, rng=rng), x).frozen()
        _, peak = traced_peak(forward, net, x)
        assert peak <= 2.5 * x.nbytes


class TestDampening:
    def test_on_grid_zero(self):
        s = 0.5
        w = s * np.array([[1.0, -2.0]])
        net = NetworkSpec(
            layers=[dense_layer(w, w_quant=per_tensor(s))], input_shape=(2,), loss="mse"
        )
        penalty, grads = dampening_penalty(net, 1.0)
        assert penalty == 0.0
        assert not grads["layer0.weight"].any()

    def test_single_weight_arithmetic(self):
        net = NetworkSpec(
            layers=[dense_layer(np.array([[0.26]]), w_quant=per_tensor(0.1))],
            input_shape=(1,),
            loss="mse",
        )
        penalty, grads = dampening_penalty(net, 1.0)
        assert penalty == pytest.approx(0.0016)
        assert grads["layer0.weight"][0, 0] == pytest.approx(2 * (0.26 - 0.3))

    def test_gradient_matches_fd(self):
        rng = Rng(15)
        w = rng.normal((3, 3))
        net = NetworkSpec(
            layers=[dense_layer(w, w_quant=init_scale(w, bits=4))],
            input_shape=(3,),
            loss="mse",
        )
        lam = 0.7
        _, grads = dampening_penalty(net, lam)
        flat = net.layers[0].weight.reshape(-1)
        for i in range(flat.size):

            def f(v):
                old = flat[i]
                flat[i] = v
                p, _ = dampening_penalty(net, lam)
                flat[i] = old
                return p

            fd = (f(flat[i] + 1e-5) - f(flat[i] - 1e-5)) / 2e-5
            assert grads["layer0.weight"].reshape(-1)[i] == pytest.approx(fd, abs=1e-6)

    def test_clipped_weights_excluded(self):
        net = NetworkSpec(
            layers=[dense_layer(np.array([[100.0]]), w_quant=per_tensor(0.1))],
            input_shape=(1,),
            loss="mse",
        )
        penalty, grads = dampening_penalty(net, 1.0)
        assert penalty == 0.0
        assert not grads["layer0.weight"].any()


class TestLoss:
    def test_mse_direct(self):
        loss, g = loss_and_grad("mse", np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(g, [[1.0, 2.0]])

    def test_softmax_ce_uniform(self):
        y = np.zeros((2, 4))
        loss, g = loss_and_grad("softmax_ce", y, np.array([0, 3]))
        assert loss == pytest.approx(np.log(4.0))

    def test_softmax_ce_grad_matches_fd(self):
        rng = Rng(16)
        y = rng.normal((3, 4))
        t = np.array([1, 0, 3])
        _, g = loss_and_grad("softmax_ce", y, t)
        flat = y.reshape(-1)
        for i in range(flat.size):

            def f(v):
                old = flat[i]
                flat[i] = v
                val = loss_and_grad("softmax_ce", y, t)[0]
                flat[i] = old
                return val

            fd = (f(flat[i] + 1e-6) - f(flat[i] - 1e-6)) / 2e-6
            assert g.reshape(-1)[i] == pytest.approx(fd, abs=1e-8)

    def test_target_shape_errors(self):
        with pytest.raises(ValueError):
            loss_and_grad("mse", np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            loss_and_grad("softmax_ce", np.zeros((2, 3)), np.zeros((2, 2)))


class TestImCol:
    def test_roundtrip_sum(self):
        # col2im(im2col(x)) multiplies each pixel by its patch multiplicity.
        rng = Rng(17)
        x = rng.normal((2, 3, 5, 5))
        cols = im2col(x, 3, 3, 1, 1)
        back = col2im(cols, x.shape, 1, 1)
        ones = col2im(im2col(np.ones_like(x), 3, 3, 1, 1), x.shape, 1, 1)
        np.testing.assert_allclose(back, x * ones, atol=1e-12)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 2, 2)), 5, 5, 1, 0)


class TestBuilders:
    def test_mlp_shapes(self):
        net = build_mlp(16, 3, rng=Rng(0))
        assert [l.weight.shape for l in net.layers] == [
            (32, 16),
            (64, 32),
            (32, 64),
            (3, 32),
        ]
        assert net.layers[-1].bn is None
        assert net.layers[-1].nonlinearity == "none"

    def test_cnn_shapes_and_depthwise(self):
        net = build_cnn(rng=Rng(0))
        kinds = [l.kind for l in net.layers]
        assert kinds == [CONV2D, CONV2D, DEPTHWISE, CONV2D, DENSE]
        out = forward(net, np.zeros((2, 1, 4, 4)), "latent")
        assert out.shape == (2, 3)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: make_bn(2, eps=-1.0), "eps"),
            (lambda: make_bn(2, eps=float("nan")), "eps"),
            (lambda: BNParams(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2), eps=0.0), "eps"),
            (lambda: make_bn(2, momentum=1.5), "momentum"),
            (lambda: BNParams(np.ones(2), np.zeros(2), np.zeros((1, 2)), np.ones(2)), "vectors"),
            (lambda: dense_layer(np.eye(2), stride=0), "stride"),
            (lambda: dense_layer(np.eye(2), pad=-3), "pad"),
            (lambda: NetworkSpec([dense_layer(np.eye(2))], input_shape=(0,)), "input_shape"),
            (lambda: NetworkSpec([], input_shape=(2,)), "layers"),
            (lambda: NetworkSpec([dense_layer(np.eye(2))], input_shape=(3,)), "2 features"),
            (lambda: NetworkSpec([dense_layer(np.eye(2))] * 2 + [dense_layer(np.ones((1, 3)))],
                                 input_shape=(2,)), "3 features"),
            (lambda: NetworkSpec([LayerSpec(CONV2D, np.zeros((2, 3, 3, 3)), np.zeros(2))],
                                 input_shape=(1, 4, 4)), "3 channels"),
            (lambda: NetworkSpec([LayerSpec(CONV2D, np.zeros((2, 1, 5, 5)), np.zeros(2))],
                                 input_shape=(1, 4, 4)), "does not fit"),
            (lambda: NetworkSpec([LayerSpec(DEPTHWISE, np.zeros((2, 1, 3, 3)), np.zeros(2))],
                                 input_shape=(4,)), "2 channels"),
        ],
        ids=["eps_negative", "eps_nan", "eps_zero_var_zero", "momentum", "stat_shape",
             "stride", "pad", "input_shape", "no_layers", "dense_fan_in", "dense_chain",
             "conv_channels", "kernel_fit", "conv_after_flat"],
    )
    def test_dataclasses_reject_bad_fields(self, make, match):
        """What a checkpoint could hold but no network can run is rejected
        at construction."""
        with pytest.raises(ValueError, match=match):
            make()

    def test_copy_is_deep(self):
        net = build_mlp(3, 2, hidden=(4,), rng=Rng(0))
        dup = net.copy()
        dup.layers[0].weight += 1.0
        assert not np.allclose(net.layers[0].weight, dup.layers[0].weight)

    def test_frozen_copy_puts_every_bn_in_eval_mode(self):
        net = build_mlp(3, 2, hidden=(4, 4), rng=Rng(0))
        frozen = net.frozen()
        assert [l.bn.mode for l in frozen.layers if l.bn is not None] == ["eval", "eval"]
        assert [l.bn.mode for l in net.layers if l.bn is not None] == ["train", "train"]
        frozen.layers[0].bn.running_mean += 1.0
        assert not net.layers[0].bn.running_mean.any()

    def test_parameters_are_live_views(self):
        net = build_mlp(3, 2, hidden=(4,), rng=Rng(0))
        net.parameters()["layer0.weight"][...] = 0.0
        assert not net.layers[0].weight.any()
