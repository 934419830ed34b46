"""Small quantized networks with a hand-written backward pass.

Layers are dense, conv2d, or depthwise conv2d, each optionally wrapped with
an input activation quantizer, a weight quantizer, batch norm after the
linear op, and a nonlinearity.  The forward pass runs in one of three modes:

  latent      full precision, all quantizers bypassed
  quantized   h = q(W) . q(a) + b, the training-time simulated path
  soft_round  Eq.-style diagnostic rounding with threshold k

The backward pass mirrors the forward exactly, invoking the straight-through
quantizer backward at every quantizer.  Convolutions use im2col with
slice-accumulate col2im, so gradients are deterministic.

The conv path keeps one rule: a layout change may not reorder a reduction,
and no BLAS call (``tensordot``, ``matmul``, ``einsum(optimize=True)``)
enters it, because a different summation order changes the trained bits.
im2col lays patches out (C, KH, KW, OH, OW, B): the reduced axes are
outermost and the batch innermost, so the forward and input-gradient
einsums loop innermost over contiguous output elements and add their terms
in plain sequential order.  The weight gradients contract a batch-major
(B, C, KH, KW, OH, OW) copy, whose innermost loop is the (y, x) dot
product.  Every tensor that leaves the conv path is a C-contiguous
(B, C, H, W) array again, so batch-norm statistics, quantize_backward and
the bias sums reduce in memory order.  The results are bit-identical to
the batch-major 6-D einsums that tests/test_network.py keeps as the
reference, except with a 1x1 output map: there the reference reduces
(c, i, j) with numpy's vectorised dot kernel, and the forward output can
differ from it in the last bit.

A forward without a cache keeps no backward state, and its memory is
bounded by rows: each conv layer unfolds and contracts ROW_BLOCK rows at a
time, and when every batch norm is frozen, so that no layer reduces over
the batch, all layers before the first dense one run block by block.  The
bits are the cached forward's, because the conv einsums are elementwise
along their innermost batch axis.  Dense layers always see every row at
once: the BLAS matmul gives a row other bits when the row count is not a
multiple of 4.
"""

import math
from copy import deepcopy
from dataclasses import dataclass

import numpy as np

from .quantizer import (
    QuantizerState,
    SoftRoundConfig,
    quantize,
    quantize_backward,
    round_to_grid,
    soft_round,
)

DENSE = "dense"
CONV2D = "conv2d"
DEPTHWISE = "depthwise_conv2d"

FORWARD_MODES = ("latent", "quantized", "soft_round")
ROW_BLOCK = 64  # rows per conv block in a forward that keeps no cache


@dataclass
class BNParams:
    gain: np.ndarray
    bias: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    mode: str = "train"

    def __post_init__(self):
        for name in ("gain", "bias", "running_mean", "running_var"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.gain.ndim != 1 or any(
            getattr(self, n).shape != self.gain.shape
            for n in ("bias", "running_mean", "running_var")
        ):
            raise ValueError("BN parameters must be per-channel vectors")
        if not (self.running_var >= 0).all():
            raise ValueError("running_var must be non-negative")
        if self.mode not in ("train", "eval"):
            raise ValueError(f"unknown BN mode {self.mode!r}")
        # eps = 0 is exact for folding, but only where no variance is 0.
        if not self.eps >= 0 or not (self.running_var + self.eps > 0).all():
            raise ValueError(f"BN eps must be >= 0, and > 0 where running_var is 0, got {self.eps}")
        if not 0 <= self.momentum <= 1:
            raise ValueError(f"BN momentum must lie in [0, 1], got {self.momentum}")

    @property
    def channels(self) -> int:
        return self.gain.shape[0]

    copy = deepcopy  # every array copied, nothing shared with the original


def make_bn(channels: int, momentum: float = 0.1, eps: float = 1e-5) -> BNParams:
    return BNParams(
        gain=np.ones(channels),
        bias=np.zeros(channels),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
        momentum=momentum,
        eps=eps,
    )


@dataclass
class LayerSpec:
    kind: str
    weight: np.ndarray
    bias: np.ndarray
    w_quant: QuantizerState = None
    a_quant: QuantizerState = None
    bn: BNParams = None
    nonlinearity: str = "none"
    stride: int = 1
    pad: int = 0
    # Output correction between the linear op and BN (apply_correction).
    qc_gamma: np.ndarray = None
    qc_beta: np.ndarray = None

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.qc_gamma is not None:
            self.qc_gamma = np.asarray(self.qc_gamma, dtype=np.float64)
        if self.qc_beta is not None:
            self.qc_beta = np.asarray(self.qc_beta, dtype=np.float64)
        if self.kind == DENSE:
            if self.weight.ndim != 2:
                raise ValueError("dense weight must be (out, in)")
        elif self.kind in (CONV2D, DEPTHWISE):
            if self.weight.ndim != 4:
                raise ValueError("conv weight must be (out, in, kh, kw)")
            if self.kind == DEPTHWISE and self.weight.shape[1] != 1:
                raise ValueError("depthwise weight must have a singleton in-channel")
        else:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.bias.shape != (self.out_channels,):
            raise ValueError("bias shape must match output channels")
        if self.nonlinearity not in ("relu", "silu", "none"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.stride < 1 or self.pad < 0:
            raise ValueError(f"stride must be >= 1 and pad >= 0, got {self.stride} and {self.pad}")
        if self.bn is not None and self.bn.channels != self.out_channels:
            raise ValueError("BN channel count must match output channels")
        if self.w_quant is not None and self.w_quant.axis not in (None, 0):
            raise ValueError("weight quantizer channel axis must be 0")
        if (self.qc_gamma is None) != (self.qc_beta is None):
            raise ValueError("qc_gamma and qc_beta must be set together")
        if self.qc_gamma is not None:
            if self.qc_gamma.shape != self.qc_beta.shape:
                raise ValueError("qc_gamma and qc_beta shapes must match")
            if self.qc_gamma.size not in (1, self.out_channels):
                raise ValueError("correction must be per-tensor or per-channel")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    def output_shape(self, shape: tuple) -> tuple:
        """The shape of one sample's output from one of ``shape``; a
        ValueError if the layer cannot take such a sample."""
        if self.kind == DENSE:
            if math.prod(shape) != self.weight.shape[1]:
                raise ValueError(f"dense layer takes {self.weight.shape[1]} features, not {shape}")
            return (self.out_channels,)
        channels = self.out_channels if self.kind == DEPTHWISE else self.weight.shape[1]
        if len(shape) != 3 or shape[0] != channels:
            raise ValueError(f"{self.kind} layer takes {channels} channels of HxW, not {shape}")
        kernel = self.weight.shape[2:]
        out = [(n + 2 * self.pad - k) // self.stride + 1 for n, k in zip(shape[1:], kernel)]
        if min(out) < 1:
            raise ValueError(f"kernel {kernel} does not fit input {shape} (pad {self.pad})")
        return (self.out_channels, *out)

    copy = deepcopy


@dataclass
class NetworkSpec:
    layers: list
    input_shape: tuple[int, ...]
    loss: str = "softmax_ce"

    def __post_init__(self):
        self.input_shape = shape = tuple(self.input_shape)
        if self.loss not in ("mse", "softmax_ce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if not self.layers or not self.input_shape or min(self.input_shape) < 1:
            raise ValueError(f"a network needs layers and a positive input_shape, got {shape}")
        for layer in self.layers:
            shape = layer.output_shape(shape)

    copy = deepcopy

    def frozen(self) -> "NetworkSpec":
        """A copy with every batch norm in eval mode (running statistics)."""
        net = self.copy()
        for layer in net.layers:
            if layer.bn is not None:
                layer.bn.mode = "eval"
        return net

    def parameters(self) -> dict:
        """Live views of every trainable array, keyed layerN.name.

        BN running statistics are excluded; they are tracked, not trained.
        """
        out = {}
        for i, layer in enumerate(self.layers):
            p = f"layer{i}"
            out[f"{p}.weight"] = layer.weight
            out[f"{p}.bias"] = layer.bias
            if layer.w_quant is not None:
                out[f"{p}.w_scale"] = layer.w_quant.s
            if layer.a_quant is not None:
                out[f"{p}.a_scale"] = layer.a_quant.s
            if layer.bn is not None:
                out[f"{p}.bn.gain"] = layer.bn.gain
                out[f"{p}.bn.bias"] = layer.bn.bias
            if layer.qc_gamma is not None:
                out[f"{p}.qc_gamma"] = layer.qc_gamma
                out[f"{p}.qc_beta"] = layer.qc_beta
        return out

    def state_arrays(self) -> dict:
        """parameters() plus BN running statistics, for serialization."""
        out = self.parameters()
        for i, layer in enumerate(self.layers):
            if layer.bn is not None:
                out[f"layer{i}.bn.running_mean"] = layer.bn.running_mean
                out[f"layer{i}.bn.running_var"] = layer.bn.running_var
        return out


def apply_correction(h, gamma, beta):
    """The output correction gamma * h + beta along the channel axis (axis
    1): a gamma of size 1 is per-tensor, one of size C per-channel."""
    if gamma.size not in (1, h.shape[1]):
        raise ValueError(f"correction over {gamma.size} channels cannot apply to {h.shape[1]}")
    shape = [1] * h.ndim
    shape[1] = gamma.size
    return gamma.reshape(shape) * h + beta.reshape(shape)


def _activate(h, kind, grad: bool):
    """The nonlinearity at h and, with ``grad``, its derivative at h (else
    None).  Silu computes its sigmoid once for both."""
    if kind == "relu":
        return np.maximum(h, 0.0), (h > 0.0).astype(np.float64) if grad else None
    if kind == "silu":
        with np.errstate(over="ignore"):  # exp(-h) is inf below h = -709: sig is 0
            sig = 1.0 / (1.0 + np.exp(-h))
        out = h * sig
        if not grad:
            return out, None
        d = 1.0 - sig  # sig * (1 + h * (1 - sig)), built in place
        d *= h
        d += 1.0
        d *= sig
        return out, d
    return h, np.ones_like(h) if grad else None


def im2col(x, kh, kw, stride, pad):
    """Unfold (B, C, H, W) into patches laid out (C, KH, KW, OH, OW, B).

    A pure copy: the reduced axes (c, i, j) lead and the batch is the
    contiguous innermost axis (see the module docstring).
    """
    b, c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b), dtype=np.float64)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"kernel {kh}x{kw} does not fit input {h}x{w} (pad {pad})")
    cols = np.empty((c, kh, kw, oh, ow, b), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols


def col2im(dcols, x_shape, stride, pad):
    """Fold (C, KH, KW, OH, OW, B) patch gradients back into a C-contiguous
    (B, C, H, W) array, adding the (i, j) slices in row-major order, so
    every pixel sums its overlapping patches in a fixed order."""
    b, c, h, w = x_shape
    _, kh, kw, oh, ow, _ = dcols.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    return np.ascontiguousarray(xp[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2))


def _effective(x, q, mode, k, keep):
    """The value a layer uses in place of x under quantizer q and, if keep
    is set, the rounding the backward reuses (None when not kept, and then
    the value is rounded in one array the size of x)."""
    if q is None or mode == "latent":
        return x, None
    if mode == "soft_round":
        return soft_round(x, q, SoftRoundConfig(k=k)), None
    if not keep:
        return quantize(x, q), None
    value, _, rounding = round_to_grid(x, q)
    return value, rounding


def _row_blocks(rows):
    return [slice(start, start + ROW_BLOCK) for start in range(0, rows, ROW_BLOCK)]


def _linear(layer, a, w, keep_cols=False):
    """The layer's linear op plus bias on ``a`` and, with ``keep_cols``, the
    im2col patches of every row (else None).  Without ``keep_cols`` a conv
    layer unfolds and contracts ROW_BLOCK rows at a time."""
    if layer.kind == DENSE:
        return a @ w.T + layer.bias, None
    h = np.empty((len(a), *layer.output_shape(a.shape[1:])))
    bias = layer.bias[None, :, None, None]
    for rows in [slice(None)] if keep_cols else _row_blocks(len(a)):
        cols = im2col(a[rows], w.shape[2], w.shape[3], layer.stride, layer.pad)
        if layer.kind == CONV2D:
            out = np.einsum("ocij,cijyxb->oyxb", w, cols)
        else:
            out = np.einsum("cij,cijyxb->cyxb", w[:, 0], cols)
        np.add(out.transpose(3, 0, 1, 2), bias, out=h[rows])
    return h, cols if keep_cols else None


def _bn_forward(bn: BNParams, h, update_running: bool):
    axes = (0,) if h.ndim == 2 else (0, 2, 3)
    shape = [1] * h.ndim
    shape[1] = bn.channels
    if bn.mode == "train":
        # The variance reduces the centered batch as np.var does, bit for
        # bit, and the centered batch becomes x_hat.
        n = h.size // bn.channels
        mean = h.mean(axis=axes)
        centered = h - mean.reshape(shape)
        var = np.square(centered).sum(axis=axes) / n
        if update_running:
            unbiased = var * (n / (n - 1)) if n > 1 else var
            bn.running_mean[...] = (
                1.0 - bn.momentum
            ) * bn.running_mean + bn.momentum * mean
            bn.running_var[...] = (
                1.0 - bn.momentum
            ) * bn.running_var + bn.momentum * unbiased
    else:
        centered = h - bn.running_mean.reshape(shape)
        var = bn.running_var
    std = np.sqrt(var + bn.eps)
    x_hat = centered
    x_hat /= std.reshape(shape)
    out = bn.gain.reshape(shape) * x_hat + bn.bias.reshape(shape)
    return out, {"x_hat": x_hat, "std": std, "axes": axes, "shape": shape}


def _bn_backward(bn: BNParams, ctx, dout, param_grads: bool = True):
    """Returns (dx, dgain, dbias).  Frozen (eval-mode) BN does not need the
    parameter gradients for dx, so with ``param_grads=False`` they are
    skipped and returned as None."""
    x_hat, std, axes, shape = ctx["x_hat"], ctx["std"], ctx["axes"], ctx["shape"]
    g_over_std = (bn.gain / std).reshape(shape)
    if bn.mode == "eval" and not param_grads:
        return dout * g_over_std, None, None
    dgain = (dout * x_hat).sum(axis=axes)
    dbias = dout.sum(axis=axes)
    if bn.mode == "eval":
        return dout * g_over_std, dgain, dbias
    n = dout.size // bn.channels
    dx = (
        g_over_std
        / n
        * (
            n * dout
            - dbias.reshape(shape)
            - x_hat * dgain.reshape(shape)
        )
    )
    return dx, dgain, dbias


def forward(net: NetworkSpec, x, mode: str = "quantized", k: float = 0.45,
            cache: bool = False, update_running: bool = False):
    """Run the network; returns output, or (output, cache) with cache=True.

    update_running refreshes BN running statistics (training only).  A pass
    without the cache keeps nothing for a backward and runs its conv layers
    in blocks of ROW_BLOCK rows (see the module docstring).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ValueError(f"input shape {x.shape[1:]} != expected {net.input_shape}")
    if mode not in FORWARD_MODES:
        raise ValueError(f"unknown forward mode {mode!r}")
    if not cache:
        return _forward_uncached(net, x, mode, k, update_running)
    a = x
    caches = []
    for layer in net.layers:
        orig_shape = a.shape
        if layer.kind == DENSE and a.ndim > 2:
            a = a.reshape(a.shape[0], -1)
        a_used, a_round = _effective(a, layer.a_quant, mode, k, True)
        w_used, w_round = _effective(layer.weight, layer.w_quant, mode, k, True)
        h_lin, cols = _linear(layer, a_used, w_used, keep_cols=True)
        h = h_lin
        if layer.qc_gamma is not None:
            h = apply_correction(h, layer.qc_gamma, layer.qc_beta)
        bn_ctx = None
        if layer.bn is not None:
            h, bn_ctx = _bn_forward(layer.bn, h, update_running)
        a, nonlin_grad = _activate(h, layer.nonlinearity, grad=True)
        caches.append(
            {
                "orig_shape": orig_shape,
                "a_used": a_used,
                "a_round": a_round,
                "w_used": w_used,
                "w_round": w_round,
                "cols": cols,
                "h_lin": h_lin,
                "nonlin_grad": nonlin_grad,
                "bn_ctx": bn_ctx,
            }
        )
    return a, {"mode": mode, "layers": caches}


def _forward_uncached(net, x, mode, k, update_running):
    """forward without a cache.  With every batch norm frozen, the layers
    before the first dense one see each row alone, so they run block by
    block; the layers after them, and every layer of a net whose batch norm
    takes batch statistics, see all rows at once."""
    layers = net.layers
    stem = 0
    if all(layer.bn is None or layer.bn.mode == "eval" for layer in layers):
        stem = next((i for i, layer in enumerate(layers) if layer.kind == DENSE), len(layers))
    a = x
    if stem:
        weights = [_effective(layer.weight, layer.w_quant, mode, k, False)[0]
                   for layer in layers[:stem]]
        shape = net.input_shape
        for layer in layers[:stem]:
            shape = layer.output_shape(shape)
        a = np.empty((len(x), *shape))
        for rows in _row_blocks(len(x)):
            block = x[rows]
            for layer, w_used in zip(layers[:stem], weights):
                block = _layer_output(layer, block, mode, k, update_running, w_used)
            a[rows] = block
    for layer in layers[stem:]:
        a = _layer_output(layer, a, mode, k, update_running)
    return a


def _layer_output(layer, a, mode, k, update_running, w_used=None):
    """One layer's output on the rows of ``a``, holding no intermediate
    past its last use.  Unless the caller passes it, the effective weight
    is computed after the input's, so it is not held while the input
    rounds: that is a wide dense layer's peak."""
    if layer.kind == DENSE and a.ndim > 2:
        a = a.reshape(a.shape[0], -1)
    a = _effective(a, layer.a_quant, mode, k, False)[0]
    if w_used is None:
        w_used = _effective(layer.weight, layer.w_quant, mode, k, False)[0]
    h = _linear(layer, a, w_used)[0]
    del a
    if layer.qc_gamma is not None:
        h = apply_correction(h, layer.qc_gamma, layer.qc_beta)
    if layer.bn is not None:
        h = _bn_forward(layer.bn, h, update_running)[0]
    return _activate(h, layer.nonlinearity, grad=False)[0]


def backward(net: NetworkSpec, cache, loss_grad, wanted=None):
    """Gradients for the entries of net.parameters() named in ``wanted``
    (every entry when None), chained through all layers.

    Work that feeds only unwanted entries is skipped: a layer's weight
    gradient and its quantize backward, its bias sum, the gain and bias
    gradients of frozen batch norm, and the gradient of the net's input,
    which only ``layer0.a_scale`` reads.  What is computed is the same bits
    either way.

    Requires a cache from forward(..., cache=True) in latent or quantized
    mode; the soft-round diagnostic has no training path.
    """
    if cache is None:
        raise RuntimeError("backward needs the cache from forward(cache=True)")
    if cache["mode"] == "soft_round":
        raise RuntimeError("no backward path for the soft_round diagnostic")
    params = net.parameters()
    want = set(params if wanted is None else wanted)
    grads = {}
    quantized = cache["mode"] == "quantized"
    d = np.asarray(loss_grad, dtype=np.float64)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        ctx = cache["layers"][i]
        p = f"layer{i}"
        quant_w = layer.w_quant is not None and quantized
        quant_a = layer.a_quant is not None and quantized
        need_w = f"{p}.weight" in want or (quant_w and f"{p}.w_scale" in want)
        d = d * ctx["nonlin_grad"]
        if layer.bn is not None:
            bn_grads = f"{p}.bn.gain" in want or f"{p}.bn.bias" in want
            d, dgain, dbias = _bn_backward(layer.bn, ctx["bn_ctx"], d, bn_grads)
            grads[f"{p}.bn.gain"] = dgain
            grads[f"{p}.bn.bias"] = dbias
        if layer.qc_gamma is not None:
            if f"{p}.qc_gamma" in want or f"{p}.qc_beta" in want:
                caxes = tuple(j for j in range(d.ndim) if j != 1)
                dgam = (d * ctx["h_lin"]).sum(axis=caxes)
                dbet = d.sum(axis=caxes)
                if layer.qc_gamma.size == 1:
                    dgam = dgam.sum().reshape(layer.qc_gamma.shape)
                    dbet = dbet.sum().reshape(layer.qc_beta.shape)
                grads[f"{p}.qc_gamma"] = dgam
                grads[f"{p}.qc_beta"] = dbet
            cshape = [1] * d.ndim
            cshape[1] = layer.qc_gamma.size
            d = d * layer.qc_gamma.reshape(cshape)
        if f"{p}.bias" in want:
            grads[f"{p}.bias"] = d.sum(axis=0 if layer.kind == DENSE else (0, 2, 3))
        if need_w:
            if layer.kind == DENSE:
                g_w = d.T @ ctx["a_used"]
            else:
                g_w = _conv_weight_grad(layer.kind, d, ctx["cols"])
            if quant_w:
                g_w, g_s = quantize_backward(ctx["w_round"], layer.w_quant, g_w)
                grads[f"{p}.w_scale"] = g_s
            grads[f"{p}.weight"] = g_w
        if i == 0 and not (quant_a and f"{p}.a_scale" in want):
            break  # nothing reads the net's input gradient
        if layer.kind == DENSE:
            d_a_used = d @ ctx["w_used"]
        else:
            d_a_used = _conv_input_grad(layer, d, ctx)
        if quant_a:
            d_a_in, g_s = quantize_backward(ctx["a_round"], layer.a_quant, d_a_used)
            grads[f"{p}.a_scale"] = g_s
        else:
            d_a_in = d_a_used
        d = d_a_in.reshape(ctx["orig_shape"])
    # An entry no layer wrote (a quantizer scale in latent mode) is zero.
    return {
        name: grads[name] if name in grads else np.zeros_like(p)
        for name, p in params.items()
        if name in want
    }


def _conv_weight_grad(kind, d, cols):
    """dW from (B, O, OH, OW) ``d`` and im2col ``cols``, contracted over a
    batch-major copy of the patches (see the module docstring)."""
    batch_major = np.ascontiguousarray(cols.transpose(5, 0, 1, 2, 3, 4))
    if kind == CONV2D:
        return np.einsum("boyx,bcijyx->ocij", d, batch_major)
    return np.einsum("bcyx,bcijyx->cij", d, batch_major)[:, None]


def _conv_input_grad(layer, d, ctx):
    """Gradient w.r.t. the layer's (quantized) input, via patch gradients
    in the im2col layout and col2im."""
    d_t = np.ascontiguousarray(d.transpose(1, 2, 3, 0))
    w_used = ctx["w_used"]
    if layer.kind == CONV2D:
        dcols = np.einsum("oyxb,ocij->cijyxb", d_t, w_used)
    else:
        dcols = np.einsum("cyxb,cij->cijyxb", d_t, w_used[:, 0])
    return col2im(dcols, ctx["a_used"].shape, layer.stride, layer.pad)


def dampening_penalty(net: NetworkSpec, lam: float):
    """Pull latent weights toward their quantized values.

    Returns (penalty, grads-on-weights).  Only in-clip-range elements count;
    the quantized value is treated as a constant target, so the gradient is
    2*lam*(W - q(W)) and nothing flows to the step sizes.
    """
    penalty = 0.0
    grads = {}
    for i, layer in enumerate(net.layers):
        if layer.w_quant is None:
            continue
        q = layer.w_quant
        w_q, _, rounding = round_to_grid(layer.weight, q)
        diff = (w_q - layer.weight) * rounding.in_range
        penalty += lam * float((diff * diff).sum())
        grads[f"layer{i}.weight"] = 2.0 * lam * -diff
    return penalty, grads


def loss_and_grad(kind: str, y, target):
    """Scalar loss (mean over the batch) and its gradient w.r.t. y."""
    y = np.asarray(y, dtype=np.float64)
    if kind == "mse":
        t = np.asarray(target, dtype=np.float64)
        if t.shape != y.shape:
            raise ValueError(f"target shape {t.shape} != output {y.shape}")
        diff = y - t
        return float(np.mean(diff * diff)), 2.0 * diff / diff.size
    if kind == "softmax_ce":
        t = np.asarray(target)
        if t.shape != (y.shape[0],):
            raise ValueError("softmax_ce wants integer class targets of shape (B,)")
        shifted = y - y.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_p = shifted - log_z
        b = y.shape[0]
        loss = -float(log_p[np.arange(b), t].mean())
        grad = np.exp(log_p)
        grad[np.arange(b), t] -= 1.0
        return loss, grad / b
    raise ValueError(f"unknown loss {kind!r}")


def build_mlp(in_dim: int, out_dim: int, hidden=(32, 64, 32), loss: str = "softmax_ce",
              nonlinearity: str = "silu", rng=None, batch_norm: bool = True):
    """Latent-precision MLP; attach quantizers separately."""
    if rng is None:
        raise ValueError("build_mlp needs an rng")
    dims = [in_dim, *hidden, out_dim]
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        w = rng.normal((dims[i + 1], fan_in)) * np.sqrt(2.0 / fan_in)
        last = i == len(dims) - 2
        layers.append(
            LayerSpec(
                kind=DENSE,
                weight=w,
                bias=np.zeros(dims[i + 1]),
                bn=None if (last or not batch_norm) else make_bn(dims[i + 1]),
                nonlinearity="none" if last else nonlinearity,
            )
        )
    return NetworkSpec(layers=layers, input_shape=(in_dim,), loss=loss)


def build_cnn(in_shape=(1, 4, 4), out_dim: int = 3, channels=(8, 16, 16, 32),
              loss: str = "softmax_ce", nonlinearity: str = "silu", rng=None):
    """Four conv blocks, the third depthwise, then a dense head."""
    if rng is None:
        raise ValueError("build_cnn needs an rng")
    c_in = in_shape[0]
    layers = []
    spatial = in_shape[1:]
    for i, c_out in enumerate(channels):
        if i == 2:
            w = rng.normal((c_in, 1, 3, 3)) * np.sqrt(2.0 / 9.0)
            kind = DEPTHWISE
            c_out = c_in
        else:
            w = rng.normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / (9.0 * c_in))
            kind = CONV2D
        layers.append(
            LayerSpec(
                kind=kind,
                weight=w,
                bias=np.zeros(c_out),
                bn=make_bn(c_out),
                nonlinearity=nonlinearity,
                stride=1,
                pad=1,
            )
        )
        c_in = c_out
    head_in = c_in * spatial[0] * spatial[1]
    w = rng.normal((out_dim, head_in)) * np.sqrt(2.0 / head_in)
    layers.append(
        LayerSpec(kind=DENSE, weight=w, bias=np.zeros(out_dim), nonlinearity="none")
    )
    return NetworkSpec(layers=layers, input_shape=in_shape, loss=loss)
