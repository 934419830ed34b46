"""Fitting of the post-hoc output correction (``network.apply_correction``)
on quantized layers, plus the absorption and folding algebra that makes it
free at inference time."""

from dataclasses import dataclass

import numpy as np

from .datasets import batches
from .network import BNParams, LayerSpec
from .numeric import Rng
from .quantizer import PER_CHANNEL, PER_TENSOR, SCALE_FLOOR, QuantizerState
from .training import AdamState, adam_batch, evaluate, shape_inputs


@dataclass
class QCConfig:
    lr: float = 1e-4
    granularity: str = PER_CHANNEL
    use_scale: bool = True
    use_shift: bool = True
    batch: int = 32

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.granularity not in (PER_TENSOR, PER_CHANNEL):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


def fit_qc(net, calib_x, calib_y, cfg: QCConfig, seed: int = 0):
    """Fit output corrections on the calibration split.

    Works on a copy: the input net, its weights, biases, scales, and BN
    statistics are never touched.  Exactly one epoch of Adam over the
    correction parameters, with batch norm frozen in eval mode.  Returns
    ``(corrected_net, {layer_index: (gamma, beta)})``, the arrays copied.
    """
    calib_x = np.asarray(calib_x, dtype=np.float64)
    if len(calib_x) == 0:
        raise ValueError("calibration set is empty")
    targets = [i for i, l in enumerate(net.layers) if l.w_quant is not None]
    if not targets:
        raise ValueError("no quantized layers to correct")

    net = net.frozen()
    for i in targets:
        size = net.layers[i].out_channels if cfg.granularity == PER_CHANNEL else 1
        net.layers[i].qc_gamma = np.ones(size)
        net.layers[i].qc_beta = np.zeros(size)

    names = []
    for i in targets:
        if cfg.use_scale:
            names.append(f"layer{i}.qc_gamma")
        if cfg.use_shift:
            names.append(f"layer{i}.qc_beta")
    if names:
        params = {n: net.parameters()[n] for n in names}
        opt = AdamState(lr=cfg.lr)
        rng = Rng(seed).child("qc_fit")
        x_all = shape_inputs(calib_x, net.input_shape)
        for idx in batches(len(x_all), cfg.batch, drop_last=False, rng=rng):
            adam_batch(net, opt, params, x_all[idx], calib_y[idx], "quantized",
                       "correction fitting")

    corrections = {
        i: (net.layers[i].qc_gamma.copy(), net.layers[i].qc_beta.copy()) for i in targets
    }
    return net, corrections


def absorb_into_bn(gamma, beta, bn: BNParams) -> BNParams:
    """Merge the correction gamma * h + beta into the following BN's
    affine parameters.

    BN(gamma h + beta) == BN'(h) exactly, using the frozen running stats:
    gain' = gain * gamma, bias' = bias + gain * (beta + (gamma - 1) mu) / std.
    """
    if bn.mode != "eval":
        raise RuntimeError("absorption needs frozen (eval mode) batch norm")
    if gamma.size not in (1, bn.channels):
        raise ValueError("correction width does not match BN channels")
    std = np.sqrt(bn.running_var + bn.eps)
    out = bn.copy()
    out.gain = bn.gain * gamma
    out.bias = bn.bias + bn.gain * (beta + (gamma - 1.0) * bn.running_mean) / std
    return out


def absorb_corrections(net):
    """Copy of ``net`` with every correction in front of a BN folded into
    that BN and removed.  Corrections on BN-less layers stay explicit."""
    net = net.copy()
    for layer in net.layers:
        if layer.qc_gamma is None or layer.bn is None:
            continue
        layer.bn = absorb_into_bn(layer.qc_gamma, layer.qc_beta, layer.bn)
        layer.qc_gamma = None
        layer.qc_beta = None
    return net


def fold_bn_into_quant_scale(layer: LayerSpec) -> LayerSpec:
    """Remove BN by pushing it into the weights, bias, and quantizer scale.

    With t = gain / sqrt(var + eps) per channel: W' = t W, bias' =
    t (bias - mu) + bn_bias, s' = s |t|; s is per tensor or per output
    channel, s' per output channel.  A negative t flips the channel's weight
    sign, so a weight at the lowest code u would need -u = v + 1 and clips
    to v: that fold is not exact, and the ``fold`` task refuses it.
    """
    if layer.bn is None:
        raise ValueError("layer has no batch norm to fold")
    if layer.bn.mode != "eval":
        raise RuntimeError("folding needs frozen (eval mode) batch norm")
    if layer.w_quant is None:
        raise ValueError("folding targets a quantized layer")
    if layer.qc_gamma is not None:
        raise ValueError("absorb the output correction before folding")

    bn = layer.bn
    t = bn.gain / np.sqrt(bn.running_var + bn.eps)
    tshape = [1] * layer.weight.ndim
    tshape[0] = t.size
    out = layer.copy()
    out.weight = layer.weight * t.reshape(tshape)
    out.bias = t * (layer.bias - bn.running_mean) + bn.bias
    out.w_quant = QuantizerState(
        s=np.maximum(layer.w_quant.s * np.abs(t), SCALE_FLOOR),
        bits=layer.w_quant.bits,
        signed=layer.w_quant.signed,
        granularity=PER_CHANNEL,
        axis=0,
    )
    out.bn = None
    return out


def fold_network(net):
    """Copy of ``net`` with every quantized BN layer folded."""
    net = net.copy()
    for i, layer in enumerate(net.layers):
        if layer.bn is not None and layer.w_quant is not None:
            net.layers[i] = fold_bn_into_quant_scale(layer)
    return net


ABLATION_VARIANTS = ("scale", "shift", "both")


def qc_ablation(net, dataset, lr: float = 1e-4, batch: int = 32, seed: int = 0) -> dict:
    """Fit and evaluate every {granularity} x {scale, shift, both} cell.

    Returns ``result[granularity][variant]`` dicts with the calibration
    loss before/after fitting and the eval metrics of the corrected net.
    ``fit_qc`` works on a copy, so the "before" loss is one evaluation
    shared by every cell.
    """
    calib_x, calib_y = dataset.calib_x, dataset.calib_y
    x, y = dataset.inputs, dataset.targets
    before = evaluate(net, x, y, rows=dataset.calib_idx)
    result = {}
    for granularity in (PER_TENSOR, PER_CHANNEL):
        result[granularity] = {}
        for variant in ABLATION_VARIANTS:
            cfg = QCConfig(
                lr=lr,
                granularity=granularity,
                use_scale=variant in ("scale", "both"),
                use_shift=variant in ("shift", "both"),
                batch=batch,
            )
            corrected, _ = fit_qc(net, calib_x, calib_y, cfg, seed=seed)
            after = evaluate(corrected, x, y, rows=dataset.calib_idx)
            ev = evaluate(corrected, x, y, rows=dataset.eval_idx)
            result[granularity][variant] = {
                "calib_loss_before": before["loss"],
                "calib_loss_after": after["loss"],
                **{f"eval_{k}": v for k, v in ev.items()},
            }
    return result
