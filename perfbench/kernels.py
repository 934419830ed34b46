"""Layer kernels at the trend CNN's shapes, timed through qatlab.network.

Each kernel is a one-layer net (no quantizers, batch norm or
nonlinearity) run with ``forward(..., mode="latent", cache=True)`` and
``backward``, at batch 32 on 4x4 feature maps:

  conv2d     the widest convolution of the trend CNN, 16 -> 32 channels, 3x3
  depthwise  its depthwise block, 16 channels, 3x3
  dense      its head, 16*32 = 512 -> 3

FLOPs and bytes are computed from the shapes, not measured: multiply-adds
count 2 FLOPs; backward is the weight gradient plus the input gradient,
twice the forward FLOPs; bytes are float64 input, weight and output.
"""

import statistics
import time

import numpy as np

from qatlab.network import CONV2D, DENSE, DEPTHWISE, LayerSpec, NetworkSpec, backward, forward

BATCH = 32
HW = 4
KERNEL = 3
ROUNDS = 15
ROUND_SECONDS = 0.02


def _layer(kind, rng):
    if kind == "conv2d":
        w, in_shape = rng.standard_normal((32, 16, KERNEL, KERNEL)), (16, HW, HW)
        return LayerSpec(CONV2D, w, np.zeros(32), pad=1), in_shape
    if kind == "depthwise":
        w, in_shape = rng.standard_normal((16, 1, KERNEL, KERNEL)), (16, HW, HW)
        return LayerSpec(DEPTHWISE, w, np.zeros(16), pad=1), in_shape
    w = rng.standard_normal((3, 16 * 32))
    return LayerSpec(DENSE, w, np.zeros(3)), (16 * 32,)


def _computed(kind):
    """(forward FLOPs, forward bytes) of one call."""
    pixels = BATCH * HW * HW
    if kind == "conv2d":
        flops = 2 * pixels * 32 * 16 * KERNEL * KERNEL
        elements = pixels * 16 + 32 * 16 * KERNEL * KERNEL + pixels * 32
    elif kind == "depthwise":
        flops = 2 * pixels * 16 * KERNEL * KERNEL
        elements = pixels * 16 + 16 * KERNEL * KERNEL + pixels * 16
    else:
        flops = 2 * BATCH * 512 * 3
        elements = BATCH * 512 + 512 * 3 + BATCH * 3
    return flops, 8 * elements


def _per_call_us(fn):
    """Median over rounds of the mean call time, each round ~ROUND_SECONDS."""
    fn()
    start, reps = time.perf_counter(), 0
    while time.perf_counter() - start < ROUND_SECONDS:
        fn()
        reps += 1
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)


def run():
    """Return ``{name: (value, unit)}`` for every kernel metric."""
    rng = np.random.default_rng(0)
    out = {}
    for kind in ("conv2d", "depthwise", "dense"):
        layer, in_shape = _layer(kind, rng)
        net = NetworkSpec(layers=[layer], input_shape=in_shape)
        x = rng.standard_normal((BATCH, *in_shape))
        y, cache = forward(net, x, mode="latent", cache=True)
        g = rng.standard_normal(y.shape)
        fwd_us = _per_call_us(lambda: forward(net, x, mode="latent", cache=True))
        bwd_us = _per_call_us(lambda: backward(net, cache, g))
        flops, nbytes = _computed(kind)
        total_flops = 3 * flops  # forward + backward (dW and dX)
        prefix = f"network.kernel.{kind}"
        out[f"{prefix}.fwd_us"] = (fwd_us, "us")
        out[f"{prefix}.bwd_us"] = (bwd_us, "us")
        out[f"{prefix}.gflops"] = (total_flops / ((fwd_us + bwd_us) * 1e-6) / 1e9, "GFLOP/s")
        out[f"{prefix}.fwd_flops_computed"] = (flops, "FLOP")
        out[f"{prefix}.fwd_bytes_computed"] = (nbytes, "bytes")
    return out
