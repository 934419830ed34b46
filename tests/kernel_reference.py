"""Name-by-name references for the flat-buffer optimizer state and the
lean quantizer and layer kernels.

Each function is the straightforward form of a kernel the library now
computes with fewer elementwise passes: Adam and the EMA update one
parameter at a time, the non-finite check as an elementwise test, the
scale gradient from three ``where`` calls, train-mode batch norm through
``np.var``, and the silu derivative from a fresh sigmoid.  The library
must equal them bit for bit.
"""

import numpy as np

from qatlab.network import BNParams
from qatlab.quantizer import (
    PER_TENSOR,
    SCALE_FLOOR,
    QuantizerState,
    Rounding,
    _scale_grad_norm,
    round_half_away,
)


def reference_adam_step(state, params: dict, grads: dict) -> dict:
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.isfinite(g).all():
            raise RuntimeError(f"non-finite gradient for {name}")
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if name.endswith("_scale"):
            np.maximum(p, SCALE_FLOOR, out=p)
    return params


def reference_ema_update(state, live: dict):
    a = state.effective_alpha
    for name, p in live.items():
        p = np.asarray(p)
        sh = state.shadows.get(name)
        if sh is None:
            if state.iter > 0:
                raise RuntimeError(f"parameter {name!r} appeared mid-run")
            state.shadows[name] = p.copy()
            continue
        if sh.shape != p.shape:
            raise RuntimeError(
                f"shadow shape {sh.shape} does not match live {p.shape} for {name!r}"
            )
        if a == 0.0:
            state.shadows[name] = p.copy()
        else:
            state.shadows[name] = a * sh + (1.0 - a) * p
    state.iter += 1
    return state


def reference_round_to_grid(w, q: QuantizerState):
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("quantizer rejects non-finite input")
    s = q.broadcast_scale(w)
    z = w / s
    r = round_half_away(z)
    code = np.clip(r, q.u, q.v)
    return s * code, code, Rounding(z, r, code)


def reference_quantize_backward(rounding: Rounding, q: QuantizerState, g_out):
    z, r = rounding.z, rounding.r
    g_out = np.asarray(g_out, dtype=np.float64)
    if g_out.shape != z.shape:
        raise ValueError(f"upstream gradient shape {g_out.shape} != value shape {z.shape}")
    below = r < q.u
    above = r > q.v
    in_range = ~(below | above)

    g_w = g_out * in_range

    contrib = np.where(in_range, r - z, 0.0)
    contrib = np.where(below, float(q.u), contrib)
    contrib = np.where(above, float(q.v), contrib)
    weighted = contrib * g_out
    if q.granularity == PER_TENSOR:
        g_s = np.asarray(weighted.sum() * _scale_grad_norm(q, z.size))
    else:
        reduce_axes = tuple(ax for ax in range(z.ndim) if ax != q.axis)
        per_channel_n = z.size // z.shape[q.axis]
        g_s = weighted.sum(axis=reduce_axes) * _scale_grad_norm(q, per_channel_n)
    return g_w, g_s


def reference_bn_forward(bn: BNParams, h, update_running: bool, own: bool = False):
    # Never writes into h; the output and x_hat are new arrays whatever ``own`` says.
    axes = (0,) if h.ndim == 2 else (0, 2, 3)
    shape = [1] * h.ndim
    shape[1] = bn.channels
    if bn.mode == "train":
        mean = h.mean(axis=axes)
        var = h.var(axis=axes)
        if update_running:
            n = h.size // bn.channels
            unbiased = var * (n / (n - 1)) if n > 1 else var
            bn.running_mean[...] = (
                1.0 - bn.momentum
            ) * bn.running_mean + bn.momentum * mean
            bn.running_var[...] = (
                1.0 - bn.momentum
            ) * bn.running_var + bn.momentum * unbiased
    else:
        mean = bn.running_mean
        var = bn.running_var
    std = np.sqrt(var + bn.eps)
    x_hat = (h - mean.reshape(shape)) / std.reshape(shape)
    out = bn.gain.reshape(shape) * x_hat + bn.bias.reshape(shape)
    return out, {"x_hat": x_hat, "std": std, "axes": axes, "shape": shape}


def reference_nonlin(h, kind):
    if kind == "relu":
        return np.maximum(h, 0.0)
    if kind == "silu":
        return h * (1.0 / (1.0 + np.exp(-h)))
    return h


def reference_nonlin_grad(h, kind):
    """The derivative with the sigmoid computed afresh."""
    if kind == "relu":
        return (h > 0.0).astype(np.float64)
    if kind == "silu":
        sig = 1.0 / (1.0 + np.exp(-h))
        return sig * (1.0 + h * (1.0 - sig))
    return np.ones_like(h)


def reference_activate(h, kind, grad: bool):
    return reference_nonlin(h, kind), reference_nonlin_grad(h, kind) if grad else None
