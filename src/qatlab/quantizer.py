"""Simulated (fake) quantization with a learned step size.

Forward pass maps a tensor onto the uniform grid ``s * clip(round(w / s), u, v)``.
A fake-quantize forward that trains rounds in ``round_to_grid``: it
computes ``z = w / s``, ``r = round(z)`` and the clipped code once and
returns them as a ``Rounding`` beside the fake-quantized value.  Where only
the value or the code is wanted, ``quantize`` and ``integer_code`` give the
same bits from one working array the size of w.  The
backward pass takes that rounding from the forward instead of rounding
again; it treats the rounding operator as identity inside the clip range
(straight-through) and produces the learned-step-size gradient for the
scale factor.  A threshold-based
soft-rounding variant rounds only elements that already sit close to a grid
level, leaving the rest latent; it is a diagnostic, not a training path.

Rounding ties break half-away-from-zero; this is frozen here because every
downstream determinism guarantee depends on one fixed choice.
"""

from __future__ import annotations

import functools
import math
from copy import deepcopy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SCALE_FLOOR",
    "QuantizerState",
    "SoftRoundConfig",
    "Rounding",
    "round_half_away",
    "round_to_grid",
    "quantize",
    "quantize_backward",
    "soft_round",
    "integer_code",
    "init_scale",
]

SCALE_FLOOR = 1e-8

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"


# |z| + 0.5 rounds up 0.5 - ulp and odd integers in [2**52, 2**53) to the next integer.
_BELOW_HALF = np.nextafter(0.5, 0.0)


def round_half_away(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer, ties away from zero, into ``out`` (which
    may be z; a new array when None).

    Beside ``out`` it holds one byte per element, -1 where z < 0 and 0
    elsewhere, whose sign it copies onto ``floor(|z| + 0.5 - ulp)``, so the
    bits are those of ``sign(z) * floor(|z| + 0.5 - ulp)``, -0.0 included.
    A masked ``np.negative(..., where=)`` takes fifteen times the time on a
    weight matrix."""
    if out is None:
        out = np.empty(np.shape(z))
    neg = -np.less(z, 0.0).view(np.int8)
    r = np.abs(z, out=out)
    r += _BELOW_HALF
    np.floor(r, out=r)
    return np.copysign(r, neg, out=r)


def integer_range(bits: int, signed: bool) -> tuple[int, int]:
    # Codes are float64, which holds every integer up to 2**53 exactly.
    if not 1 <= bits <= 53:
        raise ValueError(f"bits must be in [1, 53], got {bits}")
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2**bits - 1


@dataclass
class QuantizerState:
    """Scale factor(s) plus the integer grid they map onto.

    ``s`` is a 0-d array for per-tensor granularity or a 1-d array with one
    entry per channel along ``axis``.  ``u`` and ``v`` are derived from
    ``bits`` and ``signed`` and must not be set independently.
    """

    s: np.ndarray
    bits: int
    signed: bool = True
    granularity: str = PER_TENSOR
    axis: int | None = None
    u: int = field(init=False)
    v: int = field(init=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.u, self.v = integer_range(self.bits, self.signed)
        if self.granularity == PER_TENSOR:
            if self.s.ndim != 0 or self.axis is not None:
                raise ValueError("per-tensor quantizer needs a scalar scale and no axis")
        elif self.granularity == PER_CHANNEL:
            if self.s.ndim != 1:
                raise ValueError("per-channel quantizer needs a 1-d scale vector")
            if self.axis is None:
                raise ValueError("per-channel quantizer needs a channel axis")
        else:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if not np.all(self.s > 0):
            raise ValueError("scale must be positive elementwise")

    def broadcast_scale(self, w: np.ndarray) -> np.ndarray:
        """Scale shaped to broadcast against w along the channel axis."""
        if self.granularity == PER_TENSOR:
            return self.s
        if w.shape[self.axis] != self.s.shape[0]:
            raise ValueError(
                f"scale has {self.s.shape[0]} channels but axis {self.axis} "
                f"of shape {w.shape} has {w.shape[self.axis]}"
            )
        if self.s.shape[0] == 1:  # one channel broadcasts as a scalar, which is cheaper
            return self.s.reshape(())
        # Broadcasting supplies the leading axes.
        return self.s.reshape((-1,) + (1,) * (w.ndim - 1 - self.axis % w.ndim))

    copy = deepcopy


@dataclass
class SoftRoundConfig:
    """Threshold for soft rounding; fractional distances <= k snap to grid."""

    k: float = 0.45

    def __post_init__(self):
        if not 0.0 <= self.k <= 0.5:
            raise ValueError(f"soft-round threshold must lie in [0, 0.5], got {self.k}")


class Rounding(NamedTuple):
    """``z = w / s``, ``r = round_half_away(z)`` and ``code = clip(r, u, v)``
    from one rounding of w onto a quantizer's grid, kept for the
    straight-through backward."""

    z: np.ndarray
    r: np.ndarray
    code: np.ndarray

    @property
    def in_range(self) -> np.ndarray:
        """Where the rounded value lies in the grid range, unclipped."""
        return self.code == self.r


def round_to_grid(
    w: np.ndarray, q: QuantizerState
) -> tuple[np.ndarray, np.ndarray, Rounding]:
    """Fake-quantize w: returns ``(s * code, code, Rounding(z, r, code))``,
    where ``code = clip(r, u, v)`` is the integer grid index as float64.

    Rejects non-finite input, which has no grid code.
    """
    z, s = _scaled(w, q)
    r = round_half_away(z)
    code = r.clip(q.u, q.v)
    return s * code, code, Rounding(z, r, code)


def _scaled(w: np.ndarray, q: QuantizerState) -> tuple[np.ndarray, np.ndarray]:
    """``(w / s, s)`` as a new array and q's broadcast scale; rejects
    non-finite w, which has no grid code."""
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise ValueError("quantizer rejects non-finite input")
    s = q.broadcast_scale(w)
    return np.divide(w, s, out=np.empty(w.shape)), s


def _grid_code(w: np.ndarray, q: QuantizerState) -> tuple[np.ndarray, np.ndarray]:
    """``(clip(round(w / s), u, v), s)``: the bits of round_to_grid's code,
    rounded and clipped in place in one array the size of w."""
    code, s = _scaled(w, q)
    round_half_away(code, out=code)
    return np.clip(code, q.u, q.v, out=code), s


def quantize(w: np.ndarray, q: QuantizerState) -> np.ndarray:
    """Map w onto the quantization grid: s * clip(round(w / s), u, v), the
    value of round_to_grid without its Rounding."""
    code, s = _grid_code(w, q)
    return np.multiply(s, code, out=code)


def integer_code(w: np.ndarray, q: QuantizerState) -> np.ndarray:
    """Integer grid index of each element: clip(round(w / s), u, v)."""
    return _grid_code(w, q)[0].astype(np.int64)


@functools.cache
def _reduce_axes(ndim: int, granularity: str, axis: int | None) -> tuple[int, ...] | None:
    """The axes a scale reduces over: all (None) per tensor, every axis but
    ``axis`` per channel."""
    if granularity == PER_TENSOR:
        return None
    if granularity != PER_CHANNEL:
        raise ValueError(f"unknown granularity {granularity!r}")
    if axis is None:
        raise ValueError("per-channel init_scale needs a channel axis")
    return tuple(ax for ax in range(ndim) if ax != axis)


def _scale_grad_norm(q: QuantizerState, n_elements: int) -> float:
    # Learned-step-size normalization; max(v, 1) keeps the 1-bit signed grid
    # (v = 0) from dividing by zero.
    return 1.0 / math.sqrt(n_elements * max(q.v, 1))


def quantize_backward(
    rounding: Rounding, q: QuantizerState, g_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Straight-through gradients of the fake-quantize forward.

    ``rounding`` is what ``round_to_grid`` returned for this forward, so
    nothing is rounded again.  With z = w / s and r = round(z):
      in range (u <= r <= v):  d/dw = 1,  per-element d/ds = r - z
      below range (r < u):     d/dw = 0,  per-element d/ds = u
      above range (r > v):     d/dw = 0,  per-element d/ds = v
    Returns (g_w, g_s); g_s sums the elementwise scale contributions
    (per channel for per-channel scales) and applies the learned-step-size
    normalization 1 / sqrt(N * max(v, 1)).
    """
    z, r, code = rounding
    g_out = np.asarray(g_out, dtype=np.float64)
    if g_out.shape != z.shape:
        raise ValueError(f"upstream gradient shape {g_out.shape} != value shape {z.shape}")
    in_range = rounding.in_range
    g_w = g_out * in_range
    # Below the range code is u and above it v: the per-element d/ds.
    contrib = np.where(in_range, r - z, code)
    weighted = contrib * g_out
    g_s = np.add.reduce(weighted, axis=_reduce_axes(z.ndim, q.granularity, q.axis))
    return g_w, np.asarray(g_s * _scale_grad_norm(q, z.size // q.s.size))


def soft_round(w: np.ndarray, q: QuantizerState, c: SoftRoundConfig) -> np.ndarray:
    """Round only elements within fractional distance k of a grid level.

    Elements farther than k from their nearest level keep their latent value;
    everything is clipped to the representable range [s*u, s*v].
    """
    z, r, _ = round_to_grid(w, q)[2]
    snapped = np.where(np.abs(z - r) <= c.k, r, z)
    return q.broadcast_scale(z) * np.clip(snapped, q.u, q.v)


def init_scale(
    w: np.ndarray,
    bits: int,
    signed: bool = True,
    granularity: str = PER_TENSOR,
    axis: int | None = None,
    kind: str = "weight",
) -> QuantizerState:
    """Initial quantizer for a tensor.

    Weights use max|w| / v; activations use the 99.9th percentile of |w| over
    one calibration batch divided by v.  The 1-bit signed grid has v = 0, so
    |u| stands in for v there.  All-zero input degenerates to the scale floor.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("init_scale needs a nonempty tensor")
    u, v = integer_range(bits, signed)
    denom = v if v >= 1 else abs(u)

    abs_w, axes = np.abs(w), _reduce_axes(w.ndim, granularity, axis)
    if kind == "activation":
        raw = np.percentile(abs_w, 99.9, axis=axes) / denom
    else:
        raw = abs_w.max(axis=axes) / denom
    s0 = np.maximum(raw, SCALE_FLOOR)
    return QuantizerState(s=s0, bits=bits, signed=signed, granularity=granularity, axis=axis)
