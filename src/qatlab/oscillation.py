"""Toy oscillation demonstration and flip instrumentation.

A three-coordinate regression problem whose weights and step sizes are
trained through the quantizer with straight-through gradients.  Latent
weights that sit near a rounding threshold keep crossing it, so their
integer codes flip step after step; the tracker counts those flips over
the snapshots it is given and the boundary histogram shows where latents
cluster relative to the thresholds.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .ema import EMAState, ema_update
from .numeric import Rng
from .quantizer import (
    PER_CHANNEL,
    SCALE_FLOOR,
    QuantizerState,
    integer_code,
    quantize,
    quantize_backward,
    round_to_grid,
)

DIVERGENCE_LIMIT = 1e6


@dataclass
class ToyProblem:
    """Sampled regression of x*w_star against its doubly quantized model.

    w_star coordinates are expressed relative to the initial weight step
    size.  The defaults sit off-grid in the representable (negative) half of
    the 1-bit signed grid, so every coordinate pulls on the shared step size
    and the code flipping never anneals away.
    """

    w_star: np.ndarray = dc_field(
        default_factory=lambda: np.array([-0.55, -0.3, -1.2])
    )
    bits_w: int = 1
    bits_x: int = 1
    batch_size: int = 16
    steps: int = 10_000
    lr: float = 0.01
    s_w0: float = 1.0
    s_x0: float = 0.5
    x_lo: float = 0.0
    x_hi: float = 1.0
    ema_alpha: float = 0.999
    ema_warmup_frac: float = 0.01

    def __post_init__(self):
        self.w_star = np.asarray(self.w_star, dtype=np.float64)
        if self.w_star.ndim != 1 or not self.w_star.size or not np.isfinite(self.w_star).all():
            raise ValueError("w_star must be a non-empty 1-d array of finite numbers")
        if not (self.s_w0 > 0 and self.s_x0 > 0):
            raise ValueError("s_w0 and s_x0 must be positive")
        if self.bits_w < 1 or self.bits_x < 1:
            raise ValueError("bit widths must be >= 1")
        if self.steps <= 0 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not self.x_lo < self.x_hi:
            raise ValueError("x range must be non-empty")
        if not 0.0 <= self.ema_alpha < 1.0 or self.ema_warmup_frac < 0.0:
            raise ValueError("ema_alpha must be in [0, 1) and ema_warmup_frac >= 0")


class OscillationTracker:
    """Per-parameter flip counter over integer code snapshots.

    flip_counts holds the number of code changes between consecutive
    snapshots, and recorded the number of snapshots; only the latest one is
    kept.  A caller that counts over a window records only the window's
    steps, as train_qat does.
    """

    # perfbench/spans.py's _tracker_bytes sums the arrays in _buf; there are none.
    _buf = ()

    def __init__(self):
        self.flip_counts = None
        self._last = None
        self.recorded = 0


def record_step(t: OscillationTracker, codes) -> OscillationTracker:
    codes = np.asarray(codes)
    if t._last is None:
        t.flip_counts = np.zeros(codes.shape, dtype=np.int64)
    else:
        if codes.shape != t._last.shape:
            raise ValueError(
                f"code shape changed mid-run: {t._last.shape} -> {codes.shape}"
            )
        t.flip_counts += t._last != codes
    t._last = codes.copy()
    t.recorded += 1
    return t


def flip_frequency(t: OscillationTracker):
    """Flips per recorded transition, one value per parameter."""
    if t.recorded < 2:
        raise RuntimeError("need at least 2 recorded steps")
    return t.flip_counts / (t.recorded - 1)


def flip_stats(t: OscillationTracker) -> dict:
    """Mean flip frequency, and the fraction of parameters that oscillate
    (flip frequency above 0.05); zeros before 2 recorded steps."""
    if t.recorded < 2:
        return {"mean_flip_frequency": 0.0, "oscillating_fraction": 0.0}
    freq = flip_frequency(t)
    return {
        "mean_flip_frequency": float(freq.mean()),
        "oscillating_fraction": float((freq > 0.05).mean()),
    }


def boundary_histogram(w, q: QuantizerState, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin in-range latents by distance-to-threshold d = |frac(w/s) - 0.5|;
    returns ``np.histogram``'s ``(counts, edges)`` over [0, 0.5].

    d = 0 means the latent sits exactly on a rounding threshold, d = 0.5
    exactly on a quantization level.  Non-finite input is rejected, as by
    the quantizer.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    rounding = round_to_grid(w, q)[2]
    z = rounding.z[rounding.in_range]
    d = np.abs((z - np.floor(z)) - 0.5)
    return np.histogram(d, bins=bins, range=(0.0, 0.5))


def toy_objective(w, s_w: QuantizerState, s_x: QuantizerState, x_batch, w_star):
    """Mean L2 distance between x*w_star and its doubly quantized model."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x_batch must be 1-d")
    return _mean_norm(_residual(x, quantize(x, s_x), quantize(w, s_w), w_star))


def _residual(x, qx, qw, w_star):
    return x[:, None] * np.asarray(w_star)[None, :] - qx[:, None] * qw[None, :]


def _mean_norm(e):
    # np.add.reduce is what np.sum and np.mean reduce with, minus their wrappers.
    return float(np.add.reduce(np.sqrt(np.add.reduce(e * e, axis=1))) / len(e))


def run_toy(p: ToyProblem, rng: Rng = None):
    """Plain gradient descent on (w, s_w, s_x) through the quantizer.

    Records every step: latent w, q(w), both scales, batch loss, the
    integer codes and their flips since the step before (0 at step 0), with
    the EMA shadows of all three trainables and their codes beside them; the
    shadows are passive, so the live run is the same as without them.
    Aborts if the reported loss exceeds DIVERGENCE_LIMIT.

    The step loop keeps only what the next step depends on, and writes each
    step into preallocated rows: it rounds x and w once each (for the
    residual, the codes and the straight-through backward), updates w and
    the scales in place and folds them into the shadows.  The rest is done
    in bulk by the same functions on the same doubles, so every bit is a
    per-step loop's: one draw of all batches (Philox yields the same doubles
    in one call as in many), one rounding of the shadow rows at a per-row
    scale for the shadow codes, and one change mask of consecutive code rows
    for the flips and the tracker, which holds what record_step would count.
    """
    if rng is None:
        raise ValueError("run_toy needs an explicit rng")
    q_w = QuantizerState(s=np.asarray(float(p.s_w0)), bits=p.bits_w, signed=True)
    q_x = QuantizerState(s=np.asarray(float(p.s_x0)), bits=p.bits_x, signed=False)
    w = p.w_star.copy()
    ema = EMAState(alpha=p.ema_alpha, warmup_iters=int(p.ema_warmup_frac * p.steps))
    live = {"w": w, "s_w": q_w.s, "s_x": q_x.s}
    xs = rng.uniform((p.steps, p.batch_size), p.x_lo, p.x_hi)
    ws, q_ws, codes, ema_ws = (np.empty((p.steps, w.size)) for _ in range(4))
    s_ws, s_xs, losses, ema_s_ws, ema_s_xs = (np.empty(p.steps) for _ in range(5))

    for step, x in enumerate(xs):
        qx, _, x_round = round_to_grid(x, q_x)
        qw, w_code, w_round = round_to_grid(w, q_w)
        e = _residual(x, qx, qw, p.w_star)
        loss = _mean_norm(e)
        if not loss <= DIVERGENCE_LIMIT:  # NaN fails the comparison too
            raise RuntimeError(f"toy run diverged at step {step}: loss={loss}")
        sh = ema.shadows or live  # before the first update the shadows are the live start
        ws[step], q_ws[step], codes[step], ema_ws[step] = w, qw, w_code, sh["w"]
        s_ws[step], s_xs[step], losses[step] = q_w.s, q_x.s, loss
        ema_s_ws[step], ema_s_xs[step] = sh["s_w"], sh["s_x"]

        # Squared-norm gradients of the sampled objective.
        g_w, g_sw = quantize_backward(w_round, q_w, -2.0 / x.size * (qx @ e))
        _, g_sx = quantize_backward(x_round, q_x, -2.0 / x.size * (e @ qw))

        w -= p.lr * g_w
        np.maximum(q_w.s - p.lr * g_sw, SCALE_FLOOR, out=q_w.s)
        np.maximum(q_x.s - p.lr * g_sx, SCALE_FLOOR, out=q_x.s)
        ema_update(ema, live)

    codes = codes.astype(np.int64)
    changed = codes[1:] != codes[:-1]
    flips = np.concatenate(([0], changed.sum(axis=1)))
    tracker = OscillationTracker()
    tracker.flip_counts, tracker._last = changed.sum(axis=0), codes[-1].copy()
    tracker.recorded = p.steps
    per_row = replace(q_w, s=ema_s_ws, granularity=PER_CHANNEL, axis=0)
    trace = {"w": ws, "q_w": q_ws, "s_w": s_ws, "s_x": s_xs, "loss": losses, "codes": codes,
             "flips": flips, "ema_w": ema_ws, "ema_s_w": ema_s_ws, "ema_s_x": ema_s_xs,
             "ema_codes": integer_code(ema_ws, per_row)}
    eval_x = rng.child("toy_eval").uniform((4096,), p.x_lo, p.x_hi)
    trace["final_eval_loss"] = toy_objective(w, q_w, q_x, eval_x, p.w_star)
    sh = ema.shadows
    trace["final_eval_loss_ema"] = toy_objective(
        sh["w"], replace(q_w, s=sh["s_w"]), replace(q_x, s=sh["s_x"]), eval_x, p.w_star
    )
    return trace, tracker
