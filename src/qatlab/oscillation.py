"""Toy oscillation demonstration and flip instrumentation.

A three-coordinate regression problem whose weights and step sizes are
trained through the quantizer with straight-through gradients.  Latent
weights that sit near a rounding threshold keep crossing it, so their
integer codes flip step after step; the tracker counts those flips over a
sliding window and the boundary histogram shows where latents cluster
relative to the thresholds.
"""

from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .ema import EMAState, ema_update
from .numeric import Rng
from .quantizer import (
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
    """Windowed per-parameter flip counter over integer code snapshots.

    Covers the last `window` code snapshots; flip_counts holds the number of
    code changes between consecutive snapshots still inside the window, so
    each count is at most window - 1.  Only the latest snapshot is kept,
    plus one boolean change mask per transition inside the window, which is
    all that eviction needs and an eighth of the bytes of int64 snapshots.
    """

    def __init__(self, window: int):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.flip_counts = None
        self._last = None
        self._buf: deque = deque()

    @property
    def recorded(self) -> int:
        return 0 if self._last is None else len(self._buf) + 1


def record_step(t: OscillationTracker, codes) -> OscillationTracker:
    codes = np.asarray(codes)
    if t._last is None:
        t.flip_counts = np.zeros(codes.shape, dtype=np.int64)
    else:
        if codes.shape != t._last.shape:
            raise ValueError(
                f"code shape changed mid-run: {t._last.shape} -> {codes.shape}"
            )
        if len(t._buf) == t.window - 1:
            # The oldest transition leaves the window.
            t.flip_counts -= t._buf.popleft()
        changed = t._last != codes
        t.flip_counts += changed
        t._buf.append(changed)
    t._last = codes.copy()
    return t


def flip_frequency(t: OscillationTracker):
    """Flips per transition inside the window, one value per parameter."""
    if t.recorded < 2:
        raise RuntimeError("need at least 2 recorded steps")
    return t.flip_counts / (t.recorded - 1)


@dataclass
class BoundaryHistogram:
    counts: np.ndarray
    edges: np.ndarray
    bin_count: int


def boundary_histogram(w, q: QuantizerState, bins: int) -> BoundaryHistogram:
    """Bin in-range latents by distance-to-threshold d = |frac(w/s) - 0.5|.

    d = 0 means the latent sits exactly on a rounding threshold, d = 0.5
    exactly on a quantization level.  Non-finite input is rejected, as by
    the quantizer.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    rounding = round_to_grid(w, q)[2]
    z = rounding.z[rounding.in_range]
    d = np.abs((z - np.floor(z)) - 0.5)
    counts, edges = np.histogram(d, bins=bins, range=(0.0, 0.5))
    return BoundaryHistogram(counts=counts, edges=edges, bin_count=bins)


def toy_objective(w, s_w: QuantizerState, s_x: QuantizerState, x_batch, w_star):
    """Mean L2 distance between x*w_star and its doubly quantized model."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x_batch must be 1-d")
    return _mean_norm(_residual(x, quantize(x, s_x), quantize(w, s_w), w_star))


def _residual(x, qx, qw, w_star):
    return x[:, None] * np.asarray(w_star)[None, :] - qx[:, None] * qw[None, :]


def _mean_norm(e):
    return float(np.mean(np.sqrt(np.sum(e * e, axis=1))))


def run_toy(p: ToyProblem, use_ema: bool = False, rng: Rng = None):
    """Plain gradient descent on (w, s_w, s_x) through the quantizer.

    Records every step: latent w, q(w), both scales, batch loss, and the
    integer codes fed to the tracker.  With use_ema, shadows of all three
    trainables are updated after each step and recorded in parallel.
    Aborts if the reported loss exceeds DIVERGENCE_LIMIT.

    Each step rounds x and w once; that rounding feeds the residual, the
    recorded codes and the straight-through backward.  The EMA shadow
    codes are a third rounding.  The scales are updated in place.
    """
    if rng is None:
        raise ValueError("run_toy needs an explicit rng")
    q_w = QuantizerState(s=np.asarray(float(p.s_w0)), bits=p.bits_w, signed=True)
    q_x = QuantizerState(s=np.asarray(float(p.s_x0)), bits=p.bits_x, signed=False)
    w = p.w_star.copy()
    tracker = OscillationTracker(window=max(p.steps, 2))
    rows = {k: [] for k in ("w", "q_w", "s_w", "s_x", "loss", "codes")}
    if use_ema:
        ema = EMAState(alpha=p.ema_alpha, warmup_iters=int(p.ema_warmup_frac * p.steps))
        sh_q_w = q_w.copy()
        for k in ("ema_w", "ema_s_w", "ema_s_x", "ema_codes"):
            rows[k] = []

    for step in range(p.steps):
        x = rng.uniform((p.batch_size,), p.x_lo, p.x_hi)
        qx, _, x_round = round_to_grid(x, q_x)
        qw, w_code, w_round = round_to_grid(w, q_w)
        e = _residual(x, qx, qw, p.w_star)
        loss = _mean_norm(e)
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise RuntimeError(f"toy run diverged at step {step}: loss={loss}")

        codes = w_code.astype(np.int64)
        record_step(tracker, codes)
        rows["w"].append(w)  # w is rebound below, never written in place
        rows["q_w"].append(qw)
        rows["s_w"].append(float(q_w.s))
        rows["s_x"].append(float(q_x.s))
        rows["loss"].append(loss)
        rows["codes"].append(codes)
        if use_ema:
            sh_w = ema.shadows.get("w", w)
            sh_q_w.s[...] = ema.shadows.get("s_w", q_w.s)
            rows["ema_w"].append(sh_w.copy())
            rows["ema_s_w"].append(float(sh_q_w.s))
            rows["ema_s_x"].append(float(ema.shadows.get("s_x", q_x.s)))
            rows["ema_codes"].append(integer_code(sh_w, sh_q_w))

        # Squared-norm gradients of the sampled objective.
        g_w, g_sw = quantize_backward(w_round, q_w, -2.0 / x.size * (qx @ e))
        _, g_sx = quantize_backward(x_round, q_x, -2.0 / x.size * (e @ qw))

        w = w - p.lr * g_w
        q_w.s[...] = np.maximum(q_w.s - p.lr * g_sw, SCALE_FLOOR)
        q_x.s[...] = np.maximum(q_x.s - p.lr * g_sx, SCALE_FLOOR)
        if use_ema:
            ema_update(ema, {"w": w, "s_w": q_w.s, "s_x": q_x.s})

    trace = {k: np.asarray(v) for k, v in rows.items()}
    eval_x = rng.child("toy_eval").uniform((4096,), p.x_lo, p.x_hi)
    trace["final_eval_loss"] = toy_objective(w, q_w, q_x, eval_x, p.w_star)
    if use_ema:
        sh_q_w.s[...] = ema.shadows["s_w"]
        sh_q_x = q_x.copy()
        sh_q_x.s[...] = ema.shadows["s_x"]
        trace["final_eval_loss_ema"] = toy_objective(
            ema.shadows["w"], sh_q_w, sh_q_x, eval_x, p.w_star
        )
    return trace, tracker
