"""Toy oscillation demonstration and flip instrumentation.

A three-coordinate regression problem whose weights and step sizes are
trained through the quantizer with straight-through gradients.  Latent
weights that sit near a rounding threshold keep crossing it, so their
integer codes flip step after step; the tracker counts those flips over
the snapshots it is given.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .ema import EMAState, ema_update
from .flat import FlatLayout
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
    and the code flipping never anneals away.  ``ema_warmup_iters``, the
    steps before the shadows start to average, is derived from
    ``ema_warmup_frac`` and ``steps``.
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
        # Derived here, so that a step count past float range fails when
        # the problem is built: the config rejects it before any run starts.
        self.ema_warmup_iters = int(self.ema_warmup_frac * self.steps)


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


def toy_objective(w, s_w: QuantizerState, s_x: QuantizerState, x_batch, w_star):
    """Mean L2 distance between x*w_star and its doubly quantized model."""
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x_batch must be 1-d")
    qx, qw = quantize(x, s_x), quantize(w, s_w)
    return float(_mean_norm(x[:, None] * np.asarray(w_star) - qx[:, None] * qw))


def _mean_norm(e):
    """Mean over the batch axis (-2) of the L2 norms over the last axis."""
    # np.add.reduce is what np.sum and np.mean reduce with, minus their wrappers.
    return np.add.reduce(np.sqrt(np.add.reduce(e * e, axis=-1)), axis=-1) / e.shape[-2]


def _with_targets(xs, w_star, chunk=1024):
    """Each step's batch x with its x * w_star, the products taken in bulk
    for a chunk of steps at a time."""
    for first in range(0, len(xs), chunk):
        block = xs[first:first + chunk]
        yield from zip(block, block * w_star)


def run_toy(p: ToyProblem, rng: Rng = None):
    """One seed of ``run_toys``: its ``(trace, tracker)``."""
    if rng is None:
        raise ValueError("run_toy needs an explicit rng")
    return run_toys(p, [rng])[0]


def run_toys(p: ToyProblem, rngs):
    """Plain gradient descent on (w, s_w, s_x) through the quantizer, for
    one seed per rng, all stepped together in one loop.

    Returns each seed's ``(trace, tracker)``.  The trace records every
    step: latent w, q(w), both scales, batch loss, the integer codes and
    their flips since the step before (0 at step 0), with the EMA shadows
    of all three trainables and their codes beside them; the shadows are
    passive, so the live run is the same as without them.  Aborts if any
    seed's reported loss exceeds DIVERGENCE_LIMIT.

    The seeds lie along a leading axis: x is (S, B, 1) and w (S, 1, 3),
    and each quantizer holds one scale per seed (per channel, axis 0), so
    a step makes the same numpy calls for any number of seeds.  Every
    operation is elementwise or reduces within one seed, in the order a
    single seed's loop takes, so each seed gets the bits it would get
    alone.  The step loop keeps only what the next step depends on, and
    writes each step into preallocated rows: it rounds x and w once each
    (for the residual, the codes and the straight-through backward),
    updates w and the scales in place and folds them into the shadows.
    The rest is done in bulk on the same doubles: one draw of all of a
    seed's batches (Philox yields the same doubles in one call as in
    many), x * w_star a chunk of steps at a time, the q(w) rows as scale
    times code, one rounding of the shadow rows at a per-row scale for the
    shadow codes, and one change mask of consecutive code rows for the
    flips and the tracker, which holds what record_step would count.
    """
    if not rngs or any(rng is None for rng in rngs):
        raise ValueError("run_toys needs an explicit rng per seed")
    n, steps, dim = len(rngs), p.steps, p.w_star.size
    start = {"w": np.tile(p.w_star, (n, 1, 1)),
             "s_w": np.full(n, float(p.s_w0)), "s_x": np.full(n, float(p.s_x0))}
    # w and both scales lie end to end in one buffer and their gradients in
    # another, so one row write records them and one subtraction steps them.
    layout = FlatLayout(start)
    params, grads = layout.gather(start), np.empty(layout.size)
    live, grad = layout.views(params), layout.views(grads)
    w, scales = live["w"], params[n * dim:]
    q_w, q_x = (
        QuantizerState(s=live[name], bits=bits, signed=signed, granularity=PER_CHANNEL, axis=0)
        for name, bits, signed in (("s_w", p.bits_w, True), ("s_x", p.bits_x, False))
    )
    ema = EMAState(alpha=p.ema_alpha, warmup_iters=p.ema_warmup_iters)
    xs = np.empty((steps, n, p.batch_size, 1))
    for i, rng in enumerate(rngs):
        xs[:, i, :, 0] = rng.uniform((steps, p.batch_size), p.x_lo, p.x_hi)
    rows = np.empty((steps, layout.size))
    codes, ema_ws = (np.empty((steps, n, 1, dim)) for _ in range(2))
    losses, ema_s_ws, ema_s_xs = (np.empty((steps, n)) for _ in range(3))
    g_scale = -2.0 / p.batch_size

    for step, (x, target) in enumerate(_with_targets(xs, p.w_star)):
        qx, _, x_round = round_to_grid(x, q_x)
        qw, w_code, w_round = round_to_grid(w, q_w)
        e = target - qx * qw
        loss = _mean_norm(e)
        if not loss.max() <= DIVERGENCE_LIMIT:  # NaN fails the comparison too
            worst = loss[~(loss <= DIVERGENCE_LIMIT)][0]
            raise RuntimeError(f"toy run diverged at step {step}: loss={float(worst)}")
        sh = ema.shadows or live  # before the first update the shadows are the live start
        rows[step], codes[step], losses[step] = params, w_code, loss
        ema_ws[step], ema_s_ws[step], ema_s_xs[step] = sh["w"], sh["s_w"], sh["s_x"]

        # Squared-norm gradients of the sampled objective.
        grad["w"][...], grad["s_w"][...] = quantize_backward(w_round, q_w, g_scale * (qx.mT @ e))
        grad["s_x"][...] = quantize_backward(x_round, q_x, g_scale * (e @ qw.mT))[1]

        params -= p.lr * grads
        np.maximum(scales, SCALE_FLOOR, out=scales)
        ema_update(ema, live)

    ws, s_ws, s_xs = (rows[:, a:b] for a, b in layout.bounds)
    ws, codes, ema_ws = (a.reshape(steps, n, dim) for a in (ws, codes, ema_ws))
    q_ws = s_ws[:, :, None] * codes  # the s * code that round_to_grid formed
    codes = codes.astype(np.int64)
    changed = codes[1:] != codes[:-1]
    flips = np.zeros((steps, n), dtype=np.int64)
    flips[1:] = changed.sum(axis=2)
    flip_counts = changed.sum(axis=0)
    per_row = replace(q_w, s=ema_s_ws.reshape(-1))
    ema_codes = integer_code(ema_ws.reshape(-1, dim), per_row).reshape(steps, n, dim)
    sh = ema.shadows
    results = []
    for i, rng in enumerate(rngs):
        tracker = OscillationTracker()
        tracker.flip_counts, tracker._last = flip_counts[i], codes[-1, i].copy()
        tracker.recorded = steps
        trace = {"w": ws[:, i], "q_w": q_ws[:, i], "s_w": s_ws[:, i], "s_x": s_xs[:, i],
                 "loss": losses[:, i], "codes": codes[:, i], "flips": flips[:, i],
                 "ema_w": ema_ws[:, i], "ema_s_w": ema_s_ws[:, i], "ema_s_x": ema_s_xs[:, i],
                 "ema_codes": ema_codes[:, i]}
        eval_x = rng.child("toy_eval").uniform((4096,), p.x_lo, p.x_hi)
        for key, at in (("final_eval_loss", live), ("final_eval_loss_ema", sh)):
            trace[key] = toy_objective(
                at["w"][i, 0],
                QuantizerState(s=at["s_w"][i], bits=p.bits_w, signed=True),
                QuantizerState(s=at["s_x"][i], bits=p.bits_x, signed=False),
                eval_x,
                p.w_star,
            )
        results.append((trace, tracker))
    return results
