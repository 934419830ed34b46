"""Training loops: Adam, quantizer attachment, evaluation, QAT."""

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .datasets import batches
from .ema import EMAState, ema_update, materialize_ema
from .flat import FlatLayout, LaidOutState
from .network import NetworkSpec, backward, dampening_penalty, forward, loss_and_grad
from .numeric import Rng
from .oscillation import DIVERGENCE_LIMIT, OscillationTracker, record_step
from .quantizer import SCALE_FLOOR, init_scale, integer_code

FLIP_WINDOW = 2000  # the QAT steps over which train_qat's tracker counts flips


@dataclass
class AdamState(LaidOutState):
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict, init=False)  # read-only after the first step
    v: dict = field(default_factory=dict, init=False)
    _flat: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.lr <= 0.0 or self.eps <= 0.0:
            raise ValueError("lr and eps must be positive")


def _check_grads(params: dict, grads: dict):
    """Raise for the first parameter, in order, whose gradient is not
    finite or does not have the parameter's shape."""
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.isfinite(g).all():
            raise RuntimeError(f"non-finite gradient for {name}")
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One Adam update, in place on the arrays in ``params``.

    The first call lays out ``state.m`` and ``state.v`` for the names and
    shapes of ``params``, as read-only views into one flat buffer each (the
    state then cannot be copied or pickled).  A later call with other names
    or shapes, or after ``state.m`` or ``state.v`` was rebound, raises before
    anything changes, so a fixed subset of a net's parameters trains and the
    rest stay frozen.  Parameters whose name ends in ``_scale`` are clamped
    to the positive scale floor after the update.

    Every Adam term is one pass over the gathered flat gradients, and the
    update is scattered back into ``params``.  Per element the arithmetic is
    ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + ((1 - b2) * g) * g`` and
    ``p -= (lr * m_hat) / (sqrt(v_hat) + eps)``.
    """
    if state._flat is None:
        _check_grads(params, grads)
        layout = FlatLayout(params)
        m, v = np.zeros(layout.size), np.zeros(layout.size)
        state.m = MappingProxyType(layout.views(m))
        state.v = MappingProxyType(layout.views(v))
        scales = [n for n in layout.names if n.endswith("_scale")]
        state._flat = layout, m, v, scales, state.m, state.v
    layout, m, v, scales, m_views, v_views = state._flat
    if state.m is not m_views or state.v is not v_views:
        raise ValueError("Adam moments were rebound after the first step")
    if len(params) != len(layout.names) or not layout.fits(params):
        raise ValueError("Adam moments do not match the parameter names and shapes")
    if not layout.fits(grads):
        _check_grads(params, grads)
    g = layout.gather(grads)
    if not np.isfinite(g).all():
        _check_grads(params, grads)
    state.step += 1
    t = state.step
    m *= state.beta1
    tmp = np.multiply(g, 1.0 - state.beta1)
    m += tmp
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    tmp *= g
    v += tmp
    delta = np.divide(m, 1.0 - state.beta1**t, out=g)  # g is spent
    delta *= state.lr
    np.divide(v, 1.0 - state.beta2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    delta /= tmp
    for name, d in layout.views(delta).items():
        p = params[name]
        p -= d
    for name in scales:
        np.maximum(params[name], SCALE_FLOOR, out=params[name])
    return params


def shape_inputs(x, input_shape):
    """Reshape flat (n, features) rows to the network's input layout."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and len(input_shape) > 1:
        if x.shape[1] != int(np.prod(input_shape)):
            raise ValueError(
                f"rows of size {x.shape[1]} cannot fill input shape {input_shape}"
            )
        return x.reshape(x.shape[0], *input_shape)
    return x


def attach_quantizers(
    net,
    x_sample,
    bits_w: int = 4,
    bits_a: int = 4,
    first_last_bits: int = 8,
    granularity: str = "per_tensor",
):
    """Return a copy of ``net`` with weight and activation quantizers.

    Weight scales come from the max-abs rule; activation scales from the
    clipped-percentile rule over a latent-mode pass on ``x_sample``.
    Activation signedness is read off the calibration batch: a layer whose
    input never goes negative (e.g. after relu) gets an unsigned quantizer.
    First and last layers run at ``first_last_bits``.
    """
    net = net.copy()
    a_in = shape_inputs(x_sample, net.input_shape)
    last = len(net.layers) - 1
    axis = 0 if granularity == "per_channel" else None
    for i, layer in enumerate(net.layers):
        wb = first_last_bits if i in (0, last) else bits_w
        ab = first_last_bits if i in (0, last) else bits_a
        layer.w_quant = init_scale(
            layer.weight, bits=wb, signed=True, granularity=granularity, axis=axis
        )
        signed = bool(a_in.min() < 0.0)
        layer.a_quant = init_scale(a_in, bits=ab, signed=signed, kind="activation")
        # One layer at a time: the calibration pass keeps no forward cache.
        a_in = forward(NetworkSpec([layer], a_in.shape[1:], net.loss), a_in, mode="latent")
    return net


def evaluate(net, x, y, mode: str = "quantized", batch: int = 256, k: float = 0.45) -> dict:
    """Average loss (and accuracy for classifiers) over ``x`` with
    batch-norm in eval mode.  Short final batches are kept."""
    net = net.frozen()
    x = shape_inputs(x, net.input_shape)
    total, correct, seen = 0.0, 0, 0
    for idx in batches(len(x), batch, drop_last=False):
        out = forward(net, x[idx], mode=mode, k=k)
        loss, _ = loss_and_grad(net.loss, out, y[idx])
        total += loss * len(idx)
        seen += len(idx)
        if net.loss == "softmax_ce":
            correct += int((out.argmax(axis=1) == y[idx]).sum())
    result = {"loss": total / seen}
    if net.loss == "softmax_ce":
        result["accuracy"] = correct / seen
    return result


@dataclass
class TrainConfig:
    epochs: int = 10
    batch: int = 32
    lr: float = 1e-3
    ema_enabled: bool = True
    ema_alpha: float = 0.999
    ema_warmup_frac: float = 0.01
    dampening_lambda: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.dampening_lambda < 0.0:
            raise ValueError("dampening_lambda must be >= 0")
        if not 0.0 <= self.ema_alpha < 1.0 or self.ema_warmup_frac < 0.0:
            raise ValueError("ema_alpha must be in [0, 1) and ema_warmup_frac >= 0")


def _weight_codes(net, qlayers):
    return np.concatenate(
        [integer_code(net.layers[i].weight, net.layers[i].w_quant).ravel() for i in qlayers]
    )


def check_batch_fits(rows: int, batch: int, epochs: int):
    """Raise unless ``epochs`` over ``rows`` training rows take a step:
    short final batches are dropped, so fewer rows than ``batch`` take none."""
    if epochs >= 1 and rows < batch:
        raise ValueError(f"{rows} training rows cannot fill one batch of {batch}")


def adam_batch(net, opt: AdamState, params: dict, x, y, mode: str, what: str,
               dampening: float = 0.0) -> float:
    """One Adam step of ``params``, views into ``net.parameters()``, on the
    batch (x, y) in ``mode``; returns the batch loss.

    The forward pass refreshes the running statistics of batch norm in
    train mode, and ``dampening`` > 0 adds the dampening penalty to the
    loss and its gradient.  A loss that is not finite or exceeds
    DIVERGENCE_LIMIT raises ``RuntimeError("<what> diverged ...")`` before
    the Adam step.  The forward cache and the gradients are freed when this
    returns.
    """
    out, cache = forward(net, x, mode=mode, cache=True, update_running=True)
    loss, g = loss_and_grad(net.loss, out, y)
    grads = backward(net, cache, g, wanted=params)
    if dampening > 0.0:
        penalty, pgrads = dampening_penalty(net, dampening)
        loss += penalty
        for name, pg in pgrads.items():
            grads[name] = grads[name] + pg
    if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise RuntimeError(f"{what} diverged (loss={loss})")
    adam_step(opt, params, grads)
    return loss


def train_latent(net, dataset, epochs: int, batch: int = 32, lr: float = 1e-3, seed: int = 0):
    """Plain full-precision pretraining, in place.  Returns the net."""
    rng = Rng(seed).child("pretrain")
    opt = AdamState(lr=lr)
    params = net.parameters()
    x_all = shape_inputs(dataset.train_x, net.input_shape)
    y_all = dataset.train_y
    check_batch_fits(len(x_all), batch, epochs)
    for _ in range(epochs):
        for idx in batches(len(x_all), batch, drop_last=True, rng=rng):
            adam_batch(net, opt, params, x_all[idx], y_all[idx], "latent", "pretraining")
    return net


def train_qat(net, dataset, cfg: TrainConfig, ema_alphas=None):
    """Quantization-aware training, in place on ``net``.

    Returns ``(net, ema_state, tracker, history)``.  The EMA shadows every
    trainable parameter after each optimizer step; the tracker records the
    concatenated integer weight codes after each of the last FLIP_WINDOW
    steps (every step of a shorter run), so flip statistics over that window
    can be read off afterwards.  ``cfg.epochs == 0`` leaves the net
    untouched and the history empty.

    The shadows never feed back into training, so one live run serves any
    number of decays.  With ``ema_alphas``, one shadow set is kept per decay
    (in place of ``cfg.ema_alpha`` and ``cfg.ema_enabled``) and the return
    is ``(net, {alpha: ema_state}, tracker, {alpha: history})``; each epoch
    evaluates the live net once and each materialized shadow once, and every
    alpha's history equals that of a separate run with that ``ema_alpha``.
    """
    rng = Rng(cfg.seed).child("qat")
    opt = AdamState(lr=cfg.lr)
    params = net.parameters()
    qlayers = [i for i, l in enumerate(net.layers) if l.w_quant is not None]
    tracker = OscillationTracker()

    x_all = shape_inputs(dataset.train_x, net.input_shape)
    y_all = dataset.train_y
    check_batch_fits(len(x_all), cfg.batch, cfg.epochs)
    iters_per_epoch = len(x_all) // cfg.batch
    total_iters = cfg.epochs * iters_per_epoch
    if ema_alphas is None:
        alphas = [cfg.ema_alpha] if cfg.ema_enabled else []
    else:
        alphas = list(ema_alphas)
    warmup_iters = int(round(cfg.ema_warmup_frac * total_iters))
    emas = {alpha: EMAState(alpha=alpha, warmup_iters=warmup_iters) for alpha in alphas}

    history = []
    shadow_histories = {alpha: [] for alpha in emas}
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for idx in batches(len(x_all), cfg.batch, drop_last=True, rng=rng):
            epoch_loss += adam_batch(net, opt, params, x_all[idx], y_all[idx], "quantized",
                                     f"training at epoch {epoch}", cfg.dampening_lambda)
            for ema in emas.values():
                ema_update(ema, params)
            if qlayers and opt.step > total_iters - FLIP_WINDOW:  # opt.step counts this step
                record_step(tracker, _weight_codes(net, qlayers))

        row = {"epoch": epoch, "train_loss": epoch_loss / iters_per_epoch}
        ev = evaluate(net, dataset.eval_x, dataset.eval_y)
        row.update({f"eval_{k}": v for k, v in ev.items()})
        if not emas:
            history.append(row)
        for alpha, ema in emas.items():
            sev = evaluate(materialize_ema(net, ema), dataset.eval_x, dataset.eval_y)
            shadow_histories[alpha].append({**row, **{f"ema_eval_{k}": v for k, v in sev.items()}})
    if ema_alphas is not None:
        return net, emas, tracker, shadow_histories
    return net, emas.get(cfg.ema_alpha), tracker, shadow_histories.get(cfg.ema_alpha, history)
