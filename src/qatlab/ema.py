"""Exponential-moving-average shadows for latent weights and scales.

Shadows trail every trainable parameter, including quantizer step sizes.
The decay is held at zero for a short warmup (shadow = live copy), then
constant, so early noisy iterates never pollute the average.  Batch-norm
running statistics keep their own momentum averaging and are not shadowed
here.
"""

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .flat import FlatLayout, LaidOutState


@dataclass
class EMAState(LaidOutState):
    alpha: float
    warmup_iters: int = 0
    iter: int = 0
    shadows: dict[str, np.ndarray] = field(default_factory=dict)  # read-only after the first update
    _flat: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.alpha}")
        if self.warmup_iters < 0 or self.iter < 0:
            raise ValueError("warmup_iters and iter must be >= 0")

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.iter < self.warmup_iters else self.alpha


def _check_names(shadows, live: dict, mid_run: bool):
    """Raise unless every name of ``live`` has a shadow of its shape (or,
    before the first update, none yet) and every shadow a live value."""
    for name, p in live.items():
        sh = shadows.get(name)
        if sh is None:
            if mid_run:
                raise RuntimeError(f"parameter {name!r} appeared mid-run")
        elif sh.shape != np.shape(p):
            raise RuntimeError(
                f"shadow shape {sh.shape} does not match live {np.shape(p)} for {name!r}"
            )
    for name in shadows:
        if name not in live:
            raise RuntimeError(f"parameter {name!r} is missing from the update")


def ema_update(state: EMAState, live: dict) -> EMAState:
    """Fold one iteration's live parameters into the shadows.

    Call after every optimizer step.  The first call lays the shadows out
    for the names and shapes of ``live``: a shadow seeded by hand before it
    is taken up, any other starts as its live value, and ``state.shadows``
    becomes a read-only mapping of views into one flat buffer (so the state
    can no longer be copied or pickled).  A scratch buffer of the same
    layout takes ``(1 - a) * p``, so an update allocates nothing.  Every
    later call must pass the same names and shapes, with that mapping still
    bound to ``state.shadows``, or it raises before anything changes.

    The update is in place: ``sh *= a; sh += (1 - a) * p`` rounds exactly
    like ``a * sh + (1 - a) * p``, and with ``a = 0`` (warmup) the shadow
    becomes ``1 * p``, which is p.
    """
    laid_out = state._flat
    if laid_out is None:
        _check_names(state.shadows, live, mid_run=state.iter > 0)
        layout = FlatLayout(live)
        flat, scaled = layout.gather({**live, **state.shadows}), np.empty(layout.size)
        views = layout.views(flat)
        entries = tuple(zip(views, views.values(), layout.views(scaled).values()))
        laid_out = flat, scaled, MappingProxyType(views), entries
    elif state.shadows is not laid_out[2]:
        raise RuntimeError("EMAState.shadows was rebound after the first update")
    flat, scaled, shadows, entries = laid_out
    a = state.effective_alpha
    if len(live) != len(entries):
        _check_names(shadows, live, mid_run=True)
    for name, view, out in entries:
        if name not in live or live[name].shape != view.shape:
            _check_names(shadows, live, mid_run=True)
        np.multiply(live[name], 1.0 - a, out)
    if a == 0.0:
        np.copyto(flat, scaled)
    else:
        flat *= a
        flat += scaled
    if state._flat is None:
        for name in live:
            if name not in state.shadows:
                np.copyto(shadows[name], live[name])
        state._flat, state.shadows = laid_out, shadows
    state.iter += 1
    return state


def materialize_ema(net, state: EMAState):
    """Return a copy of `net` with every parameter replaced by its shadow.

    `net` must expose copy() and parameters() -> name->array views.  The live
    network is left untouched.
    """
    out = net.copy()
    params = out.parameters()
    for name in params:
        if name not in state.shadows:
            raise RuntimeError(f"no shadow recorded for parameter {name!r}")
    for name, view in params.items():
        view[...] = state.shadows[name]
    return out
