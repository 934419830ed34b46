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
    _flat: "_FlatShadows" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.alpha}")
        if self.warmup_iters < 0 or self.iter < 0:
            raise ValueError("warmup_iters and iter must be >= 0")

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.iter < self.warmup_iters else self.alpha


class _FlatShadows:
    """Shadows laid out in one flat buffer for the names and shapes of the
    first update's live dict, plus a scratch buffer of the same layout for
    ``(1 - a) * live``.  The scratch lives with the state, so an update
    allocates nothing: on a one-entry dict an allocation per call would
    cost more than the update."""

    def __init__(self, state: EMAState, live: dict):
        _check_names(state.shadows, live, mid_run=state.iter > 0)
        layout = FlatLayout(live)
        self.fresh = [name for name in live if name not in state.shadows]
        self.flat = layout.gather({**live, **state.shadows})
        self.scaled = np.empty(layout.size)
        views = layout.views(self.flat)
        self.shadows = MappingProxyType(views)
        scaled_views = layout.views(self.scaled).values()
        self.entries = tuple(zip(views, views.values(), scaled_views))
        self.count = len(self.entries)

    def scale_live(self, live: dict, b: float):
        """Write ``b * live`` into the scratch buffer; raise, leaving the
        shadows alone, unless ``live`` has exactly this layout's names and
        shapes."""
        if len(live) == self.count:
            try:
                for name, view, scaled in self.entries:
                    p = live[name]
                    if p.shape != view.shape:
                        break
                    np.multiply(p, b, scaled)
                else:
                    return
            except KeyError:
                pass
        _check_names(self.shadows, live, mid_run=True)  # raises: a name or shape differs


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
    can no longer be copied or pickled).  Every later call must pass the
    same names and shapes, with that mapping still bound to
    ``state.shadows``, or it raises before anything changes.

    The update is in place: ``sh *= a; sh += (1 - a) * p`` rounds exactly
    like ``a * sh + (1 - a) * p``, and with ``a = 0`` (warmup) the shadow
    becomes ``1 * p``, which is p.
    """
    flat = state._flat or _FlatShadows(state, live)
    if flat is state._flat and state.shadows is not flat.shadows:
        raise RuntimeError("EMAState.shadows was rebound after the first update")
    a = state.effective_alpha
    flat.scale_live(live, 1.0 - a)
    if a == 0.0:
        np.copyto(flat.flat, flat.scaled)
    else:
        np.multiply(flat.flat, a, flat.flat)
        np.add(flat.flat, flat.scaled, flat.flat)
    if state._flat is None:
        for name in flat.fresh:
            np.copyto(flat.shadows[name], live[name])
        state._flat, state.shadows = flat, flat.shadows
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
