"""Exponential-moving-average shadows for latent weights and scales.

Shadows trail every trainable parameter, including quantizer step sizes.
The decay is held at zero for a short warmup (shadow = live copy), then
constant, so early noisy iterates never pollute the average.  Batch-norm
running statistics keep their own momentum averaging and are not shadowed
here.
"""

from dataclasses import dataclass, field

import numpy as np

from .flat import FlatLayout


@dataclass
class EMAState:
    alpha: float
    warmup_iters: int = 0
    iter: int = 0
    shadows: dict = field(default_factory=dict)
    _flat: "_FlatShadows" = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # A copy or an unpickled state lays its flat buffers out afresh:
        # views into a buffer come back from a copy as arrays of their own.
        return {**self.__dict__, "_flat": None}

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.alpha}")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.iter < self.warmup_iters else self.alpha


class _FlatShadows:
    """Shadows laid out in one flat buffer, plus a scratch buffer of the
    same layout for ``(1 - a) * live``.  The scratch lives with the state,
    so an update allocates nothing: on a one-entry dict an allocation per
    call would cost more than the update."""

    def __init__(self, shadows: dict):
        layout = FlatLayout(shadows)
        self.flat = layout.gather(shadows)
        self.scaled = np.empty(layout.size)
        self.views = layout.views(self.flat)
        scaled_views = layout.views(self.scaled).values()
        self.entries = tuple(zip(self.views, self.views.values(), scaled_views))

    def scale_live(self, shadows: dict, live: dict, b: float) -> bool:
        """Write ``b * live`` into the scratch buffer, if ``live`` has
        exactly this layout's names and shapes and each of those shadows is
        still this buffer's view; return whether it did."""
        if len(live) != len(self.entries):
            return False
        try:
            for name, view, scaled in self.entries:
                p = live[name]
                if shadows.get(name) is not view or p.shape != view.shape:
                    return False
                np.multiply(p, b, scaled)
        except (KeyError, AttributeError):
            return False
        return True


def ema_update(state: EMAState, live: dict) -> EMAState:
    """Fold one iteration's live parameters into the shadows.

    Call after every optimizer step.  The first call initializes the shadow
    set; later calls must present the same parameter names and shapes.
    During warmup the shadow is a plain copy, so it tracks live bit for bit.

    The shadows of the names in ``live`` are views into one flat buffer,
    updated in place as ``sh *= a; sh += (1 - a) * p``, which rounds
    exactly like ``a * sh + (1 - a) * p``; with ``a = 0`` the shadow
    becomes ``1 * p``, which is p.  A shadow that a caller sets by hand, or
    a new name set or shape, lays the buffer out afresh at the next call; a
    name's first shadow is its live value.
    """
    a = state.effective_alpha
    flat = state._flat
    if flat is None or not flat.scale_live(state.shadows, live, 1.0 - a):
        return _update_laid_out_afresh(state, live)
    if a == 0.0:
        np.copyto(flat.flat, flat.scaled)
    else:
        np.multiply(flat.flat, a, flat.flat)
        np.add(flat.flat, flat.scaled, flat.flat)
    state.iter += 1
    return state


def _update_laid_out_afresh(state: EMAState, live: dict) -> EMAState:
    """``ema_update`` through a buffer laid out afresh for the names and
    shapes of ``live``: the laid-out call takes the in-place path, then
    each name without a shadow gets its live value.  Kept apart from
    ``ema_update``: with this body inline, the one-entry update measured
    about 2% slower."""
    live = {name: np.asarray(p) for name, p in live.items()}
    fresh = _check_names(state, live)
    seeds = {name: state.shadows.get(name, p) for name, p in live.items()}
    state._flat = _FlatShadows(seeds)
    state.shadows.update(state._flat.views)
    ema_update(state, live)
    for name in fresh:
        np.copyto(state.shadows[name], live[name])
    return state


def _check_names(state: EMAState, live: dict) -> list:
    """Raise if a name of ``live`` is new after the first call or its shadow
    has another shape; return the names that have no shadow yet."""
    fresh = []
    for name, p in live.items():
        sh = state.shadows.get(name)
        if sh is None:
            if state.iter > 0:
                raise RuntimeError(f"parameter {name!r} appeared mid-run")
            fresh.append(name)
        elif sh.shape != p.shape:
            raise RuntimeError(
                f"shadow shape {sh.shape} does not match live {p.shape} for {name!r}"
            )
    return fresh


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
