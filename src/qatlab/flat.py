"""Named arrays laid end to end in one flat float64 buffer.

Adam's moments and the EMA shadows are updated by one in-place pass over
such a buffer per term, instead of one set of passes per parameter.  The
name -> array dicts that callers see are read-only mappings of views into
the buffer.
"""

import numpy as np


class FlatLayout:
    """Where each named array of fixed shape sits in a flat buffer: the
    names in the order of the dict the layout was made from, end to end."""

    def __init__(self, arrays: dict):
        self.names = tuple(arrays)
        self.shapes = tuple(np.shape(a) for a in arrays.values())
        self.bounds = []
        self.size = 0
        for shape in self.shapes:
            start, self.size = self.size, self.size + int(np.prod(shape, dtype=np.int64))
            self.bounds.append((start, self.size))

    def fits(self, arrays: dict) -> bool:
        """Whether ``arrays`` holds every name of the layout, each an array
        of the layout's shape.  Other names in ``arrays`` are ignored."""
        try:
            return all(arrays[n].shape == s for n, s in zip(self.names, self.shapes))
        except (KeyError, AttributeError):
            return False

    def gather(self, arrays: dict) -> np.ndarray:
        """The layout's arrays from ``arrays``, raveled end to end into a
        new float64 buffer."""
        if not self.names:
            return np.empty(0)
        return np.concatenate([arrays[n] for n in self.names], axis=None, dtype=np.float64)

    def views(self, flat: np.ndarray) -> dict:
        """Name -> view of ``flat`` shaped like that name's array."""
        return {
            name: flat[start:stop].reshape(shape)
            for name, shape, (start, stop) in zip(self.names, self.shapes, self.bounds)
        }


class LaidOutState:
    """Base of a state whose dicts become views into flat buffers (held in
    ``_flat``) at its first update.  A copy would share those buffers, so
    copying or pickling a laid-out state raises TypeError."""

    def __reduce_ex__(self, protocol):
        if self._flat is not None:
            raise TypeError(f"a laid-out {type(self).__name__} cannot be copied or pickled")
        return super().__reduce_ex__(protocol)
