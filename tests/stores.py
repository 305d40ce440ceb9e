"""Build a ParamStore from named arrays, for tests that need a hand-made store."""

import numpy as np

from corefkit.numeric import ParamStore


def store_of(*tensors):
    """A store holding (name, value, group) tensors in order."""
    arrays = [np.asarray(value, dtype=np.float64) for _, value, _ in tensors]
    rows = [(name, a.shape, group) for (name, _, group), a in zip(tensors, arrays)]
    return ParamStore(rows, np.concatenate([a.ravel() for a in arrays]))
