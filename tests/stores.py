"""Hand-made ParamStores and checkpoint files, for tests that need them."""

import json
import struct

import numpy as np

from corefkit.numeric import ParamStore


def store_of(*tensors):
    """A store holding (name, value, group) tensors in order."""
    arrays = [np.asarray(value, dtype=np.float64) for _, value, _ in tensors]
    rows = [(name, a.shape, group) for (name, _, group), a in zip(tensors, arrays)]
    return ParamStore(rows, np.concatenate([a.ravel() for a in arrays]))


def v1_checkpoint(params, meta=None):
    """The bytes of a version 1 checkpoint, which corefkit rejects: no
    padding or digest, and a null ``optimizer`` header key."""
    header = {
        "tensors": [{"name": name, "shape": list(p.value.shape), "group": p.group,
                     "frozen": p.frozen} for name, p in params.items()],
        "meta": meta or {},
        "optimizer": None,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (b"CKPT" + struct.pack("<IQ", 1, len(header_bytes)) + header_bytes
            + params.flat_values().astype("<f8").tobytes())


def with_version(data: bytes, version: int) -> bytes:
    """A checkpoint's bytes with another version number, the rest untouched."""
    return data[:4] + struct.pack("<I", version) + data[8:]
