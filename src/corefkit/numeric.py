"""Parameters, optimizer, gradient checking and checkpoints, all in float64.

The model's computation graph is small and fixed, so each layer (in
``encoder`` and ``engine``) ships a paired backward function instead of a
general autodiff tape: callers keep the forward cache and apply the backwards
in reverse order. Everything is double precision, which keeps
finite-difference verification tight.

A ``ParamStore`` is built once, at its final size, from one row per tensor.
It keeps all values in one contiguous float64 vector and all gradients in
another, tensors packed in row order; each ``Param.value`` and ``Param.grad``
is a reshaped view into them. The optimizer, zeroing, copying and checkpoints
therefore work on whole vectors. Write through the views (``p.value[...] = x``,
``p.grad += g``); rebinding ``Param.value`` or ``Param.grad`` raises, since a
rebound array would silently detach from the buffers.

The gradient vector lies in a private anonymous memory mapping, whose pages
read as zero and take memory only once a gradient is written to them, so a
store that is only read (a checkpoint, a copy, a loaded model) costs its
values alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from .training import TrainConfig

ENCODER_GROUP = "encoder"
TASK_GROUP = "task"


class NumericError(RuntimeError):
    pass


class Param:
    """One tensor of a ``ParamStore``: views into its buffers, lr group, freeze flag."""

    __slots__ = ("value", "grad", "group", "frozen", "offset")

    def __init__(self, group: str, offset: int, frozen: bool = False):
        self.group = group
        self.offset = offset  # position of the first scalar in the store's buffers
        self.frozen = frozen

    def __setattr__(self, name: str, new) -> None:
        # reads stay plain slot reads; only assignment is checked. `p.grad += g`
        # assigns back the same view, which is allowed.
        if name in ("value", "grad") and hasattr(self, name) and new is not getattr(self, name):
            raise AttributeError(
                f"Param.{name} is a view into the store's buffer and cannot be rebound; "
                f"write into it (p.{name}[...] = x) instead"
            )
        object.__setattr__(self, name, new)


class ParamStore:
    """Named parameter tensors with gradient slots, freeze flags and lr groups."""

    def __init__(self, rows, values: Optional[np.ndarray] = None):
        """Tensors from (name, shape, group[, frozen]) rows, packed in order over
        one buffer of their total size: ``values`` (owned, not copied) or zeros."""
        rows = list(rows)
        size = sum(math.prod(row[1]) for row in rows)
        self._values = np.zeros(size) if values is None else values
        if self._values.shape != (size,):
            raise ValueError(f"{self._values.size} values for tensors of {size} scalars")
        # pages take memory once written (module docstring); mmap rejects length 0
        self._grads = (
            np.frombuffer(mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE), dtype=np.float64)
            if size
            else np.zeros(0)
        )
        self._params: dict[str, Param] = {}
        offset = 0
        for name, shape, group, *frozen in rows:
            if name in self._params:
                raise KeyError(f"parameter {name!r} already exists")
            if group not in (ENCODER_GROUP, TASK_GROUP):
                raise ValueError(f"unknown group {group!r}")
            param = self._params[name] = Param(group, offset, *frozen)
            stop = offset + math.prod(shape)
            object.__setattr__(param, "value", self._values[offset:stop].reshape(shape))
            object.__setattr__(param, "grad", self._grads[offset:stop].reshape(shape))
            offset = stop

    def flat_values(self) -> np.ndarray:
        """All values as one vector, tensors in row order."""
        return self._values

    def flat_grads(self) -> np.ndarray:
        """All gradients as one vector, tensors in row order."""
        return self._grads

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def zero_grads(self) -> None:
        self.flat_grads().fill(0.0)

    def set_frozen(self, name: str, frozen: bool) -> None:
        self._params[name].frozen = frozen

    def copy(self) -> "ParamStore":
        """Values and freeze flags in a new store; zero gradients, which take
        memory only once one is written."""
        rows = [(name, p.value.shape, p.group, p.frozen) for name, p in self._params.items()]
        return ParamStore(rows, self._values.copy())


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator guard; the learning rates, clip
# norm and encoder weight decay come from the ``TrainConfig``
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamOptimizer:
    """Adaptive-moment updates per learning-rate group with global norm clipping.

    The encoder group additionally gets decoupled weight decay. Frozen tensors
    are skipped entirely: no update, no moment accumulation, and they do not
    contribute to the clipping norm. Gradients are zeroed after each step.

    The moments are flat vectors laid out like the store's buffers; ``m`` and
    ``v`` are read-only mappings from each name to its view. The optimizer
    belongs to the store it was built for, or to a copy of it.
    """

    def __init__(self, params: ParamStore, config: TrainConfig):
        self.config = config
        self.step_count = 0
        size = params.flat_values().size
        self._m, self._v, self._scratch = np.zeros(size), np.zeros(size), np.zeros(size)
        self.m = MappingProxyType(self._views(params, self._m))
        self.v = MappingProxyType(self._views(params, self._v))
        self._layout_key, self._layout = None, None  # freeze flags, and their _trainable_layout

    @staticmethod
    def _views(params: ParamStore, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: flat[p.offset : p.offset + p.value.size].reshape(p.value.shape)
            for name, p in params.items()
        }

    def step(self, params: ParamStore) -> float:
        """Apply one update; returns the pre-clip global gradient norm.

        Runs in place over contiguous runs of trainable tensors of one group.
        Every element sees the same operations in the same order as a
        per-tensor update, and the squared norm is summed per tensor in store
        order, so results do not depend on the layout.
        """
        cfg = self.config
        values, grads, sq_g = params.flat_values(), params.flat_grads(), self._scratch
        if grads.size != sq_g.size:
            raise ValueError("optimizer was built for a store of another size")
        frozen = tuple(p.frozen for _, p in params.items())
        if frozen != self._layout_key:
            self._layout_key, self._layout = frozen, _trainable_layout(params)
        tensors, runs = self._layout
        for lo, hi, _ in runs:
            np.multiply(grads[lo:hi], grads[lo:hi], out=sq_g[lo:hi])
        sq = 0.0
        for lo, hi in tensors:
            sq += float(np.add.reduce(sq_g[lo:hi]))  # np.sum's pairwise order
        if not math.isfinite(sq):
            for name, p in params.items():
                if not p.frozen and not np.all(np.isfinite(p.grad)):
                    raise NumericError(f"non-finite gradient in {name}")
        norm = float(np.sqrt(sq))
        scale = 1.0 if norm <= cfg.clip_norm or norm == 0.0 else cfg.clip_norm / norm

        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for lo, hi, group in runs:
            g, s, value = grads[lo:hi], sq_g[lo:hi], values[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            if scale != 1.0:
                g *= scale
                np.multiply(g, g, out=s)
            v *= BETA2
            s *= 1.0 - BETA2
            v += s
            np.multiply(g, 1.0 - BETA1, out=s)
            m *= BETA1
            m += s
            lr = cfg.lr_encoder if group == ENCODER_GROUP else cfg.lr_task
            if group == ENCODER_GROUP and cfg.weight_decay_encoder > 0.0:
                np.multiply(value, lr * cfg.weight_decay_encoder, out=s)
                value -= s
            # the gradient is spent: its slots hold the denominator
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            s /= g
            value -= s
        params.zero_grads()
        return norm


def _trainable_layout(params: ParamStore):
    """[lo, hi) of each unfrozen tensor in the flat buffers, and the maximal
    runs of them that share a group, as (lo, hi, group); both in order."""
    tensors: list[tuple[int, int]] = []
    runs: list[tuple[int, int, str]] = []
    for _, p in params.items():
        if p.frozen:
            continue
        lo, hi = p.offset, p.offset + p.value.size
        tensors.append((lo, hi))
        if runs and runs[-1][1] == lo and runs[-1][2] == p.group:
            runs[-1] = (runs[-1][0], hi, p.group)
        else:
            runs.append((lo, hi, p.group))
    return tensors, runs


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(
    loss_fn: Callable[..., float],
    params: ParamStore,
    eps: float = 1e-5,
    max_scalars: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(backward=...)`` must return the scalar loss and, when backward is
    true, accumulate analytic gradients into ``params``. Checks every scalar
    parameter, or a seeded random subsample of ``max_scalars`` of them.
    Returns the maximum relative error, with the denominator floored at 1e-3
    so near-zero gradient pairs are compared absolutely. An analytic gradient
    that is zero everywhere raises NumericError.
    """
    if not eps > 0.0:  # NaN too
        raise ValueError(f"eps must be positive, got {eps}")
    if max_scalars is not None and max_scalars < 1:
        raise ValueError(f"max_scalars must be >= 1, got {max_scalars}")
    params.zero_grads()
    loss = float(loss_fn(backward=True))
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} during gradient check")
    analytic = params.flat_grads().copy()
    params.zero_grads()
    if not analytic.any():
        # finite differences of a flat loss would agree with it and pass
        raise NumericError(f"the analytic gradient is zero everywhere (loss {loss}); nothing to check")

    values = params.flat_values()
    coords = range(values.size)
    if max_scalars is not None and max_scalars < len(coords):
        rng = np.random.default_rng(seed)
        coords = rng.choice(len(coords), size=max_scalars, replace=False)

    max_rel = 0.0
    for i in coords:
        original = values[i]
        values[i] = original + eps
        loss_plus = float(loss_fn(backward=False))
        values[i] = original - eps
        loss_minus = float(loss_fn(backward=False))
        values[i] = original
        if not np.isfinite(loss_plus) or not np.isfinite(loss_minus):
            name, offset = next(
                (name, p.offset) for name, p in reversed(params.items()) if p.offset <= i
            )
            raise NumericError(f"non-finite loss while perturbing {name}[{i - offset}]")
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        a = float(analytic[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
        max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# checkpoint format: versioned binary header, raw float64 tensors, digest
# ---------------------------------------------------------------------------

_MAGIC = b"CKPT"
_VERSION = 2
_DIGEST_BYTES = 32  # a version 2 file ends in the sha256 of every byte before it


def save_checkpoint(path, params: ParamStore, meta: Optional[dict] = None) -> None:
    tensors = [
        {"name": name, "shape": list(p.value.shape), "group": p.group, "frozen": p.frozen}
        for name, p in params.items()
    ]
    header = json.dumps({"tensors": tensors, "meta": meta or {}}, sort_keys=True).encode("utf-8")
    # spaces after the JSON align the payload to 8 bytes, so a load can view
    # the float64s where they were read
    header += b" " * (-(16 + len(header)) % 8)
    # the value buffer holds the tensors in header order, so it is the payload
    chunks = (_MAGIC, struct.pack("<IQ", _VERSION, len(header)), header,
              params.flat_values().astype("<f8", copy=False))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())


def _take(data: memoryview, offset: int, n: int, what: str) -> memoryview:
    chunk = data[offset : offset + n]
    if len(chunk) != n:
        raise NumericError(f"truncated checkpoint: {what} needs {n} bytes, found {len(chunk)}")
    return chunk


def load_checkpoint(path) -> tuple[ParamStore, None, dict]:
    """Read a checkpoint as (params, None, meta); the middle slot is always None.

    Only version 2 is read; any other version raises NumericError. The digest
    is checked before anything after the version is read, so a cut, padded or
    altered file raises NumericError.
    """
    with open(path, "rb") as fh:
        buf = np.empty(-(-os.fstat(fh.fileno()).st_size // 8))
        data = memoryview(buf).cast("B")[: fh.readinto(buf)]
    if data[:4] != _MAGIC:
        raise NumericError(f"not a checkpoint file: bad magic {bytes(data[:4])!r}")
    (version,) = struct.unpack("<I", _take(data, 4, 4, "version"))
    if version != _VERSION:
        raise NumericError(f"unsupported checkpoint version {version}")
    data, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(data).digest() != digest:
        raise NumericError("corrupt checkpoint: sha256 digest mismatch, the file is cut or altered")
    (header_len,) = struct.unpack("<Q", _take(data, 8, 8, "header length"))
    header_bytes = _take(data, 16, header_len, "header")
    try:
        header = json.loads(bytes(header_bytes).decode("utf-8"))
        layout = [
            (t["name"], tuple(int(d) for d in t["shape"]), t["group"], bool(t["frozen"]))
            for t in header["tensors"]
        ]
        size = sum(math.prod(shape) for _, shape, _, _ in layout)
        payload = _take(data, 16 + header_len, 8 * size, "parameter payload")
        # a view into the read buffer when the payload is aligned, else a copy
        params = ParamStore(layout, np.require(np.frombuffer(payload, dtype="<f8"), np.float64, "AW"))
        meta = header.get("meta", {})
    # undecodable or non-JSON bytes (both ValueError), missing or mistyped fields
    except (ValueError, KeyError, TypeError) as exc:
        raise NumericError(f"corrupt checkpoint header: {type(exc).__name__} {exc}") from exc
    if len(data) > 16 + header_len + 8 * size:
        raise NumericError("corrupt checkpoint: trailing bytes after the last tensor")
    return params, None, meta
