"""Parameters, optimizer, gradient checking and checkpoints, all in float64.

The model's computation graph is small and fixed, so each layer (in
``encoder`` and ``engine``) ships a paired backward function instead of a
general autodiff tape: callers keep the forward cache and apply the backwards
in reverse order. Everything is double precision, which keeps
finite-difference verification tight.

A ``ParamStore`` keeps all values in one contiguous float64 vector and all
gradients in another, tensors packed in insertion order; each ``Param.value``
and ``Param.grad`` is a reshaped view into them. The optimizer, zeroing,
copying and checkpoints therefore work on whole vectors. Write through the
views (``p.value[...] = x``, ``p.grad += g``); rebinding ``Param.value`` or
``Param.grad`` raises, since a rebound array would silently detach from the
buffers. A view taken before a later ``add`` may be stale: the buffers grow
by reallocation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

ENCODER_GROUP = "encoder"
TASK_GROUP = "task"


# Scalars a store's buffers hold at first (1 MiB each). Zero-filled pages are
# mapped only when written, so spare capacity costs little memory, and models
# up to this size (the acceptance model has 86,399 scalars) are built without
# reallocating.
_MIN_CAPACITY = 1 << 17


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

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._values = np.zeros(0)
        self._grads = np.zeros(0)
        self._size = 0  # scalars in use; the buffers may hold spare capacity

    def add(self, name: str, value: np.ndarray, group: str) -> Param:
        self._check_new(name, group)
        value = np.asarray(value, dtype=np.float64)
        if self._size + value.size > self._values.size:
            # grow geometrically, so that packing n tensors copies O(n) scalars
            self._reallocate(max(self._size + value.size, 2 * self._values.size, _MIN_CAPACITY))
        param = self._params[name] = Param(group, self._size)
        self._bind(param, value.shape)
        self._size += value.size
        param.value[...] = value
        return param

    def _check_new(self, name: str, group: str) -> None:
        if name in self._params:
            raise KeyError(f"parameter {name!r} already exists")
        if group not in (ENCODER_GROUP, TASK_GROUP):
            raise ValueError(f"unknown group {group!r}")

    def _reallocate(self, capacity: int) -> None:
        values, grads = np.zeros(capacity), np.zeros(capacity)
        values[: self._size] = self.flat_values()
        grads[: self._size] = self.flat_grads()
        self._values, self._grads = values, grads
        for p in self._params.values():
            self._bind(p, p.value.shape)

    def _bind(self, param: Param, shape) -> None:
        stop = param.offset + math.prod(shape)
        object.__setattr__(param, "value", self._values[param.offset : stop].reshape(shape))
        object.__setattr__(param, "grad", self._grads[param.offset : stop].reshape(shape))

    @classmethod
    def _packed(cls, values: np.ndarray, layout) -> "ParamStore":
        """A store owning ``values``, with (name, shape, group, frozen) tensors
        packed in order over all of it."""
        store = cls()
        store._values, store._grads = values, np.zeros(values.size)
        for name, shape, group, frozen in layout:
            store._check_new(name, group)
            param = store._params[name] = Param(group, store._size, bool(frozen))
            store._bind(param, shape)
            store._size += param.value.size
        return store

    def flat_values(self) -> np.ndarray:
        """All values as one vector (a view), tensors in insertion order."""
        return self._values[: self._size]

    def flat_grads(self) -> np.ndarray:
        """All gradients as one vector (a view), tensors in insertion order."""
        return self._grads[: self._size]

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
        """Values and freeze flags in a new, tightly packed store; zero gradients."""
        layout = [(name, p.value.shape, p.group, p.frozen) for name, p in self._params.items()]
        return ParamStore._packed(self.flat_values().copy(), layout)

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    lr_task: float = 2e-4
    lr_encoder: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 10.0
    # decoupled weight decay, applied to the encoder group only
    weight_decay_encoder: float = 0.01

    def lr_for(self, group: str) -> float:
        return self.lr_encoder if group == ENCODER_GROUP else self.lr_task


class AdamOptimizer:
    """Adaptive-moment updates per learning-rate group with global norm clipping.

    The encoder group additionally gets decoupled weight decay. Frozen tensors
    are skipped entirely: no update, no moment accumulation, and they do not
    contribute to the clipping norm. Gradients are zeroed after each step.

    The moments are flat vectors laid out like the store's buffers; ``m`` and
    ``v`` are read-only mappings from each name to its view. The optimizer
    belongs to the store it was built for, or to a copy of it.
    """

    def __init__(self, params: ParamStore, config: Optional[OptimizerConfig] = None):
        self.config = config or OptimizerConfig()
        self.step_count = 0
        size = params.flat_values().size
        self._m, self._v, self._scratch = np.zeros(size), np.zeros(size), np.zeros(size)
        self.m = MappingProxyType(self._views(params, self._m))
        self.v = MappingProxyType(self._views(params, self._v))

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
        tensors, runs = _trainable_layout(params)
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
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for lo, hi, group in runs:
            g, s, value = grads[lo:hi], sq_g[lo:hi], values[lo:hi]
            m, v = self._m[lo:hi], self._v[lo:hi]
            if scale != 1.0:
                g *= scale
                np.multiply(g, g, out=s)
            v *= cfg.beta2
            s *= 1.0 - cfg.beta2
            v += s
            np.multiply(g, 1.0 - cfg.beta1, out=s)
            m *= cfg.beta1
            m += s
            lr = cfg.lr_for(group)
            if group == ENCODER_GROUP and cfg.weight_decay_encoder > 0.0:
                np.multiply(value, lr * cfg.weight_decay_encoder, out=s)
                value -= s
            # the gradient is spent: its slots hold the denominator
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += cfg.eps
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
    so near-zero gradient pairs are compared absolutely.
    """
    params.zero_grads()
    loss = float(loss_fn(backward=True))
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} during gradient check")
    analytic = params.flat_grads().copy()
    params.zero_grads()

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
# checkpoint format: versioned binary header + raw float64 tensors
# ---------------------------------------------------------------------------

_MAGIC = b"CKPT"
_VERSION = 1


def save_checkpoint(
    path,
    params: ParamStore,
    optimizer: Optional[AdamOptimizer] = None,
    meta: Optional[dict] = None,
) -> None:
    tensors = [
        {
            "name": name,
            "shape": list(p.value.shape),
            "group": p.group,
            "frozen": p.frozen,
        }
        for name, p in params.items()
    ]
    header = {
        "tensors": tensors,
        "meta": meta or {},
        "optimizer": None,
    }
    if optimizer is not None:
        header["optimizer"] = {
            "step_count": optimizer.step_count,
            "config": dataclasses.asdict(optimizer.config),
        }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        # the buffers hold the tensors in header order, so each is one payload
        payloads = [params.flat_values()]
        if optimizer is not None:
            payloads += [optimizer._m, optimizer._v]
        for flat in payloads:
            fh.write(flat.astype("<f8", copy=False).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise NumericError(f"truncated checkpoint: {what} needs {n} bytes, found {len(data)}")
    return data


def _read_flat(fh, size: int, what: str) -> np.ndarray:
    data = _read_exact(fh, 8 * size, what)
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


def load_checkpoint(path) -> tuple[ParamStore, Optional[AdamOptimizer], dict]:
    """Read a checkpoint; a short read, a corrupt header or bytes after the last
    tensor raise NumericError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise NumericError(f"not a checkpoint file: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != _VERSION:
            raise NumericError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        header_bytes = _read_exact(fh, header_len, "header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            layout = [
                (t["name"], tuple(int(d) for d in t["shape"]), t["group"], bool(t["frozen"]))
                for t in header["tensors"]
            ]
            size = sum(math.prod(shape) for _, shape, _, _ in layout)
            params = ParamStore._packed(_read_flat(fh, size, "parameter payload"), layout)
            optimizer = None
            if header.get("optimizer") is not None:
                optimizer = AdamOptimizer(params, OptimizerConfig(**header["optimizer"]["config"]))
                optimizer.step_count = int(header["optimizer"]["step_count"])
                optimizer._m[:] = _read_flat(fh, size, "first-moment payload")
                optimizer._v[:] = _read_flat(fh, size, "second-moment payload")
            meta = header.get("meta", {})
        # undecodable or non-JSON bytes (both ValueError), missing or mistyped fields
        except (ValueError, KeyError, TypeError) as exc:
            raise NumericError(f"corrupt checkpoint header: {type(exc).__name__} {exc}") from exc
        if fh.read(1):
            raise NumericError("corrupt checkpoint: trailing bytes after the last tensor")
    return params, optimizer, meta
