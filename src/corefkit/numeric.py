"""Parameters, optimizer, gradient checking and checkpoints, all in float64.

The model's computation graph is small and fixed, so each layer (in
``encoder`` and ``engine``) ships a paired backward function instead of a
general autodiff tape: callers keep the forward cache and apply the backwards
in reverse order. Everything is double precision, which keeps
finite-difference verification tight.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

ENCODER_GROUP = "encoder"
TASK_GROUP = "task"


class NumericError(RuntimeError):
    pass


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    group: str
    frozen: bool = False


class ParamStore:
    """Named parameter tensors with gradient slots, freeze flags and lr groups."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, group: str) -> Param:
        if name in self._params:
            raise KeyError(f"parameter {name!r} already exists")
        if group not in (ENCODER_GROUP, TASK_GROUP):
            raise ValueError(f"unknown group {group!r}")
        value = np.asarray(value, dtype=np.float64)
        param = Param(value=value, grad=np.zeros_like(value), group=group)
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def set_frozen(self, name: str, frozen: bool) -> None:
        self._params[name].frozen = frozen

    def copy(self) -> "ParamStore":
        clone = ParamStore()
        for name, p in self._params.items():
            new = clone.add(name, p.value.copy(), p.group)
            new.frozen = p.frozen
        return clone

    def num_scalars(self, trainable_only: bool = False) -> int:
        return sum(
            p.value.size
            for p in self._params.values()
            if not (trainable_only and p.frozen)
        )


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
    """

    def __init__(self, params: ParamStore, config: Optional[OptimizerConfig] = None):
        self.config = config or OptimizerConfig()
        self.step_count = 0
        self.m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self, params: ParamStore) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        cfg = self.config
        sq = 0.0
        for name, p in params.items():
            if p.frozen:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in {name}")
            sq += float(np.sum(p.grad * p.grad))
        norm = float(np.sqrt(sq))
        scale = 1.0 if norm <= cfg.clip_norm or norm == 0.0 else cfg.clip_norm / norm

        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for name, p in params.items():
            if p.frozen:
                continue
            g = p.grad * scale
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            lr = cfg.lr_for(p.group)
            if p.group == ENCODER_GROUP and cfg.weight_decay_encoder > 0.0:
                p.value -= lr * cfg.weight_decay_encoder * p.value
            p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        params.zero_grads()
        return norm


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
    analytic = {name: p.grad.copy() for name, p in params.items()}
    params.zero_grads()

    coords = [
        (name, idx)
        for name, p in params.items()
        for idx in range(p.value.size)
    ]
    if max_scalars is not None and max_scalars < len(coords):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=max_scalars, replace=False)
        coords = [coords[i] for i in chosen]

    max_rel = 0.0
    for name, idx in coords:
        flat = params[name].value.reshape(-1)
        original = flat[idx]
        flat[idx] = original + eps
        loss_plus = float(loss_fn(backward=False))
        flat[idx] = original - eps
        loss_minus = float(loss_fn(backward=False))
        flat[idx] = original
        if not np.isfinite(loss_plus) or not np.isfinite(loss_minus):
            raise NumericError(f"non-finite loss while perturbing {name}[{idx}]")
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[idx])
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
        for name, p in params.items():
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
        if optimizer is not None:
            for name in params.names():
                fh.write(np.ascontiguousarray(optimizer.m[name], dtype="<f8").tobytes())
            for name in params.names():
                fh.write(np.ascontiguousarray(optimizer.v[name], dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise NumericError(f"truncated checkpoint: {what} needs {n} bytes, found {len(data)}")
    return data


def _read_tensor(fh, t: dict) -> np.ndarray:
    data = _read_exact(fh, 8 * int(np.prod(t["shape"])), f"tensor {t['name']}")
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(t["shape"])


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
            params = ParamStore()
            for t in header["tensors"]:
                p = params.add(t["name"], _read_tensor(fh, t), t["group"])
                p.frozen = bool(t["frozen"])
            optimizer = None
            if header.get("optimizer") is not None:
                optimizer = AdamOptimizer(params, OptimizerConfig(**header["optimizer"]["config"]))
                optimizer.step_count = int(header["optimizer"]["step_count"])
                for slot in (optimizer.m, optimizer.v):
                    for t in header["tensors"]:
                        slot[t["name"]] = _read_tensor(fh, t)
            meta = header.get("meta", {})
        # undecodable or non-JSON bytes (both ValueError), missing or mistyped fields
        except (ValueError, KeyError, TypeError) as exc:
            raise NumericError(f"corrupt checkpoint header: {type(exc).__name__} {exc}") from exc
        if fh.read(1):
            raise NumericError("corrupt checkpoint: trailing bytes after the last tensor")
    return params, optimizer, meta
