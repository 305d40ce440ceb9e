"""Deterministic layered token encoder with per-layer freezing.

Tokens are embedded by a hashed lookup (stable hash of the token string) plus
a position embedding, then passed through L residual layers. Each layer is a
linear map, a tanh nonlinearity, an additive residual, and a gated local
context-mixing step: a softmax-weighted average over a +/-2 token window,
scaled by a learned per-layer gate so the residual stream stays well-scaled at
initialization. Freezing is bottom-up: with k trainable top layers, layers
below L-k are frozen and the embedding tables are frozen unless k = L.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numeric import ENCODER_GROUP, NumericError, ParamStore

_WINDOW_OFFSETS = (-2, -1, 0, 1, 2)


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 6
    hidden_dim: int = 32
    hash_vocab_size: int = 4096
    max_position: int = 512

    def validate(self) -> "EncoderConfig":
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden_dim < 4:
            raise ValueError("hidden_dim must be >= 4")
        if self.hash_vocab_size < 2 or self.max_position < 1:
            raise ValueError("hash_vocab_size and max_position must be positive")
        return self


@dataclass(frozen=True)
class FreezeMask:
    """Number of top layers left trainable; None means nothing is frozen."""

    trainable_top_layers: Optional[int] = None

    def resolve(self, num_layers: int) -> int:
        if self.trainable_top_layers is None:
            return num_layers
        if not (0 <= self.trainable_top_layers <= num_layers):
            raise ValueError(
                f"trainable_top_layers {self.trainable_top_layers} outside [0, {num_layers}]"
            )
        return self.trainable_top_layers


def token_id(token: str, hash_vocab_size: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % hash_vocab_size


def token_ids(tokens, hash_vocab_size: int) -> np.ndarray:
    return np.array([token_id(t, hash_vocab_size) for t in tokens], dtype=np.intp)


def encoder_layout(cfg: EncoderConfig) -> list:
    """(name, shape, group, init) of each encoder tensor, in store order; init
    is ("normal", standard deviation) or ("constant", value)."""
    d = cfg.hidden_dim
    rows = [
        ("embed.token", (cfg.hash_vocab_size, d), ENCODER_GROUP, ("normal", 0.5)),
        ("embed.pos", (cfg.max_position, d), ENCODER_GROUP, ("normal", 0.1)),
    ]
    for i in range(cfg.num_layers):
        rows += [
            (f"enc.{i}.W", (d, d), ENCODER_GROUP, ("normal", 1.0 / np.sqrt(d))),
            (f"enc.{i}.b", (d,), ENCODER_GROUP, ("constant", 0.0)),
            (f"enc.{i}.mix", (len(_WINDOW_OFFSETS),), ENCODER_GROUP, ("constant", 0.0)),
            (f"enc.{i}.gate", (1,), ENCODER_GROUP, ("constant", 0.1)),
        ]
    return rows


def apply_freeze(params: ParamStore, cfg: EncoderConfig, mask: FreezeMask) -> None:
    """Set frozen flags on encoder tensors; task tensors are never touched."""
    top_k = mask.resolve(cfg.num_layers)
    first_trainable = cfg.num_layers - top_k
    embed_frozen = top_k < cfg.num_layers
    params.set_frozen("embed.token", embed_frozen)
    params.set_frozen("embed.pos", embed_frozen)
    for i in range(cfg.num_layers):
        frozen = i < first_trainable
        for suffix in ("W", "b", "mix", "gate"):
            params.set_frozen(f"enc.{i}.{suffix}", frozen)


def embed_tokens_forward(params: ParamStore, cfg: EncoderConfig, tokens):
    """Hashed token embedding plus position embedding; (n, d) output."""
    if len(tokens) == 0:
        raise NumericError("cannot embed an empty segment")
    if len(tokens) > cfg.max_position:
        raise NumericError(
            f"segment length {len(tokens)} exceeds max_position {cfg.max_position}"
        )
    ids = token_ids(tokens, cfg.hash_vocab_size)
    x = params.value("embed.token")[ids] + params.value("embed.pos")[: len(ids)]
    return x, ids


def embed_tokens_backward(params: ParamStore, dx: np.ndarray, ids: np.ndarray) -> None:
    np.add.at(params["embed.token"].grad, ids, dx)
    params["embed.pos"].grad[: len(ids)] += dx


def _shift(x: np.ndarray, offset: int) -> np.ndarray:
    """result[t] = x[t + offset], zero beyond the ends."""
    out = np.zeros_like(x)
    n = x.shape[0]
    if offset >= 0:
        if offset < n:
            out[: n - offset] = x[offset:]
    else:
        if -offset < n:
            out[-offset:] = x[: n + offset]
    return out


def encode_forward(params: ParamStore, cfg: EncoderConfig, x: np.ndarray):
    """Run the L layers; returns contextual embeddings and per-layer caches."""
    h = x
    caches = []
    for i in range(cfg.num_layers):
        w = params.value(f"enc.{i}.W")
        b = params.value(f"enc.{i}.b")
        mix_logits = params.value(f"enc.{i}.mix")
        gate = float(params.value(f"enc.{i}.gate")[0])
        z = h @ w.T + b
        a = np.tanh(z)
        u = a + h
        e = np.exp(mix_logits - mix_logits.max())
        mix_w = e / e.sum()
        m = np.zeros_like(u)
        for j, off in enumerate(_WINDOW_OFFSETS):
            m += mix_w[j] * _shift(u, off)
        out = u + gate * m
        caches.append((h, a, u, m, mix_w, gate, i))
        h = out
    return h, caches


def encode_backward(params: ParamStore, dh: np.ndarray, caches) -> np.ndarray:
    for (h_in, a, u, m, mix_w, gate, i) in reversed(caches):
        w = params.value(f"enc.{i}.W")
        du = dh.copy()
        dm = gate * dh
        dgate = float(np.sum(dh * m))
        dmix_w = np.zeros_like(mix_w)
        for j, off in enumerate(_WINDOW_OFFSETS):
            du += mix_w[j] * _shift(dm, -off)
            dmix_w[j] = float(np.sum(dm * _shift(u, off)))
        dmix_logits = mix_w * (dmix_w - float(mix_w @ dmix_w))
        dz = du * (1.0 - a * a)
        params[f"enc.{i}.W"].grad += dz.T @ h_in
        params[f"enc.{i}.b"].grad += dz.sum(axis=0)
        params[f"enc.{i}.mix"].grad += dmix_logits
        params[f"enc.{i}.gate"].grad += np.array([dgate])
        dh = du + dz @ w
    return dh
