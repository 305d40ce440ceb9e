"""Span enumeration, span scoring, and constant-memory incremental clustering.

A document is processed one segment at a time. Within a segment, candidate
spans get an embedding [first token; last token; attention-weighted average;
width bucket embedding] and a mention score; the surviving spans are walked in
document order and either merged into the best-scoring existing cluster or
started as a new one, with the dummy option's fixed score of zero acting as
the creation threshold. Between segments the engine keeps only the cluster
embeddings and mention indices, so retained floating-point state is
O(num_clusters x dim) regardless of how much text has been processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .documents import Document, Segment, Span, segment_document
from .encoder import (
    EncoderConfig,
    embed_tokens_forward,
    encode_forward,
    init_encoder_params,
)
from .numeric import TASK_GROUP, NumericError, ParamStore, sigmoid

PRUNE_ORIGINAL = "original"
PRUNE_REFORMULATED = "reformulated"

# the dummy cluster: choosing it creates a new cluster; its score is fixed
DUMMY_SCORE = 0.0

# widths 1..4 get their own bucket, then 5-7, 8-15, 16-31, 32+
WIDTH_BUCKETS = 8


@dataclass(frozen=True)
class EngineConfig:
    prune_ratio: float = 0.4
    max_span_width: int = 10
    pruning_mode: str = PRUNE_ORIGINAL
    gold_mentions: bool = False
    max_segment_tokens: int = 512
    width_embedding_dim: int = 8
    scorer_hidden_dim: int = 64
    emit_singletons: Optional[bool] = None

    def validate(self) -> "EngineConfig":
        if not (0.0 < self.prune_ratio <= 1.0):
            raise ValueError("prune_ratio must be in (0, 1]")
        if self.max_span_width < 1:
            raise ValueError("max_span_width must be >= 1")
        if self.pruning_mode not in (PRUNE_ORIGINAL, PRUNE_REFORMULATED):
            raise ValueError(f"unknown pruning_mode {self.pruning_mode!r}")
        return self

    @property
    def keeps_singletons(self) -> bool:
        if self.emit_singletons is not None:
            return self.emit_singletons
        return self.pruning_mode == PRUNE_REFORMULATED


def width_bucket(width: int) -> int:
    if width <= 4:
        return width - 1
    if width <= 7:
        return 4
    if width <= 15:
        return 5
    if width <= 31:
        return 6
    return 7


def span_dim(encoder_cfg: EncoderConfig, engine_cfg: EngineConfig) -> int:
    return 3 * encoder_cfg.hidden_dim + engine_cfg.width_embedding_dim


def init_params(
    encoder_cfg: EncoderConfig, engine_cfg: EngineConfig, seed: int = 0
) -> ParamStore:
    """Fresh model parameters: encoder tensors plus the task scorers."""
    encoder_cfg.validate()
    engine_cfg.validate()
    rng = np.random.default_rng(seed)
    params = ParamStore()
    init_encoder_params(params, encoder_cfg, rng)
    d = encoder_cfg.hidden_dim
    sd = span_dim(encoder_cfg, engine_cfg)
    h = engine_cfg.scorer_hidden_dim
    params.add("span.attn_v", rng.normal(0.0, 1.0 / np.sqrt(d), size=d), TASK_GROUP)
    params.add(
        "span.width_emb",
        rng.normal(0.0, 0.5, size=(WIDTH_BUCKETS, engine_cfg.width_embedding_dim)),
        TASK_GROUP,
    )
    for scorer, din in (("mention", sd), ("pair", 3 * sd), ("merge", 3 * sd)):
        params.add(f"score.{scorer}.W1", rng.normal(0.0, 1.0 / np.sqrt(din), size=(h, din)), TASK_GROUP)
        params.add(f"score.{scorer}.b1", np.zeros(h), TASK_GROUP)
        params.add(f"score.{scorer}.w2", rng.normal(0.0, 1.0 / np.sqrt(h), size=h), TASK_GROUP)
        params.add(f"score.{scorer}.b2", np.zeros(1), TASK_GROUP)
    return params


def enumerate_spans(sentence_lengths, max_width: int, offset: int = 0) -> list[Span]:
    """All spans up to max_width tokens, within one sentence, by (start, end)."""
    spans = []
    start = offset
    for length in sentence_lengths:
        for a in range(start, start + length):
            last = min(start + length - 1, a + max_width - 1)
            for b in range(a, last + 1):
                spans.append((a, b))
        start += length
    return sorted(spans)


# ---------------------------------------------------------------------------
# batched span embeddings
# ---------------------------------------------------------------------------


def span_embeddings_forward(params: ParamStore, h: np.ndarray, spans_local):
    """Embed spans given segment-local (start, end) pairs; returns (S, span_dim)."""
    starts = np.array([s for s, _ in spans_local], dtype=np.intp)
    ends = np.array([e for _, e in spans_local], dtype=np.intp)
    widths = ends - starts + 1
    buckets = np.array([width_bucket(int(w)) for w in widths], dtype=np.intp)
    max_w = int(widths.max())
    rel = np.arange(max_w, dtype=np.intp)
    idx = starts[:, None] + rel[None, :]
    mask = rel[None, :] < widths[:, None]
    idx = np.where(mask, idx, 0)

    v = params.value("span.attn_v")
    token_logits = h @ v
    logits = np.where(mask, token_logits[idx], -np.inf)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=1, keepdims=True)

    gathered = h[idx]  # (S, max_w, d)
    pooled = np.einsum("sw,swd->sd", attn, gathered)
    width_vecs = params.value("span.width_emb")[buckets]
    xs = np.concatenate([h[starts], h[ends], pooled, width_vecs], axis=1)
    cache = (starts, ends, idx, mask, attn, gathered, buckets, h)
    return xs, cache


def span_embeddings_backward(params: ParamStore, dxs: np.ndarray, cache) -> np.ndarray:
    starts, ends, idx, mask, attn, gathered, buckets, h = cache
    d = h.shape[1]
    dh = np.zeros_like(h)
    dhs = dxs[:, :d]
    dhe = dxs[:, d : 2 * d]
    dpooled = dxs[:, 2 * d : 3 * d]
    dwidth = dxs[:, 3 * d :]
    np.add.at(dh, starts, dhs)
    np.add.at(dh, ends, dhe)
    np.add.at(params["span.width_emb"].grad, buckets, dwidth)

    # pooled = sum_w attn[s,w] * gathered[s,w,:]
    dattn = np.einsum("sd,swd->sw", dpooled, gathered)
    dgathered = attn[:, :, None] * dpooled[:, None, :]
    # softmax rows backward; masked cells have attn == 0 so they contribute nothing
    dlogits = attn * (dattn - np.sum(attn * dattn, axis=1, keepdims=True))
    dlogits = np.where(mask, dlogits, 0.0)

    v = params.value("span.attn_v")
    flat_idx = idx[mask]
    np.add.at(dh, flat_idx, dgathered[mask])
    dtoken_logits = np.zeros(h.shape[0])
    np.add.at(dtoken_logits, flat_idx, dlogits[mask])
    dh += dtoken_logits[:, None] * v[None, :]
    params["span.attn_v"].grad += h.T @ dtoken_logits
    return dh


# ---------------------------------------------------------------------------
# feedforward scalar scorers (one hidden tanh layer)
# ---------------------------------------------------------------------------


def ffn_forward(params: ParamStore, scorer: str, x: np.ndarray):
    """Scalar score per row of x; x has shape (S, d_in), result (S,)."""
    w1 = params.value(f"score.{scorer}.W1")
    b1 = params.value(f"score.{scorer}.b1")
    w2 = params.value(f"score.{scorer}.w2")
    b2 = params.value(f"score.{scorer}.b2")
    if x.shape[1] != w1.shape[1]:
        raise NumericError(f"{scorer} scorer: input dim {x.shape[1]} != {w1.shape[1]}")
    hidden = np.tanh(x @ w1.T + b1)
    scores = hidden @ w2 + b2[0]
    return scores, (scorer, x, hidden)


def ffn_backward(params: ParamStore, dscores: np.ndarray, cache) -> np.ndarray:
    scorer, x, hidden = cache
    w1 = params.value(f"score.{scorer}.W1")
    w2 = params.value(f"score.{scorer}.w2")
    params[f"score.{scorer}.w2"].grad += hidden.T @ dscores
    params[f"score.{scorer}.b2"].grad += np.array([dscores.sum()])
    dhidden = np.outer(dscores, w2)
    dz = dhidden * (1.0 - hidden * hidden)
    params[f"score.{scorer}.W1"].grad += dz.T @ x
    params[f"score.{scorer}.b1"].grad += dz.sum(axis=0)
    return dz @ w1


def _scorer_tensors(params: ParamStore, scorer: str):
    """(W1, b1, w2, b2) of a scorer, with the output bias as a float."""
    values = [params.value(f"score.{scorer}.{name}") for name in ("W1", "b1", "w2", "b2")]
    return (*values[:3], float(values[3][0]))


def pair_features(x: np.ndarray, cmat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """[span; cluster; span*cluster] rows for one span against a (C, span_dim)
    cluster matrix; shared by s_a and alpha. Written into ``out`` when given."""
    # filled in place: np.broadcast_to + np.concatenate costs twice as much
    n = x.shape[0]
    feats = np.empty((cmat.shape[0], 3 * n)) if out is None else out
    feats[:, :n] = x
    feats[:, n : 2 * n] = cmat
    np.multiply(x, cmat, out=feats[:, 2 * n :])
    return feats


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def prune_cap(prune_ratio: float, n_tokens: int) -> int:
    return int(math.ceil(prune_ratio * n_tokens))


def prune_spans(spans, scores, prune_ratio: float, n_tokens: int, mode: str) -> list[int]:
    """Indices of surviving spans, restored to document order.

    Ties on the score prefer the earlier start, then the shorter span.
    """
    cap = prune_cap(prune_ratio, n_tokens)
    order = sorted(
        range(len(spans)),
        key=lambda i: (-scores[i], spans[i][0], spans[i][1] - spans[i][0]),
    )
    if mode == PRUNE_REFORMULATED:
        order = [i for i in order if scores[i] > 0.0]
    elif mode != PRUNE_ORIGINAL:
        raise ValueError(f"unknown pruning mode {mode!r}")
    kept = order[:cap]
    return sorted(kept, key=lambda i: spans[i])


# ---------------------------------------------------------------------------
# incremental resolution
# ---------------------------------------------------------------------------


@dataclass
class EntityCluster:
    cluster_id: int  # its row in EngineState.embeddings()
    mentions: list[Span] = field(default_factory=list)


class EngineState:
    """Per-document clusters; this is everything kept across segments.

    The cluster embeddings are the rows of one matrix that doubles its
    capacity when it fills, so scoring a span reads a view of the live rows
    instead of stacking them. A merge writes its row in place.
    """

    FIRST_CAPACITY = 16

    def __init__(self):
        self.clusters: list[EntityCluster] = []  # only appended: position == cluster id
        self._matrix = np.empty((0, 0))

    def create(self, embedding: np.ndarray, span: Span) -> EntityCluster:
        n = len(self.clusters)
        if n == len(self._matrix):
            grown = np.empty((max(self.FIRST_CAPACITY, 2 * n), embedding.shape[0]))
            if n:
                grown[:n] = self._matrix
            self._matrix = grown
        self._matrix[n] = embedding
        cluster = EntityCluster(n, [span])
        self.clusters.append(cluster)
        return cluster

    def merge(self, cluster: EntityCluster, span: Span, x: np.ndarray, alpha: float) -> None:
        """Move the cluster's row to (1 - alpha) * c + alpha * x, in place, and add the mention."""
        row = self._matrix[cluster.cluster_id]
        row *= 1.0 - alpha
        row += alpha * x
        cluster.mentions.append(span)

    def embeddings(self) -> np.ndarray:
        """(C, span_dim) view of the cluster embeddings; row i is cluster id i."""
        return self._matrix[: len(self.clusters)]

    def float_state_size(self) -> int:
        """Retained floating-point scalars: the live cluster embeddings, not the spare rows."""
        return self.embeddings().size


class SegmentForward(NamedTuple):
    """One segment's candidates plus the caches its backward pass needs."""

    spans: list[Span]  # candidates in document coordinates and order
    xs: np.ndarray  # (S, span_dim) span embeddings
    mention_scores: np.ndarray  # (S,); zeros under gold mentions
    kept: list[int]  # rows that survive pruning, in document order
    ids: np.ndarray
    enc_caches: list
    span_cache: tuple
    mention_cache: Optional[tuple]  # None under gold mentions


def segment_forward(
    doc: Document,
    segment: Segment,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
) -> Optional[SegmentForward]:
    """Encode a segment, embed and score its candidate spans, and prune them.

    Candidates are the gold mentions inside the segment when
    ``engine_cfg.gold_mentions`` is set (they skip the mention scorer and are
    all kept), otherwise every span up to the maximum width. Returns None when
    the segment has no candidates. Training and inference both call this.
    """
    x0, ids = embed_tokens_forward(params, encoder_cfg, segment.tokens)
    h, enc_caches = encode_forward(params, encoder_cfg, x0)
    offset = segment.token_offset
    if engine_cfg.gold_mentions:
        end_excl = offset + len(segment)
        spans = sorted(m for m in doc.mentions() if offset <= m[0] and m[1] < end_excl)
    else:
        spans = enumerate_spans(segment.sentence_lengths, engine_cfg.max_span_width, offset)
    if not spans:
        return None
    xs, span_cache = span_embeddings_forward(params, h, [(s - offset, e - offset) for s, e in spans])
    if engine_cfg.gold_mentions:
        sm, sm_cache, kept = np.zeros(len(spans)), None, list(range(len(spans)))
    else:
        sm, sm_cache = ffn_forward(params, "mention", xs)
        if not np.isfinite(sm).all():
            raise NumericError(f"non-finite mention score in segment at token {offset}")
        kept = prune_spans(spans, sm, engine_cfg.prune_ratio, len(segment), engine_cfg.pruning_mode)
    return SegmentForward(spans, xs, sm, kept, ids, enc_caches, span_cache, sm_cache)


def resolve_document(
    doc: Document,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    pair_score_fn: Optional[Callable[[Span, np.ndarray, EntityCluster], float]] = None,
    alpha_fn: Optional[Callable[[Span, np.ndarray, EntityCluster], float]] = None,
    on_segment: Optional[Callable[[int, EngineState], None]] = None,
) -> list[tuple[Span, ...]]:
    """Predict clusters for one document with the incremental create/merge rule.

    ``pair_score_fn`` / ``alpha_fn`` replace the learned pair and merge scorers
    when given (used by oracles and probes). ``on_segment`` is called after
    each segment with the retained engine state.

    The learned scorers compute what ``ffn_forward`` does, with their tensors
    fetched once per document and the pair scorer's feature and hidden rows
    written into buffers held across spans.
    """
    engine_cfg.validate()
    state = EngineState()
    learned = {}  # scorer -> (W1, b1, w2, b2) of each learned scorer in use
    if pair_score_fn is None:
        learned["pair"] = pair_w1, pair_b1, pair_w2, pair_b2 = _scorer_tensors(params, "pair")
        # contiguous, so the per-span product needs no transposed BLAS call
        pair_w1t = np.ascontiguousarray(pair_w1.T)
    if alpha_fn is None:
        learned["merge"] = gate_w1, gate_b1, gate_w2, gate_b2 = _scorer_tensors(params, "merge")
    feats = hidden = np.empty((0, 0))
    for seg_index, segment in enumerate(segment_document(doc, engine_cfg.max_segment_tokens)):
        fwd = segment_forward(doc, segment, params, encoder_cfg, engine_cfg)
        for row in fwd.kept if fwd is not None else ():
            span, x = fwd.spans[row], fwd.xs[row]
            live = len(state.clusters)
            if live:
                if live > len(feats):
                    feats = np.empty((2 * live, 3 * x.shape[0]))
                    for scorer, (w1, *_) in learned.items():
                        if w1.shape[1] != feats.shape[1]:
                            raise NumericError(f"{scorer} scorer: input dim {feats.shape[1]} != {w1.shape[1]}")
                    hidden = np.empty((2 * live, len(pair_b1))) if "pair" in learned else hidden
                # one feature row per live cluster, shared by s_a and the merge gate
                f = pair_features(x, state.embeddings(), out=feats[:live])
                if pair_score_fn is None:
                    z = np.matmul(f, pair_w1t, out=hidden[:live])
                    z += pair_b1
                    np.tanh(z, out=z)
                    sa = z @ pair_w2
                    sa += pair_b2
                else:
                    sa = np.array([pair_score_fn(span, x, c) for c in state.clusters])
                sc = fwd.mention_scores[row] + sa
                # the first maximum, so ties go to the lower cluster id
                best_pos = int(sc.argmax())
                best = float(sc[best_pos])
                # argmax returns the first NaN, so this also covers NaN anywhere in sc
                if not math.isfinite(best):
                    raise NumericError(f"non-finite cluster score {best} at span {span}")
            else:
                best = -np.inf
                best_pos = -1
            if best <= DUMMY_SCORE:
                state.create(x, span)
            else:
                cluster = state.clusters[best_pos]
                if alpha_fn is None:
                    z = gate_w1 @ f[best_pos]
                    z += gate_b1
                    np.tanh(z, out=z)
                    alpha = float(sigmoid(z @ gate_w2 + gate_b2))
                else:
                    alpha = alpha_fn(span, x, cluster)
                if not math.isfinite(alpha):
                    raise NumericError(f"non-finite merge weight {alpha} at span {span}")
                state.merge(cluster, span, x, alpha)
        if on_segment is not None:
            on_segment(seg_index, state)
    clusters = [tuple(c.mentions) for c in state.clusters]
    if not engine_cfg.keeps_singletons:
        clusters = [c for c in clusters if len(c) > 1]
    return clusters
