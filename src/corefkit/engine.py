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
from .encoder import EncoderConfig, embed_tokens_forward, encode_forward, encoder_layout, token_ids
from .numeric import TASK_GROUP, NumericError, ParamStore, sigmoid

PRUNE_ORIGINAL = "original"
PRUNE_REFORMULATED = "reformulated"

# the dummy cluster: choosing it creates a new cluster; its score is fixed
DUMMY_SCORE = 0.0

# widths 1..4 get their own bucket, then 5-7, 8-15, 16-31, 32+
WIDTH_BUCKETS = 8
_BUCKET_STARTS = np.array([2, 3, 4, 5, 8, 16, 32])  # the first width of buckets 1..7


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
        if self.max_segment_tokens < 1:
            raise ValueError("max_segment_tokens must be >= 1")
        if self.scorer_hidden_dim < 1:
            raise ValueError("scorer_hidden_dim must be >= 1")
        if self.width_embedding_dim < 0:
            raise ValueError("width_embedding_dim must be >= 0")
        if self.pruning_mode not in (PRUNE_ORIGINAL, PRUNE_REFORMULATED):
            raise ValueError(f"unknown pruning_mode {self.pruning_mode!r}")
        return self

    @property
    def keeps_singletons(self) -> bool:
        if self.emit_singletons is not None:
            return self.emit_singletons
        return self.pruning_mode == PRUNE_REFORMULATED


def width_bucket(width):
    """The bucket of a span width, or of each width in an array."""
    return np.searchsorted(_BUCKET_STARTS, width, side="right")


def span_dim(encoder_cfg: EncoderConfig, engine_cfg: EngineConfig) -> int:
    return 3 * encoder_cfg.hidden_dim + engine_cfg.width_embedding_dim


def param_layout(encoder_cfg: EncoderConfig, engine_cfg: EngineConfig) -> list:
    """(name, shape, group, init) of every model tensor, in store order: the
    encoder's, then the task scorers'. init is ("normal", standard deviation)
    or ("constant", value)."""
    encoder_cfg.validate()
    engine_cfg.validate()
    d = encoder_cfg.hidden_dim
    sd = span_dim(encoder_cfg, engine_cfg)
    h = engine_cfg.scorer_hidden_dim
    w = engine_cfg.width_embedding_dim
    rows = encoder_layout(encoder_cfg) + [
        ("span.attn_v", (d,), TASK_GROUP, ("normal", 1.0 / np.sqrt(d))),
        ("span.width_emb", (WIDTH_BUCKETS, w), TASK_GROUP, ("normal", 0.5)),
    ]
    for scorer, din in (("mention", sd), ("pair", 3 * sd), ("merge", 3 * sd)):
        rows += [
            (f"score.{scorer}.W1", (h, din), TASK_GROUP, ("normal", 1.0 / np.sqrt(din))),
            (f"score.{scorer}.b1", (h,), TASK_GROUP, ("constant", 0.0)),
            (f"score.{scorer}.w2", (h,), TASK_GROUP, ("normal", 1.0 / np.sqrt(h))),
            (f"score.{scorer}.b2", (1,), TASK_GROUP, ("constant", 0.0)),
        ]
    return rows


def init_params(
    encoder_cfg: EncoderConfig, engine_cfg: EngineConfig, seed: int = 0
) -> ParamStore:
    """Fresh model parameters: one normal draw per normal tensor, in layout order."""
    layout = param_layout(encoder_cfg, engine_cfg)
    params = ParamStore(row[:3] for row in layout)
    rng = np.random.default_rng(seed)
    for name, shape, _, (kind, x) in layout:
        params.value(name)[...] = rng.normal(0.0, x, size=shape) if kind == "normal" else x
    return params


def enumerate_spans(sentence_lengths, max_width: int, offset: int = 0) -> list[Span]:
    """All spans up to max_width tokens, within one sentence, by (start, end)."""
    lengths = np.asarray(sentence_lengths, dtype=np.intp)
    first = np.arange(offset, offset + lengths.sum())
    # spans starting at each token: up to its sentence's end, at most max_width
    count = np.minimum(np.repeat(np.cumsum(lengths) + offset, lengths) - first, max_width)
    starts = np.repeat(first, count)
    ends = starts + np.arange(len(starts)) - np.repeat(np.cumsum(count) - count, count)
    return list(zip(starts.tolist(), ends.tolist()))


class SegmentPlan(NamedTuple):
    """A segment's arrays that no parameter affects."""

    segment: Segment
    ids: np.ndarray  # token ids
    spans: list[Span]  # candidates in document coordinates and order
    bounds: np.ndarray  # (S, 2) segment-local (start, end) of each candidate
    gather: Optional[tuple]  # span_gather(bounds); None without candidates


class DocumentPlan(NamedTuple):
    """A document and the plans of its segments, in order."""

    doc: Document
    segments: list[SegmentPlan]
    configs: tuple  # the (encoder, engine) configs it was built for


def plan_document(
    doc: Document | DocumentPlan, encoder_cfg: EncoderConfig, engine_cfg: EngineConfig
) -> DocumentPlan:
    """Segment a document and plan each segment; given a plan, return it.
    Candidates are the gold mentions inside the segment under gold mentions,
    otherwise every span up to the maximum width."""
    if isinstance(doc, DocumentPlan):
        if doc.configs != (encoder_cfg, engine_cfg):
            raise ValueError(f"{doc.doc.doc_id}: the plan was built for other configs")
        return doc
    ids = token_ids(doc.tokens, encoder_cfg.hash_vocab_size)
    mentions = sorted(doc.mentions()) if engine_cfg.gold_mentions else ()
    plans = []
    for segment in segment_document(doc, engine_cfg.max_segment_tokens):
        offset, end = segment.token_offset, segment.token_offset + len(segment)
        if engine_cfg.gold_mentions:
            spans = [m for m in mentions if offset <= m[0] and m[1] < end]
        else:
            spans = enumerate_spans(segment.sentence_lengths, engine_cfg.max_span_width, offset)
        bounds = np.array(spans, dtype=np.intp).reshape(-1, 2) - offset
        plans.append(SegmentPlan(segment, ids[offset:end], spans, bounds, span_gather(bounds) if spans else None))
    return DocumentPlan(doc, plans, (encoder_cfg, engine_cfg))


# ---------------------------------------------------------------------------
# batched span embeddings
# ---------------------------------------------------------------------------


def span_gather(bounds):
    """Starts, ends, token rows (padded with row 0 to the widest span), the
    mask of real cells and width buckets of (S, 2) segment-local bounds."""
    starts, ends = bounds[:, 0], bounds[:, 1]
    widths = ends - starts + 1
    rel = np.arange(widths.max(), dtype=np.intp)
    mask = rel[None, :] < widths[:, None]
    idx = np.where(mask, starts[:, None] + rel[None, :], 0)
    return starts, ends, idx, mask, width_bucket(widths)


def span_embeddings_forward(params: ParamStore, h: np.ndarray, gather):
    """Embed the spans of a ``span_gather``; returns (S, span_dim)."""
    starts, ends, idx, mask, buckets = gather
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


class RowBuffers:
    """Grow-only work arrays, by name, for a scorer's stacked rows.

    ``take(name, rows, cols)`` gives a C-contiguous (rows, cols) view of the
    named buffer, growing it when it is too small, and overwrites what the
    last take of that name gave. Held across calls, the same memory serves
    every call, where fresh arrays would make the allocator hand pages back
    and fault them in again.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        flat = self._flat.get(name)
        if flat is None or len(flat) < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(rows, cols)


def _rows(buffers: Optional[RowBuffers], name: str, rows: int, cols: int) -> np.ndarray:
    return np.empty((rows, cols)) if buffers is None else buffers.take(name, rows, cols)


def scorer_tensors(params: ParamStore, scorer: str, input_dim: int):
    """(W1, b1, w2, b2) of a scorer, b2 as a float; W1 must take input_dim columns."""
    w1, b1, w2, b2 = (params.value(f"score.{scorer}.{name}") for name in ("W1", "b1", "w2", "b2"))
    if w1.shape[1] != input_dim:
        raise NumericError(f"{scorer} scorer: input dim {input_dim} != {w1.shape[1]}")
    return w1, b1, w2, float(b2[0])


def ffn_forward(params: ParamStore, scorer: str, x: np.ndarray, buffers: Optional[RowBuffers] = None):
    """Scalar score per row of x; x has shape (S, d_in), result (S,).

    With ``buffers``, the hidden rows (kept in the returned cache) are
    written into its "hidden" buffer.
    """
    w1, b1, w2, b2 = scorer_tensors(params, scorer, x.shape[1])
    hidden = np.matmul(x, w1.T, out=_rows(buffers, "hidden", len(x), len(b1)))
    hidden += b1
    np.tanh(hidden, out=hidden)
    scores = hidden @ w2 + b2
    return scores, (scorer, x, hidden)


def ffn_backward(params: ParamStore, dscores: np.ndarray, cache, buffers: Optional[RowBuffers] = None) -> np.ndarray:
    """Accumulate the scorer's parameter gradients and return the gradient
    of its input rows. With ``buffers``, that goes into its "dx" buffer, W1's
    gradient into "dw1" and the intermediate rows into "dhidden" and "slope"."""
    scorer, x, hidden = cache
    w1 = params.value(f"score.{scorer}.W1")
    w2 = params.value(f"score.{scorer}.w2")
    params[f"score.{scorer}.w2"].grad += hidden.T @ dscores
    params[f"score.{scorer}.b2"].grad += np.array([dscores.sum()])
    # dz = dhidden * (1 - hidden^2)
    dz = np.outer(dscores, w2, out=_rows(buffers, "dhidden", *hidden.shape))
    slope = np.multiply(hidden, hidden, out=_rows(buffers, "slope", *hidden.shape))
    np.subtract(1.0, slope, out=slope)
    dz *= slope
    params[f"score.{scorer}.W1"].grad += np.matmul(dz.T, x, out=_rows(buffers, "dw1", *w1.shape))
    params[f"score.{scorer}.b1"].grad += dz.sum(axis=0)
    return np.matmul(dz, w1, out=_rows(buffers, "dx", len(dz), w1.shape[1]))


def pair_features(x: np.ndarray, cmat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[span; cluster; span*cluster] rows for one span against a (C, span_dim)
    cluster matrix, shared by s_a and alpha; written into ``out``, which is required."""
    # filled in place: np.broadcast_to + np.concatenate costs twice as much
    n = x.shape[0]
    out[:, :n] = x
    out[:, n : 2 * n] = cmat
    np.multiply(x, cmat, out=out[:, 2 * n :])
    return out


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def prune_cap(prune_ratio: float, n_tokens: int) -> int:
    return int(math.ceil(prune_ratio * n_tokens))


def prune_spans(bounds, scores, prune_ratio: float, n_tokens: int, mode: str) -> list[int]:
    """Indices of surviving spans, restored to document order.

    ``bounds`` is the (S, 2) array of (start, end) and ``scores`` is (S,).
    Ties on the score prefer the earlier start, then the shorter span.
    """
    cap = prune_cap(prune_ratio, n_tokens)
    starts, ends = bounds[:, 0], bounds[:, 1]
    order = np.lexsort((ends - starts, starts, -scores))
    if mode == PRUNE_REFORMULATED:
        order = order[scores[order] > 0.0]
    elif mode != PRUNE_ORIGINAL:
        raise ValueError(f"unknown pruning mode {mode!r}")
    kept = order[:cap]
    return kept[np.lexsort((ends[kept], starts[kept]))].tolist()


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
    plan: SegmentPlan,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
) -> Optional[SegmentForward]:
    """Encode a planned segment, embed and score its candidate spans, and prune them.

    Gold-mention candidates skip the mention scorer and are all kept. Returns
    None when the segment has no candidates. Training and inference both
    call this.
    """
    x0 = embed_tokens_forward(params, encoder_cfg, plan.ids)
    h, enc_caches = encode_forward(params, encoder_cfg, x0)
    spans = plan.spans
    if not spans:
        return None
    xs, span_cache = span_embeddings_forward(params, h, plan.gather)
    if engine_cfg.gold_mentions:
        sm, sm_cache, kept = np.zeros(len(spans)), None, list(range(len(spans)))
    else:
        sm, sm_cache = ffn_forward(params, "mention", xs)
        if not np.isfinite(sm).all():
            raise NumericError(f"non-finite mention score in segment at token {plan.segment.token_offset}")
        kept = prune_spans(plan.bounds, sm, engine_cfg.prune_ratio, len(plan.segment), engine_cfg.pruning_mode)
    return SegmentForward(spans, xs, sm, kept, plan.ids, enc_caches, span_cache, sm_cache)


def resolve_document(
    doc: Document | DocumentPlan,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    pair_score_fn: Optional[Callable[[Span, np.ndarray, EntityCluster], float]] = None,
    alpha_fn: Optional[Callable[[Span, np.ndarray, EntityCluster], float]] = None,
    on_segment: Optional[Callable[[int, EngineState], None]] = None,
) -> list[tuple[Span, ...]]:
    """Predict clusters for one document, or its plan, with the incremental
    create/merge rule.

    ``pair_score_fn`` / ``alpha_fn`` replace the learned pair and merge scorers
    when given (used by oracles and probes). ``on_segment`` is called after
    each segment with the retained engine state.

    The learned scorers compute what ``ffn_forward`` does, with their tensors
    fetched and checked at the first scored span, and the pair scorer's
    feature and hidden rows in ``RowBuffers`` views, taken per new cluster.
    """
    engine_cfg.validate()
    state = EngineState()
    buffers = RowBuffers()
    feats = np.empty((0, 0))
    for seg_index, segment in enumerate(plan_document(doc, encoder_cfg, engine_cfg).segments):
        fwd = segment_forward(segment, params, encoder_cfg, engine_cfg)
        for row in fwd.kept if fwd is not None else ():
            span, x = fwd.spans[row], fwd.xs[row]
            live = len(state.clusters)
            if live == 1 and not len(feats):
                # the first scored span: the scorers are read, and checked against its rows, once
                if pair_score_fn is None:
                    pair_w1, pair_b1, pair_w2, pair_b2 = scorer_tensors(params, "pair", 3 * len(x))
                    # contiguous, so the per-span product needs no transposed BLAS call
                    pair_w1t = np.ascontiguousarray(pair_w1.T)
                if alpha_fn is None:
                    gate_w1, gate_b1, gate_w2, gate_b2 = scorer_tensors(params, "merge", 3 * len(x))
            if live:
                if len(feats) != live:  # a cluster was created since the last scored span
                    feats = buffers.take("feats", live, 3 * len(x))
                    hidden = buffers.take("hidden", live, len(pair_b1)) if pair_score_fn is None else None
                # one feature row per live cluster, shared by s_a and the merge gate
                f = pair_features(x, state.embeddings(), out=feats)
                if pair_score_fn is None:
                    z = np.matmul(f, pair_w1t, out=hidden)
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
