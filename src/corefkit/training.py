"""Training objectives, the epoch loop with early stopping, continued training.

Both objectives walk the engine's cluster state (``EngineState``) in
teacher-forced mode: candidate spans are walked in document order and each
gold mention joins its entity's cluster, so teacher forcing keeps exactly one
cluster per gold entity. A span's target is that
cluster, or the dummy when the entity has no cluster yet or the span is no
gold mention. The antecedent objective softmaxes the combined score s_c over
live clusters plus the dummy; the joint objective factors each kept span into
a mention-detection term (sigmoid of the mention score) and a cluster-choice
term that softmaxes the pair score s_a instead. Gradients are
backpropagated through cluster merges within a segment; cluster embeddings
carried across segments are treated as constants.

Teacher forcing fixes each step's target and every merge before anything is
scored, so the walk computes only the merge gates and the cluster rows; one
pair-scorer call on the segment's stacked rows follows it, and every step's
softmax, loss and checks are computed from its scores as whole-segment arrays.

The backward pass makes one call per scorer per segment. Every pair score's
gradient is known when the forward walk ends, so one call on the segment's
stacked pair rows gives the pair scorer's gradients. The merge gate's input
gradient depends on the clusters' gradients, so the reverse walk takes it one
merge at a time, and one call after the walk gives the gate's parameter
gradients.

The stacked pair rows (features, hidden layer, and the backward pass's
intermediate and input-gradient rows) go into grow-only buffers
(``engine.RowBuffers``), passed to ``document_loss`` as ``buffers``. One
``train()`` call passes one set to all of its training steps, so that each
segment reuses the memory of the last; a call without one uses a set of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .documents import Document, Span, check_unique_ids
from .encoder import (
    EncoderConfig,
    FreezeMask,
    apply_freeze,
    embed_tokens_backward,
    encode_backward,
)
from .engine import (
    DUMMY_SCORE,
    DocumentPlan,
    EngineConfig,
    EngineState,
    EntityCluster,
    RowBuffers,
    SegmentForward,
    ffn_backward,
    ffn_forward,
    pair_features,
    param_layout,
    plan_document,
    resolve_document,
    segment_forward,
    span_embeddings_backward,
)
from .metrics import MetricReport, score_corpus
from .numeric import AdamOptimizer, NumericError, ParamStore, sigmoid

OBJECTIVE_ANTECEDENT = "antecedent_only"
OBJECTIVE_JOINT = "joint_singleton"


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 100
    patience: int = 10
    lr_task: float = 2e-4
    lr_encoder: float = 1e-5
    clip_norm: float = 10.0
    seed: int = 0
    objective: str = OBJECTIVE_JOINT
    freeze: FreezeMask = field(default_factory=FreezeMask)
    weight_decay_encoder: float = 0.01

    def validate(self) -> "TrainConfig":
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.patience > self.max_epochs:
            raise ValueError("patience must be <= max_epochs")
        for name in ("lr_task", "lr_encoder"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"{name} must be finite and positive, got {lr}")
        if not self.clip_norm > 0:  # NaN too; inf means no clipping
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        wd = self.weight_decay_encoder
        if not (math.isfinite(wd) and wd >= 0):
            raise ValueError(f"weight_decay_encoder must be finite and >= 0, got {wd}")
        if self.objective not in (OBJECTIVE_ANTECEDENT, OBJECTIVE_JOINT):
            raise ValueError(f"unknown objective {self.objective!r}")
        return self


# ---------------------------------------------------------------------------
# teacher-forced losses
# ---------------------------------------------------------------------------


def _gold_entity_map(doc: Document) -> dict[Span, int]:
    mapping = {}
    for entity, cluster in enumerate(doc.clusters):
        for span in cluster:
            mapping[span] = entity
    return mapping


def document_loss(
    doc: Document | DocumentPlan,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    objective: str,
    backward: bool = True,
    *,
    buffers: Optional[RowBuffers] = None,
) -> float:
    """Total negative log likelihood of the document, or of its plan, under
    teacher forcing.

    When ``backward`` is true, analytic gradients are accumulated into the
    parameter store (for every tensor, frozen or not). The pair rows go into
    ``buffers``, or into a set of their own without one.
    """
    if objective not in (OBJECTIVE_ANTECEDENT, OBJECTIVE_JOINT):
        raise ValueError(f"unknown objective {objective!r}")
    plan = plan_document(doc, encoder_cfg, engine_cfg)
    gold = _gold_entity_map(plan.doc)
    state = EngineState()
    by_entity: dict[int, EntityCluster] = {}
    buffers = RowBuffers() if buffers is None else buffers
    total = 0.0
    for segment in plan.segments:
        total += _segment_loss(
            segment, gold, state, by_entity, params, encoder_cfg, engine_cfg, objective, backward, buffers
        )
    return total


def _segment_loss(
    segment, gold, state, by_entity, params, encoder_cfg, engine_cfg, objective, backward, buffers
) -> float:
    fwd = segment_forward(segment, params, encoder_cfg, engine_cfg)
    if fwd is None:
        return 0.0
    spans, xs, sm = fwd.spans, fwd.xs, fwd.mention_scores
    kept = np.array(fwd.kept, dtype=np.intp)

    # teacher forcing fixes which spans create clusters before anything is
    # scored, so the pair rows of every step are counted here and the
    # segment's feature rows go into one buffer: step i scores rows
    # offsets[i]:offsets[i + 1], one per cluster live before it
    live, seen, sizes = len(state.clusters), set(by_entity), []
    for row in fwd.kept:
        sizes.append(live)
        entity = gold.get(spans[row])
        if entity is not None and entity not in seen:
            seen.add(entity)
            live += 1
    offsets = list(accumulate(sizes, initial=0))
    feats = buffers.take("feats", offsets[-1], 3 * xs.shape[1])

    # it also fixes every step's target and merge, so the walk computes only
    # the merge gates and the cluster rows; the pair scores come after it
    targets = []  # the target cluster id of each step; -1 is the dummy
    steps = []
    for i, row in enumerate(fwd.kept):
        span = spans[row]
        entity = gold.get(span)
        x = xs[row]
        a, b = offsets[i], offsets[i + 1]
        if b > a:
            pair_features(x, state.embeddings(), out=feats[a:b])

        # teacher forcing keeps one cluster per gold entity: it is the target,
        # and the dummy is when there is none yet (or the span is no mention)
        cluster = by_entity.get(entity)
        target = -1
        merge = None
        created = None
        if cluster is not None:
            target = cluster.cluster_id
            # the gate scores the target's pair row, which keeps its pre-merge embedding
            logit, cache = ffn_forward(params, "merge", feats[a + target : a + target + 1])
            alpha = float(sigmoid(logit[0]))
            merge = (a + target, target, alpha, cache[2][0])
            state.merge(cluster, span, x, alpha)
        elif entity is not None:
            by_entity[entity] = state.create(x, span)
            created = by_entity[entity].cluster_id
        targets.append(target)
        steps.append((row, a, b, merge, created))

    # one pair-scorer call on the segment's stacked rows; then each step's
    # softmax over its clusters plus the dummy, as one row of a padded matrix
    # whose pad cells are -inf, so that they get probability zero
    joint = objective == OBJECTIVE_JOINT
    sa, hidden = np.zeros(0), None
    if offsets[-1]:
        sa, (_, _, hidden) = ffn_forward(params, "pair", feats, buffers)
    sizes, targets = np.array(sizes, dtype=np.intp), np.array(targets, dtype=np.intp)
    steps_ix = np.arange(len(kept))
    pair_cell = np.arange(max(sizes, default=0) + 1) < sizes[:, None]
    logits = np.full(pair_cell.shape, -np.inf)
    # under the antecedent objective s_c = s_m + s_a
    logits[pair_cell] = sa if joint else np.repeat(sm[kept], sizes) + sa
    logits[steps_ix, sizes] = DUMMY_SCORE
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    bad_norm = np.abs(p.sum(axis=1) - 1.0) > 1e-12
    step_loss = -np.log(p[steps_ix, np.where(targets < 0, sizes, targets)])
    bad = bad_norm | ~np.isfinite(step_loss)
    # softmax cross-entropy over clusters + dummy: d s_k = p_k - [k == target]
    dscores = p[pair_cell]
    merging = targets >= 0
    dscores[np.array(offsets[:-1], dtype=np.intp)[merging] + targets[merging]] -= 1.0
    terms = step_loss

    mention_grad = None
    if joint and not engine_cfg.gold_mentions:
        # a detection term for every kept span, then for each gold mention
        # that pruning dropped
        kept_set = set(fwd.kept)
        dropped = [i for i, span in enumerate(spans) if span in gold and i not in kept_set]
        rows = np.concatenate([kept, np.array(dropped, dtype=np.intp)])
        is_mention = np.array([spans[row] in gold for row in rows], dtype=bool)
        s = sigmoid(sm[rows])
        mention_loss = -np.log(np.where(is_mention, s, 1.0 - s))
        bad |= ~np.isfinite(mention_loss[: len(kept)])
        # each step's pair term, then its mention term, as the walk meets them
        terms = np.concatenate(
            [np.column_stack([step_loss, mention_loss[: len(kept)]]).ravel(), mention_loss[len(kept) :]]
        )
        mention_grad = (rows, np.where(is_mention, s - 1.0, s))

    # errors name the first bad span in walk order
    if bad.any():
        i = int(np.argmax(bad))
        span = spans[fwd.kept[i]]
        if bad_norm[i]:
            raise NumericError(f"softmax not normalized at span {span}")
        if not np.isfinite(step_loss[i]):
            raise NumericError(f"non-finite loss at span {span}")
        raise NumericError(f"non-finite mention loss at span {span}")
    if mention_grad is not None and not np.isfinite(mention_loss).all():
        # only a dropped gold mention's term is left to be non-finite
        bad_row = mention_grad[0][np.argmax(~np.isfinite(mention_loss))]
        raise NumericError(f"non-finite mention loss at span {spans[bad_row]}")

    if backward:
        _segment_backward(
            params, fwd, len(state.clusters), steps, (feats, hidden, dscores), mention_grad, joint, buffers
        )
    # one running total in walk order, as the terms were met
    return float(np.cumsum(np.concatenate([[0.0], terms]))[-1])


def _segment_backward(params, fwd: SegmentForward, n_clusters, steps, pair_rows, mention_grad, joint, buffers):
    xs = fwd.xs
    n = xs.shape[1]
    dxs = np.zeros_like(xs)
    dsm = np.zeros_like(fwd.mention_scores)
    # d loss / d cluster embedding as it stands after the step being undone;
    # rows of clusters carried in from earlier segments are never read
    dcs = np.zeros((n_clusters, n))

    # every pair score's gradient is known once the walk ends: one backward
    # call gives the pair scorer's parameter gradients and every input row
    feats, hidden, dscores = pair_rows
    scored = [(row, a) for row, a, b, _, _ in steps if b > a]
    if scored:
        dfeat = ffn_backward(params, dscores, ("pair", feats, hidden), buffers)
        # [x; c; x*c] rows: the span part is summed per step, the cluster part
        # is added to dcs when the reverse walk reaches the step
        dc_rows = dfeat[:, n : 2 * n] + dfeat[:, 2 * n :] * feats[:, :n]
        rows, starts = (np.array(v, dtype=np.intp) for v in zip(*scored))
        dxs[rows] += np.add.reduceat(dfeat[:, :n] + dfeat[:, 2 * n :] * feats[:, n : 2 * n], starts)
        if not joint:
            dsm[rows] += np.add.reduceat(dscores, starts)

    # the merge gate's input gradient needs dcs, so it is taken step by step;
    # its parameter gradients wait for one call after the walk
    w1 = params.value("score.merge.W1")
    w2 = params.value("score.merge.w2")
    merged = []  # (pair row, gate hidden row, d logit)
    for (row, a, b, merge, created) in reversed(steps):
        x = xs[row]
        if merge is not None:
            r, j, alpha, gate_hidden = merge
            c_before = feats[r, n : 2 * n]
            dc_after = dcs[j]
            dalpha = float(dc_after @ (x - c_before))
            dxs[row] += alpha * dc_after
            dlogit = dalpha * alpha * (1.0 - alpha)
            dfeat_gate = (dlogit * w2 * (1.0 - gate_hidden * gate_hidden)) @ w1
            dxs[row] += dfeat_gate[:n] + dfeat_gate[2 * n :] * c_before
            dcs[j] = (1.0 - alpha) * dc_after + (dfeat_gate[n : 2 * n] + dfeat_gate[2 * n :] * x)
            merged.append((r, gate_hidden, dlogit))
        if created is not None:
            dxs[row] += dcs[created]
        if b > a:
            dcs[: b - a] += dc_rows[a:b]
    if merged:
        r, gate_hidden, dlogits = zip(*merged)
        ffn_backward(params, np.array(dlogits), ("merge", feats[list(r)], np.stack(gate_hidden)))

    if mention_grad is not None:
        rows, dsm_rows = mention_grad
        dsm[rows] += dsm_rows

    if fwd.mention_cache is not None:
        dxs += ffn_backward(params, dsm, fwd.mention_cache)
    dh = span_embeddings_backward(params, dxs, fwd.span_cache)
    dx0 = encode_backward(params, dh, fwd.enc_caches)
    embed_tokens_backward(params, dx0, fwd.ids)


# ---------------------------------------------------------------------------
# epoch loop, early stopping, continued training
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: ParamStore
    epoch: int
    dev_avg_f1: float


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_avg_f1: float
    dev_predictions: Optional[dict] = None
    extra_predictions: Optional[dict] = None
    # pre-clip global gradient norms of the epoch's optimizer steps
    grad_norm_mean: float = 0.0
    grad_norm_max: float = 0.0
    clipped_steps: int = 0


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochRecord]

    def dev_scores(self) -> list[float]:
        return [r.dev_avg_f1 for r in self.history]


def select_checkpoint(scores: Sequence[float], patience: int) -> tuple[int, int]:
    """Early-stopping selection over a per-epoch score sequence.

    Returns (best_index, stop_index): the first index achieving the best score
    seen before stopping, and the index at which ``train()`` would stop (the
    first one `patience` epochs after the best so far, or the last one).
    """
    if not scores:
        raise ValueError("empty score sequence")
    best_i = 0
    for i in range(len(scores)):
        if scores[i] > scores[best_i]:
            best_i = i
        if i - best_i >= patience:
            return best_i, i
    return best_i, len(scores) - 1


def evaluate_docs(
    docs: Sequence[Document | DocumentPlan],
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
) -> tuple[MetricReport, dict]:
    """Corpus-level metric report plus per-document predicted clusters, keyed by
    id; each document may be given as its plan."""
    plans = [plan_document(doc, encoder_cfg, engine_cfg) for doc in docs]
    check_unique_ids(plan.doc for plan in plans)
    predictions = {p.doc.doc_id: resolve_document(p, params, encoder_cfg, engine_cfg) for p in plans}
    report = score_corpus((p.doc.clusters, predictions[p.doc.doc_id]) for p in plans)
    return report, predictions


def train(
    train_docs: Sequence[Document],
    dev_docs: Sequence[Document],
    init_params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    config: TrainConfig,
    *,
    extra_eval_docs: Optional[Sequence[Document]] = None,
    cache_predictions: bool = False,
    early_stop: bool = True,
) -> TrainResult:
    """Train to convergence on dev average F1 with patience-based stopping.

    One optimizer step per document. The returned checkpoint holds the best
    parameters; the history holds every epoch (with per-document predictions
    when ``cache_predictions`` is set, as post-hoc selection experiments need;
    ``extra_eval_docs`` are predicted only then, and are an error without it).
    """
    config.validate()
    if not train_docs:
        raise ValueError("empty training set")
    if extra_eval_docs is not None and not cache_predictions:
        raise ValueError("extra_eval_docs are only evaluated with cache_predictions=True")
    # evaluation keys predictions by doc_id: reject a repeat before the first epoch
    check_unique_ids(dev_docs)
    check_unique_ids(extra_eval_docs or ())
    params = init_params.copy()
    apply_freeze(params, encoder_cfg, config.freeze)
    optimizer = AdamOptimizer(params, config)
    rng = np.random.default_rng(config.seed)

    # every epoch passes over the same documents: plan each one once per call
    def plan_all(docs):
        return [plan_document(doc, encoder_cfg, engine_cfg) for doc in docs]

    train_plans, dev_plans = plan_all(train_docs), plan_all(dev_docs)
    extra_plans = plan_all(extra_eval_docs) if extra_eval_docs is not None else None

    # every training step of this call reuses one set of pair-row buffers
    buffers = RowBuffers()

    history: list[EpochRecord] = []
    best: Optional[Checkpoint] = None
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        epoch_loss = 0.0
        norms = []
        for doc_i in order:
            # gradients start at zero: the copy has none, and each step zeroes them
            epoch_loss += document_loss(
                train_plans[doc_i], params, encoder_cfg, engine_cfg, config.objective, buffers=buffers
            )
            norms.append(optimizer.step(params))
        epoch_loss /= len(train_docs)

        dev_report, dev_preds = evaluate_docs(dev_plans, params, encoder_cfg, engine_cfg)
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss,
            dev_avg_f1=dev_report.avg_f1,
            grad_norm_mean=sum(norms) / len(norms),
            grad_norm_max=max(norms),
            clipped_steps=sum(norm > config.clip_norm for norm in norms),
        )
        if cache_predictions:
            record.dev_predictions = dev_preds
            if extra_plans is not None:
                _, extra_preds = evaluate_docs(extra_plans, params, encoder_cfg, engine_cfg)
                record.extra_predictions = extra_preds
        history.append(record)

        if best is None or dev_report.avg_f1 > best.dev_avg_f1:
            best = Checkpoint(params.copy(), epoch, dev_report.avg_f1)
        if early_stop and epoch - best.epoch >= config.patience:
            break
    assert best is not None
    return TrainResult(checkpoint=best, history=history)


class ShapeMismatchError(ValueError):
    pass


def check_compatible(params: ParamStore, layout, context: str) -> None:
    """Raise ShapeMismatchError, headed by ``context``, unless ``params`` holds
    exactly the tensor names and shapes of ``layout`` (``engine.param_layout``)."""
    held = {name: p.value.shape for name, p in params.items()}
    shapes = {name: tuple(shape) for name, shape, *_ in layout}
    problems = [f"{name}: missing from the configs" for name in held if name not in shapes]
    problems += [f"{name}: missing from the tensors" for name in shapes if name not in held]
    problems += [
        f"{name}: tensor {held[name]} vs configs {shape}"
        for name, shape in shapes.items()
        if held.get(name, shape) != shape
    ]
    if problems:
        raise ShapeMismatchError(f"{context}: " + "; ".join(problems))


def continued_train(
    source_params: ParamStore,
    target_train: Sequence[Document],
    target_dev: Sequence[Document],
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    config: TrainConfig,
    **train_kwargs,
) -> TrainResult:
    """Initialize every tensor from a source model, then train on the target.

    With an empty target training set, the source model is evaluated on the
    target dev set as-is (the zero-document transfer point).
    """
    layout = param_layout(encoder_cfg, engine_cfg)
    check_compatible(source_params, layout, "the source model does not fit the configs")
    if not target_train:
        report, _ = evaluate_docs(target_dev, source_params, encoder_cfg, engine_cfg)
        checkpoint = Checkpoint(source_params.copy(), 0, report.avg_f1)
        return TrainResult(checkpoint=checkpoint, history=[])
    return train(
        target_train, target_dev, source_params, encoder_cfg, engine_cfg, config, **train_kwargs
    )
