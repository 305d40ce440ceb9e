"""Training objectives, the epoch loop with early stopping, continued training.

Both objectives walk the engine's cluster state (``EngineState``, one pair
scorer call per kept span) in teacher-forced mode: candidate spans are walked in
document order and each gold mention joins its entity's cluster, so teacher
forcing keeps exactly one cluster per gold entity. A span's target is that
cluster, or the dummy when the entity has no cluster yet or the span is no
gold mention. The antecedent objective softmaxes the combined score s_c over
live clusters plus the dummy; the joint objective factors each span into a
mention-detection term (sigmoid of the mention score) and, for gold mentions,
a cluster-choice term that softmaxes the pair score s_a instead. Gradients are
backpropagated through cluster merges within a segment; cluster embeddings
carried across segments are treated as constants.

The backward pass makes one call per scorer per segment. Every pair score's
gradient is known when the forward walk ends, so one call on the segment's
stacked pair rows gives the pair scorer's gradients. The merge gate's input
gradient depends on the clusters' gradients, so the reverse walk takes it one
merge at a time, and one call after the walk gives the gate's parameter
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .documents import Document, Span, segment_document
from .encoder import (
    EncoderConfig,
    FreezeMask,
    apply_freeze,
    embed_tokens_backward,
    encode_backward,
)
from .engine import (
    DUMMY_SCORE,
    EngineConfig,
    EngineState,
    EntityCluster,
    SegmentForward,
    ffn_backward,
    ffn_forward,
    pair_features,
    resolve_document,
    segment_forward,
    span_embeddings_backward,
)
from .metrics import MetricReport, score_corpus
from .numeric import (
    AdamOptimizer,
    NumericError,
    OptimizerConfig,
    ParamStore,
    sigmoid,
    softmax,
)

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
        if self.patience > self.max_epochs:
            raise ValueError("patience must be <= max_epochs")
        if self.lr_task <= 0 or self.lr_encoder <= 0:
            raise ValueError("learning rates must be positive")
        if self.objective not in (OBJECTIVE_ANTECEDENT, OBJECTIVE_JOINT):
            raise ValueError(f"unknown objective {self.objective!r}")
        return self

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            lr_task=self.lr_task,
            lr_encoder=self.lr_encoder,
            clip_norm=self.clip_norm,
            weight_decay_encoder=self.weight_decay_encoder,
        )


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
    doc: Document,
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    objective: str,
    backward: bool = True,
) -> float:
    """Total negative log likelihood of the document under teacher forcing.

    When ``backward`` is true, analytic gradients are accumulated into the
    parameter store (for every tensor, frozen or not).
    """
    if objective not in (OBJECTIVE_ANTECEDENT, OBJECTIVE_JOINT):
        raise ValueError(f"unknown objective {objective!r}")
    gold = _gold_entity_map(doc)
    state = EngineState()
    by_entity: dict[int, EntityCluster] = {}
    total = 0.0
    for segment in segment_document(doc, engine_cfg.max_segment_tokens):
        total += _segment_loss(
            doc, segment, gold, state, by_entity, params, encoder_cfg, engine_cfg, objective, backward
        )
    return total


def _segment_loss(
    doc, segment, gold, state, by_entity, params, encoder_cfg, engine_cfg, objective, backward
) -> float:
    fwd = segment_forward(doc, segment, params, encoder_cfg, engine_cfg)
    if fwd is None:
        return 0.0
    spans, xs, sm = fwd.spans, fwd.xs, fwd.mention_scores

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
    feats = np.empty((offsets[-1], 3 * xs.shape[1]))
    hidden = np.empty((offsets[-1], params.value("score.pair.b1").shape[0]))
    dscores = np.empty(offsets[-1])  # d loss / d s_a of every pair row

    steps = []
    mention_terms = []  # (row, target_is_mention, sigmoid_value)
    total = 0.0

    joint = objective == OBJECTIVE_JOINT
    use_mention_terms = joint and not engine_cfg.gold_mentions

    for i, row in enumerate(fwd.kept):
        span = spans[row]
        entity = gold.get(span)
        x = xs[row]
        a, b = offsets[i], offsets[i + 1]

        sa = np.zeros(0)
        if b > a:
            pair_features(x, state.embeddings(), out=feats[a:b])
            sa, cache = ffn_forward(params, "pair", feats[a:b])
            hidden[a:b] = cache[2]
        # dummy option last; under the antecedent objective s_c = s_m + s_a
        p = softmax(np.append(sa if joint else sm[row] + sa, DUMMY_SCORE))
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise NumericError(f"softmax not normalized at span {span}")

        # teacher forcing keeps one cluster per gold entity: it is the target,
        # and the dummy is when there is none yet (or the span is no mention)
        cluster = by_entity.get(entity)
        target = len(p) - 1 if cluster is None else cluster.cluster_id
        step_loss = -np.log(p[target])
        if not np.isfinite(step_loss):
            raise NumericError(f"non-finite loss at span {span}")
        total += step_loss
        # softmax cross-entropy over clusters + dummy: d s_k = p_k - [k == target]
        dscores[a:b] = p[:-1]

        if use_mention_terms:
            s = sigmoid(sm[row])
            is_mention = entity is not None
            term = -np.log(s) if is_mention else -np.log(1.0 - s)
            if not np.isfinite(term):
                raise NumericError(f"non-finite mention loss at span {span}")
            total += term
            mention_terms.append((row, is_mention, s))

        merge = None
        created = None
        if cluster is not None:
            dscores[a + target] -= 1.0
            # the gate scores the target's pair row, which keeps its pre-merge embedding
            logit, cache = ffn_forward(params, "merge", feats[a + target : a + target + 1])
            alpha = float(sigmoid(logit[0]))
            merge = (a + target, target, alpha, cache[2][0])
            state.merge(cluster, span, x, alpha)
        elif entity is not None:
            by_entity[entity] = state.create(x, span)
            created = by_entity[entity].cluster_id
        steps.append((row, a, b, merge, created))

    if use_mention_terms:
        # gold mentions that pruning dropped still get a detection term
        kept = set(fwd.kept)
        for row in (i for i, span in enumerate(spans) if span in gold and i not in kept):
            s = sigmoid(sm[row])
            term = -np.log(s)
            if not np.isfinite(term):
                raise NumericError(f"non-finite mention loss at span {spans[row]}")
            total += term
            mention_terms.append((row, True, s))

    if backward:
        _segment_backward(
            params, fwd, len(state.clusters), steps, (feats, hidden, dscores), mention_terms, joint
        )
    return float(total)


def _segment_backward(params, fwd: SegmentForward, n_clusters, steps, pair_rows, mention_terms, joint):
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
        dfeat = ffn_backward(params, dscores, ("pair", feats, hidden))
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

    for (row, is_mention, s) in mention_terms:
        dsm[row] += (s - 1.0) if is_mention else s

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
    seen before stopping, and the index at which training would stop (the
    epoch after `patience` consecutive non-improving epochs, or the last one).
    """
    if not scores:
        raise ValueError("empty score sequence")
    best_i = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best_i]:
            best_i = i
        elif i - best_i >= patience:
            return best_i, i
    return best_i, len(scores) - 1


def evaluate_docs(
    docs: Sequence[Document],
    params: ParamStore,
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
) -> tuple[MetricReport, dict]:
    """Corpus-level metric report plus per-document predicted clusters."""
    predictions = {}
    for doc in docs:
        predictions[doc.doc_id] = resolve_document(doc, params, encoder_cfg, engine_cfg)
    report = score_corpus((doc.clusters, predictions[doc.doc_id]) for doc in docs)
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
    when ``cache_predictions`` is set, as post-hoc selection experiments need).
    """
    config.validate()
    if not train_docs:
        raise ValueError("empty training set")
    params = init_params.copy()
    apply_freeze(params, encoder_cfg, config.freeze)
    optimizer = AdamOptimizer(params, config.optimizer_config())
    rng = np.random.default_rng(config.seed)

    history: list[EpochRecord] = []
    best: Optional[Checkpoint] = None
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        epoch_loss = 0.0
        norms = []
        for doc_i in order:
            doc = train_docs[doc_i]
            # gradients start at zero: the copy has none, and each step zeroes them
            epoch_loss += document_loss(
                doc, params, encoder_cfg, engine_cfg, config.objective, backward=True
            )
            norms.append(optimizer.step(params))
        epoch_loss /= len(train_docs)

        dev_report, dev_preds = evaluate_docs(dev_docs, params, encoder_cfg, engine_cfg)
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
            if extra_eval_docs is not None:
                _, extra_preds = evaluate_docs(extra_eval_docs, params, encoder_cfg, engine_cfg)
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


def check_compatible(source: ParamStore, target: ParamStore) -> None:
    problems = []
    source_names = set(source.names())
    target_names = set(target.names())
    for name in sorted(source_names - target_names):
        problems.append(f"{name}: missing from target")
    for name in sorted(target_names - source_names):
        problems.append(f"{name}: missing from source")
    for name in sorted(source_names & target_names):
        if source.value(name).shape != target.value(name).shape:
            problems.append(
                f"{name}: {source.value(name).shape} vs {target.value(name).shape}"
            )
    if problems:
        raise ShapeMismatchError("incompatible tensors: " + "; ".join(problems))


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
    from .engine import init_params as _init_params

    check_compatible(source_params, _init_params(encoder_cfg, engine_cfg, seed=0))
    if not target_train:
        report, _ = evaluate_docs(target_dev, source_params, encoder_cfg, engine_cfg)
        checkpoint = Checkpoint(source_params.copy(), 0, report.avg_f1)
        return TrainResult(checkpoint=checkpoint, history=[])
    return train(
        target_train, target_dev, source_params, encoder_cfg, engine_cfg, config, **train_kwargs
    )
