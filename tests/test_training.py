import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from corefkit import (
    Document,
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    TrainConfig,
    continued_train,
    document_loss,
    evaluate_docs,
    init_params,
    resolve_document,
    segment_document,
    select_checkpoint,
    synth_corpus,
    train,
)
from corefkit.engine import (
    EngineState,
    RowBuffers,
    ffn_backward,
    ffn_forward,
    param_layout,
    plan_document,
    segment_forward,
)
from corefkit.numeric import ENCODER_GROUP, AdamOptimizer, NumericError, grad_check, sigmoid
from corefkit.training import ShapeMismatchError, check_compatible
from oracles import reference_document_loss

ENC = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=32)
ENG = EngineConfig(max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4,
                   pruning_mode="reformulated", max_segment_tokens=32)


def chain_doc():
    """One entity mentioned 8 times in a 15-token sentence, then again in the
    later 16-token segments together with a second entity: long merge chains
    inside one segment, and clusters carried across segment boundaries that
    merge again."""
    text = ["Anna met Anna saw Anna told Anna and Anna met Anna saw Anna told Anna",
            "Bob saw Anna .", "Anna fed Bob .", "Bob and Anna left .", "Then Bob and Anna slept ."]
    sentences = [line.split() for line in text]
    anna = [(t, t) for t in (0, 2, 4, 6, 8, 10, 12, 14, 17, 19, 25, 31)]
    bob = [(t, t) for t in (15, 21, 23, 29)]
    return Document("chain", sentences, [tuple(anna), tuple(bob)])


def zero_scorer(params, scorer, bias=0.0):
    params[f"score.{scorer}.w2"].value[...] = 0.0
    params[f"score.{scorer}.b2"].value[...] = bias


class TestLossWorkedExamples:
    def test_first_mention_contributes_zero(self):
        eng = dataclasses.replace(ENG, gold_mentions=True)
        params = init_params(ENC, eng, seed=0)
        doc = Document("d", [["a", "b"]], [((0, 0),)])
        loss = document_loss(doc, params, ENC, eng, "antecedent_only", backward=False)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_way_symmetric_softmax_gives_ln2(self):
        eng = dataclasses.replace(ENG, gold_mentions=True)
        params = init_params(ENC, eng, seed=0)
        zero_scorer(params, "pair")  # s_a = 0, and s_m = 0 with gold boundaries
        doc = Document("d", [["a", "b"]], [((0, 0), (1, 1))])
        loss = document_loss(doc, params, ENC, eng, "antecedent_only", backward=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_joint_nonmention_ln2(self):
        eng = dataclasses.replace(ENG, pruning_mode="original", prune_ratio=0.4)
        params = init_params(ENC, eng, seed=0)
        zero_scorer(params, "mention")  # s_m = 0 everywhere
        doc = Document("d", [["a", "b"]], [])  # cap = ceil(0.4 * 2) = 1 survivor
        loss = document_loss(doc, params, ENC, eng, "joint_singleton", backward=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_joint_gold_mention_empty_clusters_ln2(self):
        eng = dataclasses.replace(ENG, pruning_mode="original", prune_ratio=0.4)
        params = init_params(ENC, eng, seed=0)
        zero_scorer(params, "mention")
        doc = Document("d", [["a", "b"]], [((0, 0),)])
        # the single survivor is the gold span: -log(sigmoid(0) * 1)
        loss = document_loss(doc, params, ENC, eng, "joint_singleton", backward=False)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_pruned_gold_contributes_detection_term_only(self):
        # n=3, cap=2: survivors are (0,0) and (0,1); gold (2,2) is pruned away
        eng = dataclasses.replace(ENG, pruning_mode="original", prune_ratio=0.5,
                                  max_span_width=2)
        params = init_params(ENC, eng, seed=0)
        zero_scorer(params, "mention", bias=1.0)
        doc = Document("d", [["a", "b", "c"]], [((0, 1), (2, 2))])

        antecedent = document_loss(doc, params, ENC, eng, "antecedent_only", backward=False)
        # surviving gold (0,1) has no surviving antecedent: target is the dummy
        assert antecedent == pytest.approx(0.0, abs=1e-12)

        joint = document_loss(doc, params, ENC, eng, "joint_singleton", backward=False)
        s1 = 1.0 / (1.0 + math.exp(-1.0))
        expected = -math.log(1.0 - s1) - math.log(s1) - math.log(s1)
        assert joint == pytest.approx(expected, abs=1e-12)

    def test_joint_equals_antecedent_with_gold_mentions(self, tiny_doc):
        # with gold boundaries s_m is skipped, so the two objectives coincide
        eng = dataclasses.replace(ENG, gold_mentions=True)
        params = init_params(ENC, eng, seed=3)
        joint = document_loss(tiny_doc, params, ENC, eng, "joint_singleton", backward=False)
        ante = document_loss(tiny_doc, params, ENC, eng, "antecedent_only", backward=False)
        assert joint == pytest.approx(ante, abs=1e-12)


class TestLossProperties:
    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    @pytest.mark.parametrize("mode", ["original", "reformulated"])
    def test_nonnegative_finite(self, objective, mode):
        eng = dataclasses.replace(ENG, pruning_mode=mode)
        params = init_params(ENC, eng, seed=1)
        for doc in synth_corpus(SchemeConfig(num_docs=6, seed=8)):
            loss = document_loss(doc, params, ENC, eng, objective, backward=False)
            assert np.isfinite(loss) and loss >= 0.0

    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    def test_gradcheck_two_sentence_doc(self, objective, tiny_doc):
        params = init_params(ENC, ENG, seed=1)
        err = grad_check(
            lambda backward: document_loss(tiny_doc, params, ENC, ENG, objective, backward=backward),
            params, eps=1e-5, max_scalars=250, seed=5,
        )
        assert err < 1e-4

    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    @pytest.mark.parametrize("gold_mentions", [False, True])
    def test_gradcheck_long_merge_chains(self, objective, gold_mentions):
        # a cluster carried into a later segment is a constant there, so finite
        # differences follow the analytic gradient only inside one segment: the
        # 34-token document is one segment here, with chains of 12 and 4
        # mentions; pruning's cap keeps every candidate it allows, so that
        # predicted mentions walk the chains too
        enc = dataclasses.replace(ENC, max_position=64)
        eng = dataclasses.replace(ENG, gold_mentions=gold_mentions, max_segment_tokens=64, prune_ratio=1.0)
        params = init_params(enc, eng, seed=1)
        assert len(segment_document(chain_doc(), 64)) == 1
        err = grad_check(
            lambda backward: document_loss(chain_doc(), params, enc, eng, objective, backward=backward),
            params, eps=1e-5, max_scalars=250, seed=5,
        )
        assert err < 1e-4

    def test_unknown_objective_rejected(self, tiny_doc):
        params = init_params(ENC, ENG, seed=0)
        with pytest.raises(ValueError, match="objective"):
            document_loss(tiny_doc, params, ENC, ENG, "nonsense")


class TestMatchesPerPairReference:
    # one (C, k) matmul and C separate (1, k) ones differ in the last ulp, so
    # the loss is compared at rtol 1e-12 and every gradient entry within
    # 1e-12 of the largest gradient entry of the document
    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    @pytest.mark.parametrize("mode,gold_mentions", [
        ("original", False), ("reformulated", False), ("original", True),
    ])
    def test_loss_and_gradients(self, monkeypatch, objective, mode, gold_mentions):
        eng = dataclasses.replace(ENG, pruning_mode=mode, gold_mentions=gold_mentions,
                                  max_segment_tokens=16)
        docs = synth_corpus(SchemeConfig(num_docs=3, seed=5, sentences_per_doc=(4, 6),
                                         entities_per_doc=(2, 3), mentions_per_entity=(2, 4)))
        # pruning keeps at most 0.4 of a segment's token count, too few for a
        # chain of 8 mentions in 15 tokens to be walked with predicted mentions
        cases = [(doc, eng) for doc in docs] + [(chain_doc(), dataclasses.replace(eng, prune_ratio=1.0))]
        params = init_params(ENC, eng, seed=3)
        merges = []
        merge = EngineState.merge
        monkeypatch.setattr(EngineState, "merge",
                            lambda state, *a: merges.append(a) or merge(state, *a))
        for doc, doc_eng in cases:
            before = len(merges)
            assert len(segment_document(doc, 16)) > 1
            params.zero_grads()
            loss = document_loss(doc, params, ENC, doc_eng, objective)
            grads = {n: params[n].grad.copy() for n in params.names()}
            params.zero_grads()
            expected = reference_document_loss(doc, params, ENC, doc_eng, objective)
            assert loss == pytest.approx(expected, rel=1e-12)
            scale = max(float(np.abs(params[n].grad).max()) for n in params.names())
            for name in params.names():
                np.testing.assert_allclose(grads[name], params[name].grad, rtol=0,
                                           atol=1e-12 * scale, err_msg=name)
        assert merges
        assert len(merges) - before >= 7  # the chain document, walked last

    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    def test_clusters_past_the_first_capacity(self, objective, growing_doc):
        eng = dataclasses.replace(ENG, gold_mentions=True, max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        loss = document_loss(growing_doc, params, ENC, eng, objective)
        grads = {n: params[n].grad.copy() for n in params.names()}
        params.zero_grads()
        expected = reference_document_loss(growing_doc, params, ENC, eng, objective)
        assert len(growing_doc.clusters) > EngineState.FIRST_CAPACITY
        assert loss == pytest.approx(expected, rel=1e-12)
        scale = max(float(np.abs(params[n].grad).max()) for n in params.names())
        for name in params.names():
            np.testing.assert_allclose(grads[name], params[name].grad, rtol=0,
                                       atol=1e-12 * scale, err_msg=name)


class TestBatchedBackward:
    @pytest.mark.parametrize("gold_mentions", [False, True])
    def test_one_backward_call_per_scorer_per_segment(self, monkeypatch, growing_doc, gold_mentions):
        eng = dataclasses.replace(ENG, gold_mentions=gold_mentions, pruning_mode="original",
                                  prune_ratio=1.0, max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        events = []  # "segment", then the scorer of each backward call inside it

        def recording_forward(*args):
            events.append("segment")
            return segment_forward(*args)

        def recording_backward(params, dscores, cache, *rest):
            events.append(cache[0])
            return ffn_backward(params, dscores, cache, *rest)

        monkeypatch.setattr("corefkit.training.segment_forward", recording_forward)
        monkeypatch.setattr("corefkit.training.ffn_backward", recording_backward)
        document_loss(growing_doc, params, ENC, eng, "joint_singleton")

        per_segment = " ".join(events).split("segment")[1:]
        assert len(per_segment) == len(segment_document(growing_doc, 16)) == 6
        for calls in map(str.split, per_segment):
            assert calls.count("pair") == 1
            # the second half of the document merges into clusters made in the first
            assert calls.count("merge") <= 1
        assert sum(calls.split().count("merge") for calls in per_segment) == 3

    def test_one_pair_forward_call_per_segment(self, monkeypatch, growing_doc):
        eng = dataclasses.replace(ENG, gold_mentions=True, max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        pair_rows = []  # rows of each pair-scorer forward call

        def recording_forward(params, scorer, x, *rest):
            if scorer == "pair":
                pair_rows.append(len(x))
            return ffn_forward(params, scorer, x, *rest)

        monkeypatch.setattr("corefkit.training.ffn_forward", recording_forward)
        document_loss(growing_doc, params, ENC, eng, "antecedent_only")
        # one call per segment, on one row per (span, cluster live before it)
        assert len(pair_rows) == len(segment_document(growing_doc, 16)) == 6
        firsts = [cluster[0] for cluster in growing_doc.clusters]
        assert sum(pair_rows) == sum(sum(f < m for f in firsts) for m in growing_doc.mentions())


class TestPairRowBuffers:
    def test_scorer_rows_in_buffers_equal_fresh_ones(self):
        params = init_params(ENC, ENG, seed=2)
        rng = np.random.default_rng(0)
        buffers = RowBuffers()
        for n in (7, 30, 3):  # grow, then reuse a larger buffer
            x = rng.normal(size=(n, params.value("score.pair.W1").shape[1]))
            dscores = rng.normal(size=n)
            outs = []
            for given in (None, buffers):
                params.zero_grads()
                scores, cache = ffn_forward(params, "pair", x, given)
                dx = ffn_backward(params, dscores, cache, given)
                outs.append((scores, cache[2].copy(), dx.copy(), params.flat_grads().copy()))
            for fresh, held in zip(*outs):
                assert np.array_equal(fresh, held)
            assert np.shares_memory(dx, buffers.take("dx", 1, 1))

    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    def test_held_buffers_leave_losses_and_gradients_unchanged(self, objective, growing_doc, tiny_doc):
        """One RowBuffers held across documents of different sizes, as
        train() holds it, against a fresh one per call."""
        eng = dataclasses.replace(ENG, max_segment_tokens=16, pruning_mode="original", prune_ratio=1.0)
        params = init_params(ENC, eng, seed=3)
        params["score.pair.b2"].value[...] = 1.0  # so that clusters merge
        docs = [growing_doc, tiny_doc, growing_doc]

        def run(buffers):
            out = []
            for doc in docs:
                params.zero_grads()
                loss = document_loss(doc, params, ENC, eng, objective, buffers=buffers)
                out.append((loss, params.flat_grads().copy()))
            return out

        fresh = run(None)
        held = run(RowBuffers())
        for (loss_a, grad_a), (loss_b, grad_b) in zip(fresh, held):
            assert loss_a == loss_b and np.array_equal(grad_a, grad_b)

    def test_train_holds_one_set_only_during_its_steps(self, monkeypatch):
        """Every step of one train() call is passed the same set by keyword,
        and another call passes a set of its own."""
        docs = synth_corpus(SchemeConfig(num_docs=5, seed=4, sentences_per_doc=(2, 3)))
        held = []

        def recording(*args, buffers=None, **kwargs):
            held.append(buffers)
            return document_loss(*args, buffers=buffers, **kwargs)

        monkeypatch.setattr("corefkit.training.document_loss", recording)
        params = init_params(ENC, ENG, seed=0)
        config = TrainConfig(max_epochs=2, patience=2)
        train(docs[:3], docs[3:], params, ENC, ENG, config)
        assert len(held) == 6 and len({id(b) for b in held}) == 1 and isinstance(held[0], RowBuffers)
        train(docs[:3], docs[3:], params, ENC, ENG, config)
        assert len(held) == 12 and held[6] is not held[0] and len({id(b) for b in held[6:]}) == 1


class TestWalkGuards:
    """The teacher-forced walk's finiteness guards, reached through bad parameters."""

    @pytest.mark.parametrize("objective", ["antecedent_only", "joint_singleton"])
    def test_nan_pair_weight_names_the_first_scored_span(self, objective, growing_doc):
        # NaN, since tanh maps an infinite input to a finite 1.0
        eng = dataclasses.replace(ENG, gold_mentions=True, max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        params["score.pair.W1"].value[0, 0] = np.nan
        # the first gold mention starts a cluster; the second is scored against it
        first_scored = sorted(growing_doc.mentions())[1]
        with pytest.raises(NumericError, match=re.escape(f"non-finite loss at span {first_scored}")):
            document_loss(growing_doc, params, ENC, eng, objective)

    def test_nan_pair_weight_names_a_later_kept_span_as_loss(self):
        """Under the joint objective with predicted mentions each kept span has
        a pair term and a mention term; the NaN pair term of a later kept span
        is named as its loss, not as a mention loss."""
        eng = dataclasses.replace(ENG, pruning_mode="original", prune_ratio=1.0, max_span_width=1,
                                  max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        params["score.pair.W1"].value[0, 0] = np.nan
        doc = Document("d", [[f"t{i}" for i in range(8)]], [((0, 0), (5, 5))])
        first = segment_forward(plan_document(doc, ENC, eng).segments[0], params, ENC, eng)
        # every one-token span is kept; (0, 0) starts a cluster, and (1, 1) is scored against it
        assert first.kept == list(range(8))
        with pytest.raises(NumericError, match=re.escape("non-finite loss at span (1, 1)")):
            document_loss(doc, params, ENC, eng, "joint_singleton")

    def test_saturated_mention_sigmoid_names_the_span(self):
        eng = dataclasses.replace(ENG, pruning_mode="original", max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        params["score.mention.w2"].value[...] *= 1e3
        doc = Document("d", [[f"t{i}" for i in range(8)], [f"u{i}" for i in range(8)]],
                       [((0, 0), (9, 9))])
        first = segment_forward(plan_document(doc, ENC, eng).segments[0], params, ENC, eng)
        scores = first.mention_scores[first.kept]
        # finite, so the segment passes its own check, but the sigmoid saturates
        assert np.isfinite(scores).all() and 1e2 < np.abs(scores).max() < 1e4
        # the first kept span whose detection term is infinite
        expected = next(
            first.spans[row] for row, s in zip(first.kept, sigmoid(scores))
            if (s == 0.0 if first.spans[row] in doc.mentions() else s == 1.0)
        )
        # exp overflows and log meets zero on the way, as the saturation intends
        with np.errstate(over="ignore", divide="ignore"), pytest.raises(
            NumericError, match=re.escape(f"non-finite mention loss at span {expected}")
        ):
            document_loss(doc, params, ENC, eng, "joint_singleton")

    def test_dropped_gold_mention_names_its_span(self):
        """Every kept span's terms are finite; a gold mention that pruning
        dropped has an infinite detection term, and the error names it."""
        eng = dataclasses.replace(ENG, pruning_mode="original", max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        # the mention score reads the width embedding alone: 0 for one-token
        # spans, about -7.6e3 for wider ones, whose sigmoid is then 0.0
        d = ENC.hidden_dim
        params["score.mention.W1"].value[...] = 0.0
        params["score.mention.W1"].value[0, 3 * d] = 1.0
        params["span.width_emb"].value[:, 0] = 1.0
        params["span.width_emb"].value[0, 0] = 0.0
        params["score.mention.w2"].value[...] = 0.0
        params["score.mention.w2"].value[0] = -1e4
        doc = Document("d", [[f"t{i}" for i in range(8)]], [((0, 0), (2, 3))])
        first = segment_forward(plan_document(doc, ENC, eng).segments[0], params, ENC, eng)
        # pruning keeps one-token spans only, so the two-token mention is dropped
        assert all(first.spans[row][0] == first.spans[row][1] for row in first.kept)
        assert (2, 3) not in [first.spans[row] for row in first.kept]
        with np.errstate(over="ignore", divide="ignore"), pytest.raises(
            NumericError, match=re.escape("non-finite mention loss at span (2, 3)")
        ):
            document_loss(doc, params, ENC, eng, "joint_singleton")


class TestSelectCheckpoint:
    def test_patience_semantics(self):
        scores = [0.5, 0.6] + [0.6] * 15
        best, stop = select_checkpoint(scores, patience=10)
        assert best == 1
        assert stop == 11  # ten non-improving epochs after the peak

    def test_runs_to_end_without_stall(self):
        best, stop = select_checkpoint([0.1, 0.2, 0.3, 0.4], patience=10)
        assert (best, stop) == (3, 3)

    def test_first_peak_wins_ties(self):
        best, _ = select_checkpoint([0.3, 0.7, 0.7, 0.7], patience=10)
        assert best == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_checkpoint([], patience=5)

    def test_patience_zero_stops_at_the_first_epoch(self):
        assert select_checkpoint([0.1, 0.2, 0.3, 0.2], patience=0) == (0, 0)

    def test_replays_train_early_stopping(self):
        """train() with early stopping runs the epochs, and keeps the best
        epoch, that select_checkpoint picks from the same run's scores."""
        docs = small_corpus()
        init = init_params(ENC, ENG, seed=4)
        # dev F1 ties for two epochs, peaks at the third and then falls
        config = TrainConfig(max_epochs=6, patience=6, seed=0, lr_task=1e-3)
        scores = train(docs[:4], docs[4:], init, ENC, ENG, config, early_stop=False).dev_scores()
        for patience in (0, 1, 2):
            best, stop = select_checkpoint(scores, patience)
            result = train(docs[:4], docs[4:], init, ENC, ENG, dataclasses.replace(config, patience=patience))
            assert len(result.history) == stop + 1
            assert result.checkpoint.epoch == best + 1


def small_corpus():
    return synth_corpus(
        SchemeConfig(num_docs=6, seed=21, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )


class TestTrainLoop:
    @pytest.mark.parametrize("clip_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        with pytest.raises(ValueError, match="clip_norm must be positive"):
            TrainConfig(clip_norm=clip_norm).validate()

    @pytest.mark.parametrize("kwargs,message", [
        ({"lr_task": float("nan")}, "lr_task must be finite and positive"),
        ({"lr_task": float("inf")}, "lr_task must be finite and positive"),
        ({"lr_task": 0.0}, "lr_task must be finite and positive"),
        ({"lr_encoder": float("nan")}, "lr_encoder must be finite and positive"),
        ({"lr_encoder": float("inf")}, "lr_encoder must be finite and positive"),
        ({"lr_encoder": -1e-5}, "lr_encoder must be finite and positive"),
        ({"weight_decay_encoder": -0.5}, "weight_decay_encoder must be finite and >= 0"),
        ({"weight_decay_encoder": float("nan")}, "weight_decay_encoder must be finite and >= 0"),
        ({"weight_decay_encoder": float("inf")}, "weight_decay_encoder must be finite and >= 0"),
    ])
    def test_bad_optimizer_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs).validate()

    def test_infinite_clip_norm_means_no_clipping(self):
        config = TrainConfig(clip_norm=float("inf"), weight_decay_encoder=0.0).validate()
        params = init_params(ENC, ENG, seed=0)
        optimizer = AdamOptimizer(params, config)
        params.flat_grads()[:] = 1e3
        norm = optimizer.step(params)
        assert norm > 1e3
        # unclipped: the first moment is (1 - beta1) times the raw gradient
        assert all(np.allclose(m, 100.0, rtol=1e-15, atol=0) for m in optimizer.m.values())

    @pytest.mark.parametrize("kwargs,message", [
        ({"max_epochs": 0, "patience": 0}, "max_epochs must be >= 1"),
        ({"patience": -3}, "patience must be >= 0"),
        ({"max_epochs": 4, "patience": 5}, "patience must be <= max_epochs"),
    ])
    def test_epoch_bounds_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs).validate()

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective 'joint'"):
            TrainConfig(objective="joint").validate()

    def test_repeated_doc_id_rejected(self):
        docs = small_corpus()
        twin = Document(docs[0].doc_id, docs[1].sentences, docs[1].clusters)
        with pytest.raises(ValueError, match=f"repeated doc_id {docs[0].doc_id!r}"):
            evaluate_docs([docs[0], twin], init_params(ENC, ENG, seed=0), ENC, ENG)

    @pytest.mark.parametrize("where", ["dev", "extra"])
    def test_repeated_eval_doc_id_rejected_before_training(self, monkeypatch, where):
        docs = small_corpus()
        twin = Document(docs[3].doc_id, docs[4].sentences, docs[4].clusters)
        dev, extra = (docs[2:4] + [twin], None) if where == "dev" else (docs[2:4], [docs[3], twin])

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("corefkit.training.document_loss", fail)
        with pytest.raises(ValueError, match=f"repeated doc_id {docs[3].doc_id!r}"):
            train(docs[:2], dev, init_params(ENC, ENG, seed=0), ENC, ENG,
                  TrainConfig(max_epochs=1, patience=1), extra_eval_docs=extra, cache_predictions=True)

    def test_extra_eval_docs_need_cached_predictions(self, monkeypatch):
        docs = small_corpus()

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("corefkit.training.document_loss", fail)
        with pytest.raises(ValueError, match="cache_predictions"):
            train(docs[:2], docs[2:4], init_params(ENC, ENG, seed=0), ENC, ENG,
                  TrainConfig(max_epochs=1, patience=1), extra_eval_docs=docs[4:5])

    def test_empty_train_set_rejected(self):
        params = init_params(ENC, ENG, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train([], [], params, ENC, ENG, TrainConfig())

    def test_empty_dev_set_rejected(self, monkeypatch):
        # every epoch would score 0.0 on it, and the first would be returned as the best
        docs = small_corpus()
        params = init_params(ENC, ENG, seed=0)

        def fail(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr("corefkit.training.document_loss", fail)
        with pytest.raises(ValueError, match="^empty dev set$"):
            train(docs[:2], [], params, ENC, ENG, TrainConfig(max_epochs=1, patience=1))
        for target_train in (docs[:2], []):
            with pytest.raises(ValueError, match="^empty dev set$"):
                continued_train(params, target_train, [], ENC, ENG, TrainConfig(max_epochs=1, patience=1))

    def test_same_seed_identical_history(self):
        docs = small_corpus()
        cfg = TrainConfig(max_epochs=3, patience=3, seed=9)

        def run():
            params = init_params(ENC, ENG, seed=4)
            result = train(docs[:4], docs[4:], params, ENC, ENG, cfg)
            return [(r.epoch, r.train_loss, r.dev_avg_f1) for r in result.history]

        assert run() == run()

    def test_checkpoint_is_running_best(self):
        docs = small_corpus()
        cfg = TrainConfig(max_epochs=5, patience=5, seed=0)
        params = init_params(ENC, ENG, seed=4)
        result = train(docs[:4], docs[4:], params, ENC, ENG, cfg)
        scores = result.dev_scores()
        assert result.checkpoint.dev_avg_f1 == max(scores)
        assert scores[result.checkpoint.epoch - 1] == max(scores)

    def test_early_stop_disabled_runs_all_epochs(self):
        docs = small_corpus()
        cfg = TrainConfig(max_epochs=4, patience=1, seed=0)
        params = init_params(ENC, ENG, seed=4)
        result = train(docs[:4], docs[4:], params, ENC, ENG, cfg, early_stop=False)
        assert len(result.history) == 4

    def test_prediction_caching(self):
        docs = small_corpus()
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0)
        params = init_params(ENC, ENG, seed=4)
        result = train(
            docs[:3], docs[3:5], params, ENC, ENG, cfg,
            extra_eval_docs=docs[5:], cache_predictions=True,
        )
        for record in result.history:
            assert set(record.dev_predictions) == {d.doc_id for d in docs[3:5]}
            assert set(record.extra_predictions) == {d.doc_id for d in docs[5:]}

    def test_loss_decreases_on_average(self):
        docs = small_corpus()[:3]
        cfg = TrainConfig(max_epochs=12, patience=12, seed=0)
        params = init_params(ENC, ENG, seed=4)
        result = train(docs, docs, params, ENC, ENG, cfg)
        losses = [r.train_loss for r in result.history]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_epoch_records_gradient_norms(self):
        """The norm fields summarise the steps' pre-clip norms, and recording
        them leaves losses and F1 as a hand-written epoch loop gives them."""
        docs = small_corpus()
        cfg = TrainConfig(max_epochs=3, patience=3, seed=2, clip_norm=1.0)
        init = init_params(ENC, ENG, seed=4)
        result = train(docs[:4], docs[4:], init, ENC, ENG, cfg)

        params = init.copy()
        optimizer = AdamOptimizer(params, cfg)
        rng = np.random.default_rng(cfg.seed)
        clipped_any = False
        for record in result.history:
            loss, norms = 0.0, []
            for i in rng.permutation(4):
                loss += document_loss(docs[i], params, ENC, ENG, cfg.objective, backward=True)
                norms.append(optimizer.step(params))
            report, _ = evaluate_docs(docs[4:], params, ENC, ENG)
            assert record.train_loss == loss / 4
            assert record.dev_avg_f1 == report.avg_f1
            assert record.grad_norm_mean == sum(norms) / 4
            assert record.grad_norm_max == max(norms)
            assert record.clipped_steps == sum(n > cfg.clip_norm for n in norms)
            clipped_any |= 0 < record.clipped_steps
        assert clipped_any

    def test_init_params_not_mutated(self):
        docs = small_corpus()
        params = init_params(ENC, ENG, seed=4)
        snapshot = {n: params.value(n).copy() for n in params.names()}
        train(docs[:3], docs[3:4], params, ENC, ENG, TrainConfig(max_epochs=1, patience=1))
        assert all(np.array_equal(params.value(n), snapshot[n]) for n in params.names())


class TestContinuedTrain:
    def test_empty_target_returns_source_eval(self):
        docs = small_corpus()
        params = init_params(ENC, ENG, seed=4)
        result = continued_train(params, [], docs[:2], ENC, ENG, TrainConfig())
        assert result.checkpoint.epoch == 0
        assert result.history == []
        report, _ = evaluate_docs(docs[:2], params, ENC, ENG)
        assert result.checkpoint.dev_avg_f1 == pytest.approx(report.avg_f1)

    def test_shape_mismatch_lists_tensors(self):
        params = init_params(ENC, ENG, seed=4)
        other_enc = dataclasses.replace(ENC, hidden_dim=16)
        with pytest.raises(ShapeMismatchError, match="enc.0.W"):
            continued_train(params, [], [], other_enc, ENG, TrainConfig())

    def test_check_compatible_reports_missing(self):
        enc3 = dataclasses.replace(ENC, num_layers=3)
        with pytest.raises(ShapeMismatchError, match="^two layers: enc.2.W: missing from the tensors"):
            check_compatible(init_params(ENC, ENG), param_layout(enc3, ENG), "two layers")
        with pytest.raises(ShapeMismatchError, match="^three layers: enc.2.W: missing from the configs"):
            check_compatible(init_params(enc3, ENG), param_layout(ENC, ENG), "three layers")
        check_compatible(init_params(ENC, ENG), param_layout(ENC, ENG), "same")

    def test_builds_no_model(self, monkeypatch):
        docs = small_corpus()
        params = init_params(ENC, ENG, seed=4)

        def fail(*args, **kwargs):
            raise AssertionError("continued_train drew a model")

        monkeypatch.setattr("corefkit.engine.init_params", fail)
        result = continued_train(params, [], docs[:2], ENC, ENG, TrainConfig())
        assert result.checkpoint.epoch == 0

    def test_frozen_tensors_bit_equal_after_continued_training(self):
        docs = small_corpus()
        params = init_params(ENC, ENG, seed=4)
        cfg = TrainConfig(max_epochs=2, patience=2, freeze=0, seed=0)
        result = continued_train(params, docs[:3], docs[3:4], ENC, ENG, cfg)
        for name, p in params.items():
            if p.group == ENCODER_GROUP:
                assert np.array_equal(result.checkpoint.params.value(name), p.value), name

    def test_self_transfer_does_not_degrade(self):
        docs = synth_corpus(
            SchemeConfig(num_docs=10, seed=23, sentences_per_doc=(2, 3),
                         entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
        )
        eng = dataclasses.replace(ENG, scorer_hidden_dim=32)
        params = init_params(ENC, eng, seed=4)
        cfg = TrainConfig(max_epochs=30, patience=30, seed=0)
        source = train(docs[:8], docs[8:], params, ENC, eng, cfg)
        continued = continued_train(
            source.checkpoint.params, docs[:8], docs[8:], ENC, eng,
            dataclasses.replace(cfg, max_epochs=10, patience=10),
        )
        assert continued.checkpoint.dev_avg_f1 >= source.checkpoint.dev_avg_f1 - 0.02


class TestSharedSegmentPipeline:
    @pytest.mark.parametrize("gold_mentions", [False, True])
    def test_loss_and_resolve_see_the_same_candidates(self, monkeypatch, gold_mentions):
        eng = dataclasses.replace(ENG, pruning_mode="original", max_segment_tokens=16,
                                  gold_mentions=gold_mentions)
        doc = synth_corpus(SchemeConfig(num_docs=1, seed=5, sentences_per_doc=(5, 5),
                                        entities_per_doc=(3, 3), mentions_per_entity=(2, 4)))[0]
        params = init_params(ENC, eng, seed=3)
        seen = []

        def recording(*args):
            seen.append(segment_forward(*args))
            return seen[-1]

        monkeypatch.setattr("corefkit.engine.segment_forward", recording)
        monkeypatch.setattr("corefkit.training.segment_forward", recording)
        document_loss(doc, params, ENC, eng, "joint_singleton", backward=True)
        from_loss = list(seen)
        seen.clear()
        resolve_document(doc, params, ENC, eng)

        assert len(from_loss) == len(seen) == len(segment_document(doc, 16)) > 1
        assert sum(len(f.kept) for f in from_loss if f is not None) > 0
        for a, b in zip(from_loss, seen):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.spans == b.spans
                assert a.kept == b.kept
                np.testing.assert_array_equal(a.xs, b.xs)
                np.testing.assert_array_equal(a.mention_scores, b.mention_scores)


class TestPlansBuiltOncePerCall:
    DOCS = SchemeConfig(num_docs=9, seed=4, sentences_per_doc=(3, 5), entities_per_doc=(2, 3),
                        mentions_per_entity=(1, 3))

    def test_train_segments_each_document_once(self, monkeypatch):
        eng = dataclasses.replace(ENG, max_segment_tokens=16)
        docs = synth_corpus(self.DOCS)
        assert all(len(segment_document(doc, 16)) > 1 for doc in docs)
        segmented = []

        def counting(doc, max_len):
            segmented.append(doc.doc_id)
            return segment_document(doc, max_len)

        # wherever the program holds a reference to it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "corefkit" and getattr(module, "segment_document", None) is segment_document:
                monkeypatch.setattr(module, "segment_document", counting)
        result = train(docs[:4], docs[4:7], init_params(ENC, eng, seed=0), ENC, eng,
                       TrainConfig(max_epochs=3, patience=3), extra_eval_docs=docs[7:],
                       cache_predictions=True)
        assert len(result.history) == 3 and result.history[-1].extra_predictions
        # T + D + E documents, each once, across three epochs
        assert sorted(segmented) == sorted(doc.doc_id for doc in docs)

    @pytest.mark.parametrize("gold_mentions", [False, True])
    def test_a_plan_gives_what_its_document_gives(self, gold_mentions):
        eng = dataclasses.replace(ENG, max_segment_tokens=16, gold_mentions=gold_mentions,
                                  pruning_mode="original")
        docs = synth_corpus(self.DOCS)
        plans = [plan_document(doc, ENC, eng) for doc in docs]
        params = init_params(ENC, eng, seed=3)
        params["score.pair.b2"].value[...] = 1.0  # so that clusters merge
        for doc, plan in zip(docs, plans):
            losses, grads = [], []
            for given in (doc, plan):
                params.zero_grads()
                losses.append(document_loss(given, params, ENC, eng, "joint_singleton"))
                grads.append(params.flat_grads().copy())
            assert losses[0] == losses[1]
            assert np.array_equal(grads[0], grads[1]) and grads[0].any()
            assert resolve_document(doc, params, ENC, eng) == resolve_document(plan, params, ENC, eng)
        assert evaluate_docs(docs, params, ENC, eng) == evaluate_docs(plans, params, ENC, eng)
        assert any(len(c) > 1 for c in resolve_document(plans[0], params, ENC, eng))

    def test_a_plan_for_other_configs_is_rejected(self):
        doc = synth_corpus(self.DOCS)[0]
        plan = plan_document(doc, ENC, ENG)
        params = init_params(ENC, ENG, seed=0)
        other = dataclasses.replace(ENG, max_span_width=2)
        with pytest.raises(ValueError, match="plan was built for other configs"):
            resolve_document(plan, params, ENC, other)
        with pytest.raises(ValueError, match="plan was built for other configs"):
            document_loss(plan, params, ENC, other, "joint_singleton")
