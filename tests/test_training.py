import dataclasses
import math
import re

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
from corefkit.encoder import FreezeMask
from corefkit.engine import EngineState, ffn_backward, ffn_forward, param_layout, segment_forward
from corefkit.numeric import ENCODER_GROUP, AdamOptimizer, NumericError, grad_check, sigmoid
from corefkit.training import ShapeMismatchError, check_compatible
from oracles import reference_document_loss

ENC = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=32)
ENG = EngineConfig(max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4,
                   pruning_mode="reformulated", max_segment_tokens=32)


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
        params = init_params(ENC, eng, seed=3)
        merges = []
        merge = EngineState.merge
        monkeypatch.setattr(EngineState, "merge",
                            lambda state, *a: merges.append(a) or merge(state, *a))
        for doc in docs:
            assert len(segment_document(doc, 16)) > 1
            params.zero_grads()
            loss = document_loss(doc, params, ENC, eng, objective)
            grads = {n: params[n].grad.copy() for n in params.names()}
            params.zero_grads()
            expected = reference_document_loss(doc, params, ENC, eng, objective)
            assert loss == pytest.approx(expected, rel=1e-12)
            scale = max(float(np.abs(params[n].grad).max()) for n in params.names())
            for name in params.names():
                np.testing.assert_allclose(grads[name], params[name].grad, rtol=0,
                                           atol=1e-12 * scale, err_msg=name)
        assert merges

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

        def recording_backward(params, dscores, cache):
            events.append(cache[0])
            return ffn_backward(params, dscores, cache)

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

        def recording_forward(params, scorer, x):
            if scorer == "pair":
                pair_rows.append(len(x))
            return ffn_forward(params, scorer, x)

        monkeypatch.setattr("corefkit.training.ffn_forward", recording_forward)
        document_loss(growing_doc, params, ENC, eng, "antecedent_only")
        # one call per segment, on one row per (span, cluster live before it)
        assert len(pair_rows) == len(segment_document(growing_doc, 16)) == 6
        firsts = [cluster[0] for cluster in growing_doc.clusters]
        assert sum(pair_rows) == sum(sum(f < m for f in firsts) for m in growing_doc.mentions())


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

    def test_saturated_mention_sigmoid_names_the_span(self):
        eng = dataclasses.replace(ENG, pruning_mode="original", max_segment_tokens=16)
        params = init_params(ENC, eng, seed=3)
        params["score.mention.w2"].value[...] *= 1e3
        doc = Document("d", [[f"t{i}" for i in range(8)], [f"u{i}" for i in range(8)]],
                       [((0, 0), (9, 9))])
        first = segment_forward(doc, segment_document(doc, 16)[0], params, ENC, eng)
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


def small_corpus():
    return synth_corpus(
        SchemeConfig(num_docs=6, seed=21, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )


class TestTrainLoop:
    @pytest.mark.parametrize("clip_norm", [0.0, -1.0])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        with pytest.raises(ValueError, match="clip_norm must be positive"):
            TrainConfig(clip_norm=clip_norm).validate()

    def test_empty_train_set_rejected(self):
        params = init_params(ENC, ENG, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train([], [], params, ENC, ENG, TrainConfig())

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
        optimizer = AdamOptimizer(params, cfg.optimizer_config())
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
        cfg = TrainConfig(max_epochs=2, patience=2, freeze=FreezeMask(0), seed=0)
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
