import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import (
    Document,
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    TrainConfig,
    init_params,
    synth_corpus,
    train,
)
from corefkit.harness import (
    CorpusSplit,
    DevAllocSpec,
    dev_allocation_experiment,
    forgetting_eval,
    layer_freezing_sweep,
    learning_curve,
    nested_subsets,
)
from corefkit.metrics import score_corpus
from corefkit.numeric import ENCODER_GROUP
from corefkit.training import EpochRecord, evaluate_docs, select_checkpoint
from oracles import oracle_dev_allocation, random_clustering

ENC = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=48)
ENG = EngineConfig(max_span_width=3, scorer_hidden_dim=8, width_embedding_dim=4,
                   pruning_mode="reformulated", max_segment_tokens=48)
FAST = TrainConfig(max_epochs=2, patience=2, seed=0)


def corpus(n=12, seed=31):
    return synth_corpus(
        SchemeConfig(num_docs=n, seed=seed, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )


def split_of(docs, n_train, n_dev, n_test):
    return CorpusSplit(
        train=docs[:n_train],
        dev=docs[n_train : n_train + n_dev],
        test=docs[n_train + n_dev : n_train + n_dev + n_test],
    )


class TestNestedSubsets:
    def test_prefix_inclusion(self):
        docs = corpus(10)
        subsets = nested_subsets(docs, [2, 5, 8], seed=3)
        ids = {s: {d.doc_id for d in v} for s, v in subsets.items()}
        assert ids[2] <= ids[5] <= ids[8]
        assert [len(subsets[s]) for s in (2, 5, 8)] == [2, 5, 8]

    def test_deterministic(self):
        docs = corpus(10)
        a = nested_subsets(docs, [3, 6], seed=1)
        b = nested_subsets(docs, [3, 6], seed=1)
        assert {s: [d.doc_id for d in v] for s, v in a.items()} == {
            s: [d.doc_id for d in v] for s, v in b.items()
        }


class TestLearningCurve:
    def test_rows_and_sizes(self):
        split = split_of(corpus(12), 6, 3, 3)
        rows = learning_curve(split, (2, 4, 6), ENC, ENG, FAST)
        assert [r["train_size"] for r in rows] == [2, 4, 6]
        assert all(0.0 <= r["avg_f1"] <= 1.0 for r in rows)

    def test_size_zero_requires_source(self):
        split = split_of(corpus(12), 6, 3, 3)
        with pytest.raises(ValueError, match="at least one"):
            learning_curve(split, (0,), ENC, ENG, FAST)

    def test_size_zero_with_source_is_zero_shot(self):
        split = split_of(corpus(12), 6, 3, 3)
        source = init_params(ENC, ENG, seed=5)
        rows = learning_curve(split, (0,), ENC, ENG, FAST, source_params=source)
        report, _ = evaluate_docs(split.test, source, ENC, ENG)
        assert rows[0]["avg_f1"] == pytest.approx(report.avg_f1)

    def test_oversized_request_rejected(self):
        split = split_of(corpus(12), 6, 3, 3)
        with pytest.raises(ValueError, match="exceeds"):
            learning_curve(split, (2, 99), ENC, ENG, FAST)

    def test_non_ascending_rejected(self):
        split = split_of(corpus(12), 6, 3, 3)
        with pytest.raises(ValueError, match="ascending"):
            learning_curve(split, (5, 2), ENC, ENG, FAST)

    def test_deterministic_rows(self):
        split = split_of(corpus(12), 6, 3, 3)
        config = dataclasses.replace(FAST, seed=7)
        a = learning_curve(split, (2, 4), ENC, ENG, config)
        b = learning_curve(split, (2, 4), ENC, ENG, config)
        assert a == b

    def test_row_follows_the_given_config(self):
        # objective and seed come from the config alone: the row is a direct
        # train + evaluate under the same config on the same nested subset
        split = split_of(corpus(12), 6, 3, 3)
        config = dataclasses.replace(FAST, objective="antecedent_only", seed=9)
        (row,) = learning_curve(split, (2,), ENC, ENG, config)
        subset = nested_subsets(split.train, [2], seed=9)[2]
        result = train(subset, split.dev, init_params(ENC, ENG, seed=9), ENC, ENG, config)
        report, _ = evaluate_docs(split.test, result.checkpoint.params, ENC, ENG)
        assert row == {
            "train_size": 2,
            "avg_f1": report.avg_f1,
            "mention_f1": report.mention.f1,
            "best_epoch": result.checkpoint.epoch,
            "dev_avg_f1": result.checkpoint.dev_avg_f1,
        }


def fake_history(dev_docs, test_docs, per_epoch_quality):
    """Histories where epoch e predicts gold for the first q_e dev docs."""
    history = []
    for epoch, quality in enumerate(per_epoch_quality, start=1):
        dev_preds = {
            d.doc_id: list(d.clusters) if i < quality else []
            for i, d in enumerate(dev_docs)
        }
        test_preds = {
            d.doc_id: list(d.clusters) if quality > 0 else [] for d in test_docs
        }
        history.append(
            EpochRecord(
                epoch=epoch, train_loss=0.0, dev_avg_f1=0.0,
                dev_predictions=dev_preds, extra_predictions=test_preds,
            )
        )
    return history


class TestDevAllocation:
    def setup_method(self):
        docs = corpus(8, seed=33)
        self.dev = docs[:4]
        self.test = docs[4:6]

    def test_full_subset_reproduces_selection(self):
        history = fake_history(self.dev, self.test, [1, 3, 2, 2, 2])
        rows = dev_allocation_experiment(
            history, self.dev, self.test,
            DevAllocSpec(dev_subset_sizes=(4,), num_subsets=20, seed=0), patience=2,
        )
        (row,) = rows
        assert row["agreement"] == 20
        assert row["std_test_f1"] == 0.0
        assert row["full_dev_epoch"] == 2

    def test_singleton_subsets_constant_scores_zero_std(self):
        history = fake_history(self.dev, self.test, [4, 4, 4])
        rows = dev_allocation_experiment(
            history, self.dev, self.test,
            DevAllocSpec(dev_subset_sizes=(1,), num_subsets=10, seed=0), patience=2,
        )
        assert rows[0]["std_test_f1"] == 0.0

    def test_same_epoch_everywhere_gives_exact_mean_and_zero_std(self):
        # epoch 1 is best on every subset; its test F1 (2/3) is a value that
        # np.mean over 20 copies returns one ulp off
        def record(epoch, dev, test):
            return EpochRecord(
                epoch=epoch, train_loss=0.0, dev_avg_f1=0.0,
                dev_predictions={d.doc_id: dev(d) for d in self.dev},
                extra_predictions={d.doc_id: test(d) for d in self.test},
            )

        history = [record(1, lambda d: list(d.clusters), lambda d: [d.clusters[0]])]
        history += [record(e, lambda d: [], lambda d: []) for e in (2, 3)]
        (row,) = dev_allocation_experiment(
            history, self.dev, self.test,
            DevAllocSpec(dev_subset_sizes=(2,), num_subsets=20, seed=0), patience=2,
        )
        f1 = row["full_dev_test_f1"]
        assert float(np.mean([f1] * 20)) != f1
        assert row["agreement"] == 20
        assert row["expected_test_f1"] == f1
        assert row["std_test_f1"] == 0.0

    def test_missing_cache_rejected(self):
        history = [EpochRecord(epoch=1, train_loss=0.0, dev_avg_f1=0.0)]
        with pytest.raises(ValueError, match="epoch 1 has no cached dev predictions"):
            dev_allocation_experiment(
                history, self.dev, self.test, DevAllocSpec(dev_subset_sizes=(1,)), patience=2
            )

    def test_oversized_subset_rejected(self):
        history = fake_history(self.dev, self.test, [1])
        with pytest.raises(ValueError, match="exceeds"):
            dev_allocation_experiment(
                history, self.dev, self.test, DevAllocSpec(dev_subset_sizes=(9,)), patience=2
            )

    def test_empty_subset_rejected(self):
        history = fake_history(self.dev, self.test, [1])
        with pytest.raises(ValueError, match="size 0 is below 1"):
            dev_allocation_experiment(
                history, self.dev, self.test, DevAllocSpec(dev_subset_sizes=(2, 0)), patience=2
            )

    def test_zero_subsets_rejected(self):
        history = fake_history(self.dev, self.test, [1])
        with pytest.raises(ValueError, match="num_subsets 0 is below 1"):
            dev_allocation_experiment(
                history, self.dev, self.test,
                DevAllocSpec(dev_subset_sizes=(2,), num_subsets=0), patience=2,
            )

    def test_end_to_end_with_real_training(self):
        docs = corpus(10, seed=34)
        split = split_of(docs, 4, 3, 3)
        params = init_params(ENC, ENG, seed=2)
        result = train(
            split.train, split.dev, params, ENC, ENG,
            TrainConfig(max_epochs=3, patience=3, seed=0),
            extra_eval_docs=split.test, cache_predictions=True, early_stop=False,
        )
        rows = dev_allocation_experiment(
            result.history, split.dev, split.test,
            DevAllocSpec(dev_subset_sizes=(2, 3), num_subsets=5, seed=1), patience=3,
        )
        assert len(rows) == 2
        full_scores = [r.dev_avg_f1 for r in result.history]
        best, _ = select_checkpoint(full_scores, 3)
        assert rows[0]["full_dev_epoch"] == best + 1
        assert rows == oracle_dev_allocation(
            result.history, split.dev, split.test,
            DevAllocSpec(dev_subset_sizes=(2, 3), num_subsets=5, seed=1), patience=3,
        )


def random_history(dev_docs, test_docs, epochs, seed):
    """Cached predictions that regroup and drop each document's gold mentions at random.

    When ``test_docs is dev_docs`` both caches share one dict per epoch, as the
    CLI's history does.
    """
    rng = np.random.default_rng(seed)

    def predict(docs):
        return {d.doc_id: random_clustering(rng, sorted(d.mentions()), 4) for d in docs}

    history = []
    for epoch in range(1, epochs + 1):
        dev = predict(dev_docs)
        test = dev if test_docs is dev_docs else predict(test_docs)
        history.append(EpochRecord(epoch=epoch, train_loss=0.0, dev_avg_f1=0.0,
                                   dev_predictions=dev, extra_predictions=test))
    return history


class TestDevAllocationParity:
    """Summing per-document counts gives the rows of re-scoring every subset."""

    def setup_method(self):
        docs = corpus(20, seed=37)
        self.dev = docs[:12]
        self.test = docs[12:]

    def assert_rows_equal(self, history, test_docs, sizes, seed, patience):
        spec = DevAllocSpec(dev_subset_sizes=sizes, num_subsets=15, seed=seed)
        rows = dev_allocation_experiment(history, self.dev, test_docs, spec, patience)
        assert rows == oracle_dev_allocation(history, self.dev, test_docs, spec, patience)
        return rows

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_equal_rescoring_with_early_stopping(self, seed):
        history = random_history(self.dev, self.test, 10, seed)
        full = [score_corpus((d.clusters, r.dev_predictions[d.doc_id]) for d in self.dev).avg_f1
                for r in history]
        _, stop = select_checkpoint(full, 2)
        assert stop < len(history) - 1
        rows = self.assert_rows_equal(history, self.test, (1, 3, 7, 12), seed, patience=2)
        assert rows[-1]["agreement"] == 15

    def test_test_set_is_dev_set(self):
        history = random_history(self.dev, self.dev, 6, 4)
        self.assert_rows_equal(history, self.dev, (2, 12), 4, patience=6)


def _partition(draw, mentions, labels):
    """Clusters of the mentions grouped by drawn label; label -1 leaves a mention out."""
    drawn = draw(st.lists(st.integers(-1, labels), min_size=len(mentions), max_size=len(mentions)))
    groups: dict[int, list] = {}
    for mention, label in zip(mentions, drawn):
        if label >= 0:
            groups.setdefault(label, []).append(mention)
    return [tuple(c) for c in groups.values()]


@st.composite
def studies(draw):
    """A cached history with its dev and test documents, a spec and a patience.

    Gold and predicted clusters may be empty or all singletons, predictions
    may miss every gold mention (p + r == 0) or repeat an earlier epoch's,
    and the test set may be the dev set itself."""
    n_dev = draw(st.integers(1, 5))
    shared = draw(st.integers(0, 2)) == 0
    docs = []
    for i in range(n_dev + (0 if shared else draw(st.integers(0, 3)))):
        mentions = [(t, t) for t in range(draw(st.integers(0, 6)))]
        docs.append(Document(f"d{i}", [["w"] * 8], _partition(draw, mentions, 3)))
    dev = docs[:n_dev]
    test = dev if shared else docs[n_dev:]

    def predict(docs):
        # nothing, or clusters of the gold mentions and of two that no gold cluster has
        return {
            d.doc_id: [] if draw(st.integers(0, 4)) == 0
            else _partition(draw, sorted(d.mentions()) + [(6, 6), (7, 7)], 4)
            for d in docs
        }

    history = []
    for epoch in range(1, draw(st.integers(1, 5)) + 1):
        if history and draw(st.booleans()):
            earlier = draw(st.sampled_from(history))
            dev_preds, test_preds = earlier.dev_predictions, earlier.extra_predictions
        else:
            dev_preds = predict(dev)
            test_preds = dev_preds if shared else predict(test)
        history.append(EpochRecord(epoch=epoch, train_loss=0.0, dev_avg_f1=0.0,
                                   dev_predictions=dev_preds, extra_predictions=test_preds))
    sizes = draw(st.lists(st.integers(1, n_dev), min_size=1, max_size=3))
    spec = DevAllocSpec(tuple(sizes), draw(st.integers(1, 6)), seed=draw(st.integers(0, 1000)))
    return history, dev, test, spec, draw(st.integers(0, len(history)))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(studies())
def test_dev_allocation_rows_equal_rescoring(study):
    assert dev_allocation_experiment(*study) == oracle_dev_allocation(*study)


class TestForgetting:
    def test_size_zero_is_source_score(self):
        docs = corpus(14, seed=35)
        source_params = init_params(ENC, ENG, seed=3)
        source_test = docs[:3]
        target = split_of(docs[3:], 6, 2, 3)
        rows = forgetting_eval(
            source_params, source_test, target, [0, 2], ENC, ENG, ENG, FAST
        )
        base, _ = evaluate_docs(source_test, source_params, ENC, ENG)
        assert rows[0]["target_size"] == 0
        assert rows[0]["source_avg_f1"] == pytest.approx(base.avg_f1)

    def test_target_column_matches_learning_curve(self):
        docs = corpus(14, seed=36)
        source_params = init_params(ENC, ENG, seed=3)
        source_test = docs[:3]
        target = split_of(docs[3:], 6, 2, 3)
        rows = forgetting_eval(
            source_params, source_test, target, [0, 2, 4], ENC, ENG, ENG, FAST
        )
        curve = learning_curve(target, (0, 2, 4), ENC, ENG, FAST, source_params=source_params)
        assert [r["target_avg_f1"] for r in rows] == [r["avg_f1"] for r in curve]


class TestFreezingSweep:
    def test_frozen_encoder_trains_scorers_only(self):
        docs = corpus(10, seed=37)
        split = split_of(docs, 5, 2, 3)
        init = init_params(ENC, ENG, seed=4)
        cfg = TrainConfig(max_epochs=3, patience=3, seed=0)
        run_cfg = dataclasses.replace(cfg, freeze=0)
        result = train(split.train, split.dev, init, ENC, ENG, run_cfg)
        for name, p in init.items():
            if p.group == ENCODER_GROUP:
                assert np.array_equal(result.checkpoint.params.value(name), p.value)
        assert any(
            not np.array_equal(result.checkpoint.params.value(n), init.value(n))
            for n in init.names() if n.startswith("score.")
        )
        losses = [r.train_loss for r in result.history]
        assert losses[-1] < losses[0]

    def test_full_mask_identical_to_unfrozen(self):
        docs = corpus(10, seed=38)
        split = split_of(docs, 5, 2, 3)
        init = init_params(ENC, ENG, seed=4)
        cfg = TrainConfig(max_epochs=2, patience=2, seed=0)
        unfrozen = train(split.train, split.dev, init, ENC, ENG, cfg)
        masked = train(
            split.train, split.dev, init, ENC, ENG,
            dataclasses.replace(cfg, freeze=ENC.num_layers),
        )
        assert [(r.train_loss, r.dev_avg_f1) for r in unfrozen.history] == [
            (r.train_loss, r.dev_avg_f1) for r in masked.history
        ]
        for name in init.names():
            assert np.array_equal(
                unfrozen.checkpoint.params.value(name), masked.checkpoint.params.value(name)
            )

    def test_sweep_rows(self):
        docs = corpus(10, seed=39)
        split = split_of(docs, 4, 3, 3)
        init = init_params(ENC, ENG, seed=4)
        rows = layer_freezing_sweep(split, [0, 1, 2], ENC, ENG, FAST, source_params=init)
        assert [r["top_k"] for r in rows] == [0, 1, 2]
        assert all(0.0 <= r["avg_f1"] <= 1.0 for r in rows)

    def test_out_of_range_top_k(self):
        docs = corpus(10, seed=39)
        split = split_of(docs, 4, 3, 3)
        init = init_params(ENC, ENG, seed=4)
        with pytest.raises(ValueError, match="outside"):
            layer_freezing_sweep(split, [5], ENC, ENG, FAST, source_params=init)
