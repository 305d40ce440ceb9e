"""Experiment protocols: learning curves, dev-set allocation, forgetting, freezing.

Every experiment is deterministic under ``TrainConfig.seed`` and returns plain
row dicts ready for CSV. Training subsets are nested: the corpus is shuffled
once and size-s runs take the first s documents, so larger training sets are
always supersets of smaller ones.

Where training starts is given by ``source_params`` alone: a source model's
parameters mean continued training from it, and ``None`` means training from
``init_params(encoder_cfg, engine_cfg, seed=config.seed)``.

The dev-set allocation study scores each distinct cached (gold, predicted)
pair once, then sums and scores all subsets of one size as one array block:
a subset costs a few array operations and one select_checkpoint pass.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .documents import Document
from .encoder import EncoderConfig
from .engine import EngineConfig, init_params
from .metrics import avg_f1_totals, coref_stats
from .numeric import ParamStore
from .training import (
    EpochRecord,
    TrainConfig,
    continued_train,
    evaluate_docs,
    select_checkpoint,
    train,
)


@dataclass(frozen=True)
class CorpusSplit:
    train: list[Document]
    dev: list[Document]
    test: list[Document]


@dataclass(frozen=True)
class DevAllocSpec:
    dev_subset_sizes: tuple[int, ...]
    num_subsets: int = 20
    seed: int = 0

    def validate(self, dev_size: int) -> "DevAllocSpec":
        for size in self.dev_subset_sizes:
            if size < 1:
                raise ValueError(f"dev subset size {size} is below 1")
            if size > dev_size:
                raise ValueError(f"subset size {size} exceeds dev set size {dev_size}")
        if self.num_subsets < 1:
            raise ValueError(f"num_subsets {self.num_subsets} is below 1")
        return self


def nested_subsets(docs: Sequence[Document], sizes: Sequence[int], seed: int) -> dict[int, list[Document]]:
    """Size -> document prefix after one seeded shuffle (supersets by construction)."""
    for size in sizes:
        if not 0 <= size <= len(docs):
            raise ValueError(f"train size {size} is below 0 or exceeds the pool of {len(docs)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(docs))
    shuffled = [docs[i] for i in order]
    return {int(s): shuffled[: int(s)] for s in sizes}


def _train_and_test(source_params, train_docs, split, encoder_cfg, engine_cfg, config):
    """(test report, checkpoint) of continued training from ``source_params``,
    or of training from scratch without it, selected on ``split.dev``."""
    if source_params is not None:
        result = continued_train(source_params, train_docs, split.dev, encoder_cfg, engine_cfg, config)
    elif not train_docs:
        raise ValueError("scratch training needs at least one document")
    else:
        params = init_params(encoder_cfg, engine_cfg, seed=config.seed)
        result = train(train_docs, split.dev, params, encoder_cfg, engine_cfg, config)
    report, _ = evaluate_docs(split.test, result.checkpoint.params, encoder_cfg, engine_cfg)
    return report, result.checkpoint


def learning_curve(
    split: CorpusSplit,
    sizes: Sequence[int],
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    config: TrainConfig,
    source_params: Optional[ParamStore] = None,
) -> list[dict]:
    """One model per training-set size; test scores per size.

    The size-s training set is a prefix of every larger one, drawn under
    ``config.seed``. With ``source_params``, size 0 evaluates the source model
    zero-shot.
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("train sizes must be ascending")
    subsets = nested_subsets(split.train, sizes, config.seed)

    def run(size: int) -> dict:
        report, best = _train_and_test(source_params, subsets[size], split, encoder_cfg, engine_cfg, config)
        return {
            "train_size": size,
            "avg_f1": report.avg_f1,
            "mention_f1": report.mention.f1,
            "best_epoch": best.epoch,
            "dev_avg_f1": best.dev_avg_f1,
        }

    return [run(int(size)) for size in sizes]


def _stats_from_cached(
    history: Sequence[EpochRecord], docs: Sequence[Document], which: str, scored: dict
) -> np.ndarray:
    """(docs, epochs, 3, 4) counts of the cached predictions: their
    ``coref_stats``, the document_stats rows that avg F1 reads.

    ``scored`` maps gold clusters to {predicted clusters: counts}, so each
    document's gold side is built once for all its distinct predictions, and
    a pair that repeats across epochs, or in both the dev and the test set,
    is scored once.
    """
    ids = {d.doc_id for d in docs}
    per_epoch = []
    for record in history:
        cached = record.dev_predictions if which == "dev" else record.extra_predictions
        if cached is None:
            raise ValueError(
                f"epoch {record.epoch} has no cached {which} predictions; "
                "train with cache_predictions=True"
            )
        missing = ids - set(cached)
        if missing:
            raise ValueError(f"missing cached predictions for {sorted(missing)}")
        per_epoch.append(cached)
    stats = np.zeros((len(docs), len(history), 3, 4))
    for d, doc in enumerate(docs):
        known = scored.setdefault(tuple(map(tuple, doc.clusters)), {})
        preds = [tuple(map(tuple, cached[doc.doc_id])) for cached in per_epoch]
        new = list(dict.fromkeys(pred for pred in preds if pred not in known))
        known.update(zip(new, coref_stats(doc.clusters, new)))
        for e, pred in enumerate(preds):
            stats[d, e] = known[pred]
    return stats


def _subset_f1(stats: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """(subsets, epochs) avg F1 of the document subsets in the rows of ``chosen``.

    Each subset's counts are added one document at a time, in its drawn
    order, which is the order score_corpus adds documents in.
    """
    totals = np.zeros((len(chosen),) + stats.shape[1:])
    for column in chosen.T:
        totals += stats[column]
    return avg_f1_totals(totals)


def dev_allocation_experiment(
    history: Sequence[EpochRecord],
    dev_docs: Sequence[Document],
    test_docs: Sequence[Document],
    spec: DevAllocSpec,
    patience: int,
) -> list[dict]:
    """Post-hoc checkpoint selection with sampled dev subsets.

    For each subset size, ``num_subsets`` subsets are sampled independently
    (overlap across samples allowed, no replacement within a subset). Early
    stopping is replayed on the subset's per-epoch scores; the table reports
    the mean/std of the test score at the selected checkpoints and how many
    subsets agreed with the full-dev selection.
    """
    spec.validate(len(dev_docs))
    scored: dict = {}
    dev_stats = _stats_from_cached(history, dev_docs, "dev", scored)
    test_stats = _stats_from_cached(history, test_docs, "extra", scored)

    # the whole test and dev sets, each one subset in index order
    test_f1 = _subset_f1(test_stats, np.arange(len(test_docs))[None])[0].tolist()
    full_dev_f1 = _subset_f1(dev_stats, np.arange(len(dev_docs))[None])[0].tolist()
    full_best, _ = select_checkpoint(full_dev_f1, patience)

    rng = np.random.default_rng(spec.seed)
    rows = []
    for size in spec.dev_subset_sizes:
        chosen = np.array(
            [rng.choice(len(dev_docs), size=int(size), replace=False) for _ in range(spec.num_subsets)]
        )
        selected_test = []
        agreement = 0
        for scores in _subset_f1(dev_stats, chosen).tolist():
            best, _ = select_checkpoint(scores, patience)
            selected_test.append(test_f1[best])
            agreement += int(best == full_best)
        rows.append(
            {
                "subset_size": int(size),
                # exact rational sums: identical scores give back the score and 0.0
                "expected_test_f1": statistics.mean(selected_test),
                "std_test_f1": statistics.pstdev(selected_test),
                "agreement": agreement,
                "num_subsets": spec.num_subsets,
                "full_dev_epoch": full_best + 1,
                "full_dev_test_f1": test_f1[full_best],
            }
        )
    return rows


def forgetting_eval(
    source_params: ParamStore,
    source_test: Sequence[Document],
    target_split: CorpusSplit,
    sizes: Sequence[int],
    encoder_cfg: EncoderConfig,
    source_engine_cfg: EngineConfig,
    target_engine_cfg: EngineConfig,
    config: TrainConfig,
) -> list[dict]:
    """Continued training per target size, scoring both target and source tests.

    Size 0 is the untouched source model. Target training subsets are nested
    under ``config.seed``, matching learning_curve with the same seed.
    """
    subsets = nested_subsets(target_split.train, sizes, config.seed)

    def run(size: int) -> dict:
        target_report, best = _train_and_test(
            source_params, subsets[size], target_split, encoder_cfg, target_engine_cfg, config
        )
        source_report, _ = evaluate_docs(source_test, best.params, encoder_cfg, source_engine_cfg)
        return {
            "target_size": int(size),
            "target_avg_f1": target_report.avg_f1,
            "source_avg_f1": source_report.avg_f1,
        }

    return [run(int(s)) for s in sizes]


def layer_freezing_sweep(
    split: CorpusSplit,
    top_k_values: Sequence[int],
    encoder_cfg: EncoderConfig,
    engine_cfg: EngineConfig,
    config: TrainConfig,
    source_params: Optional[ParamStore] = None,
) -> list[dict]:
    """One training run per number of trainable top layers; scorers always train."""
    for k in top_k_values:
        if not (0 <= k <= encoder_cfg.num_layers):
            raise ValueError(f"top_k {k} outside [0, {encoder_cfg.num_layers}]")

    def run(top_k: int) -> dict:
        run_config = dataclasses.replace(config, freeze=top_k)
        report, best = _train_and_test(source_params, split.train, split, encoder_cfg, engine_cfg, run_config)
        return {
            "top_k": top_k,
            "avg_f1": report.avg_f1,
            "mention_f1": report.mention.f1,
            "best_epoch": best.epoch,
        }

    return [run(int(k)) for k in top_k_values]
