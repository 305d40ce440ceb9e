"""Acceptance suite: each test prints one pass/fail line for its criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The heavyweight transfer fixtures (a 200-document source model) are
built once and shared by the transfer-benefit and forgetting criteria.
"""

import dataclasses
import time

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
    parse_conll,
    parse_jsonl,
    resolve_document,
    score_corpus,
    select_checkpoint,
    synth_corpus,
    train,
    write_conll,
    write_jsonl,
)
from corefkit.bundled import load_bundled_doc
from corefkit.engine import prune_cap, prune_spans, span_dim
from corefkit.harness import DevAllocSpec, dev_allocation_experiment
from corefkit.numeric import ENCODER_GROUP, grad_check
from oracles import oracle_b_cubed, oracle_ceaf, oracle_muc, random_clustering, structurally_equal


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1-2: metrics against brute force
# ---------------------------------------------------------------------------


def test_01_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mentions = [f"m{i}" for i in range(8)]
    worst = 0.0
    for _ in range(500):
        key = random_clustering(rng, mentions, 7)
        response = random_clustering(rng, mentions, 7)
        ours = score_corpus([(key, response)])
        for name, oracle in (
            ("muc", oracle_muc),
            ("b_cubed", oracle_b_cubed),
            ("ceaf_phi4", oracle_ceaf),
        ):
            p, r, f = oracle(key, response)
            got = getattr(ours, name)
            worst = max(
                worst,
                abs(got.precision - p),
                abs(got.recall - r),
                abs(got.f1 - f),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        "metric oracle equivalence on 500 random clusterings",
        worst <= 1e-12 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_worked_metric_case():
    key = [{"a", "b", "c"}]
    response = [{"a", "b"}, {"c"}]
    got = score_corpus([(key, response)])
    checks = [
        abs(got.muc.f1 - 2.0 / 3.0),
        abs(got.b_cubed.precision - 1.0),
        abs(got.b_cubed.recall - 5.0 / 9.0),
        abs(got.ceaf_phi4.recall - 0.8),
        abs(got.ceaf_phi4.precision - 0.4),
    ]
    report(2, "worked metric case {{a,b,c}} vs {{a,b},{c}}", max(checks) <= 1e-12,
           f"max abs err {max(checks):.2e}")


# ---------------------------------------------------------------------------
# 3: gradient verification
# ---------------------------------------------------------------------------


def test_03_gradient_verification():
    start = time.perf_counter()
    doc = load_bundled_doc()
    encoder_cfg = EncoderConfig()
    variants = [
        ("joint_singleton", EngineConfig(pruning_mode="reformulated"), 1),
        ("antecedent_only", EngineConfig(pruning_mode="original"), 1),
        ("joint_singleton", EngineConfig(gold_mentions=True), 1),
        ("antecedent_only", EngineConfig(gold_mentions=True), 1),
    ]
    worst = 0.0
    details = []
    for objective, engine_cfg, seed in variants:
        params = init_params(encoder_cfg, engine_cfg, seed=seed)
        loss = document_loss(doc, params, encoder_cfg, engine_cfg, objective, backward=False)
        assert loss > 0.5, f"degenerate setup for {objective}: loss {loss}"
        err = grad_check(
            lambda backward: document_loss(
                doc, params, encoder_cfg, engine_cfg, objective, backward=backward
            ),
            params, eps=1e-5, max_scalars=220, seed=seed,
        )
        worst = max(worst, err)
        details.append(f"{objective[:5]}:{err:.1e}")
    elapsed = time.perf_counter() - start
    report(3, "analytic vs finite-difference gradients",
           worst < 1e-4 and elapsed < 60.0,
           f"{' '.join(details)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4: overfit sanity
# ---------------------------------------------------------------------------


def test_04_overfit_sanity():
    start = time.perf_counter()
    docs = synth_corpus(
        SchemeConfig(num_docs=5, seed=1, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )
    encoder_cfg = EncoderConfig()
    engine_cfg = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                              scorer_hidden_dim=256)
    params = init_params(encoder_cfg, engine_cfg, seed=0)
    result = train(docs, docs, params, encoder_cfg, engine_cfg,
                   TrainConfig(seed=0, objective="joint_singleton"))
    elapsed = time.perf_counter() - start
    score = result.checkpoint.dev_avg_f1
    report(4, "overfit 5 synthetic documents with the joint objective",
           score >= 0.95 and elapsed < 300.0,
           f"train avg F1 {score:.4f} at epoch {result.checkpoint.epoch}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5-6: transfer benefit and catastrophic forgetting (shared source model)
# ---------------------------------------------------------------------------

SRC_ENC = EncoderConfig(num_layers=2, hidden_dim=16, hash_vocab_size=2048, max_position=128)
SRC_ENG = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                       scorer_hidden_dim=128, width_embedding_dim=8)
TGT_ENG = dataclasses.replace(SRC_ENG, pruning_mode="original")


@pytest.fixture(scope="module")
def transfer_setup():
    src_scheme = SchemeConfig(num_docs=230, seed=100, sentences_per_doc=(2, 4),
                              entities_per_doc=(2, 3), mentions_per_entity=(1, 4))
    src = synth_corpus(src_scheme)
    start = time.perf_counter()
    source = train(
        src[:200], src[200:215], init_params(SRC_ENC, SRC_ENG, seed=0),
        SRC_ENC, SRC_ENG, TrainConfig(seed=0, objective="joint_singleton"),
    )
    shifted = synth_corpus(
        SchemeConfig(num_docs=45, seed=200, sentences_per_doc=(3, 5),
                     entities_per_doc=(2, 3), mentions_per_entity=(2, 5),
                     annotate_singletons=False,
                     allowed_entity_types=frozenset({"person"}))
    )
    identical = synth_corpus(dataclasses.replace(src_scheme, num_docs=30, seed=300))
    return {
        "source": source,
        "source_test": src[215:230],
        "shifted": shifted,
        "identical": identical,
        "source_train_seconds": time.perf_counter() - start,
    }


def test_05_transfer_benefit(transfer_setup):
    start = time.perf_counter()
    source = transfer_setup["source"]
    shifted = transfer_setup["shifted"]
    pool, dev, test = shifted[:20], shifted[20:30], shifted[30:45]
    wins = []
    scores = []
    for seed in (0, 1, 2):
        config = TrainConfig(seed=seed, objective="joint_singleton")
        transfer = continued_train(
            source.checkpoint.params, pool[:5], dev, SRC_ENC, TGT_ENG, config
        )
        t_rep, _ = evaluate_docs(test, transfer.checkpoint.params, SRC_ENC, TGT_ENG)
        scratch = train(
            pool[:5], dev, init_params(SRC_ENC, TGT_ENG, seed=seed + 10),
            SRC_ENC, TGT_ENG, config,
        )
        s_rep, _ = evaluate_docs(test, scratch.checkpoint.params, SRC_ENC, TGT_ENG)
        wins.append(t_rep.avg_f1 > s_rep.avg_f1)
        scores.append(f"{t_rep.avg_f1:.3f}>{s_rep.avg_f1:.3f}")
    elapsed = time.perf_counter() - start + transfer_setup["source_train_seconds"]
    report(5, "continued training beats scratch at 5 target documents, 3 of 3 seeds",
           all(wins) and elapsed < 1800.0,
           f"{' '.join(scores)}, {elapsed:.0f}s incl. source training")


def test_06_catastrophic_forgetting(transfer_setup):
    start = time.perf_counter()
    source = transfer_setup["source"]
    source_test = transfer_setup["source_test"]
    shifted = transfer_setup["shifted"]
    identical = transfer_setup["identical"]
    config = TrainConfig(seed=0, objective="joint_singleton")

    base_rep, _ = evaluate_docs(source_test, source.checkpoint.params, SRC_ENC, SRC_ENG)
    run_shift = continued_train(
        source.checkpoint.params, shifted[:20], shifted[20:30], SRC_ENC, TGT_ENG, config
    )
    shift_rep, _ = evaluate_docs(source_test, run_shift.checkpoint.params, SRC_ENC, SRC_ENG)
    run_ident = continued_train(
        source.checkpoint.params, identical[:20], identical[20:30], SRC_ENC, SRC_ENG, config
    )
    ident_rep, _ = evaluate_docs(source_test, run_ident.checkpoint.params, SRC_ENC, SRC_ENG)

    drop_shift = base_rep.avg_f1 - shift_rep.avg_f1
    drop_ident = base_rep.avg_f1 - ident_rep.avg_f1
    elapsed = time.perf_counter() - start + transfer_setup["source_train_seconds"]
    report(6, "scheme-shifted continued training forgets the source",
           shift_rep.avg_f1 < base_rep.avg_f1 and drop_ident < drop_shift and elapsed < 1800.0,
           f"base {base_rep.avg_f1:.3f}, shifted {shift_rep.avg_f1:.3f}, "
           f"identical {ident_rep.avg_f1:.3f}, {elapsed:.0f}s incl. source training")


# ---------------------------------------------------------------------------
# 7: freeze contract
# ---------------------------------------------------------------------------


def test_07_freeze_contract():

    start = time.perf_counter()
    enc = EncoderConfig(num_layers=3, hidden_dim=16, hash_vocab_size=512, max_position=64)
    eng = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                       scorer_hidden_dim=64, width_embedding_dim=8, max_segment_tokens=64)
    docs = synth_corpus(
        SchemeConfig(num_docs=10, seed=61, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )
    split_train, split_dev = docs[:7], docs[7:]
    init = init_params(enc, eng, seed=0)

    def dev_loss(params):
        return float(np.mean([
            document_loss(d, params, enc, eng, "joint_singleton", backward=False)
            for d in split_dev
        ]))

    frozen_cfg = TrainConfig(max_epochs=15, patience=15, seed=0, freeze=0)
    frozen_run = train(split_train, split_dev, init, enc, eng, frozen_cfg)
    encoder_identical = all(
        np.array_equal(frozen_run.checkpoint.params.value(n), p.value)
        for n, p in init.items() if p.group == ENCODER_GROUP
    )
    loss_before = dev_loss(init)
    loss_after = dev_loss(frozen_run.checkpoint.params)

    base_cfg = TrainConfig(max_epochs=4, patience=4, seed=0)
    full_cfg = dataclasses.replace(base_cfg, freeze=enc.num_layers)
    run_a = train(split_train, split_dev, init, enc, eng, base_cfg)
    run_b = train(split_train, split_dev, init, enc, eng, full_cfg)
    bit_identical = all(
        np.array_equal(run_a.checkpoint.params.value(n), run_b.checkpoint.params.value(n))
        for n in init.names()
    ) and [r.train_loss for r in run_a.history] == [r.train_loss for r in run_b.history]

    elapsed = time.perf_counter() - start
    report(7, "freeze contract: frozen encoder bit-identical, top-k=L same as unfrozen",
           encoder_identical and loss_after < loss_before and bit_identical and elapsed < 600.0,
           f"dev loss {loss_before:.2f}->{loss_after:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8: dev-allocation exactness
# ---------------------------------------------------------------------------


def test_08_dev_allocation_exactness():
    enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=256, max_position=64)
    eng = EngineConfig(max_span_width=3, pruning_mode="reformulated",
                       scorer_hidden_dim=32, width_embedding_dim=4, max_segment_tokens=64)
    docs = synth_corpus(
        SchemeConfig(num_docs=20, seed=62, sentences_per_doc=(2, 3),
                     entities_per_doc=(2, 2), mentions_per_entity=(2, 3))
    )
    split_train, split_dev, split_test = docs[:6], docs[6:14], docs[14:]
    config = TrainConfig(max_epochs=12, patience=4, seed=0)
    result = train(
        split_train, split_dev, init_params(enc, eng, seed=0), enc, eng, config,
        extra_eval_docs=split_test, cache_predictions=True, early_stop=False,
    )
    full_scores = result.dev_scores()
    original_best, _ = select_checkpoint(full_scores, config.patience)

    rows = dev_allocation_experiment(
        result.history, split_dev, split_test,
        DevAllocSpec(dev_subset_sizes=(2, 4, 8), num_subsets=20, seed=0),
        patience=config.patience,
    )
    full_row = rows[-1]
    tables_ok = all(
        np.isfinite(r["expected_test_f1"]) and np.isfinite(r["std_test_f1"])
        and 0 <= r["agreement"] <= 20
        for r in rows
    )
    report(8, "post-hoc selection with the full dev subset reproduces early stopping",
           full_row["agreement"] == 20
           and full_row["full_dev_epoch"] == original_best + 1
           and full_row["std_test_f1"] == 0.0
           and tables_ok,
           f"agreement {full_row['agreement']}/20 at epoch {full_row['full_dev_epoch']}")


# ---------------------------------------------------------------------------
# 9-10: pruning invariants and format round trips
# ---------------------------------------------------------------------------


def test_09_pruning_invariants():
    rng = np.random.default_rng(63)
    ok = prune_cap(0.4, 10) == 4
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        spans = [(i, i) for i in range(n)]
        scores = rng.normal(size=n)
        ratio = float(rng.uniform(0.1, 1.0))
        original = prune_spans(np.array(spans), scores, ratio, n, "original")
        reformulated = prune_spans(np.array(spans), scores, ratio, n, "reformulated")
        cap = prune_cap(ratio, n)
        ok = ok and set(reformulated) <= set(original)
        ok = ok and len(original) <= cap and len(reformulated) <= cap
        ok = ok and all(scores[i] > 0 for i in reformulated)
        if not ok:
            break
    report(9, "reformulated pruning is a subset of original; caps respected", ok)


def test_10_format_round_trips():
    docs = synth_corpus(SchemeConfig(num_docs=100, seed=64))
    crafted = [
        Document("nested", [["a", "b", "c", "d"]], [((0, 2), (1, 2), (1, 1))]),
        Document("stacked", [["a", "b", "c"]], [((0, 1),), ((0, 0),), ((0, 2),)]),
        Document("crossing", [["a", "b", "c"]], [((0, 1), (1, 2))]),
        Document("empty", [["a", "b"]], []),
    ]
    every = docs + crafted
    via_conll = parse_conll(write_conll(every))
    via_jsonl = parse_jsonl(write_jsonl(every))
    ok = len(via_conll) == len(via_jsonl) == len(every)
    for orig, c, j in zip(every, via_conll, via_jsonl):
        ok = ok and structurally_equal(c, orig) and structurally_equal(j, orig)
    conll_text = write_conll(every)
    ok = ok and write_conll(parse_conll(conll_text)) == conll_text
    report(10, "CoNLL and JSONL round trips on 100 synthetic plus crafted documents", ok)


# ---------------------------------------------------------------------------
# 11: constant-memory probe
# ---------------------------------------------------------------------------


def test_11_constant_memory_probe():
    enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=256, max_position=16)
    eng = EngineConfig(max_span_width=2, pruning_mode="reformulated",
                       scorer_hidden_dim=8, width_embedding_dim=4,
                       max_segment_tokens=8, gold_mentions=True)
    params = init_params(enc, eng, seed=0)

    sentences = []
    mentions = {0: [], 1: [], 2: []}
    for s in range(50):
        base = s * 8
        sentences.append([f"ent{k}" for k in range(3)] + ["w", "x", "y", "z", "q"])
        for k in range(3):
            mentions[k].append((base + k, base + k))
    doc = Document("probe", sentences, [tuple(v) for v in mentions.values()])
    gold = {m: e for e, cluster in enumerate(doc.clusters) for m in cluster}

    sizes = []
    predicted = resolve_document(
        doc, params, enc, eng,
        pair_score_fn=lambda span, x, c: 1.0 if gold.get(c.mentions[0]) == gold.get(span) else -1.0,
        alpha_fn=lambda span, x, c: 0.5,
        on_segment=lambda i, state: sizes.append(state.float_state_size()),
    )
    tail = sizes[-40:]
    ok = (
        len(sizes) == 50
        and len(set(tail)) == 1
        and tail[0] == 3 * span_dim(enc, eng)
        and sorted(predicted) == sorted(doc.clusters)
    )
    report(11, "retained engine state constant over the final 40 segments", ok,
           f"state sizes {sorted(set(sizes))}")
