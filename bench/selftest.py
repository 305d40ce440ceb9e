"""Self-test of the benchmark's checks: each passes on good output and fails on a corrupted one.

    python3 bench/selftest.py

Runs in a few seconds from a checkout; exits non-zero and names the check
that let a corruption through, or that rejected good output.
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from corefkit import (  # noqa: E402
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    TrainConfig,
    document_loss,
    init_params,
    resolve_document,
    synth_corpus,
    train,
)
from corefkit.bundled import load_bundled_doc  # noqa: E402
from corefkit.harness import DevAllocSpec, dev_allocation_experiment  # noqa: E402

import checks  # noqa: E402
import scorer  # noqa: E402

ENC = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=256, max_position=64)
ENG = EngineConfig(max_span_width=3, pruning_mode="reformulated", scorer_hidden_dim=16,
                   width_embedding_dim=4, max_segment_tokens=64)

problems: list[str] = []


def expect(name: str, failures: list[str], should_fail: bool) -> None:
    if bool(failures) != should_fail:
        problems.append(f"{name}: {'passed a corrupted output' if should_fail else failures}")


def assignment_matches_brute_force() -> None:
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        w = rng.integers(0, 4, size=(n, m)) / 3.0
        pairs = scorer.max_weight_assignment(w.tolist())
        got = sum(w[i, j] for i, j in pairs)
        if n <= m:
            best = max(sum(w[i, p[i]] for i in range(n)) for p in itertools.permutations(range(m), n))
        else:
            best = max(sum(w[p[j], j] for j in range(m)) for p in itertools.permutations(range(n), m))
        if abs(got - best) > 1e-12 or len(pairs) != min(n, m):
            problems.append(f"assignment {w.tolist()}: {got} vs brute force {best}")
            return


def moved_mention(clusters):
    """Move the last mention of the first multi-mention cluster into another cluster."""
    out = [list(c) for c in clusters]
    src = next(i for i, c in enumerate(out) if len(c) > 1)
    dst = (src + 1) % len(out)
    out[dst].append(out[src].pop())
    return [tuple(c) for c in out]


def main() -> int:
    expect("scorer hand cases", checks.scorer_cases(), False)
    assignment_matches_brute_force()

    docs = synth_corpus(SchemeConfig(num_docs=14, seed=5, sentences_per_doc=(2, 3),
                                     entities_per_doc=(2, 3), mentions_per_entity=(2, 3)))
    tr, dev, test = docs[:4], docs[4:9], docs[9:]
    result = train(tr, dev, init_params(ENC, ENG, seed=0), ENC, ENG,
                   TrainConfig(max_epochs=4, patience=4, seed=0, lr_task=2e-3),
                   extra_eval_docs=test, cache_predictions=True, early_stop=False)

    # scores: a mention moved to another cluster, an F1 shifted by 1e-3
    gold = [d.clusters for d in dev]
    report = scorer.score(zip(gold, gold))
    expect("F1 of exact output", checks.f1_matches("exact", {"avg_f1": report["avg_f1"]}, zip(gold, gold)), False)
    expect("F1 shifted by 1e-3", checks.f1_matches("shift", {"avg_f1": report["avg_f1"] + 1e-3}, zip(gold, gold)), True)
    moved = [moved_mention(g) for g in gold]
    expect("F1 after a moved mention", checks.f1_matches("moved", {"avg_f1": report["avg_f1"]}, zip(gold, moved)), True)
    expect("oracle with a moved mention", checks.gold_clusters_reproduced("o", dev[0], moved[0]), True)
    expect("oracle exact", checks.gold_clusters_reproduced("o", dev[0], gold[0]), False)

    # cluster shape
    doc = dev[0]
    predicted = resolve_document(doc, result.checkpoint.params, ENC, ENG)
    expect("resolved clusters", checks.clusters_valid("c", doc, predicted, 3, True), False)
    first_len = len(doc.sentences[0])
    for name, bad, keeps in (
        ("span across sentences", [((first_len - 1, first_len),)], True),
        ("span too wide", [((0, 3),)], True),
        ("mention in two clusters", [((0, 0), (1, 1)), ((1, 1), (2, 2))], True),
        ("singleton the config drops", [((0, 0),)], False),
    ):
        expect(name, checks.clusters_valid("c", doc, bad, 3, keeps), True)
    renamed = copy.deepcopy(dev)
    renamed[1].doc_id = "other"
    expect("document id changed", checks.same_documents("d", dev, renamed), True)
    expect("state size off by one", checks.state_is_constant_memory("m", [(40, 2), (61, 3)], 20), True)
    expect("state size exact", checks.state_is_constant_memory("m", [(40, 2), (60, 3)], 20), False)

    # losses and gradients: a loss that rises, a gradient scaled by 1.01
    expect("loss rising", checks.loss_decreases("l", [2.0, 2.5, 2.1]), True)
    expect("loss falling", checks.loss_decreases("l", [r.train_loss for r in result.history]), False)
    bundled = load_bundled_doc()
    params = init_params(ENC, ENG, seed=1)

    def loss(backward, scale=1.0):
        value = document_loss(bundled, params, ENC, ENG, "joint_singleton", backward=backward)
        if backward:
            for _, p in params.items():
                p.grad *= scale
        return value

    expect("gradient", checks.gradients_match("g", loss, params, 40, 0), False)
    expect("gradient scaled by 1.01",
           checks.gradients_match("g", lambda backward: loss(backward, 1.01), params, 40, 0), True)

    # dev-set allocation table
    sizes = (2, 5)
    rows = dev_allocation_experiment(result.history, dev, test, DevAllocSpec(sizes, 10, seed=0), patience=2)
    dev_scores = [r.dev_avg_f1 for r in result.history]
    test_f1 = [scorer.score((d.clusters, r.extra_predictions[d.doc_id]) for d in test)["avg_f1"]
               for r in result.history]

    def table(rows):
        return checks.devalloc_rows("t", rows, sizes, 10, len(dev), dev_scores, test_f1, 2)

    expect("dev allocation table", table(rows), False)
    for field, change in (
        ("agreement", lambda r: r["agreement"] - 1),
        ("full_dev_epoch", lambda r: r["full_dev_epoch"] % len(dev_scores) + 1),
        ("full_dev_test_f1", lambda r: r["full_dev_test_f1"] + 1e-3),
        ("std_test_f1", lambda r: r["std_test_f1"] + 1e-3),
        ("expected_test_f1", lambda r: r["expected_test_f1"] + 1e-3),
    ):
        bad = copy.deepcopy(rows)
        bad[-1][field] = change(bad[-1])
        expect(f"full-dev row with {field} changed", table(bad), True)
    bad = copy.deepcopy(rows)
    bad[0]["expected_test_f1"] = max(test_f1) + 1e-3
    expect("expected test F1 above every epoch", table(bad), True)
    bad = copy.deepcopy(rows)
    bad[0]["std_test_f1"] = (max(test_f1) - min(test_f1)) / 2 + 1e-3
    expect("std above half the range", table(bad), True)

    for line in problems:
        print(f"FAIL: {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
