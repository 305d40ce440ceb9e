"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass. The
checks compare against `scorer` (written apart from the program) or against
properties the method must have. None compares against a stored copy of an
earlier output, and floats are compared with a tolerance wherever summation
order could change them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

import scorer

F1_TOL = 1e-9
# the tolerance and step of the acceptance suite's gradient criterion
GRAD_TOL = 1e-4
GRAD_EPS = 1e-5


def scorer_cases() -> list[str]:
    """The independent scorer against hand-worked cases."""
    failures = []

    def expect(label, got, want):
        if abs(got - want) > 1e-12:
            failures.append(f"scorer case {label}: got {got!r}, want {want!r}")

    s = scorer.score([([{"a", "b", "c"}], [{"a", "b"}, {"c"}])])
    expect("muc f1", s["muc"][2], 2 / 3)
    expect("b_cubed p", s["b_cubed"][0], 1.0)
    expect("b_cubed r", s["b_cubed"][1], 5 / 9)
    expect("ceaf r", s["ceaf_phi4"][1], 0.8)
    expect("ceaf p", s["ceaf_phi4"][0], 0.4)
    expect("mention f1", s["mention"][2], 1.0)
    # a mention the response lacks is its own MUC component: {a,b,c} vs {a,b}
    s = scorer.score([([{"a", "b", "c"}], [{"a", "b"}])])
    expect("muc r, missing mention", s["muc"][1], 0.5)
    expect("muc p, missing mention", s["muc"][0], 1.0)
    expect("mention r, missing mention", s["mention"][1], 2 / 3)
    # two documents: corpus scores sum numerators and denominators
    s = scorer.score([([{"a", "b"}], [{"a", "b"}]), ([{"c", "d", "e"}], [{"c"}, {"d"}, {"e"}])])
    expect("corpus muc r", s["muc"][1], 1 / 3)
    expect("corpus muc p", s["muc"][0], 1.0)
    # identical clusterings score 1 everywhere
    s = scorer.score([([{1, 2}, {3}], [{3}, {2, 1}])])
    expect("identity avg", s["avg_f1"], 1.0)
    expect("identity exact", s["exact_cluster"][2], 1.0)
    # empty response: everything 0 (no division by zero)
    s = scorer.score([([{1, 2}], [])])
    expect("empty response avg", s["avg_f1"], 0.0)
    # assignment: the greedy pick (0,0) is not optimal
    pairs = scorer.max_weight_assignment([[0.9, 0.8], [0.7, 0.0]])
    if pairs != [(0, 1), (1, 0)]:
        failures.append(f"assignment case: got {pairs}")
    return failures


def f1_matches(label: str, reported: dict, pairs) -> list[str]:
    """Reported scores, as metric -> f1 plus avg_f1, against the independent scorer."""
    ref = scorer.score(pairs)
    failures = []
    for name, value in reported.items():
        want = ref["avg_f1"] if name == "avg_f1" else ref[name][2]
        if not abs(value - want) <= F1_TOL:
            failures.append(f"{label}: {name} reported {value!r}, independent {want!r}")
    return failures


def report_f1s(report) -> dict:
    """Every F1 of a corefkit MetricReport."""
    out = {name: getattr(report, name).f1 for name in scorer.METRICS}
    out["avg_f1"] = report.avg_f1
    return out


def loss_decreases(label: str, losses: Sequence[float]) -> list[str]:
    if len(losses) < 2 or not losses[-1] < losses[0]:
        return [f"{label}: training loss did not fall from the first to the last epoch: {list(losses)}"]
    return []


def replay_early_stopping(scores: Sequence[float], patience: int) -> int:
    """Index of the first best score seen before `patience` epochs pass without a gain."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
        elif i - best >= patience:
            break
    return best


def clusters_valid(label: str, doc, clusters, max_width: int, keeps_singletons: bool) -> list[str]:
    """Spans lie in one sentence and within the width bound; clusters are disjoint."""
    failures = []
    sentence_of = []
    for i, sent in enumerate(doc.sentences):
        sentence_of.extend([i] * len(sent))
    seen = set()
    for cluster in clusters:
        if not cluster:
            failures.append(f"{label}: {doc.doc_id} has an empty cluster")
        if len(cluster) == 1 and not keeps_singletons:
            failures.append(f"{label}: {doc.doc_id} has singleton {cluster} but the config drops them")
        for span in cluster:
            s, e = span
            if not (0 <= s <= e < len(sentence_of)):
                failures.append(f"{label}: {doc.doc_id} span {span} out of range")
                continue
            if sentence_of[s] != sentence_of[e]:
                failures.append(f"{label}: {doc.doc_id} span {span} crosses a sentence")
            if e - s + 1 > max_width:
                failures.append(f"{label}: {doc.doc_id} span {span} wider than {max_width}")
            if span in seen:
                failures.append(f"{label}: {doc.doc_id} span {span} in two clusters")
            seen.add(span)
    return failures


def same_documents(label: str, inputs, outputs) -> list[str]:
    """Output documents keep the input ids, order and tokens."""
    if [d.doc_id for d in inputs] != [d.doc_id for d in outputs]:
        return [f"{label}: document ids changed"]
    return [
        f"{label}: tokens of {a.doc_id} changed"
        for a, b in zip(inputs, outputs)
        if a.sentences != b.sentences
    ]


def gold_clusters_reproduced(label: str, doc, predicted) -> list[str]:
    want = sorted(tuple(sorted(c)) for c in doc.clusters)
    got = sorted(tuple(sorted(c)) for c in predicted)
    if want != got:
        return [f"{label}: oracle resolution of {doc.doc_id} differs from gold"]
    return []


def state_is_constant_memory(label: str, sizes: Sequence[tuple[int, int]], span_dim: int) -> list[str]:
    """After each segment, retained floats == live clusters x span dim."""
    return [
        f"{label}: segment {i} keeps {floats} floats for {n} clusters of dim {span_dim}"
        for i, (floats, n) in enumerate(sizes)
        if floats != n * span_dim
    ]


def gradients_match(label: str, loss_fn: Callable[..., float], params, scalars: int, seed: int) -> list[str]:
    """Central finite differences on sampled scalars against the analytic gradient.

    Half the sample is drawn from scalars with a nonzero analytic gradient,
    so the check is not dominated by unused embedding rows.
    """
    params.zero_grads()
    loss = float(loss_fn(backward=True))
    analytic = {name: p.grad.copy() for name, p in params.items()}
    params.zero_grads()
    if not np.isfinite(loss):
        return [f"{label}: non-finite loss {loss}"]
    coords = [(name, i) for name, g in analytic.items() for i in range(g.size)]
    nonzero = [(name, i) for name, i in coords if analytic[name].flat[i] != 0.0]
    if not nonzero:
        return [f"{label}: every analytic gradient is zero"]
    rng = np.random.default_rng(seed)
    half = scalars // 2
    picked = [nonzero[k] for k in rng.choice(len(nonzero), size=min(half, len(nonzero)), replace=False)]
    picked += [coords[k] for k in rng.choice(len(coords), size=scalars - len(picked), replace=False)]
    worst = 0.0
    for name, i in picked:
        flat = params[name].value.reshape(-1)
        original = flat[i]
        flat[i] = original + GRAD_EPS
        plus = float(loss_fn(backward=False))
        flat[i] = original - GRAD_EPS
        minus = float(loss_fn(backward=False))
        flat[i] = original
        numeric = (plus - minus) / (2 * GRAD_EPS)
        a = float(analytic[name].flat[i])
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
    if not worst < GRAD_TOL:
        return [f"{label}: finite-difference relative error {worst:.2e} >= {GRAD_TOL}"]
    return []


def devalloc_rows(
    label: str,
    rows: Sequence[dict],
    sizes: Sequence[int],
    num_subsets: int,
    n_dev: int,
    dev_scores: Sequence[float],
    test_f1: Sequence[float],
    patience: int,
) -> list[str]:
    """Properties of a dev-set allocation table.

    `dev_scores` are the history's per-epoch dev F1s; `test_f1` the per-epoch
    test F1s from the independent scorer.
    """
    failures = []
    if [r["subset_size"] for r in rows] != list(sizes):
        return [f"{label}: rows for sizes {[r['subset_size'] for r in rows]}, asked {list(sizes)}"]
    lo, hi = min(test_f1), max(test_f1)
    best = replay_early_stopping(dev_scores, patience)
    for r in rows:
        tag = f"{label} size {r['subset_size']}"
        if r["num_subsets"] != num_subsets or not 0 <= r["agreement"] <= num_subsets:
            failures.append(f"{tag}: agreement {r['agreement']}/{r['num_subsets']}")
        if not lo - F1_TOL <= r["expected_test_f1"] <= hi + F1_TOL:
            failures.append(f"{tag}: expected test F1 {r['expected_test_f1']} outside [{lo}, {hi}]")
        if not 0.0 <= r["std_test_f1"] <= (hi - lo) / 2 + F1_TOL:
            failures.append(f"{tag}: std {r['std_test_f1']} above half the range {hi - lo}")
        if r["full_dev_epoch"] != best + 1:
            failures.append(f"{tag}: full-dev epoch {r['full_dev_epoch']}, replay gives {best + 1}")
        if not abs(r["full_dev_test_f1"] - test_f1[best]) <= F1_TOL:
            failures.append(f"{tag}: full-dev test F1 {r['full_dev_test_f1']}, independent {test_f1[best]}")
    full = rows[-1]
    if full["subset_size"] != n_dev:
        failures.append(f"{label}: largest subset {full['subset_size']} is not the dev set ({n_dev})")
    elif full["agreement"] != num_subsets:
        failures.append(f"{label}: full-dev agreement {full['agreement']}/{num_subsets}")
    elif not (abs(full["std_test_f1"]) <= F1_TOL
              and abs(full["expected_test_f1"] - full["full_dev_test_f1"]) <= F1_TOL):
        failures.append(f"{label}: full-dev row spread {full['std_test_f1']}, "
                        f"{full['expected_test_f1']} vs {full['full_dev_test_f1']}")
    return failures
