"""Brute-force reference implementations used to verify the metrics.

These deliberately use different machinery than the library: MUC via
union-find connected components, B-cubed via per-mention loops, CEAF and the
assignment solver via explicit permutation enumeration. The dev-set
allocation reference re-scores every sampled subset from cluster lists.
"""

import itertools
import math
import statistics

import numpy as np

from corefkit.metrics import phi4, score_corpus
from corefkit.training import select_checkpoint


def oracle_muc_side(clusters, other):
    num = den = 0
    for cluster in clusters:
        members = sorted(cluster)
        parent = {m: m for m in members}

        def find(m):
            while parent[m] != m:
                parent[m] = parent[parent[m]]
                m = parent[m]
            return m

        for x, y in itertools.combinations(members, 2):
            if any(x in oc and y in oc for oc in other):
                parent[find(x)] = find(y)
        components = len({find(m) for m in members})
        num += len(cluster) - components
        den += len(cluster) - 1
    return num, den


def _prf(pn, pd, rn, rd):
    p = pn / pd if pd else 0.0
    r = rn / rd if rd else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_muc(key, response):
    rn, rd = oracle_muc_side(key, response)
    pn, pd = oracle_muc_side(response, key)
    return _prf(pn, pd, rn, rd)


def oracle_b_cubed_side(clusters, other):
    total = 0.0
    count = 0
    for cluster in clusters:
        for m in cluster:
            own = next(c for c in clusters if m in c)
            theirs = next((c for c in other if m in c), set())
            total += len(own & theirs) / len(own)
            count += 1
    return total, count


def oracle_b_cubed(key, response):
    rn, rd = oracle_b_cubed_side(key, response)
    pn, pd = oracle_b_cubed_side(response, key)
    return _prf(pn, pd, rn, rd)


def oracle_ceaf(key, response):
    key = [frozenset(c) for c in key]
    response = [frozenset(c) for c in response]
    if not key or not response:
        return 0.0, 0.0, 0.0
    if len(key) <= len(response):
        small, large = key, response
    else:
        small, large = response, key
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        total = sum(phi4(small[i], large[j]) for i, j in enumerate(perm))
        best = max(best, total)
    return _prf(best, len(response), best, len(key))


def oracle_assignment_total(matrix):
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    if rows > cols:
        return oracle_assignment_total(matrix.T)
    best = -math.inf
    for perm in itertools.permutations(range(cols), rows):
        for subset in itertools.product([0, 1], repeat=rows):
            total = sum(
                matrix[i, j] if keep else 0.0
                for (i, j), keep in zip(enumerate(perm), subset)
            )
            best = max(best, total)
    return best


def random_clustering(rng, mentions, max_clusters):
    chosen = [m for m in mentions if rng.random() < 0.8]
    rng.shuffle(chosen)
    if not chosen:
        return []
    k = rng.integers(1, min(max_clusters, len(chosen)) + 1)
    cuts = (
        sorted(rng.choice(range(1, len(chosen)), size=k - 1, replace=False))
        if k > 1
        else []
    )
    clusters = []
    prev = 0
    for cut in list(cuts) + [len(chosen)]:
        clusters.append(set(chosen[prev:cut]))
        prev = cut
    return [c for c in clusters if c]


def oracle_dev_allocation(history, dev_docs, test_docs, spec, patience):
    """dev_allocation_experiment by re-scoring each subset at each epoch."""

    def subset_score(cached_epoch, docs):
        return score_corpus((doc.clusters, cached_epoch[doc.doc_id]) for doc in docs).avg_f1

    dev_cached = [record.dev_predictions for record in history]
    test_cached = [record.extra_predictions for record in history]
    full_scores = [subset_score(epoch, dev_docs) for epoch in dev_cached]
    full_best, _ = select_checkpoint(full_scores, patience)

    rng = np.random.default_rng(spec.seed)
    rows = []
    for size in spec.dev_subset_sizes:
        selected_test = []
        agreement = 0
        for _ in range(spec.num_subsets):
            chosen = rng.choice(len(dev_docs), size=int(size), replace=False)
            subset = [dev_docs[i] for i in chosen]
            scores = [subset_score(epoch, subset) for epoch in dev_cached]
            best, _ = select_checkpoint(scores, patience)
            selected_test.append(subset_score(test_cached[best], test_docs))
            agreement += int(best == full_best)
        rows.append(
            {
                "subset_size": int(size),
                "expected_test_f1": statistics.mean(selected_test),
                "std_test_f1": statistics.pstdev(selected_test),
                "agreement": agreement,
                "num_subsets": spec.num_subsets,
                "full_dev_epoch": full_best + 1,
                "full_dev_test_f1": subset_score(test_cached[full_best], test_docs),
            }
        )
    return rows
