"""Coreference scores computed without corefkit.metrics.

The benchmark re-scores every F1 the program reports with this module. It
shares no code with the program:

- MUC counts, per cluster, the connected components its mentions fall into
  when two mentions are linked if the other side puts them in one cluster;
  mentions the other side lacks are components of their own (Vilain et al.
  1995).
- B-cubed is summed per mention (Bagga and Baldwin 1998).
- CEAF-phi4 aligns clusters one-to-one with the Hungarian algorithm written
  below, not with scipy (Luo 2005).
- Corpus scores sum per-document numerators and denominators, the way the
  reference scorer does (Pradhan et al. 2014).
"""

from __future__ import annotations

from typing import Iterable, Sequence

METRICS = ("muc", "b_cubed", "ceaf_phi4", "mention", "exact_cluster")


def _clusters(clustering: Iterable[Iterable]) -> list[frozenset]:
    return [frozenset(c) for c in clustering if len(frozenset(c)) > 0]


def _owner(clusters: Sequence[frozenset]) -> dict:
    return {m: i for i, c in enumerate(clusters) for m in c}


def _muc_side(clusters: Sequence[frozenset], other: Sequence[frozenset]) -> tuple[int, int]:
    owner = _owner(other)
    num = den = 0
    for cluster in clusters:
        parent = {m: m for m in cluster}

        def find(m):
            while parent[m] != m:
                parent[m] = parent[parent[m]]
                m = parent[m]
            return m

        first_in = {}
        for m in cluster:
            o = owner.get(m)
            if o is None:
                continue
            if o in first_in:
                parent[find(m)] = find(first_in[o])
            else:
                first_in[o] = m
        components = len({find(m) for m in cluster})
        num += len(cluster) - components
        den += len(cluster) - 1
    return num, den


def _b_cubed_side(clusters: Sequence[frozenset], other: Sequence[frozenset]) -> tuple[float, int]:
    own = {m: c for c in clusters for m in c}
    theirs = {m: c for c in other for m in c}
    empty = frozenset()
    num = 0.0
    for m, c in own.items():
        num += len(c & theirs.get(m, empty)) / len(c)
    return num, len(own)


def max_weight_assignment(weights: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """Row-to-column pairs of a one-to-one assignment of maximum total weight.

    Shortest augmenting paths with row and column potentials (Kuhn-Munkres),
    O(n^2 m) for n rows and m columns. Rectangular input is fine; every row of
    the shorter side is assigned.
    """
    n = len(weights)
    m = len(weights[0]) if n else 0
    if n == 0 or m == 0:
        return []
    transposed = n > m
    if transposed:
        weights = [list(col) for col in zip(*weights)]
        n, m = m, n
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j]: 1-based row assigned to column j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = weights[i0 - 1]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = -row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    pairs = [(match[j] - 1, j - 1) for j in range(1, m + 1) if match[j]]
    if transposed:
        pairs = [(c, r) for r, c in pairs]
    return sorted(pairs)


def _ceaf_phi4(key: Sequence[frozenset], resp: Sequence[frozenset]) -> tuple[float, int, float, int]:
    sim = [[2.0 * len(k & r) / (len(k) + len(r)) for r in resp] for k in key]
    total = sum(sim[i][j] for i, j in max_weight_assignment(sim))
    return total, len(resp), total, len(key)


def document_counts(key, response) -> dict[str, tuple]:
    """Metric -> (p_num, p_den, r_num, r_den) for one document."""
    k, r = _clusters(key), _clusters(response)
    muc_r = _muc_side(k, r)
    muc_p = _muc_side(r, k)
    b3_r = _b_cubed_side(k, r)
    b3_p = _b_cubed_side(r, k)
    km = {m for c in k for m in c}
    rm = {m for c in r for m in c}
    hits = len(km & rm)
    exact = len(set(k) & set(r))
    return {
        "muc": (muc_p[0], muc_p[1], muc_r[0], muc_r[1]),
        "b_cubed": (b3_p[0], b3_p[1], b3_r[0], b3_r[1]),
        "ceaf_phi4": _ceaf_phi4(k, r),
        "mention": (hits, len(rm), hits, len(km)),
        "exact_cluster": (exact, len(set(r)), exact, len(set(k))),
    }


def prf(p_num, p_den, r_num, r_den) -> tuple[float, float, float]:
    p = p_num / p_den if p_den > 0 else 0.0
    r = r_num / r_den if r_den > 0 else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def score(pairs: Iterable[tuple]) -> dict:
    """Corpus scores for (key, response) clusterings: metric -> (p, r, f1), plus avg_f1."""
    totals = {name: [0.0, 0.0, 0.0, 0.0] for name in METRICS}
    for key, response in pairs:
        for name, counts in document_counts(key, response).items():
            for i, c in enumerate(counts):
                totals[name][i] += c
    out = {name: prf(*totals[name]) for name in METRICS}
    out["avg_f1"] = (out["muc"][2] + out["b_cubed"][2] + out["ceaf_phi4"][2]) / 3.0
    return out
